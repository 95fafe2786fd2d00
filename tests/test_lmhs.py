from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

import reference_lmhs
from conftest import direct_sum
from hodgecalc import lmhs
from hodgecalc.errors import NoSolution, NotMHS
from hodgecalc.lmhs import (
    CheckResult, PolarizedOrbitSpec, associated_graded_orbit, deligne_bigrading,
    hermitian_psd_status, stratum_hodge_numbers, verify_polarized_lmhs,
)
from hodgecalc.matrices import Mat, sub_conj, sub_equal, sub_zero
from hodgecalc.rationals import GaussianRational
from hodgecalc.schemas import fixture_names, load_fixture
from hodgecalc.weightfilt import grading_splitting, weight_filtration

ORBIT_FIXTURES = [name for name in fixture_names() if load_fixture(name).kind == "orbit"]


I = GaussianRational(0, 1)


def test_pure_elliptic_bigrading():
    q = Mat.from_rows([[0, 1], [-1, 0]])
    wf = weight_filtration(Mat.zeros(2, 2), 1)
    flag = (Mat.from_rows([[I, 1]]), Mat.identity(2))
    bi = deligne_bigrading(wf, flag)
    assert bi.hodge_numbers() == {(1, 0): 1, (0, 1): 1}
    assert bi.r_split and bi.effective


def test_dollar_bill_full_bigrading(dollar_bill):
    wf, bi = dollar_bill.lmhs()
    assert bi.hodge_numbers() == {(1, 1): 2, (0, 0): 2}
    assert bi.r_split and bi.effective


def test_dollar_bill_stratum3_bigrading(dollar_bill):
    # along the third axis alone the elliptic factor survives: all four
    # pieces are one-dimensional
    n3 = dollar_bill.nilpotents[2]
    wf = weight_filtration(n3, 1)
    shifted = _orbit_shift_flag(dollar_bill, exclude=2)
    bi = deligne_bigrading(wf, shifted)
    assert bi.hodge_numbers() == {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}
    # a generic base point on the stratum is not split over the reals, but
    # conjugation still swaps the off-diagonal pieces
    assert sub_equal(sub_conj(bi.piece(1, 0)), bi.piece(0, 1))


def _orbit_shift_flag(spec, exclude: int):
    """Move the base point into the stratum: multiply the flag by
    exp(i * sum of the other directions); exact because exp of a nilpotent is
    polynomial."""
    from hodgecalc.rationals import i_power
    d = spec.dim
    total = Mat.zeros(d, d)
    for j, n in enumerate(spec.nilpotents):
        if j != exclude:
            total = total + n
    expm = Mat.identity(d)
    power = Mat.identity(d)
    fact = 1
    for k in range(1, d + 1):
        power = power @ total
        fact *= k
        if power.is_zero():
            break
        expm = expm + power.scale(i_power(k) * GaussianRational(Fraction(1, fact)))
    new_flag = []
    for f in spec.flag:
        if f.rows == 0:
            new_flag.append(f)
        else:
            new_flag.append(Mat.from_rows(
                [list(expm.mat_vec(f.row(r))) for r in range(f.rows)]))
    return tuple(new_flag)


def test_non_mhs_rejected():
    # the dollar-bill flag against a single rank-one direction is not a
    # mixed Hodge structure (the graded piece of odd weight is not pure)
    n1 = Mat.from_rows([[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    wf = weight_filtration(n1, 1)
    flag = (Mat.from_rows([[0, 0, 1, 0], [0, 0, 0, 1]]), Mat.identity(4))
    with pytest.raises(NotMHS):
        deligne_bigrading(wf, flag)


def test_verify_dollar_bill(dollar_bill):
    rep = verify_polarized_lmhs(dollar_bill)
    assert rep.all_passed, [c.name for c in rep.failed()]


def test_verify_all_bundled(pure_elliptic, elliptic_degeneration, commuting_pair,
                            duplicated_pair):
    for spec in (pure_elliptic, elliptic_degeneration, commuting_pair,
                 duplicated_pair):
        rep = verify_polarized_lmhs(spec)
        assert rep.all_passed, [c.name for c in rep.failed()]


def test_verify_reports_a_flag_with_no_limiting_mhs():
    """F^1 = span(e1) passes every structural check, but it is W_0 = Im N,
    where a limiting MHS of weight 1 has type (0, 0) alone: no Deligne
    splitting exists, and that is a failed check, not an error."""
    q = Mat.from_rows([[0, 1], [-1, 0]])
    n = Mat.from_rows([[0, 1], [0, 0]])
    spec = PolarizedOrbitSpec(2, 1, q, (n,), (Mat.from_rows([[1, 0]]), Mat.identity(2)))
    rep = verify_polarized_lmhs(spec)
    assert [c for c in rep.checks if not c.passed] == [CheckResult(
        "limiting MHS exists", False,
        "Deligne pieces have total dimension 7 with rank 1, ambient 2")]


def test_verify_raises_an_internal_error(dollar_bill, monkeypatch):
    """An internal error inside the limiting MHS is a crash, never a failed
    check."""
    def broken(wf, flag):
        raise NoSolution("internal error: planted")
    monkeypatch.setattr(lmhs, "deligne_bigrading", broken)
    with pytest.raises(NoSolution, match="planted"):
        verify_polarized_lmhs(dollar_bill)


def test_verify_rejects_unstable_flag(dollar_bill):
    # F^1 not carried into F^0 is impossible; instead break N F^p ⊆ F^(p-1)
    # at weight 2 by extending the weight so F^2 exists and is not stable
    q = Mat.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    n = Mat.from_rows([[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    # weight-2 container: F^2 = span(e3), F^1 = span(e3, e4), F^0 = V.
    # N e3 = e1 lands outside F^1, violating stability at p = 2 after the
    # extra level F^1 is shrunk to span(e3, e2):
    flag = (Mat.from_rows([[0, 0, 1, 0]]),
            Mat.from_rows([[0, 1, 0, 0], [0, 0, 1, 0]]),
            Mat.identity(4))
    spec = PolarizedOrbitSpec(4, 2, q, (n,), flag)
    rep = verify_polarized_lmhs(spec)
    stability = [c for c in rep.checks if c.name == "N F^p inside F^(p-1)"]
    assert stability and not stability[0].passed


def _unit(i: int, j: int) -> Mat:
    """The 4 x 4 matrix unit sending e_(j+1) to e_(i+1)."""
    return Mat.from_rows([[1 if (r, c) == (i, j) else 0 for c in range(4)] for r in range(4)])


def _weight2_flag_spec(nilpotents) -> PolarizedOrbitSpec:
    """The weight-2 flag F^2 = <e3>, F^1 = <e2, e3>, F^0 = V of
    `test_verify_rejects_unstable_flag` under the given nilpotents: a
    strictly upper triangular N keeps it stable exactly when N e3 has no
    e1 component."""
    q = Mat.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    flag = (Mat.from_rows([[0, 0, 1, 0]]), Mat.from_rows([[0, 1, 0, 0], [0, 0, 1, 0]]),
            Mat.identity(4))
    return PolarizedOrbitSpec(4, 2, q, tuple(nilpotents), flag)


def _stable(spec) -> bool:
    return next(c.passed for c in verify_polarized_lmhs(spec).checks
                if c.name == "N F^p inside F^(p-1)")


@pytest.mark.parametrize("nilpotents,stable", [
    ((_unit(1, 2), _unit(0, 1), Mat.zeros(4, 4)), True),
    ((_unit(1, 2), _unit(0, 1), _unit(0, 2)), False),
    ((_unit(0, 2), _unit(1, 2)), False),
    ((), True),
], ids=["all-hold", "only-last-breaks", "first-breaks", "no-nilpotents"])
def test_stability_check_matches_the_per_nilpotent_loop(nilpotents, stable):
    """One containment per p of the images under every N_j stacked; each
    prefix of the nilpotents gives the outcome of the oracle's loop over
    them one at a time, so the last one alone decides `only-last-breaks`."""
    for k in range(len(nilpotents) + 1):
        spec = _weight2_flag_spec(nilpotents[:k])
        assert _stable(spec) == reference_lmhs.flag_is_stable(spec)
    assert _stable(_weight2_flag_spec(nilpotents)) is stable


def test_stability_check_matches_the_per_nilpotent_loop_on_seeded_triples(dollar_bill):
    """Every orbit fixture and the dim-12 direct sum, which hold, and
    seeded triples of strictly upper triangular nilpotents on the flag of
    `_weight2_flag_spec`, of which some hold and most do not."""
    rng = random.Random(29)
    specs = [load_fixture(name).obj for name in ORBIT_FIXTURES] + [direct_sum([dollar_bill] * 3)]
    for _ in range(60):
        specs.append(_weight2_flag_spec(
            Mat.from_rows([[rng.randint(-1, 1) if c > r else 0 for c in range(4)]
                           for r in range(4)]) for _ in range(3)))
    outcomes = [_stable(spec) for spec in specs]
    assert outcomes == [reference_lmhs.flag_is_stable(spec) for spec in specs]
    held, seeded = outcomes[:len(ORBIT_FIXTURES) + 1], outcomes[len(ORBIT_FIXTURES) + 1:]
    assert all(held) and any(seeded) and not all(seeded)


def test_verify_rejects_flipped_form(dollar_bill):
    flipped = PolarizedOrbitSpec(
        dollar_bill.dim, dollar_bill.weight, dollar_bill.q.scale(-1),
        dollar_bill.nilpotents, dollar_bill.flag)
    rep = verify_polarized_lmhs(flipped)
    assert not rep.all_passed
    names = [c.name for c in rep.failed()]
    assert any("positivity" in n for n in names)


def test_verify_rejects_non_r_split():
    # weight-1 LMHS with a deliberately skewed Hodge line: conjugation fails
    q = Mat.from_rows([[0, 1], [-1, 0]])
    n = Mat.from_rows([[0, 1], [0, 0]])
    flag = (Mat.from_rows([[GaussianRational(0, 1), 1]]), Mat.identity(2))
    spec = PolarizedOrbitSpec(2, 1, q, (n,), flag)
    rep = verify_polarized_lmhs(spec)
    assert not rep.all_passed


def test_hermitian_psd_status():
    psd, rank_, pd = hermitian_psd_status(Mat.from_rows([[2, 1], [1, 2]]))
    assert psd and pd and rank_ == 2
    psd, rank_, pd = hermitian_psd_status(Mat.from_rows([[1, 1], [1, 1]]))
    assert psd and not pd and rank_ == 1
    psd, rank_, pd = hermitian_psd_status(Mat.from_rows([[0, 1], [1, 0]]))
    assert not psd
    psd, rank_, pd = hermitian_psd_status(Mat.from_rows([[-1]]))
    assert not psd


# --- associated graded orbits ---------------------------------------------------

def test_graded_orbit_empty_subset(dollar_bill):
    pieces = associated_graded_orbit(dollar_bill, [])
    assert len(pieces) == 1 and pieces[0].orbit is dollar_bill


def test_graded_orbit_full_cone(dollar_bill):
    pieces = associated_graded_orbit(dollar_bill, [0, 1, 2])
    dims = {p.level: p.orbit.dim for p in pieces}
    assert dims == {1: 2}
    piece = pieces[0].orbit
    assert piece.weight == 0
    assert all(n.is_zero() for n in piece.nilpotents)
    rep = verify_polarized_lmhs(piece)
    assert rep.all_passed, [c.name for c in rep.failed()]


def test_graded_orbit_stratum3(dollar_bill):
    pieces = associated_graded_orbit(dollar_bill, [2])
    by_level = {p.level: p for p in pieces}
    assert set(by_level) == {0, 1}
    elliptic = by_level[0].orbit
    assert elliptic.dim == 2 and elliptic.weight == 1
    assert len(elliptic.nilpotents) == 2
    assert not elliptic.nilpotents[0].is_zero()
    assert not elliptic.nilpotents[1].is_zero()
    # the two induced maps agree on the graded piece
    assert elliptic.nilpotents[0] == elliptic.nilpotents[1]
    for p in pieces:
        rep = verify_polarized_lmhs(p.orbit)
        assert rep.all_passed, (p.level, [c.name for c in rep.failed()])


def test_graded_orbit_stratum12_is_tate(dollar_bill):
    pieces = associated_graded_orbit(dollar_bill, [0, 1])
    assert {p.level for p in pieces} == {1}
    piece = pieces[0].orbit
    assert piece.dim == 2 and piece.weight == 0
    # the induced third direction acts trivially on the graded
    assert all(n.is_zero() for n in piece.nilpotents)


def test_stratum_hodge_numbers(dollar_bill):
    assert stratum_hodge_numbers(dollar_bill, []) == {0: 2}
    assert stratum_hodge_numbers(dollar_bill, [0]) == {0: 1, 1: 1}
    assert stratum_hodge_numbers(dollar_bill, [2]) == {0: 1, 1: 1}
    assert stratum_hodge_numbers(dollar_bill, [0, 1]) == {1: 2}
    assert stratum_hodge_numbers(dollar_bill, [0, 1, 2]) == {1: 2}


def test_scales_must_increase(dollar_bill):
    from hodgecalc.orbit import restriction_limit_check
    with pytest.raises(ValueError):
        restriction_limit_check(dollar_bill, [2], scales=[100, 10])


def test_zero_parameter_spec_is_pure():
    # degenerate input: no nilpotent directions at all
    q = Mat.from_rows([[0, 1], [-1, 0]])
    flag = (Mat.from_rows([[GaussianRational(0, 1), 1]]), Mat.identity(2))
    spec = PolarizedOrbitSpec(2, 1, q, tuple(), flag)
    assert verify_polarized_lmhs(spec).all_passed
    from hodgecalc.orbit import hodge_metric_polynomial
    from hodgecalc.monomial import monomial_map
    p = hodge_metric_polynomial(spec)
    assert p.num_vars == 0 and p.degree == 0
    assert monomial_map(spec).exponents == ()


def _pure_weight2_spec(h20: int, h11: int) -> PolarizedOrbitSpec:
    from hodgecalc.rationals import ONE, ZERO
    d = 2 * h20 + h11
    ii = GaussianRational(0, 1)
    qvals = [[ZERO] * d for _ in range(d)]
    for a in range(h20):
        qvals[a][a] = ONE
        qvals[h20 + h11 + a][h20 + h11 + a] = ONE
    for a in range(h11):
        qvals[h20 + a][h20 + a] = -ONE
    q = Mat.from_rows(qvals)
    f2 = Mat.from_rows([[ONE if r == c else ZERO for r in range(h20)]
                        + [ZERO] * h11
                        + [ii if r == c else ZERO for r in range(h20)]
                        for c in range(h20)])
    f1 = Mat.from_rows(f2.row_list()
                       + [[ZERO] * h20
                          + [ONE if r == c else ZERO for r in range(h11)]
                          + [ZERO] * h20 for c in range(h11)])
    return PolarizedOrbitSpec(d, 2, q, (Mat.zeros(d, d),),
                              (f2, f1, Mat.identity(d)))


def test_pure_weight2_normal_form_verifies():
    # cross-validates the polarization orientation against the Hodge metric
    # used for the endomorphism algebra: Q is negative on the middle piece
    spec = _pure_weight2_spec(2, 3)
    rep = verify_polarized_lmhs(spec)
    assert rep.all_passed, [c.name for c in rep.failed()]
    from hodgecalc.orbit import hodge_metric_polynomial
    assert hodge_metric_polynomial(spec).degree == 0


@pytest.mark.parametrize("name", ORBIT_FIXTURES)
def test_primitive_parts_match_the_powers_loop(name):
    """On the bigrading of the whole cone, as `verify_polarized_lmhs` reads
    it, and on the grading splitting of every nonempty stratum, as
    `associated_graded_orbit` reads it."""
    spec = load_fixture(name).obj
    n, k = spec.weight, spec.num_params
    _, bi = spec.lmhs()
    cases = [(bi.grading_subspace, spec.n_sum())]
    for subset in (s for r in range(1, k + 1) for s in combinations(range(k), r)):
        n_i = spec.n_sum(subset)
        _, split = grading_splitting(n_i, weight_filtration(n_i, n))
        cases.append((lambda w, split=split: split.spaces.get(w, sub_zero(spec.dim)), n_i))
    for space, nilpotent in cases:
        ours = list(lmhs._primitive_parts(space, nilpotent, n))
        assert ours == reference_lmhs.primitive_parts(space, nilpotent, n)
