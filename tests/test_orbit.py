from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_fraction, reverse_grading_candidates
from reference_orbit import permutation_monomial_check
from hodgecalc import orbit
from hodgecalc.errors import ZeroAtPoint
from hodgecalc.matrices import Mat
from hodgecalc.orbit import (
    chern_form_at, default_rays, hodge_metric_matrix, hodge_metric_polynomial,
    restriction_limit_check, stratum_factorization, stratum_metric_polynomial,
)
from hodgecalc.polynomials import MultiPoly, poly_mat_det


def x(k, j):
    return MultiPoly.variable(k, j)


def test_metric_polynomial_dollar_bill(dollar_bill):
    p = hodge_metric_polynomial(dollar_bill)
    expected = x(3, 0) * x(3, 1) + x(3, 0) * x(3, 2) + x(3, 1) * x(3, 2)
    assert p.p == expected
    assert p.normalization > 0
    assert p.degree == 2


def test_metric_polynomial_elliptic(elliptic_degeneration):
    p = hodge_metric_polynomial(elliptic_degeneration)
    assert p.p == x(1, 0)


def test_metric_polynomial_pure(pure_elliptic):
    p = hodge_metric_polynomial(pure_elliptic)
    assert p.p == MultiPoly.const(1, 1)
    assert p.degree == 0


def test_metric_matrix_dollar_bill(dollar_bill):
    mm = hodge_metric_matrix(dollar_bill)
    assert len(mm.blocks) == 1
    level, frame, mat = mm.blocks[0]
    assert level == 1 and frame.rows == 2
    assert mat[0][0] == x(3, 0) + x(3, 2)
    assert mat[0][1] == x(3, 2)
    assert mat[1][0] == x(3, 2)
    assert mat[1][1] == x(3, 1) + x(3, 2)


def test_metric_matrix_det_equals_polynomial(dollar_bill, commuting_pair,
                                             duplicated_pair):
    for spec in (dollar_bill, commuting_pair, duplicated_pair):
        mm = hodge_metric_matrix(spec)
        p = hodge_metric_polynomial(spec)
        assert poly_mat_det(mm.full()) == p.p.scale(p.normalization)


def test_metric_polynomial_homogeneous_and_positive(dollar_bill, commuting_pair,
                                                    duplicated_pair):
    rng = random.Random(77)
    for spec in (dollar_bill, commuting_pair, duplicated_pair):
        p = hodge_metric_polynomial(spec)
        assert p.p.is_homogeneous()
        for _ in range(100):
            pt = [random_fraction(rng) for _ in range(p.num_vars)]
            assert p.p.evaluate(pt) > 0


# --- Chern forms -----------------------------------------------------------------

def test_chern_poincare_quarter():
    # metric polynomial of the one-variable degeneration: P = x; at x = 1 the
    # log-Hessian with flipped sign is [1], which under x = -log|t| is one
    # quarter of the Poincare metric in the cut-off coordinates
    p = MultiPoly(1, {(1,): 1})
    sample = chern_form_at(p, [1])
    assert sample.g == Mat.from_rows([[1]])
    # exact identity G(x) * x^2 = 1 all along the ray
    for v in (2, 3, Fraction(7, 2)):
        s = chern_form_at(p, [v])
        assert s.g[0, 0].re * v * v == 1


def test_chern_constant_polynomial_is_flat():
    p = MultiPoly.const(2, Fraction(5))
    s = chern_form_at(p, [1, 1])
    assert s.g.is_zero()


def test_chern_dollar_bill_at_ones(dollar_bill):
    p = hodge_metric_polynomial(dollar_bill)
    s = chern_form_at(p, [1, 1, 1])
    expected = Mat.from_rows([
        [Fraction(4, 9), Fraction(1, 9), Fraction(1, 9)],
        [Fraction(1, 9), Fraction(4, 9), Fraction(1, 9)],
        [Fraction(1, 9), Fraction(1, 9), Fraction(4, 9)]])
    assert s.g == expected
    assert s.psd and s.rank == 3


def test_chern_zero_at_point():
    p = MultiPoly(2, {(1, 0): 1})
    with pytest.raises(ZeroAtPoint):
        chern_form_at(p, [0, 1])


def test_log_concavity_seeded(dollar_bill, commuting_pair, duplicated_pair,
                              elliptic_degeneration):
    rng = random.Random(13)
    for spec in (dollar_bill, commuting_pair, duplicated_pair,
                 elliptic_degeneration):
        p = hodge_metric_polynomial(spec)
        for _ in range(100):
            pt = [random_fraction(rng) for _ in range(p.num_vars)]
            s = chern_form_at(p, pt)
            assert s.psd


# --- factorization -----------------------------------------------------------------

def test_factorization_dollar_bill_single(dollar_bill):
    p = hodge_metric_polynomial(dollar_bill)
    f = stratum_factorization(p, [2], dollar_bill)
    assert f.p_i == x(3, 2)
    assert f.p_ic == x(3, 0) + x(3, 1)
    assert f.remainder == x(3, 0) * x(3, 1)
    assert f.deg_bound == 1
    assert f.leading == f.p_i * f.p_ic
    f0 = stratum_factorization(p, [0], dollar_bill)
    assert f0.p_i == x(3, 0)
    assert f0.p_ic == x(3, 1) + x(3, 2)


def test_factorization_dollar_bill_pair(dollar_bill):
    p = hodge_metric_polynomial(dollar_bill)
    f = stratum_factorization(p, [1, 2], dollar_bill)
    assert f.p_i == x(3, 1) * x(3, 2)
    assert f.p_ic == MultiPoly.const(3, 1)
    assert f.stratum_poly == MultiPoly.const(1, 1)


def test_factorization_all_subsets_all_specs(dollar_bill, commuting_pair,
                                             duplicated_pair):
    from itertools import combinations
    for spec in (dollar_bill, commuting_pair, duplicated_pair):
        p = hodge_metric_polynomial(spec)
        k = spec.num_params
        for r in range(1, k):
            for subset in combinations(range(k), r):
                f = stratum_factorization(p, list(subset), spec)
                assert f.p_i * f.p_ic == f.leading
                assert (f.leading + f.remainder) == p.p
                if f.remainder:
                    w = [1 if j in subset else 0 for j in range(k)]
                    assert f.remainder.weighted_degree(w) < f.deg_bound


def test_stratum_polynomial_splitting_invariance(dollar_bill, monkeypatch):
    # reported stratum polynomials do not depend on the splitting
    for subset in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        a = stratum_metric_polynomial(dollar_bill, subset)
        with monkeypatch.context() as patch:
            reverse_grading_candidates(patch)
            b = stratum_metric_polynomial(dollar_bill, subset)
        assert a == b


# --- restriction limits ---------------------------------------------------------------

SCALES = tuple(Fraction(10) ** e for e in range(1, 9))


def test_limit_dollar_bill_stratum3(dollar_bill):
    rep = restriction_limit_check(dollar_bill, [2], scales=SCALES)
    assert len(rep.rays) >= 5
    assert rep.eventually_decreasing
    assert rep.final_max_deviation <= Fraction(1, 10 ** 6)
    assert rep.passed


def test_limit_dollar_bill_stratum23(dollar_bill):
    rep = restriction_limit_check(dollar_bill, [1, 2], scales=SCALES)
    assert rep.passed
    # the limiting block is the zero form; deviations still decay like 1/s
    assert not rep.exact_zero


def test_limit_commuting_pair_exact_zero(commuting_pair):
    # split degenerations have vanishing remainder: the deviation is exactly
    # zero at every scale
    rep = restriction_limit_check(commuting_pair, [1], scales=SCALES[:4])
    assert rep.exact_zero and rep.passed
    rep2 = restriction_limit_check(commuting_pair, [0], scales=SCALES[:4])
    assert rep2.exact_zero and rep2.passed


def test_limit_deviations_shrink_like_inverse_scale(dollar_bill):
    rep = restriction_limit_check(dollar_bill, [2], scales=SCALES)
    for devs in rep.deviations:
        # fitted constant: dev * scale is bounded by a modest constant
        bounds = [d * s for d, s in zip(devs, rep.scales)]
        assert max(bounds) <= 4


@pytest.mark.parametrize("empty", ["scales", "rays"])
def test_limit_refuses_empty_scales_or_rays(dollar_bill, monkeypatch, empty):
    """Refused before any work: the metric polynomial is never built."""
    def unreachable(*args, **kwargs):
        raise AssertionError("metric polynomial built before the arguments were checked")
    monkeypatch.setattr(orbit, "hodge_metric_polynomial", unreachable)
    with pytest.raises(ValueError, match=empty):
        restriction_limit_check(dollar_bill, [2], **{empty: ()})


@pytest.mark.parametrize("argument,value", [
    ("rays", [(-1, 1)]), ("rays", [(0, 1)]), ("rays", [(1, 2, 3)]), ("rays", [(1,)]),
    ("base", [0]), ("base", [-1]), ("base", [1, 1, 1]), ("base", []),
    ("scales", [-10, 1]), ("scales", [0, 1]),
], ids=["ray-negative", "ray-zero", "ray-too-long", "ray-too-short", "base-zero",
        "base-negative", "base-too-long", "base-empty", "scale-negative", "scale-zero"])
def test_limit_refuses_points_off_the_positive_orthant(dollar_bill, monkeypatch,
                                                       argument, value):
    """Stratum {1, 2} of dollar-bill: rays need two positive entries, the
    base one, and every scale is positive; refused, naming the argument,
    before the metric polynomial is built."""
    def unreachable(*args, **kwargs):
        raise AssertionError("metric polynomial built before the arguments were checked")
    monkeypatch.setattr(orbit, "hodge_metric_polynomial", unreachable)
    with pytest.raises(ValueError, match=f"^{argument}"):
        restriction_limit_check(dollar_bill, [0, 1], **{argument: value})


def test_default_rays_count():
    rays = default_rays([0, 2], 5, seed=1)
    assert len(rays) == 5
    assert all(len(r) == 2 and all(c > 0 for c in r) for r in rays)


# --- chain monomials --------------------------------------------------------------------

def test_permutation_monomials_dollar_bill(dollar_bill):
    rep = permutation_monomial_check(dollar_bill, (0, 1, 2))
    assert rep.exponents == (1, 1, 0)
    assert rep.present and rep.hull_ok
    rep2 = permutation_monomial_check(dollar_bill, (2, 0, 1))
    assert rep2.exponents == (1, 0, 1)
    assert rep2.present and rep2.hull_ok


def test_permutation_monomials_single_variable(elliptic_degeneration):
    rep = permutation_monomial_check(elliptic_degeneration, (0,))
    assert rep.exponents == (1,)
    assert rep.present and rep.hull_ok


def test_permutation_monomials_all_perms(dollar_bill):
    from itertools import permutations
    for perm in permutations(range(3)):
        rep = permutation_monomial_check(dollar_bill, perm)
        assert rep.present and rep.hull_ok


def test_weight2_degeneration_metric():
    from hodgecalc.schemas import load_fixture
    from hodgecalc.lmhs import verify_polarized_lmhs, associated_graded_orbit
    spec = load_fixture("weight2-tate-degeneration").obj
    assert verify_polarized_lmhs(spec).all_passed
    p = hodge_metric_polynomial(spec)
    assert p.p == MultiPoly(1, {(2,): 1})
    assert p.degree == 2
    s = chern_form_at(p, [2])
    assert s.g == Mat.from_rows([[Fraction(1, 2)]]) and s.psd
    pieces = associated_graded_orbit(spec, [0])
    assert [(q.level, q.orbit.dim, q.orbit.weight) for q in pieces] == [(2, 1, 0)]
    assert verify_polarized_lmhs(pieces[0].orbit).all_passed
