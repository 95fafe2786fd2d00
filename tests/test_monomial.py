from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

import reference_monomial as ref
import reference_polynomials
from conftest import direct_sum, random_nilpotent
from hodgecalc.cones import primitive_rows
from hodgecalc.matrices import Mat, rank, smith_normal_form, sub_contains, sub_contains_vec
from hodgecalc.multiplier import MonomialIdeal, multiplier_ideal_monomials
from hodgecalc.monomial import (
    MonomialMap, compatibility_check, connected_refinement, monomial_map,
    relation_space, strata_boundary_positivity, stratum_monomial_map,
    stratum_relation_rows, w_minus1_end,
)
from hodgecalc.polynomials import MultiPoly
from hodgecalc.rationals import GaussianRational
from hodgecalc.schemas import fixture_names, load_fixture
from hodgecalc.weightfilt import weight_filtration_centered

ORBIT_FIXTURES = [name for name in fixture_names() if load_fixture(name).kind == "orbit"]


def test_relation_space_dollar_bill(dollar_bill):
    rs = relation_space(dollar_bill.nilpotents)
    assert rs.dim == 0
    assert rs.basis == Mat.zeros(0, 3)
    assert rs.orth_basis == Mat.identity(3)


def test_relation_space_duplicate():
    n = Mat.from_rows([[0, 1], [0, 0]])
    rs = relation_space((n, n))
    assert rs.dim == 1
    assert primitive_rows(rs.basis) == [(1, -1)]
    assert primitive_rows(rs.orth_basis) == [(1, 1)]


def test_relation_space_triple():
    n = Mat.from_rows([[0, 1], [0, 0]])
    rs = relation_space((n, n.scale(2), n))
    assert rs.dim == 2
    assert sub_contains_vec(rs.basis, [2, -1, 0])
    assert sub_contains_vec(rs.basis, [1, 0, -1])


def test_monomial_map_dollar_bill(dollar_bill):
    mm = monomial_map(dollar_bill)
    assert mm.exponents == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert mm.monomial_strings() == ("t1", "t2", "t3")


def test_monomial_map_duplicated(duplicated_pair):
    mm = monomial_map(duplicated_pair)
    assert mm.exponents == ((1, 1),)
    assert mm.monomial_strings() == ("t1*t2",)


def test_monomial_map_single(elliptic_degeneration):
    mm = monomial_map(elliptic_degeneration)
    assert mm.exponents == ((1,),)


def test_monomial_map_rows_annihilate_relations(duplicated_pair, dollar_bill):
    for spec in (duplicated_pair, dollar_bill):
        rs = relation_space(spec.nilpotents)
        mm = monomial_map(spec)
        for b in mm.exponents:
            for a in primitive_rows(rs.basis):
                assert sum(x * e for x, e in zip(a, b)) == 0
        # rows span the orthogonal complement
        if mm.exponents:
            assert rank(Mat.from_rows([list(r) for r in mm.exponents])) == \
                rs.orth_basis.rows


def test_kernel_of_exponent_matrix_is_relation_space(duplicated_pair, dollar_bill,
                                                     commuting_pair):
    # in logarithmic tangent coordinates the kernel of the exponent matrix
    # equals the relation space exactly
    from hodgecalc.matrices import kernel_basis, sub_canonical, sub_zero
    for spec in (duplicated_pair, dollar_bill, commuting_pair):
        rs = relation_space(spec.nilpotents)
        mm = monomial_map(spec)
        k = spec.num_params
        exp = Mat.from_rows([[Fraction(e) for e in row] for row in mm.exponents])
        kern = kernel_basis(exp)
        kern_space = (sub_canonical(Mat.from_rows([list(v) for v in kern]))
                      if kern else sub_zero(k))
        assert kern_space == rs.basis    # both canonical


def test_stratum_map_dollar_bill(dollar_bill):
    mm1 = stratum_monomial_map(dollar_bill, [0])
    assert mm1.variables == (1, 2)
    assert mm1.exponents == ((1, 1),)
    assert mm1.monomial_strings() == ("t2*t3",)

    mm3 = stratum_monomial_map(dollar_bill, [2])
    assert mm3.variables == (0, 1)
    assert mm3.exponents == ((1, 1),)
    assert mm3.monomial_strings() == ("t1*t2",)

    mm12 = stratum_monomial_map(dollar_bill, [0, 1])
    assert mm12.exponents == ()


def test_stratum_relations_match_induced_maps(dollar_bill):
    rel, complement = stratum_relation_rows(dollar_bill, [0])
    assert complement == [1, 2]
    assert rel == Mat.from_rows([[1, -1]])


def test_w_minus1_contains_deeper_directions(dollar_bill):
    # each single direction sits inside W_-2 of the full cone on endomorphisms
    w = w_minus1_end(dollar_bill.n_sum())
    for n in dollar_bill.nilpotents:
        assert sub_contains_vec(w, list(n.entries))


def test_compatibility_all_nested_pairs(dollar_bill, commuting_pair):
    for spec in (dollar_bill, commuting_pair):
        k = spec.num_params
        for r in range(1, k):
            for small in combinations(range(k), r):
                for extra in range(1, k - r + 1):
                    rest = [j for j in range(k) if j not in small]
                    for add in combinations(rest, extra):
                        large = sorted(small + add)
                        rep = compatibility_check(spec, list(small), large)
                        assert rep.passed, (small, large)


def test_compatibility_trivial_direction(dollar_bill):
    # adding a direction with zero action changes nothing
    zero = Mat.zeros(4, 4)
    spec = dollar_bill.__class__(
        dollar_bill.dim, dollar_bill.weight, dollar_bill.q,
        dollar_bill.nilpotents + (zero,), dollar_bill.flag)
    rep = compatibility_check(spec, [0], [0, 3])
    assert rep.passed


# --- saturation refinements -----------------------------------------------------

def test_refinement_single_square():
    ref = connected_refinement(MonomialMap(((2,),), (0,)))
    assert ref.invariant_factors == (2,)
    assert ref.eta == Mat.from_rows([[2]])
    assert ref.refined.exponents == ((1,),)


def test_refinement_identity():
    mm = MonomialMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 1, 2))
    ref = connected_refinement(mm)
    assert ref.invariant_factors == ()


def test_refinement_mixed_diagonal():
    ref = connected_refinement(MonomialMap(((2, 0), (0, 3)), (0, 1)))
    assert ref.invariant_factors == (6,)
    # diagram identity at the exponent level
    e = Mat.from_rows([[2, 0], [0, 3]])
    a_tilde = Mat.from_rows([list(row) for row in ref.refined.exponents])
    assert a_tilde @ ref.eta == e
    # the refined lattice is saturated
    assert all(f == 1 for f in smith_normal_form(a_tilde).invariant_factors)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_refinement_stays_on_the_polydisc():
    # today A = ((-3, 5), (-5, 8)) and B = [[16, -15], [10, -9]]: a Laurent map
    e = ((2, 0), (0, 3))
    ref = connected_refinement(MonomialMap(e, (0, 1)))
    assert all(x >= 0 for row in ref.refined.exponents for x in row)
    covering = ref.eta.int_rows()
    assert all(d == 1 and min(re) >= 0 for re, _, d in covering)
    a = Mat.from_rows([list(row) for row in ref.refined.exponents])
    assert a @ ref.eta == Mat.from_rows([list(row) for row in e])


def test_refinement_nontrivial_lattice():
    # rows (1,1) and (1,-1): index-2 sublattice of Z^2
    ref = connected_refinement(MonomialMap(((1, 1), (1, -1)), (0, 1)))
    assert ref.invariant_factors == (2,)
    e = Mat.from_rows([[1, 1], [1, -1]])
    a_tilde = Mat.from_rows([list(row) for row in ref.refined.exponents])
    assert a_tilde @ ref.eta == e
    assert all(f == 1 for f in smith_normal_form(a_tilde).invariant_factors)


# --- boundary positivity ------------------------------------------------------------

def test_boundary_positivity_dollar_bill(dollar_bill):
    for i in range(3):
        assert strata_boundary_positivity(dollar_bill, i)


def test_boundary_positivity_zero_direction(dollar_bill):
    zero = Mat.zeros(4, 4)
    spec = dollar_bill.__class__(
        dollar_bill.dim, dollar_bill.weight, dollar_bill.q,
        (dollar_bill.nilpotents[0], zero), dollar_bill.flag)
    assert not strata_boundary_positivity(spec, 1)


def test_boundary_positivity_duplicated(duplicated_pair):
    # second copy is dependent at the joint stratum
    assert not strata_boundary_positivity(duplicated_pair, 1, subset=[0, 1])
    # but independent on its own axis
    assert strata_boundary_positivity(duplicated_pair, 1)


def test_compatibility_duplicated_pair(duplicated_pair):
    for small in ([0], [1]):
        rep = compatibility_check(duplicated_pair, small, [0, 1])
        assert rep.passed


# --- the relation systems against the entry-list oracle ----------------------------

def subsets(k, sizes=None):
    return [list(s) for r in (sizes or range(k + 1)) for s in combinations(range(k), r)]


def assert_same_relations(spec, strata, pairs):
    """The library and reference_monomial agree with == on the relation space,
    and on the relation rows, stratum map and boundary positivity of every
    stratum in `strata` and the compatibility of every (small, large) pair."""
    assert relation_space(spec.nilpotents) == ref.relation_space(spec.nilpotents)
    for subset in strata:
        assert stratum_relation_rows(spec, subset) == ref.stratum_relation_rows(spec, subset)
        assert stratum_monomial_map(spec, subset) == ref.stratum_monomial_map(spec, subset)
        for index in subset:
            assert strata_boundary_positivity(spec, index, subset) == \
                ref.strata_boundary_positivity(spec, index, subset), (subset, index)
    for small, large in pairs:
        assert compatibility_check(spec, small, large) == \
            ref.compatibility_check(spec, small, large), (small, large)


@pytest.mark.parametrize("name", ORBIT_FIXTURES)
def test_relation_systems_match_entry_lists_on_fixtures(name):
    spec = load_fixture(name).obj
    k = spec.num_params
    pairs = [(small, large) for small in subsets(k, range(1, k)) for large in subsets(k)
             if set(small) < set(large)]
    assert_same_relations(spec, subsets(k), pairs)


def test_relation_systems_match_entry_lists_on_direct_sums(dollar_bill):
    eight, twelve = direct_sum([dollar_bill] * 2), direct_sum([dollar_bill] * 3)
    assert_same_relations(eight, subsets(6, (0, 1)) + [[1, 4], [0, 2, 5], list(range(6))],
                          [([0], [0, 3]), ([1, 4], [1, 2, 4, 5]), ([2], list(range(6)))])
    assert_same_relations(twelve, [[4], [0, 3, 6]],
                          [([4], [4, 7]), ([0, 3, 6], [0, 1, 3, 6, 8])])


def test_relation_systems_match_entry_lists_with_relations(dollar_bill):
    """Repeated and scaled directions give nonzero relation spaces and
    relation rows on every stratum."""
    n = dollar_bill.nilpotents
    spec = dollar_bill.__class__(dollar_bill.dim, dollar_bill.weight, dollar_bill.q,
                                 n + (n[0].scale(2), n[1] + n[2]), dollar_bill.flag)
    assert relation_space(spec.nilpotents).dim == 2
    pairs = [(small, large) for small in subsets(5, (1, 2)) for large in subsets(5, (3, 4))
             if set(small) < set(large)]
    assert_same_relations(spec, subsets(5), pairs)


# --- W_-1 End(V) from the weight filtration of N on V --------------------------

def _w_end_cases():
    """(id, N): every stratum cone of every orbit fixture, the empty one
    (N = 0) included, the dollar-bill sums at d = 8 and 12, and a seeded
    nilpotent at d = 6."""
    cases = []
    for name in ORBIT_FIXTURES:
        spec = load_fixture(name).obj
        cases += [(f"{name}{s}", spec.n_sum(s)) for s in subsets(spec.num_params)]
    dollar_bill = load_fixture("dollar-bill").obj
    eight, twelve = direct_sum([dollar_bill] * 2), direct_sum([dollar_bill] * 3)
    cases += [("sum8", eight.n_sum()), ("sum8[0, 4]", eight.n_sum([0, 4])),
              ("sum12", twelve.n_sum()), ("sum12[1, 3, 8]", twelve.n_sum([1, 3, 8]))]
    return cases + [("seeded6", random_nilpotent(random.Random(6), 6))]


W_END_CASES = _w_end_cases()
# the ad(N) oracle takes seconds from d = 8 on, so these are checked only
# by the identities
SEEDED_LARGE = [(f"seeded{d}", random_nilpotent(random.Random(d), d)) for d in (8, 10)]


@pytest.mark.parametrize("n", [n for _, n in W_END_CASES], ids=[i for i, _ in W_END_CASES])
def test_w_minus1_end_matches_ad_filtration(n):
    assert w_minus1_end(n) == ref.w_minus1_end(n)


@pytest.mark.parametrize("n", [n for _, n in W_END_CASES + SEEDED_LARGE],
                         ids=[i for i, _ in W_END_CASES + SEEDED_LARGE])
def test_w_minus1_end_is_the_lowering_space_of_the_filtration(n):
    """dim W_-1 End(V) = sum over a < b of g_a g_b for the graded dimensions
    g of W(N), and every row, read as X, maps each W_k into W_(k-1)."""
    d = n.rows
    centered = weight_filtration_centered(n)
    levels = [Mat.zeros(0, d)] + [centered[k] for k in sorted(centered)]
    graded = [hi.rows - lo.rows for lo, hi in zip(levels, levels[1:])]
    w = w_minus1_end(n)
    assert w.rows == sum(ga * gb for a, ga in enumerate(graded) for gb in graded[a + 1:])
    for i in range(w.rows):
        x = w.take([i]).reshape(d, d)
        for lower, level in zip(levels, levels[1:]):
            assert sub_contains(lower, level @ x.transpose())


@pytest.mark.parametrize("call", [
    lambda spec: stratum_relation_rows(spec, [3]),
    lambda spec: stratum_monomial_map(spec, [7]),
    lambda spec: compatibility_check(spec, [5], [5, 6]),
    lambda spec: compatibility_check(spec, [0], [0, 3]),
    lambda spec: strata_boundary_positivity(spec, 9),
    lambda spec: strata_boundary_positivity(spec, 0, [0, -1]),
], ids=["relation-rows", "stratum-map", "compat-both", "compat-large", "boundary",
        "boundary-negative"])
def test_stratum_index_out_of_range(dollar_bill, call):
    with pytest.raises(ValueError, match="stratum index out of range"):
        call(dollar_bill)


# zero exponents, one variable, exponents above 1 and negative ones (a
# refined map can have them), in up to five variables
EXPONENT_ROWS = [(), (0,), (1,), (7,), (0, 0, 0), (1, 0, 2), (0, 3, 1), (2, -1),
                 (-1, 1, 0), (12, 1, 0, 7, 1)]


@pytest.mark.parametrize("row", EXPONENT_ROWS, ids=str)
def test_monomial_strings_match_the_row_loops(row):
    k = len(row)
    for variables in (tuple(range(k)), (4, 0, 9, 2, 6)[:k]):    # local and global indices
        assert (MonomialMap((row,), variables).monomial_strings()
                == ref.monomial_strings((row,), variables, "t"))
    assert (MonomialIdeal((row,), 4, False).monomial_strings()
            == ref.monomial_strings((row,), range(k), "z"))
    if min(row, default=0) >= 0:
        for c in (Fraction(1), Fraction(-3, 2), GaussianRational(1, -2)):
            terms = {row: c, tuple([0] * k): 5}
            assert (MultiPoly(k, terms).to_string("x")
                    == reference_polynomials.MultiPoly(k, terms).to_string("x"))


def test_monomial_strings_match_on_fixtures_and_ideals():
    for name in ORBIT_FIXTURES:
        mm = monomial_map(load_fixture(name).obj)
        assert mm.monomial_strings() == ref.monomial_strings(mm.exponents, mm.variables, "t")
    for alpha in ([4, 4], [5, "7/2", 6], [5, 5, 5, 5]):
        ideal = multiplier_ideal_monomials(alpha, 12)
        assert ideal.monomial_strings() == ref.monomial_strings(
            ideal.generators, range(len(alpha)), "z")
