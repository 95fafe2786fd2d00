from __future__ import annotations

import random
from fractions import Fraction

import pytest

import reference_normpos as ref
from hodgecalc.errors import NotUnit
from hodgecalc.matrices import Mat, hermitian_psd_status
from hodgecalc.multiplier import multiplier_ideal_monomials
from hodgecalc.normpos import (
    NormPositivityModel, chern_form_norm, curvature_from_model, flat_directions,
    projectivized_chern_form, quotient_curvature_at, strong_semipositivity_check,
    sym_power_model, sym_subspace_basis, sym_vector, tangent_to_hom_rank,
    trace_form_power_vanishes,
)
from hodgecalc.rationals import GaussianRational, ZERO, ONE


def _random_model(rng, rank_e, dim_t, rank_g):
    a = Mat.from_rows([[GaussianRational(Fraction(rng.randint(-2, 2)),
                                         Fraction(rng.randint(-2, 2)))
                        for _ in range(rank_e * dim_t)] for _ in range(rank_g)])
    return NormPositivityModel(dim_t, rank_e, rank_g, a)


def test_zero_model_flat(g24_model):
    zero = NormPositivityModel(2, 2, 1, Mat.zeros(1, 4))
    theta = curvature_from_model(zero)
    assert theta.nakano.is_zero()
    assert theta.value([1, 0], [1, 1]) == 0


def test_curvature_is_squared_norm(g24_model):
    theta = curvature_from_model(g24_model)
    rng = random.Random(3)
    for _ in range(20):
        e = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
        xi = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)]
        img = g24_model.apply(e, xi)
        norm2 = sum((x.abs2() for x in img), Fraction(0))
        assert theta.value(e, xi) == norm2


def test_nakano_matrix_is_psd_seeded():
    rng = random.Random(5)
    for _ in range(10):
        model = _random_model(rng, rng.randint(1, 3), rng.randint(1, 3),
                              rng.randint(1, 3))
        theta = curvature_from_model(model)
        psd, _, _ = hermitian_psd_status(theta.nakano)
        assert psd


def test_g24_unit_curvature(g24_model):
    # unit fiber vector, elementary tangent direction: the displacement moves
    # the vector, so the curvature is 1
    theta = curvature_from_model(g24_model)
    e = [ONE, ZERO]
    xi = [ZERO] * 4
    xi[0] = ONE       # the (0,0) entry of Hom(span, quotient)
    assert theta.value(e, xi) == 1


def test_g24_flat_directions(g24_model):
    basis, dim = flat_directions(g24_model, [1, 0])
    assert dim == 2
    for v in basis:
        assert all(not x for x in g24_model.apply([1, 0], v))


def test_flat_directions_zero_vector(g24_model):
    _, dim = flat_directions(g24_model, [0, 0])
    assert dim == 4


def test_flat_directions_strictly_positive_model():
    # A the identity on E (x) T: no flat directions at any nonzero e
    model = NormPositivityModel(2, 1, 2, Mat.identity(2))
    _, dim = flat_directions(model, [1])
    assert dim == 0


# --- symmetric powers ------------------------------------------------------------

def test_sym_power_identity_at_one():
    rng = random.Random(7)
    model = _random_model(rng, 2, 2, 2)
    assert sym_power_model(model, 1) is model


def test_sym_power_principal_value_sum():
    # principal curvatures (1, 0); at the decomposable point e1 e2 the
    # square curvature is their sum
    a = Mat.from_rows([[1, 0, 0, 0]])     # A(e0 (x) xi0) = g0, all else 0
    model = NormPositivityModel(2, 2, 1, a)
    theta = curvature_from_model(model)
    xi = [ONE, ZERO]
    assert theta.value([1, 0], xi) == 1   # lambda_1
    assert theta.value([0, 1], xi) == 0   # lambda_2
    s2 = sym_power_model(model, 2)
    theta2 = curvature_from_model(s2)
    v, norm2 = sym_vector((0, 1), 2)
    val = theta2.value(v, xi) / norm2
    assert val == 1


def test_sym_power_zero_model():
    zero = NormPositivityModel(2, 2, 1, Mat.zeros(1, 4))
    for k in (2, 3):
        sk = sym_power_model(zero, k)
        assert sk.a.is_zero()


# --- projectivized forms -----------------------------------------------------------

def test_projectivized_requires_unit(g24_model):
    with pytest.raises(NotUnit):
        projectivized_chern_form(g24_model, [2, 0])


def test_projectivized_g24_rank_one_point(g24_model):
    form = projectivized_chern_form(g24_model, [1, 0])
    assert form.horizontal_kernel_dim == 2
    assert form.psd and not form.positive_definite
    # vertical block alone is positive definite
    vpsd, vrank, vpd = hermitian_psd_status(form.vertical)
    assert vpd


def test_projectivized_g24_s2_positive_definite(g24_model):
    # decomposable split point with exactly rational unit norm: use
    # u = sym(e0, e1) scaled so that ||u||^2 = 1; since ||sym||^2 = 1/2 the
    # scale sqrt2 is irrational, so instead verify positive-definiteness of
    # the form on the symmetric subspace at the tensor point e0 (x) e1 + e1
    # (x) e0 normalized through the quadratic form directly: the horizontal
    # block at any positive multiple of a direction has the same definiteness.
    s2 = sym_power_model(g24_model, 2)
    theta2 = curvature_from_model(s2)
    v, norm2 = sym_vector((0, 1), 2)
    h = theta2.horizontal_form(v)        # un-normalized: definiteness invariant
    psd, rnk, pd = hermitian_psd_status(h)
    assert pd                           # split point: strictly positive
    # and at the squared point e0.e0 the horizontal block is degenerate
    h2 = theta2.horizontal_form([ONE, ZERO, ZERO, ZERO])
    psd2, rnk2, pd2 = hermitian_psd_status(h2)
    assert psd2 and not pd2 and rnk2 == 2
    # full projectivized form at the rational unit point e0 (x) e0 within the
    # symmetric subspace
    sym_basis = sym_subspace_basis(2, 2)
    form = projectivized_chern_form(s2, [ONE, ZERO, ZERO, ZERO],
                                    fiber_subspace=sym_basis)
    assert form.vertical.rows == 2      # dim Sym^2 - 1
    vpsd, vrank, vpd = hermitian_psd_status(form.vertical)
    assert vpd


def test_projectivized_with_no_vertical_directions(g24_model):
    """A line bundle, and a one-dimensional fiber subspace: the vertical
    block is 0 x 0, so it is positive definite and the whole form is as
    definite as the horizontal block."""
    line = NormPositivityModel(2, 1, 2, Mat.from_rows([[1, GaussianRational(0, 1)], [0, 2]]))
    form = projectivized_chern_form(line, [GaussianRational(Fraction(3, 5), Fraction(4, 5))])
    assert form.horizontal == Mat.from_rows([[1, GaussianRational(0, 1)],
                                             [GaussianRational(0, -1), 5]])
    assert form.vertical == Mat.zeros(0, 0)
    assert (form.psd, form.positive_definite, form.horizontal_kernel_dim) == (True, True, 0)
    form = projectivized_chern_form(g24_model, [0, 1], fiber_subspace=Mat.from_rows([[0, 1]]))
    assert form.horizontal == Mat.diag([0, 1, 0, 1])
    assert form.vertical == Mat.zeros(0, 0)
    assert (form.psd, form.positive_definite, form.horizontal_kernel_dim) == (True, False, 2)


def test_theorem_positive_definite_witness_seeded():
    """Strongly semi-positive seeded models: once the tangent-to-homs map is
    injective, the symmetric-power form is positive definite at the full
    decomposable point, with no exceptions."""
    rng = random.Random(23)
    confirmed = 0
    for _ in range(12):
        r = rng.randint(2, 3)
        model = _random_model(rng, r, 2, r * 2 + 1)
        if tangent_to_hom_rank(model) < model.dim_t:
            continue
        sk = sym_power_model(model, r)
        theta = curvature_from_model(sk)
        v, _ = sym_vector(tuple(range(r)), r)
        psd, rnk, pd = hermitian_psd_status(theta.horizontal_form(v))
        assert pd
        confirmed += 1
    assert confirmed >= 3


# --- quotients ------------------------------------------------------------------------

def test_quotient_second_fundamental_form():
    zero_theta = curvature_from_model(NormPositivityModel(2, 2, 1, Mat.zeros(1, 4)))
    inclusion = Mat.from_rows([[1], [0]])
    beta = [Mat.from_rows([[1]]), Mat.zeros(1, 1)]
    val = quotient_curvature_at(zero_theta, inclusion, beta, [1], [1, 0])
    assert val == 1
    val0 = quotient_curvature_at(zero_theta, inclusion,
                                 [Mat.zeros(1, 1), Mat.zeros(1, 1)], [1], [1, 0])
    assert val0 == 0


def test_quotient_dominates_seeded(g24_model):
    theta = curvature_from_model(g24_model)
    rng = random.Random(31)
    inclusion = Mat.from_rows([[1, 0], [0, 1]])
    for _ in range(10):
        beta = [Mat.from_rows([[GaussianRational(rng.randint(-2, 2),
                                                 rng.randint(-2, 2))
                                for _ in range(2)] for _ in range(2)])
                for _ in range(4)]
        q = [GaussianRational(rng.randint(-2, 2)) for _ in range(2)]
        xi = [GaussianRational(rng.randint(-2, 2)) for _ in range(4)]
        total = quotient_curvature_at(theta, inclusion, beta, q, xi)
        assert total >= theta.value(inclusion.mat_vec(q), xi)


# --- Chern-form norms ---------------------------------------------------------------------

def test_chern_norm_zero_model():
    zero = NormPositivityModel(3, 2, 2, Mat.zeros(2, 6))
    for q in (1, 2):
        basis = [[1 if i == j else 0 for j in range(3)] for i in range(q)]
        assert chern_form_norm(zero, q, basis) == 0


def test_chern_norm_positive_line(g24_model):
    val = chern_form_norm(g24_model, 1, [[1, 0, 0, 0]])
    assert val > 0


def test_chern_norm_g24_generic_plane(g24_model):
    val = chern_form_norm(g24_model, 2, [[1, 0, 0, 1], [0, 1, -1, 0]])
    assert val > 0


def test_chern_norm_on_a_line_is_the_trace_form(g24_model):
    """For q = 1 the norm is c_1 = s_1 on the line of xi: conj(xi) . T . xi^T
    for the trace form T.  The other order, xi . T . conj(xi)^T, is not it."""
    rng = random.Random(8)
    models = [g24_model] + [_random_model(rng, rng.randint(1, 3), rng.randint(1, 4),
                                          rng.randint(1, 3)) for _ in range(12)]
    other_order = 0
    for model in models:
        trace = curvature_from_model(model).trace_form()
        for _ in range(3):
            xi = _gauss_vector(rng, model.dim_t)
            row = Mat.from_rows([xi])
            value = chern_form_norm(model, 1, [xi])
            assert value == (row.conj() @ trace @ row.transpose())[0, 0]
            other_order += value != (row @ trace @ row.conj_transpose())[0, 0]
    assert other_order


def test_chern_norm_rejects_spanning_vectors_of_the_wrong_length(g24_model):
    for rows in ([[1, 0, 0]], [[1, 0, 0, 0, 0]], [[1, 0, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError):
            chern_form_norm(g24_model, len(rows), rows)


def test_trace_power_vanishing_equivalence_seeded():
    rng = random.Random(41)
    for _ in range(12):
        model = _random_model(rng, rng.randint(1, 2), rng.randint(1, 3),
                              rng.randint(1, 2))
        r = tangent_to_hom_rank(model)
        for q in range(1, model.dim_t + 1):
            assert trace_form_power_vanishes(model, q) == (r < q)


# --- semipositivity reports ------------------------------------------------------------

def test_semipositivity_report(g24_model):
    theta = curvature_from_model(g24_model)
    rep = strong_semipositivity_check([theta], seed=3)
    assert all(rep.semi_positive)
    assert all(m >= 0 for m in rep.sampled_minima)
    assert rep.strongly_semi_positive     # A: T -> Hom(E,G) is injective here


def test_semipositivity_zero_model():
    zero = curvature_from_model(NormPositivityModel(2, 2, 1, Mat.zeros(1, 4)))
    rep = strong_semipositivity_check([zero], seed=3)
    assert all(rep.semi_positive)
    assert not rep.strongly_semi_positive


# --- the curvature forms against their index loops --------------------------------------

# unit fiber vectors with Gaussian rational entries, one per rank
UNIT = {1: [GaussianRational(Fraction(3, 5), Fraction(4, 5))],
        2: [GaussianRational(Fraction(3, 5)), GaussianRational(0, Fraction(-4, 5))],
        3: [GaussianRational(Fraction(2, 3)), GaussianRational(0, Fraction(1, 3)),
            GaussianRational(Fraction(-2, 3))]}


def _gauss_vector(rng, n):
    return [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]


def assert_forms_match_loops(model, rng):
    theta = curvature_from_model(model)
    e, xi = _gauss_vector(rng, model.rank_e), _gauss_vector(rng, model.dim_t)
    assert theta.value(e, xi) == ref.value(theta, e, xi)
    assert theta.horizontal_form(e) == ref.horizontal_form(theta, e)
    assert theta.trace_form() == ref.trace_form(theta)
    assert flat_directions(model, e) == ref.flat_directions(model, e)
    unit = UNIT[model.rank_e]
    assert flat_directions(model, unit) == ref.flat_directions(model, unit)
    form = projectivized_chern_form(model, unit)
    assert form.horizontal == ref.horizontal_form(theta, unit)
    assert form.vertical == ref.vertical_block(model, unit)
    dim_s = rng.randint(1, 3)
    beta = [Mat(dim_s, model.rank_e, _gauss_vector(rng, dim_s * model.rank_e))
            for _ in range(model.dim_t)]
    q = _gauss_vector(rng, dim_s)
    inclusion = Mat(model.rank_e, dim_s, _gauss_vector(rng, model.rank_e * dim_s))
    expected = theta.value(inclusion.mat_vec(q), xi) + ref.quotient_correction(beta, q, xi)
    assert quotient_curvature_at(theta, inclusion, beta, q, xi) == expected


def test_forms_match_index_loops_on_g24(g24_model):
    rng = random.Random(17)
    for _ in range(10):
        assert_forms_match_loops(g24_model, rng)
    s2 = sym_power_model(g24_model, 2)
    unit = [ONE, ZERO, ZERO, ZERO]
    sym_basis = sym_subspace_basis(2, 2)
    form = projectivized_chern_form(s2, unit, fiber_subspace=sym_basis)
    assert form.vertical == ref.vertical_block(s2, unit, sym_basis)
    assert form.horizontal == ref.horizontal_form(curvature_from_model(s2), unit)


def test_forms_match_index_loops_on_seeded_complex_models():
    rng = random.Random(23)
    for _ in range(30):
        model = _random_model(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        assert_forms_match_loops(model, rng)


def assert_model_maps_match_loops(model, rng):
    for _ in range(3):
        e, xi = _gauss_vector(rng, model.rank_e), _gauss_vector(rng, model.dim_t)
        assert model.apply(e, xi) == ref.apply(model, e, xi)
    assert tangent_to_hom_rank(model) == ref.tangent_to_hom_rank(model)
    for q in range(min(model.dim_t, model.rank_g) + 1):
        rows = [_gauss_vector(rng, model.dim_t) for _ in range(q)]
        assert chern_form_norm(model, q, rows) == ref.chern_form_norm(model, q, rows)
    for k in (1, 2, 3):
        assert sym_power_model(model, k) == ref.sym_power_model(model, k)


def test_tangent_rank_matches_the_stacked_column_blocks():
    """The rows of A read as rank_g * rank_e rows of length dim_t are the rows
    of the stacked column blocks A (e_alpha (x) I_T) in another order, on
    real and Gaussian models, with no G or no tangent directions too."""
    rng = random.Random(41)
    shapes = set()
    for trial in range(160):
        rank_e, dim_t, rank_g = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)
        entries = [GaussianRational(rng.choice((0, 0, 1, -1, 2)),
                                    rng.choice((0, 1, -1)) if trial % 2 else 0)
                   for _ in range(rank_g * rank_e * dim_t)]
        model = NormPositivityModel(dim_t, rank_e, rank_g, Mat(rank_g, rank_e * dim_t, entries))
        assert tangent_to_hom_rank(model) == ref.tangent_to_hom_rank_by_blocks(model), trial
        shapes.add((rank_g == 0, dim_t == 0, model.a.is_real()))
    assert {(True, False, True), (False, True, True), (False, False, False)} <= shapes


def test_model_maps_match_index_loops_on_g24(g24_model):
    rng = random.Random(41)
    assert_model_maps_match_loops(g24_model, rng)
    assert chern_form_norm(g24_model, 2, [[1, 0, 0, 1], [0, 1, -1, 0]]) == \
        ref.chern_form_norm(g24_model, 2, [[1, 0, 0, 1], [0, 1, -1, 0]])


def test_model_maps_match_index_loops_on_seeded_complex_models():
    rng = random.Random(43)
    models = [_random_model(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
              for _ in range(20)]
    # shapes without rows or columns: no G, no T
    models += [NormPositivityModel(2, 2, 0, Mat.zeros(0, 4)),
               NormPositivityModel(0, 2, 2, Mat.zeros(2, 0))]
    for model in models:
        assert_model_maps_match_loops(model, rng)


def test_empty_quotient_correction():
    theta = curvature_from_model(NormPositivityModel(0, 1, 1, Mat.zeros(1, 0)))
    assert quotient_curvature_at(theta, Mat.identity(1), [], [1], []) == 0


# --- multiplier ideals -------------------------------------------------------------------

def test_multiplier_whole_ring():
    ideal = multiplier_ideal_monomials([1, 1], 8)
    assert ideal.generators == ((0, 0),)


def test_multiplier_cubic_generators():
    ideal = multiplier_ideal_monomials([4, 4], 12)
    assert ideal.generators == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert ideal.monomial_strings() == ("z2^3", "z1*z2^2", "z1^2*z2", "z1^3")


def test_multiplier_single_variable():
    ideal = multiplier_ideal_monomials([3], 8)
    assert ideal.generators == ((3,),)


def test_multiplier_antichain_and_generation():
    ideal = multiplier_ideal_monomials([Fraction(5, 2), 4], 10)
    gens = ideal.generators
    # antichain under divisibility
    for a in gens:
        for b in gens:
            if a != b:
                assert not all(x <= y for x, y in zip(a, b))
    # generates exactly the membership set up to the bound
    from itertools import product
    alpha = [Fraction(5, 2), Fraction(4)]

    def member(beta):
        return sum(Fraction(b + 1) / a for b, a in zip(beta, alpha)) > 1
    for beta in product(range(7), repeat=2):
        generated = any(all(x >= y for x, y in zip(beta, g)) for g in gens)
        assert generated == member(beta)


def _box_walk(alpha, degree_bound):
    """The generators and truncation flag from two walks of the
    (bound+1)^n box, as multiplier_ideal_monomials first computed them."""
    from itertools import product
    alpha = [Fraction(a) for a in alpha]
    n = len(alpha)

    def member(beta):
        return sum(Fraction(b + 1, 1) / a for b, a in zip(beta, alpha)) > 1

    gens = [beta for beta in product(range(degree_bound + 1), repeat=n)
            if sum(beta) <= degree_bound and member(beta)
            and not any(beta[j] and member(beta[:j] + (beta[j] - 1,) + beta[j + 1:])
                        for j in range(n))]
    truncated = any(sum(beta) == degree_bound and not member(beta)
                    for beta in product(range(degree_bound + 1), repeat=n))
    return tuple(sorted(gens)), truncated


def test_multiplier_simplex_walk_matches_box_walk():
    rng = random.Random(29)
    cases = [([], 0), ([], 3), ([1], 0), ([Fraction(1, 2)], 0), ([4, 4], 3), ([4, 4], 12)]
    cases += [([Fraction(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))],
               rng.randint(0, 8)) for _ in range(25)]
    for alpha, bound in cases:
        ideal = multiplier_ideal_monomials(alpha, bound)
        assert (ideal.generators, ideal.truncated) == _box_walk(alpha, bound), (alpha, bound)
