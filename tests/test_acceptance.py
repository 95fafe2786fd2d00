"""Acceptance suite: the exit criteria, one test per criterion.

Every criterion prints one PASS/FAIL line; tolerances are pinned here and
nowhere else.  Exact values are asserted exactly; the single analytic
tolerance (criterion 3) is 10^-6 at the largest scale 10^8.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from conftest import random_fraction, random_nilpotent
from hodgecalc.lmhs import hermitian_psd_status, verify_polarized_lmhs
from hodgecalc.matrices import Mat, rank
from hodgecalc.polynomials import MultiPoly, poly_mat_det
from hodgecalc.rationals import GaussianRational, ZERO, ONE

TOL = Fraction(1, 10 ** 6)
SCALES = tuple(Fraction(10) ** e for e in range(1, 9))


def _report(name: str, passed: bool, detail: str = ""):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, name


def x(k, j):
    return MultiPoly.variable(k, j)


def test_criterion_1_metric_polynomial(dollar_bill):
    start = time.perf_counter()
    from hodgecalc.orbit import hodge_metric_polynomial
    p = hodge_metric_polynomial(dollar_bill)
    elapsed = time.perf_counter() - start
    expected = x(3, 0) * x(3, 1) + x(3, 0) * x(3, 2) + x(3, 1) * x(3, 2)
    ok = p.p == expected and p.normalization > 0 and elapsed < 1.0
    _report("criterion 1: boundary metric polynomial", ok,
            f"P = {p.p}, {elapsed:.3f}s")


def test_criterion_2_metric_matrix(dollar_bill):
    from hodgecalc.orbit import hodge_metric_matrix, hodge_metric_polynomial
    mm = hodge_metric_matrix(dollar_bill)
    p = hodge_metric_polynomial(dollar_bill)
    (level, frame, mat), = mm.blocks
    expected = [[x(3, 0) + x(3, 2), x(3, 2)], [x(3, 2), x(3, 1) + x(3, 2)]]
    entries_ok = all(mat[i][j] == expected[i][j] for i in range(2) for j in range(2))
    det_ok = poly_mat_det(mm.full()) == p.p.scale(p.normalization)
    _report("criterion 2: metric matrix and its determinant",
            entries_ok and det_ok)


def test_criterion_3_restriction_limits(dollar_bill, commuting_pair):
    start = time.perf_counter()
    from hodgecalc.orbit import restriction_limit_check
    single = restriction_limit_check(dollar_bill, [2], scales=SCALES)
    ok1 = (len(single.rays) >= 5 and single.eventually_decreasing
           and single.final_max_deviation <= TOL)
    pair = restriction_limit_check(dollar_bill, [1, 2], scales=SCALES)
    ok2 = pair.final_max_deviation <= TOL and pair.eventually_decreasing
    split = restriction_limit_check(commuting_pair, [1], scales=SCALES[:4])
    ok3 = split.exact_zero
    elapsed = time.perf_counter() - start
    _report("criterion 3: restriction limits", ok1 and ok2 and ok3
            and elapsed < 10.0,
            f"final deviations {single.final_max_deviation} / "
            f"{pair.final_max_deviation}, split exact zero, {elapsed:.2f}s")


def test_criterion_4_monomial_maps(dollar_bill):
    from hodgecalc.monomial import (MonomialMap, compatibility_check,
                                    connected_refinement, monomial_map,
                                    stratum_monomial_map)
    full = monomial_map(dollar_bill)
    ok_full = full.exponents == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    stratum = stratum_monomial_map(dollar_bill, [0])
    ok_stratum = (stratum.monomial_strings() == ("t2*t3",)
                  and stratum.variables == (1, 2))
    ok_compat = True
    for r in range(1, 3):
        for small in combinations(range(3), r):
            rest = [j for j in range(3) if j not in small]
            for extra in range(1, len(rest) + 1):
                for add in combinations(rest, extra):
                    rep = compatibility_check(dollar_bill, list(small),
                                              sorted(small + add))
                    ok_compat = ok_compat and rep.passed
    ref = connected_refinement(MonomialMap(((2,),), (0,)))
    ok_refine = ref.invariant_factors == (2,)
    _report("criterion 4: monomial maps, compatibility, refinement",
            ok_full and ok_stratum and ok_compat and ok_refine)


def test_criterion_5_kernel_dimension_formulas():
    start = time.perf_counter()
    from hodgecalc.horizontal import (direction_with_block, graded_end_algebra,
                                      kernel_dimension, phs_weight1,
                                      phs_weight2, top_block)
    rng = random.Random(29)

    def _random_invertible(size):
        while True:
            m = Mat.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(size)]
                               for _ in range(size)])
            if rank(m) == size:
                return m

    def reps_with_rank(ge, r, count=3):
        """Deterministic pattern plus seeded same-rank variants.

        Weight one: blocks are symmetric, so variants are congruences of the
        diagonal pattern; weight two: every block is attainable, so variants
        are arbitrary equivalences."""
        phs = ge.phs
        n = phs.weight
        rows_src = phs.pieces[(n, 0)].rows
        rows_dst = phs.pieces[(n - 1, 1)].rows
        base = Mat.from_rows([[1 if (i == j and i < r) else 0
                               for j in range(rows_src)] for i in range(rows_dst)])
        out = [direction_with_block(ge, base)]
        while len(out) < count:
            if n == 1:
                t = _random_invertible(rows_src)
                target = t.transpose() @ base @ t
            else:
                target = _random_invertible(rows_dst) @ base @ _random_invertible(rows_src)
            assert rank(target) == r
            out.append(direction_with_block(ge, target))
        return out

    ok = True
    for g in (1, 2, 3, 4):
        ge = graded_end_algebra(phs_weight1(g))
        for r in range(0, g + 1):
            for xi in reps_with_rank(ge, r):
                assert rank(top_block(ge, xi)) == r
                expected = (g - r + 1) * (g - r) // 2
                got = ge.piece_dim(-1) if xi.is_zero() else kernel_dimension(ge, xi)
                ok = ok and got == expected
    for h20 in (1, 2, 3):
        for h11 in (1, 2, 3, 4):
            ge = graded_end_algebra(phs_weight2(h20, h11))
            rmax = min(h20, h11)
            for r in range(0, rmax + 1):
                for xi in reps_with_rank(ge, r):
                    expected = (h20 - r) * (h11 - r)
                    got = (ge.piece_dim(-1) if xi.is_zero()
                           else kernel_dimension(ge, xi))
                    ok = ok and got == expected
            xi = reps_with_rank(ge, rmax, count=1)[0]
            ok = ok and ((kernel_dimension(ge, xi) == 0)
                         == ((h20 - rmax) * (h11 - rmax) == 0))
    elapsed = time.perf_counter() - start
    _report("criterion 5: kernel-dimension formulas", ok and elapsed < 60.0,
            f"{elapsed:.1f}s")


def test_criterion_6_chern_class_algebra():
    from hodgecalc.chern import (chern_generator, grothendieck_defect,
                                 schur_polynomial, segre_polynomial)
    c = lambda r, i: chern_generator(r, i).poly
    ok_s1 = segre_polynomial(1, 4).poly == c(4, 1)
    ok_s2 = segre_polynomial(2, 4).poly == c(4, 1) * c(4, 1) - c(4, 2)
    ok_groth = all(grothendieck_defect(q, r).poly.is_zero()
                   for q in range(1, 7) for r in range(1, 5))
    ok_schur = schur_polynomial([1, 1], 4).poly == c(4, 1) * c(4, 1) - c(4, 2)
    _report("criterion 6: Chern-class algebra",
            ok_s1 and ok_s2 and ok_groth and ok_schur)


def test_criterion_7_symmetric_power_positivity(g24_model):
    from hodgecalc.normpos import (curvature_from_model, flat_directions,
                                   projectivized_chern_form, sym_power_model,
                                   sym_subspace_basis, sym_vector,
                                   tangent_to_hom_rank)
    from hodgecalc.normpos import NormPositivityModel
    rng = random.Random(37)
    ok_seeded = True
    confirmed = 0
    for _ in range(12):
        r = rng.randint(2, 3)
        a = Mat.from_rows([[GaussianRational(Fraction(rng.randint(-2, 2)),
                                             Fraction(rng.randint(-2, 2)))
                            for _ in range(r * 2)] for _ in range(2 * r + 1)])
        model_r = NormPositivityModel(2, r, 2 * r + 1, a)
        if tangent_to_hom_rank(model_r) < model_r.dim_t:
            continue
        sk = sym_power_model(model_r, r)
        v, _ = sym_vector(tuple(range(r)), r)
        theta = curvature_from_model(sk)
        psd, _, pd = hermitian_psd_status(theta.horizontal_form(v))
        ok_seeded = ok_seeded and pd    # guaranteed once the rank condition holds
        confirmed += 1
    ok_seeded = ok_seeded and confirmed >= 3
    # the Grassmannian fixture: rank-one point has a 2-dim horizontal kernel
    form_v = projectivized_chern_form(g24_model, [1, 0])
    ok_kernel = form_v.horizontal_kernel_dim == 2
    _, flat_dim = flat_directions(g24_model, [1, 0])
    ok_flat = flat_dim == 2
    # split point of the symmetric square: positive definite throughout
    s2 = sym_power_model(g24_model, 2)
    theta2 = curvature_from_model(s2)
    v, _ = sym_vector((0, 1), 2)
    hpsd, hrank, hpd = hermitian_psd_status(theta2.horizontal_form(v))
    form = projectivized_chern_form(s2, [ONE, ZERO, ZERO, ZERO],
                                    fiber_subspace=sym_subspace_basis(2, 2))
    vpsd, _, vpd = hermitian_psd_status(form.vertical)
    _report("criterion 7: symmetric-power positivity",
            ok_seeded and ok_kernel and ok_flat and hpd and vpd)


def test_criterion_8_property_suites(dollar_bill, commuting_pair,
                                     duplicated_pair, elliptic_degeneration):
    from hodgecalc.orbit import chern_form_at, hodge_metric_polynomial
    from hodgecalc.weightfilt import (complete_sl2, grading_element,
                                      relative_weight_filtration_check,
                                      weight_filtration)
    rng = random.Random(43)
    count = 0
    ok_wf = True
    while count < 100:
        d = rng.choice([2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8])
        n = random_nilpotent(rng, d)
        wf = weight_filtration(n, d)       # postconditions checked internally
        y = grading_element(n, wf)
        triple = complete_sl2(n, y, weight=d)
        ok_wf = ok_wf and triple.check()
        count += 1

    ok_bigrading = True
    for spec in (dollar_bill, commuting_pair, duplicated_pair,
                 elliptic_degeneration):
        ok_bigrading = ok_bigrading and verify_polarized_lmhs(spec).all_passed

    ok_rwfp = True
    for spec in (dollar_bill, commuting_pair, duplicated_pair):
        k = spec.num_params
        for a in range(k):
            for b in range(k):
                if a != b:
                    rep = relative_weight_filtration_check(
                        spec.nilpotents[a], spec.nilpotents[b], spec.weight)
                    ok_rwfp = ok_rwfp and rep.holds
    na = Mat.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    nb = Mat.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    failure = relative_weight_filtration_check(na, nb, 2)
    ok_rwfp = ok_rwfp and not failure.holds

    ok_concave = True
    for spec in (dollar_bill, commuting_pair, duplicated_pair,
                 elliptic_degeneration):
        p = hodge_metric_polynomial(spec)
        for _ in range(100):
            pt = [random_fraction(rng) for _ in range(p.num_vars)]
            ok_concave = ok_concave and chern_form_at(p, pt).psd

    _report("criterion 8: property suites",
            ok_wf and count >= 100 and ok_bigrading and ok_rwfp and ok_concave,
            f"{count} seeded nilpotents")


def test_criterion_9_determinism(tmp_path):
    from hodgecalc.cli import main
    commands = [
        ["validate", "--input", "builtin:dollar-bill"],
        ["metric-poly", "--input", "builtin:dollar-bill"],
        ["bigrading", "--input", "builtin:dollar-bill"],
        ["chern", "--input", "builtin:dollar-bill", "--seed", "7"],
        ["limit-check", "--input", "builtin:dollar-bill", "--stratum", "3",
         "--scales", "1e1..1e8", "--seed", "7"],
        ["factorize", "--input", "builtin:dollar-bill", "--stratum", "3"],
        ["monomial-map", "--input", "builtin:dollar-bill"],
        ["stratum-map", "--input", "builtin:dollar-bill", "--stratum", "1"],
        ["refine", "--input", "builtin:duplicated-pair"],
        ["compat", "--input", "builtin:dollar-bill"],
        ["rwfp", "--input", "builtin:dollar-bill"],
        ["curvature", "--input", "builtin:grassmannian-g24", "--seed", "7"],
        ["horizontal", "--input", "builtin:weight2-normal-form", "--seed", "7"],
        ["schur", "--partition", "1,1", "--rank", "3"],
        ["segre", "--degree", "3", "--rank", "4"],
        ["multiplier-ideal", "--input", "builtin:alpha-example"],
    ]
    ok = True
    for i, argv in enumerate(commands):
        a = tmp_path / f"{i}a.json"
        b = tmp_path / f"{i}b.json"
        code_a = main(argv + ["--format", "json", "--output", str(a)])
        code_b = main(argv + ["--format", "json", "--output", str(b)])
        ok = ok and code_a == code_b and a.read_bytes() == b.read_bytes()
        ok = ok and code_a in (0, 1)
    _report("criterion 9: byte-identical reports under a fixed seed", ok,
            f"{len(commands)} subcommands")
