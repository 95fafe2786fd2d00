from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

import reference_weightfilt as ref
from conftest import direct_sum, random_nilpotent
from reference_weightfilt import weight_filtration_centered_by_intersections
from hodgecalc import matrices, weightfilt
from hodgecalc.errors import NoSolution, NotCommuting, NotNilpotent
from hodgecalc.matrices import (
    Mat, Splitting, inverse, nilpotent_powers, sub_contains, sub_dim, sub_equal, sub_full,
    sub_image, sub_zero,
)
from hodgecalc.schemas import fixture_names, load_fixture
from hodgecalc.weightfilt import (
    WeightFiltration, complete_sl2, grading_element, grading_splitting,
    integer_eigen_decomposition, relative_weight_filtration_check, weight_filtration,
    weight_filtration_centered, y_eigen_decomposition,
)


def test_jordan_block_weights():
    n = Mat.from_rows([[0, 1], [0, 0]])
    wf = weight_filtration(n, 1)
    assert wf.graded_dims == (1, 0, 1)
    assert sub_equal(wf.level(0), Mat.from_rows([[1, 0]]))
    assert sub_equal(wf.level(1), Mat.from_rows([[1, 0]]))


def test_zero_map_weights():
    for weight in (1, 2, 3):
        wf = weight_filtration(Mat.zeros(3, 3), weight)
        assert sub_dim(wf.level(weight - 1)) == 0
        assert sub_dim(wf.level(weight)) == 3


def test_dollar_bill_n1_weights(dollar_bill):
    # rank-one vanishing-cycle block: graded dimensions (1, 2, 1)
    wf = weight_filtration(dollar_bill.nilpotents[0], 1)
    assert wf.graded_dims == (1, 2, 1)
    # the full cone is maximally degenerate: (2, 0, 2)
    wf_sum = weight_filtration(dollar_bill.n_sum(), 1)
    assert wf_sum.graded_dims == (2, 0, 2)


def test_not_nilpotent_raises():
    with pytest.raises(NotNilpotent):
        weight_filtration(Mat.identity(2), 1)


def test_postconditions_seeded():
    rng = random.Random(17)
    for trial in range(30):
        d = rng.randint(2, 6)
        n = random_nilpotent(rng, d)
        wf = weight_filtration(n, d)   # weight large enough for any string
        for k in range(2 * d + 1):
            assert sub_contains(wf.level(k - 2), sub_image(n, wf.level(k)))


def test_uniqueness_against_independent_route():
    rng = random.Random(23)
    for trial in range(20):
        d = rng.randint(2, 6)
        n = random_nilpotent(rng, d)
        w1 = weight_filtration_centered(n)
        w2 = weight_filtration_centered_by_intersections(n)
        assert set(w1) == set(w2)
        for k in w1:
            assert sub_equal(w1[k], w2[k])


# --- the postconditions against the earlier Quotient-based checks ------------

def _outcome(check, *args):
    """The message of the NoSolution that check(*args) raises, or None."""
    try:
        check(*args)
    except NoSolution as exc:
        return str(exc)
    return None


def test_weight_filtration_check_matches_the_oracle():
    """W(N) checked against N, 3N, N^2, N + N^2 and an unrelated nilpotent.
    The first four all lower W by 2 (N^2 by 4), but N^2 fails Hard
    Lefschetz wherever W has a piece off the middle, and an unrelated
    nilpotent seldom lowers W at all."""
    rng = random.Random(3)
    outcomes = []
    for trial in range(250):
        d = rng.randint(2, 5)
        n = random_nilpotent(rng, d)
        wf = weight_filtration(n, len(nilpotent_powers(n)) - 1 + rng.randint(0, 1))
        for m in (n, n.scale(3), n @ n, n + n @ n, random_nilpotent(rng, d)):
            new = _outcome(weightfilt._check_weight_filtration, m, wf, nilpotent_powers(m))
            assert new == _outcome(ref.check_weight_filtration, m, wf)
            outcomes.append(new)
    assert len(outcomes) >= 1000
    assert set(outcomes) == {None, "internal error: N does not shift the filtration by -2",
                             "internal error: Hard Lefschetz map not bijective"}


def _jordan2():
    return Mat.from_rows([[0, 1], [0, 0]])


E1, E2 = Mat.from_rows([[1, 0]]), Mat.from_rows([[0, 1]])


@pytest.mark.parametrize("check,args,message", [
    (weightfilt._check_weight_filtration,
     (_jordan2().transpose(), weight_filtration(_jordan2(), 1), nilpotent_powers(_jordan2().transpose())),
     "N does not shift the filtration by -2"),
    # W(J2 + J1) at weight 1 has W_0 = <e1>, W_1 = <e1, e3>: e2 -> e3 lowers
    # W by 1, not 2, and passes Hard Lefschetz
    (weightfilt._check_weight_filtration,
     (Mat.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
      weight_filtration(Mat.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), 1),
      nilpotent_powers(Mat.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]]))),
     "N does not shift the filtration by -2"),
    (weightfilt._check_weight_filtration,
     (Mat.zeros(2, 2), WeightFiltration(1, (sub_zero(2), E1, Mat.identity(2)), (0, 1, 1)),
      nilpotent_powers(Mat.zeros(2, 2))),
     "graded dimensions not symmetric"),
    (weightfilt._check_weight_filtration,
     (Mat.zeros(2, 2), weight_filtration(_jordan2(), 1), nilpotent_powers(Mat.zeros(2, 2))),
     "Hard Lefschetz map not bijective"),
    (weightfilt._check_grading, (Splitting({2: E1, 4: E2}), weight_filtration(_jordan2(), 1)),
     "Y is not semisimple with the right spectrum"),
    (weightfilt._check_grading, (Splitting({1: E1, 2: E2}), weight_filtration(_jordan2(), 1)),
     "eigenspace dimension mismatch"),
    (weightfilt._check_grading, (Splitting({0: E2, 2: E1}), weight_filtration(_jordan2(), 1)),
     "eigenspace not inside W_k"),
], ids=["not-a-shift", "lowers-by-one", "asymmetric", "not-lefschetz", "spectrum", "dimension", "shifted-space"])
def test_each_postcondition_rejects(check, args, message):
    with pytest.raises(NoSolution, match=f"^internal error: {re.escape(message)}$"):
        check(*args)


def test_grading_check_probes_no_kernel(monkeypatch):
    calls = []
    kernel_space = weightfilt.kernel_space
    monkeypatch.setattr(weightfilt, "kernel_space", lambda m: calls.append(m) or kernel_space(m))
    for _, n, weight in ORBIT_CASES:
        wf = weight_filtration(n, weight)
        calls.clear()
        grading_splitting(n, wf)
        assert calls == []


# --- grading elements and triples --------------------------------------------

def test_grading_jordan_block():
    n = Mat.from_rows([[0, 1], [0, 0]])
    wf = weight_filtration(n, 1)
    y = grading_element(n, wf)
    assert y == Mat.diag([0, 2])


def test_grading_zero_map():
    wf = weight_filtration(Mat.zeros(2, 2), 3)
    y = grading_element(Mat.zeros(2, 2), wf)
    assert y == Mat.identity(2).scale(3)


def test_grading_dollar_bill_n3(dollar_bill):
    n3 = dollar_bill.nilpotents[2]
    wf = weight_filtration(n3, 1)
    y = grading_element(n3, wf)
    eig = integer_eigen_decomposition(y)
    assert {k: sub_dim(v) for k, v in eig.items()} == {0: 1, 1: 2, 2: 1}
    assert (y @ n3 - n3 @ y + n3.scale(2)).is_zero()


def test_complete_sl2_standard():
    n = Mat.from_rows([[0, 1], [0, 0]])
    triple = complete_sl2(n, Mat.diag([-1, 1]))
    assert triple.n_plus == Mat.from_rows([[0, 0], [1, 0]])
    assert triple.check()


def test_complete_sl2_zero():
    triple = complete_sl2(Mat.zeros(2, 2), Mat.zeros(2, 2))
    assert triple.n_plus.is_zero()


def test_complete_sl2_dollar_bill(dollar_bill):
    n1 = dollar_bill.nilpotents[0]
    wf = weight_filtration(n1, 1)
    y = grading_element(n1, wf)
    triple = complete_sl2(n1, y, weight=1)
    assert triple.check()


def test_sl2_seeded():
    rng = random.Random(31)
    for trial in range(15):
        d = rng.randint(2, 5)
        n = random_nilpotent(rng, d)
        wf = weight_filtration(n, d)
        y = grading_element(n, wf)
        triple = complete_sl2(n, y, weight=d)
        assert triple.check()


# --- n-string splittings and raising operators against the earlier oracle ----

def jordan_nilpotent(rng: random.Random, blocks) -> Mat:
    """Nilpotent Jordan blocks of the given sizes conjugated by a seeded
    unimodular matrix (lower times upper triangular)."""
    d = sum(blocks)
    rows = [[0] * d for _ in range(d)]
    start = 0
    for b in blocks:
        for i in range(start, start + b - 1):
            rows[i][i + 1] = 1
        start += b
    lower = Mat.from_rows([[1 if i == j else (rng.randint(-1, 1) if i > j else 0)
                            for j in range(d)] for i in range(d)])
    upper = Mat.from_rows([[1 if i == j else (rng.randint(-1, 1) if i < j else 0)
                            for j in range(d)] for i in range(d)])
    t = lower @ upper
    return t @ Mat.from_rows(rows) @ inverse(t)


def _orbit_cases():
    """(id, N, weight): every stratum cone of every orbit fixture, the empty
    one (N = 0) included, and the dollar-bill sums at d = 8 and 12."""
    cases = []
    for name in fixture_names():
        spec = load_fixture(name).obj
        if load_fixture(name).kind == "orbit":
            cases += [(f"{name}{list(s)}", spec.n_sum(set(s)), spec.weight)
                      for r in range(spec.num_params + 1)
                      for s in combinations(range(spec.num_params), r)]
    dollar_bill = load_fixture("dollar-bill").obj
    eight, twelve = direct_sum([dollar_bill] * 2), direct_sum([dollar_bill] * 3)
    return cases + [("sum8", eight.n_sum(), 1), ("sum8[0, 4]", eight.n_sum({0, 4}), 1),
                    ("sum12", twelve.n_sum(), 1), ("sum12[1, 3, 8]", twelve.n_sum({1, 3, 8}), 1)]


ORBIT_CASES = _orbit_cases()


def assert_same_as_oracle(n: Mat, weight: int):
    wf = weight_filtration(n, weight)
    y, split = grading_splitting(n, wf)
    y_ref, split_ref = ref.grading_splitting(n, wf)
    assert y == y_ref
    assert split.spaces == split_ref.spaces
    assert complete_sl2(n, y, weight=weight).n_plus == ref.complete_sl2(n, y, weight=weight).n_plus


@pytest.mark.parametrize("n,weight", [(n, w) for _, n, w in ORBIT_CASES],
                         ids=[i for i, _, _ in ORBIT_CASES])
def test_splitting_and_raising_match_the_oracle_on_orbits(n, weight):
    assert_same_as_oracle(n, weight)


def test_splitting_and_raising_match_the_oracle_on_seeded_nilpotents(monkeypatch):
    """Regular (one Jordan block) and non-regular seeded nilpotents up to
    d = 10; some of them need the primitive lifts corrected, which the
    oracle does one `_solve_in_subspace` at a time."""
    corrected = []
    solve_in_subspace = ref._solve_in_subspace
    monkeypatch.setattr(ref, "_solve_in_subspace",
                        lambda *args: corrected.append(1) or solve_in_subspace(*args))
    rng = random.Random(5)
    cases = 0
    for trial in range(24):
        d = rng.randint(2, 10)
        if trial % 2:
            n = random_nilpotent(rng, d)
        else:
            blocks = []
            while sum(blocks) < d:
                blocks.append(rng.randint(1, d - sum(blocks)))
            n = jordan_nilpotent(rng, blocks)
        assert_same_as_oracle(n, d)
        cases += 1
    assert cases >= 20
    assert corrected


def _repeated_blocks():
    """A conjugate of J2(-3) + J2(-3) + [3]: not semisimple, and its
    eigenvalues left after -3 and 3 are probed all equal -3 again."""
    t = Mat.from_rows([[1 if i == j else (1 if i == j + 1 else 0) for j in range(5)]
                       for i in range(5)])
    y = Mat.from_rows([[-3, 1, 0, 0, 0], [0, -3, 0, 0, 0], [0, 0, -3, 1, 0],
                       [0, 0, 0, -3, 0], [0, 0, 0, 0, 3]])
    return t @ y @ inverse(t)


def _jordan3():
    return Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


@pytest.mark.parametrize("n,y,weight", [
    (_jordan3(), Mat.identity(3), 0),
    (_jordan3(), Mat.zeros(3, 3), 0),
    (_jordan3(), Mat.diag([0, 1, 2]), 0),
    (Mat.from_rows([[0, 1], [0, 0]]), Mat.diag([1, 3]), 0),
    (Mat.zeros(2, 2), Mat.identity(2), 0),
    (_jordan3(), _jordan3(), 0),
    # no string vectors at all: every eigenvalue of the centred y is negative
    (_jordan3(), grading_element(_jordan3(), weight_filtration(_jordan3(), 3)), 4),
    (Mat.zeros(2, 2), Mat.identity(2).scale(-1), 0),
    (_jordan2(), Mat.diag([-3, -1]), 0),
    (Mat.zeros(5, 5), _repeated_blocks(), 0),
], ids=["identity", "zero", "diag-0-1-2", "grades-not-sl2", "n-zero-y-identity",
        "y-not-semisimple", "wrong-weight", "n-zero-y-negative", "all-weights-negative",
        "n-zero-y-repeated-blocks"])
def test_complete_sl2_errors_match_the_oracle(n, y, weight):
    with pytest.raises(NoSolution) as expected:
        ref.complete_sl2(n, y, weight=weight)
    with pytest.raises(NoSolution, match=f"^{re.escape(str(expected.value))}$"):
        complete_sl2(n, y, weight=weight)


@pytest.mark.parametrize("n", [
    Mat.zeros(5, 5), Mat.from_rows([[1 if (i, j) == (0, 1) else 0 for j in range(5)] for i in range(5)]),
], ids=["n-zero", "n-one-block"])
def test_complete_sl2_refuses_a_y_with_repeated_jordan_blocks(n):
    """The oracle probes y with the same eigenvalue routine, so the message
    is written out here: a y that is not semisimple is reported as such."""
    with pytest.raises(NoSolution, match="^matrix is not semisimple with integer eigenvalues$"):
        complete_sl2(n, _repeated_blocks())


JORDAN_TYPES = ([3, 3, 1, 1], [2, 2, 2], [4, 2, 2], [5, 3, 1], [8], [1, 1, 1, 1])


@pytest.mark.parametrize("blocks", JORDAN_TYPES, ids=[str(b) for b in JORDAN_TYPES])
def test_raising_operator_matches_the_oracle_on_jordan_types(blocks):
    """Repeated block sizes give the action of y on V/im n repeated
    eigenvalues, and more than one of them where the sizes differ."""
    n = jordan_nilpotent(random.Random(sum(blocks)), blocks)
    for weight in (max(blocks) - 1, max(blocks)):
        assert_same_as_oracle(n, weight)


# Primitive weights b - 1 with empty centred weights between them: (5, 1) has
# primitive vectors at 4 and 0 only, (6, 2, 2) at 5 and 1; the last two have
# several zero blocks, and N = 0 in the last.
GAP_TYPES = ([5, 1], [5, 3, 1], [7, 3], [4, 4, 1], [6, 2, 2], [3, 1, 1], [1, 1, 1, 1])


@pytest.mark.parametrize("blocks", GAP_TYPES, ids=[str(b) for b in GAP_TYPES])
def test_splitting_matches_the_oracle_on_jordan_types_with_gaps(blocks):
    """Each type conjugated by three seeded unimodular matrices, at the
    smallest weight it fits and two above it: the levels skipped for want
    of primitive vectors leave y, the splitting and the raising operator
    as the oracle, which lifts every level, has them."""
    for seed in range(3):
        n = jordan_nilpotent(random.Random(100 * seed + len(blocks)), blocks)
        for weight in range(max(blocks) - 1, max(blocks) + 2):
            assert_same_as_oracle(n, weight)


def test_grading_builds_kernels_only_at_primitive_weights(monkeypatch):
    """Two kernels at each centred weight m = b - 1 of a Jordan block of
    size b, the first of them the annihilator of W_(n-m-3), and none at a
    weight with no primitive vectors."""
    calls = []
    kernel_matrix = weightfilt.kernel_matrix
    monkeypatch.setattr(weightfilt, "kernel_matrix",
                        lambda m: calls.append(m) or kernel_matrix(m))
    for blocks in GAP_TYPES + JORDAN_TYPES:
        n = jordan_nilpotent(random.Random(7), blocks)
        for weight in (max(blocks) - 1, max(blocks)):
            wf = weight_filtration(n, weight)
            calls.clear()
            grading_splitting(n, wf)
            primitive = sorted({b - 1 for b in blocks}, reverse=True)
            assert len(calls) == 2 * len(primitive), (blocks, weight)
            assert calls[::2] == [wf.level(weight - m - 3) for m in primitive]


def test_nilpotent_chain_elimination_counts(monkeypatch):
    """Eliminations per call on a regular nilpotent of dimension 8 (one
    block: the three nilpotents of orbit-scaled have this shape) at weight
    8: 25 for the weight filtration, where canonicalizing each kernel, image
    and sum on its own took 58 and checking N W_k ⊆ W_(k-2) by ranks took
    42; 5 for the grading splitting, where lifting all 8 centred weights
    took 51 and its containment checks by ranks 13; 5 for the sl2 triple.
    The containment checks run on canonical levels, so they eliminate
    nothing."""
    n = random_nilpotent(random.Random(5), 8)
    assert len(nilpotent_powers(n)) == 8
    eliminated = []
    rref = matrices.rref
    # weightfilt binds no rref: every elimination goes through matrices
    assert not hasattr(weightfilt, "rref")
    monkeypatch.setattr(matrices, "rref", lambda m: eliminated.append(m) or rref(m))
    counts = []

    def counted(step, *args, **kwargs):
        eliminated.clear()
        out = step(*args, **kwargs)
        counts.append(len(eliminated))
        return out

    wf = counted(weight_filtration, n, 8)
    y = counted(grading_element, n, wf)
    counted(complete_sl2, n, y, weight=8)
    assert counts == [25, 5, 5]


def _seeded_y(rng: random.Random, n: Mat, kind: int):
    """(y, weight) of one of four kinds: a grading element of n, with its
    own weight or one off; one shifted by a scalar; a diagonal; any integer
    matrix."""
    d = n.rows
    top = len(nilpotent_powers(n)) - 1
    if kind == 0:
        w = top + rng.randint(0, 1)
        return grading_element(n, weight_filtration(n, w)), w + rng.choice((0, 0, 1, -1))
    if kind == 1:
        y = grading_element(n, weight_filtration(n, top))
        return y - Mat.identity(d).scale(rng.randint(-3, 3)), 0
    if kind == 2:
        return Mat.diag([rng.randint(-4, 4) for _ in range(d)]), 0
    return Mat.from_rows([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]), 0


def _sl2_outcome(complete, n, y, weight):
    try:
        return complete(n, y, weight=weight).n_plus
    except NoSolution as exc:
        return str(exc)


def test_complete_sl2_matches_the_oracle_on_seeded_pairs():
    """Seeded Jordan types up to d = 6 against the four kinds of y: the
    raising operator or the message of the failure is the oracle's."""
    rng = random.Random(11)
    outcomes = []
    for trial in range(200):
        d = rng.randint(1, 6)
        blocks = []
        while sum(blocks) < d:
            blocks.append(rng.randint(1, d - sum(blocks)))
        n = jordan_nilpotent(rng, blocks)
        y, weight = _seeded_y(rng, n, trial % 4)
        new = _sl2_outcome(complete_sl2, n, y, weight)
        assert new == _sl2_outcome(ref.complete_sl2, n, y, weight), (blocks, y, weight)
        outcomes.append(new if isinstance(new, str) else "ok")
    assert set(outcomes) == {"ok", "matrix is not semisimple with integer eigenvalues",
                             "no raising operator: y does not grade n by -2",
                             "no raising operator: y is not a grading element for n"}


def test_complete_sl2_probes_y_only_at_highest_weights(monkeypatch):
    """On the success path the spectrum is found once, on the k x k action
    of y on V/im n (k Jordan blocks), and y - m is probed only at the
    highest weights m, one per distinct block size.  N = 0 is left out:
    there k = d, so the probes of the spectrum are d x d too."""
    eigen_args, kernel_args = [], []
    eigen, kernel_space = weightfilt.integer_eigen_decomposition, weightfilt.kernel_space
    monkeypatch.setattr(weightfilt, "integer_eigen_decomposition",
                        lambda m: eigen_args.append(m) or eigen(m))
    monkeypatch.setattr(weightfilt, "kernel_space",
                        lambda m: kernel_args.append(m) or kernel_space(m))
    cases = [(jordan_nilpotent(random.Random(3), b), b) for b in JORDAN_TYPES[:-1]]
    for n, blocks in cases:
        d, weight = n.rows, max(blocks) - 1
        y = grading_element(n, weight_filtration(n, weight))
        eigen_args.clear()
        kernel_args.clear()
        complete_sl2(n, y, weight=weight)
        yc = y - Mat.identity(d).scale(weight)
        assert [(m.rows, m.cols) for m in eigen_args] == [(len(blocks), len(blocks))]
        probed = [m for m in kernel_args if m.rows == d]
        shifts = [(yc - m)[0, 0] for m in probed]
        assert [yc - m for m in probed] == [Mat.identity(d).scale(s) for s in shifts]
        assert shifts == sorted({b - 1 for b in blocks}, reverse=True)


# --- eigencomponent decompositions --------------------------------------------

def test_y_decomposition_of_n_itself():
    n = Mat.from_rows([[0, 1], [0, 0]])
    wf = weight_filtration(n, 1)
    y = grading_element(n, wf)
    comps = y_eigen_decomposition(n, y)
    assert set(comps) == {-2}
    assert comps[-2] == n


def test_y_decomposition_of_y():
    y = Mat.diag([0, 2, 2])
    comps = y_eigen_decomposition(y, y)
    assert set(comps) == {0}


def test_y_decomposition_dollar_bill(dollar_bill):
    # components of the third direction against the grading of the first:
    # weights 0, -1, -2 all appear for the rank-one vanishing cycle
    n1, n3 = dollar_bill.nilpotents[0], dollar_bill.nilpotents[2]
    wf = weight_filtration(n1, 1)
    y1 = grading_element(n1, wf)
    comps = y_eigen_decomposition(n3, y1)
    assert set(comps) == {0, -1, -2}
    assert all(m <= 0 for m in comps)
    total = Mat.zeros(4, 4)
    for c in comps.values():
        total = total + c
    assert total == n3


def test_y_decomposition_nonpositive_for_commuting_seeded(dollar_bill):
    # any direction commuting with the first has no positive components
    n1 = dollar_bill.nilpotents[0]
    wf = weight_filtration(n1, 1)
    y1 = grading_element(n1, wf)
    for other in dollar_bill.nilpotents[1:]:
        comps = y_eigen_decomposition(other, y1)
        assert all(m <= 0 for m in comps)


# --- relative weight filtrations ----------------------------------------------

def test_rwfp_zero_second():
    n = Mat.from_rows([[0, 1], [0, 0]])
    rep = relative_weight_filtration_check(n, Mat.zeros(2, 2), 1)
    assert rep.holds


def test_rwfp_dollar_bill_pairs(dollar_bill):
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            rep = relative_weight_filtration_check(
                dollar_bill.nilpotents[a], dollar_bill.nilpotents[b], 1)
            assert rep.holds, (a, b)


def test_rwfp_known_failure_pair():
    # two commuting rank-one maps hitting the same target line
    na = Mat.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    nb = Mat.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert na.commutes_with(nb)
    rep = relative_weight_filtration_check(na, nb, 2)
    assert not rep.holds


def test_rwfp_failure_found_by_search():
    """Seeded search over strictly-upper-triangular commuting pairs finds a
    violation, confirming the check can reject."""
    rng = random.Random(41)
    found = False
    for _ in range(200):
        a = Mat.from_rows([[0, rng.randint(-1, 1), rng.randint(-1, 1)],
                           [0, 0, rng.randint(-1, 1)], [0, 0, 0]])
        b = Mat.from_rows([[0, rng.randint(-1, 1), rng.randint(-1, 1)],
                           [0, 0, rng.randint(-1, 1)], [0, 0, 0]])
        if not a.commutes_with(b):
            continue
        if not relative_weight_filtration_check(a, b, 2).holds:
            found = True
            break
    assert found


def _upper_triangular(rng: random.Random, d: int) -> Mat:
    return Mat.from_rows([[rng.randint(-1, 1) if j > i else 0 for j in range(d)]
                          for i in range(d)])


def test_rwfp_matches_the_quotient_oracle():
    """Every ordered pair of every orbit fixture and 400 seeded commuting
    strictly upper triangular pairs of dimension 3 and 4, some of them
    failing."""
    pairs = [(spec.nilpotents[a], spec.nilpotents[b], spec.weight)
             for spec in (load_fixture(name).obj for name in fixture_names()
                          if load_fixture(name).kind == "orbit")
             for a in range(spec.num_params) for b in range(spec.num_params) if a != b]
    rng = random.Random(43)
    seeded = 0
    while seeded < 400:
        d = rng.choice((3, 3, 4))
        a, b = _upper_triangular(rng, d), _upper_triangular(rng, d)
        if a.commutes_with(b):
            pairs.append((a, b, d - 1))
            seeded += 1
    failing = 0
    for a, b, weight in pairs:
        rep = relative_weight_filtration_check(a, b, weight)
        assert rep == ref.relative_weight_filtration_check(a, b, weight)
        failing += not rep.holds
    assert failing


def test_rwfp_intersects_nothing_with_the_whole_space(monkeypatch, dollar_bill):
    """From level 2n up W(na+nb) is V, and those levels are read off without
    an intersection: 54 calls over the six ordered dollar-bill pairs, where
    intersecting at every level made 90, 36 of them with V first."""
    calls = []
    sub_intersect = weightfilt.sub_intersect
    monkeypatch.setattr(weightfilt, "sub_intersect",
                        lambda a, b: calls.append(a) or sub_intersect(a, b))
    k = dollar_bill.num_params
    for a in range(k):
        for b in range(k):
            if a != b:
                relative_weight_filtration_check(dollar_bill.nilpotents[a],
                                                 dollar_bill.nilpotents[b],
                                                 dollar_bill.weight)
    assert len(calls) == 54
    assert not any(sub_equal(a, sub_full(a.cols)) for a in calls)


def test_rwfp_noncommuting_raises():
    a = Mat.from_rows([[0, 1], [0, 0]])
    b = Mat.from_rows([[0, 0], [1, 0]])
    with pytest.raises(NotCommuting):
        relative_weight_filtration_check(a, b, 1)


def test_y_decomposition_polynomials_in_n_nonpositive():
    # any polynomial in a nilpotent commutes with it; its components against
    # the grading have non-positive weights only
    rng = random.Random(47)
    for _ in range(8):
        d = rng.randint(3, 6)
        n = random_nilpotent(rng, d)
        wf = weight_filtration(n, d)
        y = grading_element(n, wf)
        other = n @ n + n.scale(Fraction(rng.randint(1, 3)))
        comps = y_eigen_decomposition(other, y)
        assert all(m <= 0 for m in comps)
