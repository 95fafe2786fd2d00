"""Hodge-metric polynomials of nilpotent orbits and their Chern forms.

In the coordinates x_j = -log|t_j| the metric of the canonically extended
determinant line bundle is a homogeneous polynomial P(x), positive on the
open positive orthant; its log-Hessian with a sign flip is the Chern form,
and the leading part in any subset of the variables factors through the
corresponding boundary stratum.  All evaluation is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
import random

from .errors import DegenerateDet, NoFactorization, NotEffective, NotPolarized, ZeroAtPoint
from .lmhs import (
    PolarizedOrbitSpec, associated_graded_orbit, hermitian_sign,
    piece_hodge_numbers, verify_polarized_lmhs,
)
from .matrices import Mat, hermitian_psd_status
from .polynomials import MultiPoly, poly_mat_det, poly_matrix
from .records import Record


# ---------------------------------------------------------------------------
# Metric matrix and metric polynomial
# ---------------------------------------------------------------------------

class MetricMatrix(Record):
    """Hermitian-matrix-valued polynomial of the Hodge metric on a frame of
    the top filtration level, block-diagonal over the string levels."""

    blocks: tuple          # (level i, frame basis Mat, matrix of MultiPoly)
    num_vars: int

    def full(self):
        size = sum(b[1].rows for b in self.blocks)
        zero = MultiPoly.zero(self.num_vars)
        out = [[zero] * size for _ in range(size)]
        off = 0
        for _, frame, mat in self.blocks:
            m = frame.rows
            for a in range(m):
                for b in range(m):
                    out[off + a][off + b] = mat[a][b]
            off += m
        return out


class MetricPolynomial(Record):
    """Normalized metric polynomial with its scaling record."""

    p: MultiPoly
    normalization: Fraction    # raw leading coefficient that was divided out
    num_vars: int
    degree: int

    def __str__(self):
        return self.p.to_string("x")


def _require_valid(spec: PolarizedOrbitSpec):
    """(weight filtration, bigrading) of a spec that passes validation."""
    report = verify_polarized_lmhs(spec)
    if not report.all_passed:
        names = ", ".join(c.name for c in report.failed())
        raise NotPolarized(f"orbit fails validation: {names}")
    return report.lmhs


def hodge_metric_matrix(spec: PolarizedOrbitSpec, *, validate: bool = True) -> MetricMatrix:
    """Exact Hermitian metric on the canonical frame of the top flag level.

    Block i is  sign(i) * Q((sum_j x_j N_j)^i u_a, conj u_b)  on a canonical
    basis of I^{weight, i}; physical positive constants (2^i/i! and powers of
    1/4pi^2 from the cut-off coordinates) are divided out and recorded only
    through the sign unit.  The N_j commute, so (sum_j x_j N_j)^i is the sum
    over |alpha| = i of (i choose alpha) x^alpha N^alpha, and the coefficient
    of x^alpha in block i is sign(i) (i choose alpha) F (N^alpha)^T Q conj(F)^T
    for the frame F: one matrix product per monomial.
    """
    wf, bi = _require_valid(spec) if validate else spec.lmhs()
    if not bi.effective:
        raise NotEffective("bigrading has pieces outside the effective range")
    n, k = spec.weight, spec.num_params
    transposes = [nj.transpose() for nj in spec.nilpotents]
    blocks = []
    for i in range(0, n + 1):
        frame = bi.piece(n, i)
        if frame.rows == 0:
            continue
        unit = hermitian_sign(n, i, i)
        # F (N^alpha)^T for |alpha| = i, each alpha reached once by taking j
        # non-decreasing; a zero product stays zero, so it is dropped
        powers = [((0,) * k, 0, frame)]
        for _ in range(i):
            powers = [(alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:], j, fn @ transposes[j])
                      for alpha, lo, fn in powers for j in range(lo, k)]
            powers = [t for t in powers if not t[2].is_zero()]
        right = spec.q @ frame.conj_transpose()
        coeffs = {}
        for alpha, _, fn in powers:
            c = (fn @ right).scale(unit * (factorial(i) // prod(map(factorial, alpha))))
            if c.conj_transpose() != c:
                raise NotPolarized("metric block is not Hermitian")
            coeffs[alpha] = c
        blocks.append((i, frame, poly_matrix(k, coeffs)))
    if sum(b[1].rows for b in blocks) != spec.flag[0].rows:
        raise NotEffective("frame does not exhaust the top flag level")
    return MetricMatrix(tuple(blocks), k)


def hodge_metric_polynomial(spec: PolarizedOrbitSpec, *, validate: bool = True) -> MetricPolynomial:
    """Product of the block determinants, normalized to leading coefficient 1."""
    mm = hodge_metric_matrix(spec, validate=validate)
    raw = MultiPoly.const(mm.num_vars, 1)
    for i, frame, mat in mm.blocks:
        block_det = poly_mat_det(mat)
        if i > 0 and block_det.is_zero():
            raise DegenerateDet(f"block at level {i} has vanishing determinant")
        raw = raw * block_det
    if raw.is_zero():
        raise DegenerateDet("metric determinant vanishes identically")
    if not raw.is_real():
        raise DegenerateDet("metric determinant is not a real polynomial")
    lead = raw.leading_coefficient()
    if lead <= 0:
        raise DegenerateDet("leading coefficient is not positive")
    p = raw.scale(Fraction(1, 1) / lead)
    expected = sum(i * frame.rows for i, frame, _ in mm.blocks)
    if not p.is_homogeneous() or (p.terms and p.total_degree() != expected):
        raise DegenerateDet("metric polynomial has unexpected degree structure")
    return MetricPolynomial(p, Fraction(lead), mm.num_vars, expected)


# ---------------------------------------------------------------------------
# Chern form samples
# ---------------------------------------------------------------------------

class ChernSample(Record):
    """Exact value of -Hess(log P) at a positive rational point."""

    x: tuple
    g: Mat
    psd: bool
    rank: int


def chern_form_at(p, x) -> ChernSample:
    """G_ij = (dP_i dP_j - P dP_ij) / P^2 evaluated exactly at x.

    `p` is a real MultiPoly (ValueError otherwise) or a MetricPolynomial.
    With P(x), its partials and its Hessian read over one common denominator
    as V, F_i and S_ij (one walk over the terms of P), G is the int matrix
    F F^T - V S over V^2."""
    xs = [Fraction(v) for v in x]
    v, rows = _chern_rows(p.p if isinstance(p, MetricPolynomial) else p, xs)
    g = Mat.from_int_rows(rows, v * v)
    psd, rk, _ = hermitian_psd_status(g)
    return ChernSample(tuple(xs), g, psd, rk)


def _chern_rows(poly: MultiPoly, xs):
    """(V, rows): the int rows F_i F_j - V S_ij of -Hess(log P) at the
    Fraction point xs over V^2.  Raises ValueError when P is not real and
    ZeroAtPoint where P is zero."""
    val, grad, hess, _ = poly.value_gradient_hessian(xs)
    if val == 0:
        raise ZeroAtPoint(f"polynomial vanishes at {xs}")
    k = len(grad)
    rows = [[0] * k for _ in range(k)]
    for i, row in enumerate(hess):
        fi = grad[i]
        for j, s in enumerate(row):
            rows[i][j] = rows[j][i] = fi * grad[j] - val * s
    return val, rows


# ---------------------------------------------------------------------------
# Stratum factorization
# ---------------------------------------------------------------------------

class StratumFactorization(Record):
    subset: tuple
    leading: MultiPoly
    p_i: MultiPoly          # variables in the subset only
    p_ic: MultiPoly         # variables in the complement only
    remainder: MultiPoly
    stratum_poly: MultiPoly  # complement metric polynomial on its own variables
    deg_bound: int


def _split_exponent(exp, subset):
    ei = tuple(e if j in subset else 0 for j, e in enumerate(exp))
    ec = tuple(0 if j in subset else e for j, e in enumerate(exp))
    return ei, ec


def stratum_metric_polynomial(spec: PolarizedOrbitSpec, subset) -> MultiPoly:
    """Metric polynomial of the boundary stratum, in the complement variables.

    Product over the primitive graded pieces of the stratum degeneration,
    normalized to leading coefficient 1.
    """
    num_vars = spec.num_params - len(set(subset))
    return _pieces_polynomial(associated_graded_orbit(spec, subset), num_vars)


def _pieces_polynomial(pieces, num_vars: int) -> MultiPoly:
    acc = MultiPoly.const(num_vars, 1)
    for piece in pieces:
        acc = acc * hodge_metric_polynomial(piece.orbit, validate=False).p
    lead = acc.leading_coefficient()
    if lead <= 0:
        raise DegenerateDet("stratum polynomial has non-positive leading coefficient")
    return acc.scale(1 / lead)


def stratum_factorization(p: MetricPolynomial, subset, spec: PolarizedOrbitSpec) -> StratumFactorization:
    """Split P into its subset-leading part P_I * P_{I^c} plus lower terms."""
    subset = sorted(set(subset))
    k = p.num_vars
    if not subset or len(subset) >= k:
        raise ValueError("subset must be a nonempty proper subset of the variables")
    weights = [1 if j in subset else 0 for j in range(k)]
    leading = p.p.leading_part_by_weight(weights)
    remainder = p.p - leading
    deg_i = leading.weighted_degree(weights)
    if remainder and remainder.weighted_degree(weights) >= deg_i:
        raise NoFactorization("remainder is not lower order in the subset degree")

    # group by subset-exponent pattern: P_{I^c} is the first group and P_I holds
    # each group's coefficient at P_{I^c}'s leading exponent, so P_I * P_{I^c}
    # is the leading part exactly when every group is a multiple of the first
    groups = {}
    for exp, c in leading.terms.items():
        ei, ec = _split_exponent(exp, set(subset))
        groups.setdefault(ei, {})[ec] = c
    p_ic = MultiPoly(k, groups[min(groups)])
    top, top_c = p_ic.canonical_terms()[0]
    p_i = MultiPoly(k, {ei: g.get(top, 0) / top_c for ei, g in groups.items()})
    if p_i * p_ic != leading:
        raise NoFactorization("leading part does not factor into subset and complement parts")

    # degree bound from the stratum Hodge numbers
    pieces = associated_graded_orbit(spec, subset)
    hs = piece_hodge_numbers(pieces)
    bound = sum(j * h for j, h in hs.items())
    if deg_i != bound:
        raise NoFactorization(
            f"subset degree {deg_i} does not match stratum Hodge numbers ({bound})")

    # the complement factor is the stratum metric polynomial, up to a
    # positive constant
    complement = [j for j in range(k) if j not in set(subset)]
    mapping = {j: complement.index(j) for j in complement}
    p_ic_small = p_ic.rename_vars(len(complement), mapping)
    stratum = _pieces_polynomial(pieces, len(complement))
    lead_small = p_ic_small.leading_coefficient()
    if lead_small <= 0:
        raise NoFactorization("complement factor has non-positive leading coefficient")
    if p_ic_small.scale(1 / lead_small) != stratum:
        raise NoFactorization(
            "complement factor does not match the stratum metric polynomial")
    return StratumFactorization(tuple(subset), leading, p_i, p_ic, remainder,
                                stratum, bound)


# ---------------------------------------------------------------------------
# Restriction limits
# ---------------------------------------------------------------------------

# The largest final deviation a restriction-limit check accepts.
LIMIT_TOLERANCE = Fraction(1, 10 ** 6)


class LimitReport(Record):
    subset: tuple
    base: tuple
    scales: tuple
    rays: tuple
    deviations: tuple    # per ray: tuple of Fractions, one per scale
    eventually_decreasing: bool
    final_max_deviation: Fraction
    exact_zero: bool
    passed: bool


def _is_eventually_decreasing(devs) -> bool:
    if not devs:
        return False
    m = max(range(len(devs)), key=lambda i: devs[i])
    tail = devs[m:]
    return all(a >= b for a, b in zip(tail, tail[1:]))


def default_rays(subset, count: int, seed: int):
    """Positive rational directions over the subset: basis, all-ones, seeded."""
    rng = random.Random(seed)
    m = len(subset)
    rays = []
    for i in range(m):
        rays.append(tuple(Fraction(1) if j == i else Fraction(1, 2) for j in range(m)))
    rays.append(tuple(Fraction(1) for _ in range(m)))
    while len(rays) < count:
        rays.append(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)))
    # dedupe, preserve order
    seen, out = set(), []
    for r in rays:
        if r not in seen:
            seen.add(r)
            out.append(r)
    while len(out) < count:
        out.append(tuple(Fraction(rng.randint(1, 19), rng.randint(1, 9)) for _ in range(m)))
    return tuple(out[:max(count, 1)])


def restriction_limit_check(spec: PolarizedOrbitSpec, subset, *, rays=None,
                            scales=None, base=None, seed: int = 0) -> LimitReport:
    """Compare the complement block of the Chern form against the stratum form
    along rays going to infinity in the subset variables; the check passes
    when the deviations eventually decrease and end within LIMIT_TOLERANCE."""
    subset = sorted(set(subset))
    k = spec.num_params
    complement = [j for j in range(k) if j not in subset]
    if not subset or not complement:
        raise ValueError("subset must be a nonempty proper subset")
    if scales is None:
        scales = tuple(Fraction(10) ** e for e in range(1, 9))
    scales = tuple(Fraction(s) for s in scales)
    if not scales:
        raise ValueError("scales must be nonempty")
    if sorted(scales) != list(scales):
        raise ValueError("scales must be increasing")
    if scales[0] <= 0:
        raise ValueError("scales must be positive")
    rays = default_rays(subset, 5, seed) if rays is None else tuple(rays)
    if not rays:
        raise ValueError("rays must be nonempty")
    for ray in rays:
        if len(ray) != len(subset) or any(Fraction(c) <= 0 for c in ray):
            raise ValueError(f"rays: {tuple(ray)} is not {len(subset)} positive numbers, "
                             "one per variable of the subset")
    base = tuple(Fraction(b) for b in ([1] * len(complement) if base is None else base))
    if len(base) != len(complement) or any(b <= 0 for b in base):
        raise ValueError(f"base: {base} is not {len(complement)} positive numbers, "
                         "one per variable off the subset")
    p = hodge_metric_polynomial(spec).p
    stratum = stratum_metric_polynomial(spec, subset)

    # the stratum form is y / E on the complement block; a sample entry x / D
    # deviates by |x/D - y/E| / max(1, |y/E|) = |x E - y D| / (D max(E, |y|)),
    # so the entries of one sample are compared on ints, over max(E, |y|)
    w, limit = _chern_rows(stratum, list(base))
    e = w * w
    entries = [(ja, jb, limit[a][b], max(e, abs(limit[a][b])))
               for a, ja in enumerate(complement) for b, jb in enumerate(complement[:a + 1])]

    all_devs = []
    exact_zero = True
    for ray in rays:
        devs = []
        for s in scales:
            x = [Fraction(0)] * k
            for pos, j in enumerate(complement):
                x[j] = base[pos]
            for pos, j in enumerate(subset):
                x[j] = s * Fraction(ray[pos])
            v, rows = _chern_rows(p, x)
            d = v * v
            num, over = 0, 1
            for ja, jb, y, m in entries:
                n = abs(rows[ja][jb] * e - y * d)
                if n * over > num * m:
                    num, over = n, m
            worst = Fraction(num, d * over)
            devs.append(worst)
            if worst != 0:
                exact_zero = False
        all_devs.append(tuple(devs))
    final_max = max(d[-1] for d in all_devs)
    decreasing = all(_is_eventually_decreasing(list(d)) for d in all_devs)
    passed = decreasing and final_max <= LIMIT_TOLERANCE
    return LimitReport(tuple(subset), base, scales, rays, tuple(all_devs),
                       decreasing, final_max, exact_zero, passed)

