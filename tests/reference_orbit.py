"""The entry-by-entry metric matrix, kept as the oracle of
``orbit.hodge_metric_matrix``; the Fraction-by-Fraction Chern form and the
Hessian-table Chern samples, kept as oracles of ``orbit.chern_form_at``; and
the restriction-limit loop over ``Mat`` entries, kept as the oracle of
``orbit.restriction_limit_check``.

The metric matrix is the loop the library ran before it built one matrix
product per monomial: for each frame vector u_a, the polynomial vector
(sum_j x_j N_j)^i u_a is built one nilpotent at a time, and each entry of
block i is sign(i) * Q(that vector, conj u_b), summed as ``MultiPoly``.

The Chern samples and the limit loop are the code the library ran before it
read P, its partials and its Hessian off one walk over the terms of P: every
partial derived once into a ``HessianTable`` and evaluated on its own, and
each deviation read off the entries of a sampled ``Mat``.

``stratum_factorization`` is ``orbit.stratum_factorization`` as it was
before it read P_I off the coefficients at P_{I^c}'s leading exponent: it
checks every subset-exponent pattern against a scalar multiple of the first
one, then multiplies the factors out again.

``permutation_monomial_check`` is the determinant-level shadow of the
Cattani-Kaplan-Schmid norm estimate (Ann. of Math. 123, 1986), which no
subcommand runs: for a variable ordering, the exponents of its chain
monomial, whether that monomial occurs in P, and whether the convex hull of
all chain monomials holds every monomial of P.  It is kept here as the
oracle of the sector estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import lcm

import reference_polynomials
from hodgecalc.cones import hull_facets, in_hull
from hodgecalc.errors import NoFactorization, NotEffective, NotPolarized, ZeroAtPoint
from hodgecalc.lmhs import (
    associated_graded_orbit, hermitian_psd_status, hermitian_sign, piece_hodge_numbers,
    stratum_hodge_numbers,
)
from hodgecalc.matrices import Mat
from hodgecalc.orbit import (
    LIMIT_TOLERANCE, ChernSample, LimitReport, MetricMatrix, MetricPolynomial,
    StratumFactorization, _is_eventually_decreasing, _pieces_polynomial, _require_valid,
    _split_exponent, default_rays, hodge_metric_polynomial, stratum_metric_polynomial,
)
from hodgecalc.polynomials import MultiPoly
from hodgecalc.rationals import ZERO, GaussianRational


def hodge_metric_matrix(spec, *, validate: bool = True) -> MetricMatrix:
    wf, bi = _require_valid(spec) if validate else spec.lmhs()
    if not bi.effective:
        raise NotEffective("bigrading has pieces outside the effective range")
    n, k, d = spec.weight, spec.num_params, spec.dim
    blocks = []
    for i in range(0, n + 1):
        frame = bi.piece(n, i)
        if frame.rows == 0:
            continue
        unit = hermitian_sign(n, i, i)
        mat = []
        for a in range(frame.rows):
            # poly-vector (sum_j x_j N_j)^i u_a
            vec = [MultiPoly.const(k, frame[a, c]) for c in range(d)]
            for _ in range(i):
                nxt = [MultiPoly.zero(k) for _ in range(d)]
                for j, nj in enumerate(spec.nilpotents):
                    xj = MultiPoly.variable(k, j)
                    for r in range(d):
                        acc = nxt[r]
                        row = nj.row(r)
                        for c in range(d):
                            if row[c] and vec[c]:
                                acc = acc + (vec[c] * xj).scale(row[c])
                        nxt[r] = acc
                vec = nxt
            row_out = []
            for b in range(frame.rows):
                acc = MultiPoly.zero(k)
                vb = [x.conj() for x in frame.row(b)]
                for r in range(d):
                    if not vec[r]:
                        continue
                    qrow = spec.q.row(r)
                    coef = ZERO
                    for c in range(d):
                        if qrow[c] and vb[c]:
                            coef = coef + qrow[c] * vb[c]
                    if coef:
                        acc = acc + vec[r].scale(coef)
                row_out.append(acc.scale(unit))
            mat.append(row_out)
        # Hermitian sanity
        for a in range(frame.rows):
            for b in range(frame.rows):
                if reference_polynomials.conj(mat[a][b]) != mat[b][a]:
                    raise NotPolarized("metric block is not Hermitian")
        blocks.append((i, frame, mat))
    if sum(b[1].rows for b in blocks) != spec.flag[0].rows:
        raise NotEffective("frame does not exhaust the top flag level")
    return MetricMatrix(tuple(blocks), k)


def chern_form_matrix(poly, x) -> Mat:
    """G_ij = (dP_i dP_j - P dP_ij) / P^2 at x, entry by entry in Fraction
    arithmetic, on the Fraction-coefficient copy of poly: the matrix that
    ``orbit.chern_form_at`` built before it cleared the values to ints."""
    p = reference_polynomials.MultiPoly(poly.num_vars, poly.terms)
    xs = [Fraction(v) for v in x]
    k = p.num_vars
    val = p.evaluate(xs)
    firsts = [p.partial_derivative(i) for i in range(k)]
    fvals = [f.evaluate(xs) for f in firsts]
    return Mat.from_rows([[(fvals[i] * fvals[j] - val * firsts[i].partial_derivative(j).evaluate(xs))
                           / (val * val) for j in range(k)] for i in range(k)])


@dataclass(frozen=True)
class HessianTable:
    """P with its first partials and the lower triangle of its Hessian,
    derived once and shared by every Chern sample of P."""

    p: MultiPoly
    firsts: tuple
    seconds: tuple           # seconds[i][j] = d_i d_j P for j <= i


def hessian_table(p) -> HessianTable:
    """The HessianTable of a MultiPoly or a MetricPolynomial."""
    poly = p.p if isinstance(p, MetricPolynomial) else p
    firsts = tuple(poly.partial_derivative(j) for j in range(poly.num_vars))
    seconds = tuple(tuple(f.partial_derivative(j) for j in range(i + 1))
                    for i, f in enumerate(firsts))
    return HessianTable(poly, firsts, seconds)


def chern_form_at(p, x) -> ChernSample:
    """G_ij = (dP_i dP_j - P dP_ij) / P^2 at x, each partial evaluated on
    its own: `p` is a MultiPoly, a MetricPolynomial or the HessianTable of
    either.  With every value brought over one common denominator, as
    V = L P(x), F_i = L dP_i(x) and S_ij = L dP_ij(x), G is the int matrix
    F F^T - V S over V^2."""
    table = p if isinstance(p, HessianTable) else hessian_table(p)
    xs = [Fraction(v) for v in x]
    val = _real(table.p.evaluate(xs))
    if val == 0:
        raise ZeroAtPoint(f"polynomial vanishes at {xs}")
    fvals = [_real(f.evaluate(xs)) for f in table.firsts]
    svals = [[_real(s.evaluate(xs)) for s in row] for row in table.seconds]
    common = lcm(val.denominator, *[v.denominator for v in fvals],
                 *[v.denominator for row in svals for v in row])
    v = val.numerator * (common // val.denominator)
    f = [q.numerator * (common // q.denominator) for q in fvals]
    k = table.p.num_vars
    rows = [[0] * k for _ in range(k)]
    for i, row in enumerate(svals):
        for j, s in enumerate(row):
            rows[i][j] = rows[j][i] = f[i] * f[j] - v * s.numerator * (common // s.denominator)
    g = Mat.from_int_rows(rows, v * v)
    psd, rk, _ = hermitian_psd_status(g)
    return ChernSample(tuple(xs), g, psd, rk)


def _real(value) -> Fraction:
    return value.real_or_raise() if isinstance(value, GaussianRational) else value


def restriction_limit_check(spec, subset, *, rays=None, scales=None, base=None,
                            seed: int = 0) -> LimitReport:
    """The complement block of a Chern sample of P's table against the
    stratum form, entry by entry over ``Mat`` entries, along each ray."""
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
    p = hodge_metric_polynomial(spec)
    stratum = stratum_metric_polynomial(spec, subset)

    g_limit = chern_form_at(stratum, base).g
    table = hessian_table(p)

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
            sample = chern_form_at(table, x)
            worst = Fraction(0)
            for a, ja in enumerate(complement):
                for b, jb in enumerate(complement):
                    diff = sample.g[ja, jb].real_or_raise() - g_limit[a, b].real_or_raise()
                    denom = max(Fraction(1), abs(g_limit[a, b].real_or_raise()))
                    worst = max(worst, abs(diff) / denom)
            devs.append(worst)
            if worst != 0:
                exact_zero = False
        all_devs.append(tuple(devs))
    final_max = max(d[-1] for d in all_devs)
    decreasing = all(_is_eventually_decreasing(list(d)) for d in all_devs)
    passed = decreasing and final_max <= LIMIT_TOLERANCE
    return LimitReport(tuple(subset), base, scales, rays, tuple(all_devs),
                       decreasing, final_max, exact_zero, passed)


def stratum_factorization(p, subset, spec) -> StratumFactorization:
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

    # group by subset-exponent pattern, check one common complement factor
    groups = {}
    for exp, c in leading.terms.items():
        ei, ec = _split_exponent(exp, set(subset))
        groups.setdefault(ei, {})[ec] = c
    patterns = sorted(groups)
    ref = MultiPoly(k, groups[patterns[0]])
    ref_lead = ref.leading_coefficient()
    p_i_terms = {}
    for ei in patterns:
        g = MultiPoly(k, groups[ei])
        lam = g.leading_coefficient() / ref_lead
        if g != ref.scale(lam):
            raise NoFactorization(
                "leading part does not factor into subset and complement parts")
        p_i_terms[ei] = lam
    p_i = MultiPoly(k, p_i_terms)
    p_ic = ref
    if p_i * p_ic != leading:
        raise NoFactorization("internal error: factor product mismatch")

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


@dataclass(frozen=True)
class PermutationMonomialReport:
    permutation: tuple
    exponents: tuple
    present: bool
    hull_ok: bool


def permutation_monomial_check(spec, permutation) -> PermutationMonomialReport:
    """Exponents of the chain monomial of a variable ordering, its presence in
    P, and the convex-hull bound on all monomials of P."""
    k = spec.num_params
    perm = list(permutation)
    if sorted(perm) != list(range(k)):
        raise ValueError("permutation must reorder 0..k-1")
    p = hodge_metric_polynomial(spec)
    numbers = {}          # subset -> stratum Hodge numbers, once per subset

    def chain_exponents(order):
        prev, exps = {}, [0] * k
        for i in range(1, k + 1):
            key = frozenset(order[:i])
            if key not in numbers:
                numbers[key] = stratum_hodge_numbers(spec, sorted(key))
            cur = numbers[key]
            exps[order[i - 1]] = sum(j * (cur.get(j, 0) - prev.get(j, 0))
                                     for j in set(cur) | set(prev))
            prev = cur
        return tuple(exps)

    exps = chain_exponents(perm)
    present = p.p.terms.get(exps, 0) != 0

    # convex hull of all chain monomials contains every monomial of P
    facets = hull_facets([chain_exponents(sigma) for sigma in permutations(range(k))], k)
    hull_ok = all(in_hull(facets, exp) for exp in p.p.terms)
    return PermutationMonomialReport(tuple(perm), exps, present, hull_ok)
