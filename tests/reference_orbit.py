"""The entry-by-entry metric matrix, kept as the oracle of
``orbit.hodge_metric_matrix``, and the Fraction-by-Fraction Chern form, kept
as the oracle of ``orbit.chern_form_at``.

The metric matrix is the loop the library ran before it built one matrix
product per monomial: for each frame vector u_a, the polynomial vector
(sum_j x_j N_j)^i u_a is built one nilpotent at a time, and each entry of
block i is sign(i) * Q(that vector, conj u_b), summed as ``MultiPoly``.
"""

from __future__ import annotations

from fractions import Fraction

import reference_polynomials
from hodgecalc.errors import NotEffective, NotPolarized
from hodgecalc.lmhs import hermitian_sign
from hodgecalc.matrices import Mat
from hodgecalc.orbit import MetricMatrix, _require_valid
from hodgecalc.polynomials import MultiPoly
from hodgecalc.rationals import ZERO


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
                if mat[a][b].conj() != mat[b][a]:
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
