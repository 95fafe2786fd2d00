"""The relation systems of ``hodgecalc.monomial`` as they were first written,
kept as test oracles.

Each function takes the nilpotents apart into entry lists and builds its
system row by row: ``relation_space`` from the d^2 x k matrix of entries,
``stratum_relation_rows`` from the kernel of [vec(N_j) | -w_r] cut to its
first coordinates, ``compatibility_check`` from one scaled sum per
generator and ``strata_boundary_positivity`` from the canonical span of the
rows of W_-1 and the residual nilpotents.  The library builds the same
systems from ``Mat.stack`` of ``N.reshape(1, d*d)`` rows;
``test_monomial.py`` asserts that both give equal answers.

``w_minus1_end`` reads W_-1 End(V) off the weight filtration of the
d^2 x d^2 matrix of ad(N) on End(V), where the library reads it off the
weight filtration of N on V; the systems here use it, so they share no
W_-1 with the library.  Membership in W_-1 and in the stratum's span is the
rank test of ``reference_matrices.sub_contains``.

``monomial_strings`` is the loop that ``MonomialMap.monomial_strings`` (prefix
"t", its own variables) and ``MonomialIdeal.monomial_strings`` (prefix "z",
variables 0, 1, ...) each ran before both called
``polynomials.monomial_string``.
"""

from __future__ import annotations

from fractions import Fraction

from reference_cones import primitive_ray
from reference_matrices import ad_matrix, sub_contains
from hodgecalc.matrices import Mat, kernel_basis, sub_canonical, sub_zero
from hodgecalc.monomial import (
    CompatibilityReport, MonomialMap, RelationSpace, nonnegative_generators,
)
from hodgecalc.weightfilt import weight_filtration_centered


def w_minus1_end(n_cone: Mat) -> Mat:
    """Level -1 of the centered weight filtration of ad(n_cone) on End(V),
    from the d^2 x d^2 matrix of ad(n_cone) and its whole filtration."""
    ad = ad_matrix(n_cone)
    centered = weight_filtration_centered(ad)
    s = max(centered)
    if -1 < -s:
        return sub_zero(ad.rows)
    if -1 > s:
        return Mat.identity(ad.rows)
    return centered[-1]


def _vec_rows_to_space(vecs, ambient):
    if not vecs:
        return sub_zero(ambient)
    return sub_canonical(Mat.from_rows([list(v) for v in vecs]))


def _orth_complement(space: Mat, ambient: int) -> Mat:
    if space.rows == 0:
        return Mat.identity(ambient)
    kern = kernel_basis(space)
    return _vec_rows_to_space(kern, ambient)


def relation_space(nilpotents) -> RelationSpace:
    k = len(nilpotents)
    if k == 0:
        return RelationSpace(sub_zero(0), sub_zero(0))
    d = nilpotents[0].rows
    cols = Mat.from_rows([[n.entries[i] for n in nilpotents]
                          for i in range(d * d)])
    kern = kernel_basis(cols)
    basis = _vec_rows_to_space(kern, k)
    return RelationSpace(basis, _orth_complement(basis, k))


def stratum_relation_rows(spec, subset):
    subset = sorted(set(subset))
    w = w_minus1_end(spec.n_sum(subset))
    complement = [j for j in range(spec.num_params) if j not in subset]
    # unknowns: (b over complement, c over w-basis);
    # equation: sum b_j vec(N_j) - sum c_r w_r = 0
    cols = []
    for j in complement:
        cols.append(list(spec.nilpotents[j].entries))
    for r in range(w.rows):
        cols.append([-x for x in w.row(r)])
    if not cols:
        return sub_zero(0), complement
    m = Mat.from_rows(cols).transpose()
    kern = kernel_basis(m)
    b_rows = [list(v[:len(complement)]) for v in kern]
    return _vec_rows_to_space([r for r in b_rows if any(r)], len(complement)), complement


def stratum_monomial_map(spec, subset) -> MonomialMap:
    space, complement = stratum_relation_rows(spec, subset)
    orth = _orth_complement(space, len(complement))
    return MonomialMap.from_rays(nonnegative_generators(orth), complement)


def compatibility_check(spec, small, large) -> CompatibilityReport:
    small = sorted(set(small))
    large = sorted(set(large))
    if not set(small) < set(large):
        raise ValueError("need a strictly nested pair of strata")
    space, complement = stratum_relation_rows(spec, small)
    w_large = w_minus1_end(spec.n_sum(large))
    gens = tuple(primitive_ray(row) for row in space.row_list())
    d = spec.dim
    verdicts = []
    for g in gens:
        total = Mat.zeros(d, d)
        for coeff, j in zip(g, complement):
            if coeff and j not in large:
                total = total + spec.nilpotents[j].scale(Fraction(coeff))
        verdicts.append(sub_contains(w_large, Mat.from_rows([list(total.entries)])))
    return CompatibilityReport(tuple(small), tuple(large), gens,
                               tuple(verdicts), all(verdicts))


def strata_boundary_positivity(spec, index: int, subset=None) -> bool:
    if subset is None:
        subset = {index}
    subset = sorted(set(subset))
    if index not in subset:
        raise ValueError("the normal direction must belong to the stratum")
    rest = [j for j in subset if j != index]
    n_rest = spec.n_sum(rest)
    w = w_minus1_end(n_rest)
    rows = [list(w.row(i)) for i in range(w.rows)]
    for j in rest:
        rows.append(list(spec.nilpotents[j].entries))
    target = list(spec.nilpotents[index].entries)
    if not rows:
        return any(target)
    space = sub_canonical(Mat.from_rows(rows))
    return not sub_contains(space, Mat.from_rows([target]))


def monomial_strings(rows, variables, prefix: str):
    out = []
    for row in rows:
        factors = []
        for e, j in zip(row, variables):
            if e == 1:
                factors.append(f"{prefix}{j + 1}")
            elif e:
                factors.append(f"{prefix}{j + 1}^{e}")
        out.append("*".join(factors) if factors else "1")
    return tuple(out)
