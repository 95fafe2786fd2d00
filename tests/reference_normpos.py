"""The curvature forms of ``hodgecalc.normpos`` as index loops, kept as test oracles.

These are the versions of ``CurvatureTensor.value``, ``horizontal_form`` and
``trace_form``, of ``flat_directions``, of the Fubini-Study block of
``projectivized_chern_form`` and of the correction term of
``quotient_curvature_at`` that summed over the tensor indices one entry at a
time, before they were written as products with ``Mat.kron``, and the model
maps below.  ``test_normpos.py`` asserts that the library gives exactly the
same answers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial

from hodgecalc.matrices import Mat, kernel_basis, rank
from hodgecalc.normpos import CurvatureTensor, NormPositivityModel
from hodgecalc.polynomials import MultiPoly, poly_mat_det
from hodgecalc.rationals import GaussianRational, ZERO, ONE, as_gauss


def value(theta: CurvatureTensor, e, xi):
    """The real curvature form on a decomposable pair."""
    e = [as_gauss(x) for x in e]
    xi = [as_gauss(x) for x in xi]
    acc = ZERO
    for a in range(theta.rank_e):
        for b in range(theta.rank_e):
            for i in range(theta.dim_t):
                for j in range(theta.dim_t):
                    t = theta.theta(a, b, i, j)
                    if t:
                        acc = acc + t * e[a] * e[b].conj() * xi[i] * xi[j].conj()
    return acc.real_or_raise()


def horizontal_form(theta: CurvatureTensor, e) -> Mat:
    """The Hermitian form Theta(e, ., .) on T."""
    e = [as_gauss(x) for x in e]
    entries = []
    for i in range(theta.dim_t):
        for j in range(theta.dim_t):
            acc = ZERO
            for a in range(theta.rank_e):
                for b in range(theta.rank_e):
                    t = theta.theta(a, b, i, j)
                    if t:
                        acc = acc + t * e[a] * e[b].conj()
            entries.append(acc)
    return Mat(theta.dim_t, theta.dim_t, entries)


def trace_form(theta: CurvatureTensor) -> Mat:
    """The first Chern form as a Hermitian matrix on T."""
    entries = []
    for i in range(theta.dim_t):
        for j in range(theta.dim_t):
            acc = ZERO
            for a in range(theta.rank_e):
                t = theta.theta(a, a, i, j)
                if t:
                    acc = acc + t
            entries.append(acc)
    return Mat(theta.dim_t, theta.dim_t, entries)


def flat_directions(model: NormPositivityModel, e):
    """Basis of {xi in T : A(e (x) xi) = 0} and its dimension."""
    e = [as_gauss(x) for x in e]
    cols = []
    for i in range(model.dim_t):
        xi = [ZERO] * model.dim_t
        xi[i] = ONE
        cols.append(list(model.apply(e, xi)))
    basis = kernel_basis(Mat.from_rows(cols).transpose())
    return basis, len(basis)


def vertical_block(model: NormPositivityModel, e, fiber_subspace: Mat | None = None) -> Mat:
    """The Fubini-Study block of the projectivized Chern form at a unit e."""
    e = [as_gauss(x) for x in e]
    ambient = (fiber_subspace if fiber_subspace is not None
               else Mat.identity(model.rank_e))
    conj_e = Mat.from_rows([[x.conj() for x in e]])
    coeffs = kernel_basis(conj_e @ ambient.transpose())
    basis = (Mat.from_rows(coeffs) @ ambient).row_list() if coeffs else []
    fs = []
    for u in basis:
        row = []
        for w in basis:
            inner = sum((a * b.conj() for a, b in zip(u, w)), ZERO)
            ue = sum((a * b.conj() for a, b in zip(u, e)), ZERO)
            we = sum((a * b.conj() for a, b in zip(w, e)), ZERO)
            row.append(inner - ue * we.conj())
        fs.append(row)
    return Mat.from_rows(fs) if fs else Mat.zeros(0, 0)


def quotient_correction(beta_mats, q_vec, xi):
    """The second-fundamental-form term sum_ij <u_i, u_j> xi_i conj(xi_j),
    u_i = beta_i* q, of the curvature of a quotient."""
    xi = [as_gauss(x) for x in xi]
    acc = ZERO
    for i, bi in enumerate(beta_mats):
        for j, bj in enumerate(beta_mats):
            if not (xi[i] and xi[j]):
                continue
            u = bi.conj_transpose().mat_vec(q_vec)
            w = bj.conj_transpose().mat_vec(q_vec)
            inner = sum((a * b.conj() for a, b in zip(u, w)), ZERO)
            acc = acc + inner * xi[i] * xi[j].conj()
    return acc.real_or_raise()


# --- the model maps -------------------------------------------------------------
#
# ``NormPositivityModel.apply``, ``sym_power_model``, ``chern_form_norm`` and
# ``tangent_to_hom_rank`` as they read and wrote A one entry at a time, before
# they were products with ``Mat.kron``, ``Mat.take`` and ``Mat.stack``.  Column
# (alpha, i) of A is alpha * dim_t + i.

def apply(model: NormPositivityModel, e, xi):
    """A(e (x) xi) for vectors e in E, xi in T."""
    e = [as_gauss(x) for x in e]
    xi = [as_gauss(x) for x in xi]
    tensor = [ZERO] * (model.rank_e * model.dim_t)
    for alpha, ea in enumerate(e):
        if ea:
            for i, xv in enumerate(xi):
                if xv:
                    tensor[alpha * model.dim_t + i] = ea * xv
    return model.a.mat_vec(tensor)


def sym_power_model(model: NormPositivityModel, k: int) -> NormPositivityModel:
    """Curvature model of the k-th tensor power, one summand per slot."""
    if k == 1:
        return model
    r, t, g = model.rank_e, model.dim_t, model.rank_g
    re_k = r ** k
    block = (r ** (k - 1)) * g
    rg_k = k * block
    entries = {}
    for alphas in product(range(r), repeat=k):
        a_idx = 0
        for a in alphas:
            a_idx = a_idx * r + a
        for i in range(t):
            col = a_idx * t + i
            for pos in range(k):
                rest = alphas[:pos] + alphas[pos + 1:]
                rest_idx = 0
                for a in rest:
                    rest_idx = rest_idx * r + a
                for gamma in range(g):
                    row = pos * block + rest_idx * g + gamma
                    val = model.a[gamma, alphas[pos] * t + i]
                    if val:
                        entries[(row, col)] = entries.get((row, col), ZERO) + val
    flat = [entries.get((i, j), ZERO) for i in range(rg_k) for j in range(re_k * t)]
    return NormPositivityModel(t, re_k, rg_k, Mat(rg_k, re_k * t, flat))


def chern_form_norm(model: NormPositivityModel, q: int, subspace_rows) -> Fraction:
    """The q-th Chern form evaluated on a q-dimensional subspace of T."""
    rows = [list(r) for r in subspace_rows]
    if q == 0:
        return Fraction(1)
    cols = []
    for r in rows:
        xi = [as_gauss(x) for x in r]
        col = []
        for gamma in range(model.rank_g):
            p = MultiPoly.zero(model.rank_e)
            for alpha in range(model.rank_e):
                coef = ZERO
                for i in range(model.dim_t):
                    a = model.a[gamma, alpha * model.dim_t + i]
                    if a and xi[i]:
                        coef = coef + a * xi[i]
                if coef:
                    p = p + MultiPoly.variable(model.rank_e, alpha).scale(coef)
            col.append(p)
        cols.append(col)
    total = Fraction(0)
    for gammas in combinations(range(model.rank_g), q):
        minor = [[cols[c][gamma] for c in range(q)] for gamma in gammas]
        d = poly_mat_det(minor)
        for exp, coef in d.terms.items():
            weight = Fraction(1)
            for e_ in exp:
                weight *= factorial(e_)
            weight /= factorial(q)
            c2 = coef.abs2() if isinstance(coef, GaussianRational) else coef * coef
            total += c2 * weight
    return total


def tangent_to_hom_rank(model: NormPositivityModel) -> int:
    """Rank of A viewed as T -> Hom(E, G)."""
    cols = []
    for i in range(model.dim_t):
        col = []
        for gamma in range(model.rank_g):
            for alpha in range(model.rank_e):
                col.append(model.a[gamma, alpha * model.dim_t + i])
        cols.append(col)
    return rank(Mat.from_rows(cols))


def tangent_to_hom_rank_by_blocks(model: NormPositivityModel) -> int:
    """``tangent_to_hom_rank`` as the library took it before it read A as
    rank_g * rank_e rows of length dim_t: the rank of the column blocks
    A (e_alpha (x) I_T) of A, one for each frame vector of E, stacked."""
    t = model.dim_t
    columns = model.a.transpose()
    blocks = [columns.take(range(alpha * t, (alpha + 1) * t)).transpose()
              for alpha in range(model.rank_e)]
    return rank(Mat.stack(blocks)) if blocks else 0
