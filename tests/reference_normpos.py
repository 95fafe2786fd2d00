"""The curvature forms of ``hodgecalc.normpos`` as index loops, kept as test oracles.

These are the versions of ``CurvatureTensor.value``, ``horizontal_form`` and
``trace_form``, of ``flat_directions``, of the Fubini-Study block of
``projectivized_chern_form`` and of the correction term of
``quotient_curvature_at`` that summed over the tensor indices one entry at a
time, before they were written as products with ``Mat.kron``.
``test_normpos.py`` asserts that the library gives exactly the same answers.
"""

from __future__ import annotations

from hodgecalc.matrices import Mat, kernel_basis
from hodgecalc.normpos import CurvatureTensor, NormPositivityModel
from hodgecalc.rationals import ZERO, ONE, as_gauss


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
