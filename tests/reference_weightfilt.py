"""Oracles of ``weightfilt``: two earlier eigenvalue probes, the
closed-form weight filtration, and the earlier grading splitting and sl2
completion.

``integer_eigen_decomposition`` is the window that the library probed
before it went from zero outwards: k = -2d, ..., 2d in ascending order,
stopping once the eigenspaces fill the space.

``windowed_eigen_decomposition`` is the probe from zero outwards over that
window, with the fallback the library kept until its probe was bounded by
tr(y^2): candidates from the divisors of the lowest coefficient of the
characteristic polynomial (the rational-root bound).

``weight_filtration_centered_by_intersections`` is the closed form
W_k = sum_a im(N^a) ∩ ker(N^(a+k+1)), an independent second route to the
library's descending recursion ``weight_filtration_centered``.

``grading_splitting`` is the construction the library used before it read
splittings off n-strings: a ``Quotient`` per level for the primitive
candidates, each lift corrected by its own ``solve``, and the strings built
one ``mat_vec`` at a time.  ``complete_sl2`` solves [X, n] = y for X of
ad-weight 2 entry by entry in the eigenbasis of y.

``check_weight_filtration`` and ``check_grading`` are the postconditions the
library checked before it used rank identities and the spaces of the
splitting: Hard Lefschetz through a ``Quotient`` of each graded piece, and
the eigenspaces of Y found by a kernel probe at every Hodge level.
``relative_weight_filtration_check`` reads each graded piece through a
``Quotient`` of its own.  Containment is the rank test of
``reference_matrices.sub_contains``, not the library's.
"""

from __future__ import annotations

from fractions import Fraction

from reference_matrices import Quotient, sub_contains
from hodgecalc import weightfilt
from hodgecalc.errors import NoSolution, NotCommuting
from hodgecalc.matrices import (
    Mat, Splitting, column_space, extend_basis, kernel_matrix, kernel_space,
    nilpotency_index, rref, solve, sub_canonical, sub_dim, sub_equal, sub_full,
    sub_image, sub_intersect, sub_sum_ambient, sub_zero,
)
from hodgecalc.polynomials import MultiPoly, poly_mat_det
from hodgecalc.rationals import GaussianRational, ZERO


def integer_eigen_decomposition(y: Mat) -> dict:
    d = y.rows
    probe = {}
    total = 0
    for k in range(-2 * d, 2 * d + 1):
        eig = kernel_space(y - Mat.identity(d).scale(Fraction(k)))
        if sub_dim(eig):
            probe[k] = eig
            total += sub_dim(eig)
        if total == d:
            return probe
    raise AssertionError("the eigenvalues lie outside the probed window")


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    t = 1
    while t * t <= n:
        if n % t == 0:
            small.append(t)
            if t != n // t:
                large.append(n // t)
        t += 1
    return small + large[::-1]


def windowed_eigen_decomposition(y: Mat) -> dict:
    d = y.rows
    probe = {}
    total = 0
    for k in sorted(range(-2 * d, 2 * d + 1), key=lambda k: (abs(k), k)):
        eig = kernel_space(y - Mat.identity(d).scale(Fraction(k)))
        if sub_dim(eig):
            probe[k] = eig
            total += sub_dim(eig)
        if total == d:
            return dict(sorted(probe.items()))
    entries = []
    for i in range(d):
        row = []
        for j in range(d):
            if i == j:
                row.append(MultiPoly(1, {(1,): 1}) - MultiPoly.const(1, y[i, j]))
            else:
                row.append(MultiPoly.const(1, ZERO - y[i, j]))
        entries.append(row)
    charpoly = poly_mat_det(entries)
    candidates = {0}
    lowest = None
    for (e,), c in sorted(charpoly.terms.items()):
        lowest = c
        break
    if lowest is not None:
        val = lowest.re if hasattr(lowest, "re") else lowest
        num = abs(val.numerator)
        if num:
            for t in _divisors(num):
                candidates.update({t, -t})
    spaces = {}
    total = 0
    for k in sorted(candidates):
        eig = kernel_space(y - Mat.identity(d).scale(Fraction(k)))
        if sub_dim(eig):
            spaces[k] = eig
            total += sub_dim(eig)
    if total != d:
        raise NoSolution("matrix is not semisimple with integer eigenvalues")
    return spaces


def weight_filtration_centered_by_intersections(n: Mat) -> dict:
    d = n.rows
    s = nilpotency_index(n) - 1
    powers = [Mat.identity(d)]
    for _ in range(s + 1):
        powers.append(powers[-1] @ n)
    images = [column_space(p) for p in powers]
    kernels = {j: kernel_space(powers[j]) for j in range(1, s + 2)}

    def ker(j):
        if j <= 0:
            return sub_zero(d)
        if j > s:
            return sub_full(d)
        return kernels[j]

    out = {}
    for k in range(-s, s + 1):
        pieces = []
        for a in range(0, s + 1):
            pieces.append(sub_intersect(images[a], ker(a + k + 1)))
        out[k] = sub_sum_ambient(pieces, d)
    return out


def grading_splitting(n: Mat, wf):
    d = n.rows
    nw = wf.weight
    s = max((abs(k - nw) for k in range(2 * nw + 1) if wf.graded_dims[k]), default=0)
    powers = [Mat.identity(d)]
    for _ in range(s + 1):
        powers.append(powers[-1] @ n)

    spaces = {m + nw: [] for m in range(-s, s + 1)}
    for m in range(s, -1, -1):
        wk = wf.level(nw + m)
        wk1 = wf.level(nw + m - 1)
        if wk.rows == 0:
            continue
        low = wf.level(nw - m - 3)
        qlow = Quotient(sub_full(d), low)
        if qlow.dim:
            images = qlow.project_rows(wk @ powers[m + 1].transpose())
            coeffs = kernel_matrix(images.transpose())
        else:
            coeffs = Mat.identity(wk.rows)
        prim_cand = sub_canonical(coeffs @ wk)
        lifts = extend_basis(sub_intersect(prim_cand, wk1), prim_cand)
        for v in lifts.row_list():
            w = powers[m + 1].mat_vec(v)
            if any(w):
                u = _solve_in_subspace(powers[m + 1], wk1, w)
                v = [a - b for a, b in zip(v, u)]
                if any(powers[m + 1].mat_vec(v)):
                    raise NoSolution("internal error: primitive correction failed")
            spaces[m + nw].append(tuple(v))
            cur = tuple(v)
            for j in range(1, m + 1):
                cur = n.mat_vec(cur)
                spaces[m + nw - 2 * j].append(cur)

    try:
        split = Splitting({k: Mat.from_rows(vs) for k, vs in spaces.items() if vs})
    except NoSolution:
        raise NoSolution("internal error: string basis does not span") from None
    y = split.diagonal(lambda k: k)
    if not (y @ n - n @ y + n.scale(2)).is_zero():
        raise NoSolution("internal error: [Y,N] != -2N")
    check_grading(y, wf)
    return y, split


def _solve_in_subspace(m: Mat, sub: Mat, target):
    if sub.rows == 0:
        raise NoSolution("no solution in the zero subspace")
    c = solve((sub @ m.transpose()).transpose(), target)
    if c is None:
        raise NoSolution("primitive-lift correction has no solution")
    return (Mat.from_rows([c]) @ sub).entries


def complete_sl2(n: Mat, y: Mat, weight: int = 0):
    d = n.rows
    yc = y - Mat.identity(d).scale(Fraction(weight))
    split = Splitting(weightfilt.integer_eigen_decomposition(yc))
    labels = split.labels
    n_t = split.t_inv @ n @ split.t
    for i in range(d):
        for j in range(d):
            if n_t[i, j] and labels[i] - labels[j] != -2:
                raise NoSolution("no raising operator: y does not grade n by -2")
    positions = [(i, j) for i in range(d) for j in range(d)
                 if labels[i] - labels[j] == 2]
    index = {pos: c for c, pos in enumerate(positions)}
    rows, rhs = [], []
    for i in range(d):
        for j in range(d):
            if labels[i] != labels[j]:
                continue
            row = [ZERO] * len(positions)
            for k in range(d):
                if (i, k) in index and n_t[k, j]:
                    row[index[(i, k)]] = row[index[(i, k)]] + n_t[k, j]
                if (k, j) in index and n_t[i, k]:
                    row[index[(k, j)]] = row[index[(k, j)]] - n_t[i, k]
            rows.append(row)
            rhs.append(GaussianRational(Fraction(labels[i])) if i == j else ZERO)
    if positions:
        sol = solve(Mat.from_rows(rows), rhs)
        if sol is None:
            raise NoSolution("no raising operator: y is not a grading element for n")
    else:
        if any(labels):
            raise NoSolution("no raising operator: y is not a grading element for n")
        sol = []
    x_t = [[ZERO] * d for _ in range(d)]
    for (i, j), c in index.items():
        x_t[i][j] = sol[c]
    n_plus = split.t @ Mat.from_rows(x_t) @ split.t_inv
    triple = weightfilt.Sl2Triple(n_plus, yc, n)
    if not triple.check():
        raise NoSolution("internal error: bracket relations failed")
    return triple


def check_weight_filtration(n: Mat, wf):
    nw = wf.weight
    for k in range(0, 2 * nw + 1):
        img = sub_image(n, wf.level(k))
        if not sub_contains(wf.level(k - 2), img):
            raise NoSolution("internal error: N does not shift the filtration by -2")
    nk, power = Mat.identity(n.rows), 0      # nk = N^power, raised as needed
    for k in range(1, nw + 1):
        top = Quotient(wf.level(nw + k), wf.level(nw + k - 1))
        bot = Quotient(wf.level(nw - k), wf.level(nw - k - 1))
        if top.dim != bot.dim:
            raise NoSolution("internal error: graded dimensions not symmetric")
        if top.dim:
            for _ in range(power, k):
                nk = nk @ n
            power = k
            if rref(bot.project_rows(top.comp @ nk.transpose()))[2] != top.dim:
                raise NoSolution("internal error: Hard Lefschetz map not bijective")


def check_grading(y: Mat, wf):
    nw = wf.weight
    d = y.rows
    total = 0
    for k in range(0, 2 * nw + 1):
        eig = kernel_space(y - Mat.identity(d).scale(Fraction(k)))
        total += sub_dim(eig)
        if not sub_contains(wf.level(k), eig):
            raise NoSolution("internal error: eigenspace not inside W_k")
        if sub_dim(eig) != wf.graded_dims[k]:
            raise NoSolution("internal error: eigenspace dimension mismatch")
    if total != d:
        raise NoSolution("internal error: Y is not semisimple with the right spectrum")


def relative_weight_filtration_check(na: Mat, nb: Mat, weight: int):
    if not na.commutes_with(nb):
        raise NotCommuting("the two nilpotents do not commute")
    wa = weightfilt.weight_filtration(na, weight)
    wab = weightfilt.weight_filtration(na + nb, weight)
    details = []
    holds = True
    for m in range(0, 2 * weight + 1):
        q = Quotient(wa.level(m), wa.level(m - 1))
        if q.dim == 0:
            continue
        nbar = q.induced_map(nb)
        rhs_centered = (weightfilt.weight_filtration_centered(nbar) if not nbar.is_zero()
                        else {0: sub_full(q.dim)})
        smax = max(abs(k) for k in rhs_centered) if rhs_centered else 0
        span = max(smax, 2 * weight)
        for mp in range(-span, span + 1):
            lhs = q.project_sub(sub_intersect(wab.level(m + mp), wa.level(m)))
            if mp < -smax:
                rhs = sub_zero(q.dim)
            elif mp > smax:
                rhs = sub_full(q.dim)
            else:
                rhs = rhs_centered.get(mp, sub_zero(q.dim) if mp < 0 else sub_full(q.dim))
            eq = sub_equal(lhs, rhs)
            holds = holds and eq
            details.append((m, mp, sub_dim(lhs), sub_dim(rhs), eq))
    return weightfilt.RwfpReport(holds, tuple(details))
