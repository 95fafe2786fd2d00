"""The graded endomorphism algebra as it was written before, kept as test oracles.

``graded_end_pieces`` is ``hodgecalc.horizontal.graded_end_algebra`` before
it built the splitting of V into Hodge pieces once: for every grade and
every piece it stacks the target piece and the other pieces and inverts that
basis to read off coefficients, and it solves one system in the d^2 entries
of X per grade.  ``lie_first_pieces`` is the library's solve before it
solved each grade in its own Hodge-type blocks: it first solves the whole
form-preserving system for the Lie algebra g, maps a basis of g into the
basis of the pieces through the d^2 x d^2 Kronecker product t^-1 (x) t^T,
and then takes, for each grade, the kernel of the rows of the entries of the
wrong type.  Both return the graded pieces only, and
``test_shared_paths.py`` asserts that the library's closed form, which
solves nothing, finds the same pieces.

``bracket_matrix`` and ``kernel_dimension`` are the bracket system of
``hodgecalc.horizontal.kernel_dimension`` as it was built from the
d^2 x d^2 matrix of ad(xi^T), on all d^2 columns, where the library reads
the brackets in the Hodge frame, on the pairs of g^{-1,1} alone.

``principal_value_traces`` is the block traces of
``hodgecalc.horizontal.sectional_quartic`` as they were built the adjoint A* of each block A of xi from the Gram matrices of
the metric on the source and target pieces, where the library reads A* off
the adjoint of xi.

``validate``, ``weil_matrix`` and ``metric_matrix`` are
``hodgecalc.horizontal.PolarizedHS.validate`` and the two methods it used
before the library stated the Hodge-Riemann relations once, in ``lmhs``:
validation built a splitting of V into the pieces, the full d x d Hodge
metric -(C^T Q) from the Weil operator C, and tested it for being Hermitian
and positive definite, then read the first bilinear relation entry by entry
off the Gram of Q on the Hodge basis.

``phs_weight1`` and ``phs_weight2`` build the frames of the Hodge pieces
row by row from the entries of omega, where the library stacks omega with
identity and zero blocks and transposes.
"""

from __future__ import annotations

from reference_matrices import ad_matrix
from hodgecalc.errors import NoSolution, NotPolarized, ZeroVector
from hodgecalc.horizontal import GradedEnd, PolarizedHS, top_block
from hodgecalc.matrices import (
    Mat, Splitting, hermitian_psd_status, inverse, kernel_basis, kernel_matrix, kernel_space,
    rank, solve, sub_canonical, sub_zero,
)
from hodgecalc.rationals import GaussianRational, ONE, ZERO, i_power


def weil_matrix(phs: PolarizedHS, split: Splitting) -> Mat:
    """The operator acting by i^(p-q) on each piece."""
    return split.diagonal(lambda key: i_power(key[0] - key[1]))


def metric_matrix(phs: PolarizedHS, split: Splitting) -> Mat:
    """Gram H of the Hodge metric h(u, v) = -Q(Cu, conj v)."""
    c = weil_matrix(phs, split)
    return (c.transpose() @ phs.q).scale(GaussianRational(-1))


def validate(phs: PolarizedHS):
    if phs.q.transpose() != phs.q.scale(-1 if phs.weight % 2 else 1):
        raise NotPolarized("form is not (-1)^weight-symmetric")
    # the splitting exists exactly when the pieces are a basis of V
    if sum(m.rows for m in phs.pieces.values()) != phs.dim:
        raise NotPolarized("Hodge pieces do not decompose the space")
    try:
        split = Splitting(phs.pieces)
    except NoSolution:
        raise NotPolarized("Hodge pieces do not decompose the space") from None
    for (p, qq), m in phs.pieces.items():
        if p + qq != phs.weight:
            raise NotPolarized("piece of wrong total weight")
        other = phs.pieces.get((qq, p))
        if other is None or sub_canonical(m.conj()) != sub_canonical(other):
            raise NotPolarized("conjugation symmetry fails")
    h = metric_matrix(phs, split)
    if h.conj_transpose() != h:
        raise NotPolarized("metric is not Hermitian")
    _, _, pd = hermitian_psd_status(h)
    if not pd:
        raise NotPolarized("metric is not positive definite")
    # Q pairs (p, q) with (q, p) alone: its Gram on the Hodge basis vanishes elsewhere
    gram, keys = split.t.transpose() @ phs.q @ split.t, split.labels
    if any(gram[a, b] for a, ka in enumerate(keys) for b, kb in enumerate(keys)
           if ka[0] + kb[0] != phs.weight):
        raise NotPolarized("first bilinear relation fails")


def phs_weight1(genus: int, omega: Mat | None = None) -> PolarizedHS:
    g = genus
    if omega is None:
        omega = Mat.identity(g).scale(GaussianRational(0, 1))
    d = 2 * g
    q = Mat.from_rows([[0, 1], [-1, 0]]).kron(Mat.identity(g))
    rows10 = []
    for c in range(g):
        v = [omega[r, c] for r in range(g)] + [ONE if r == c else ZERO for r in range(g)]
        rows10.append(v)
    v10 = Mat.from_rows(rows10)
    v01 = v10.conj()
    return PolarizedHS(d, 1, q, {(1, 0): v10, (0, 1): v01})


def phs_weight2(h20: int, h11: int, omega: Mat | None = None) -> PolarizedHS:
    if omega is None:
        omega = Mat.identity(h20)
    d = 2 * h20 + h11
    q = Mat.diag([1] * h20 + [-1] * h11 + [1] * h20)
    ii = GaussianRational(0, 1)
    rows20 = []
    for c in range(h20):
        v = ([omega[r, c] for r in range(h20)] + [ZERO] * h11
             + [ii * omega[r, c] for r in range(h20)])
        rows20.append(v)
    v20 = Mat.from_rows(rows20)
    rows11 = []
    for c in range(h11):
        v = [ZERO] * h20 + [ONE if r == c else ZERO for r in range(h11)] + [ZERO] * h20
        rows11.append(v)
    v11 = Mat.from_rows(rows11)
    return PolarizedHS(d, 2, q, {(2, 0): v20, (1, 1): v11, (0, 2): v20.conj()})


def graded_end_pieces(phs: PolarizedHS) -> dict:
    """Compute the graded pieces of {X : Q(Xu, v) + Q(u, Xv) = 0}."""
    phs.validate()
    d = phs.dim
    n = phs.weight
    # form-preserving condition: Q(Xu, v) + Q(u, Xv) = 0 for basis u, v;
    # condition_{ij} = sum_k X_{ki} Q_{kj} + Q_{ik} X_{kj}
    rows = []
    for i in range(d):
        for j in range(d):
            row = [ZERO] * (d * d)
            for k in range(d):
                row[k * d + i] = row[k * d + i] + phs.q[k, j]
                row[k * d + j] = row[k * d + j] + phs.q[i, k]
            rows.append(row)
    lie = kernel_basis(Mat.from_rows(rows))
    lie_space = sub_canonical(Mat.from_rows([list(v) for v in lie])) if lie \
        else sub_zero(d * d)

    # graded condition: X maps each (r, s) piece into (r+p, s-p)
    pieces = {}
    for p in range(-n, n + 1):
        cond_rows = []
        for (r, s), basis in phs.pieces.items():
            target = phs.pieces.get((r + p, s - p))
            tgt_rows = target.row_list() if target is not None else []
            # complement test: the image must have zero coefficients on the
            # other pieces; build a projector annihilating the target
            others = [m for key, m in phs.pieces.items() if key != (r + p, s - p)]
            other_rows = [row for m in others for row in m.row_list()]
            if not other_rows:
                continue
            other_mat = Mat.from_rows(other_rows)
            full = Mat.from_rows((tgt_rows or []) + other_rows)
            finv = inverse(full.transpose())
            # coefficients on the "others" block of X v for v in basis
            offset = len(tgt_rows)
            for bi in range(basis.rows):
                v = basis.row(bi)
                for oi in range(len(other_rows)):
                    row = [ZERO] * (d * d)
                    # coefficient = sum_c finv[offset+oi, c] * (Xv)_c
                    for c in range(d):
                        coef = finv[offset + oi, c]
                        if coef:
                            for k in range(d):
                                if v[k]:
                                    row[c * d + k] = row[c * d + k] + coef * v[k]
                    cond_rows.append(row)
        if cond_rows:
            m = Mat.from_rows([list(lie_space.row(i)) for i in range(lie_space.rows)])
            # solve within the Lie algebra coordinates
            cond = Mat.from_rows(cond_rows)
            comb = cond @ m.transpose()
            coeffs = kernel_basis(comb)
        else:
            coeffs = [tuple(ONE if i == j else ZERO for j in range(lie_space.rows))
                      for i in range(lie_space.rows)]
        piece_rows = []
        for ctuple in coeffs:
            v = [ZERO] * (d * d)
            for c, i in zip(ctuple, range(lie_space.rows)):
                if c:
                    v = [a + c * b for a, b in zip(v, lie_space.row(i))]
            if any(v):
                piece_rows.append(v)
        if piece_rows:
            pieces[p] = sub_canonical(Mat.from_rows(piece_rows))
    total = sum(m.rows for m in pieces.values())
    if total != lie_space.rows:
        raise NotPolarized(
            f"graded pieces have dimension {total}, algebra has {lie_space.rows}")
    return pieces


def lie_first_pieces(phs: PolarizedHS) -> dict:
    """The graded pieces of {X : Q(Xu, v) + Q(u, Xv) = 0}, read off the
    whole Lie algebra."""
    d = phs.dim
    n = phs.weight
    # form-preserving condition: X^T Q + Q X = 0.  On row-major vec(X),
    # vec(Q X) = (Q (x) I) vec(X), and (X^T Q)_ij = (Q^T X)_ji is row (j, i)
    # of (Q^T (x) I) vec(X)
    one = Mat.identity(d)
    swap = [j * d + i for i in range(d) for j in range(d)]
    lie_space = kernel_space(phs.q.transpose().kron(one).take(swap) + phs.q.kron(one))

    # graded condition: X maps each (r, s) piece into (r+p, s-p), so entry
    # (i, j) of X in the basis of the pieces vanishes unless the key of row i
    # is the key of column j shifted by (p, -p); column m of `adapted` is
    # vec(t^-1 X_m t) for the m-th basis vector X_m of the Lie algebra
    split = Splitting(phs.pieces)
    labels = split.labels
    adapted = split.t_inv.kron(split.t.transpose()) @ lie_space.transpose()
    pieces = {}
    for p in range(-n, n + 1):
        off = [i * d + j for i, a in enumerate(labels) for j, b in enumerate(labels)
               if a != (b[0] + p, b[1] - p)]
        # solve within the Lie algebra coordinates
        coeffs = kernel_matrix(adapted.take(off))
        if coeffs.rows:
            pieces[p] = sub_canonical(coeffs @ lie_space)
    total = sum(m.rows for m in pieces.values())
    if total != lie_space.rows:
        raise NotPolarized(
            f"graded pieces have dimension {total}, algebra has {lie_space.rows}")
    return pieces


def direction_with_block(ge: GradedEnd, target: Mat) -> Mat:
    """``hodgecalc.horizontal.direction_with_block`` as it read the top block
    of each basis vector of the (-1) piece one at a time, unflattening the
    vector and calling ``top_block`` on it."""
    gm1 = ge.pieces.get(-1)
    if gm1 is None or gm1.rows == 0:
        raise ZeroVector("the (-1) piece is trivial")
    cols = []
    for i in range(gm1.rows):
        xi = ge.unflatten(gm1.row(i))
        cols.append(list(top_block(ge, xi).entries))
    m = Mat.from_rows(cols).transpose()
    c = solve(m, list(target.entries))
    if c is None:
        raise ZeroVector("no horizontal direction has the requested block")
    out = ge.unflatten((Mat.from_rows([c]) @ gm1).entries)
    if top_block(ge, out) != target:
        raise ZeroVector("internal error: block solve failed")
    return out


def bracket_matrix(ge: GradedEnd, xi: Mat) -> Mat:
    """Row i is vec([xi, X_i]) for the i-th basis vector X_i of the 0 piece:
    g0 @ ad(xi)^T, and ad(xi)^T = ad(xi^T)."""
    return ge.pieces[0] @ ad_matrix(xi.transpose())


def kernel_dimension(ge: GradedEnd, xi: Mat) -> int:
    """dim ker of the lowering adjoint on the (-1) piece, from the rank of
    ``bracket_matrix``."""
    gm1 = ge.pieces.get(-1)
    if gm1 is None:
        return 0
    if ge.piece_dim(0) == 0:
        return gm1.rows
    return gm1.rows - rank(bracket_matrix(ge, xi))


def principal_value_traces(ge: GradedEnd, xi: Mat) -> dict:
    """Per-level traces of (A* A) and (A* A)^2 for the blocks A of xi, with
    A* from the metric Grams of the source and target pieces."""
    phs = ge.phs
    n = phs.weight
    h = ge.metric
    out = {}
    for p in range((n + 2) // 2, n + 1):
        src = phs.pieces.get((p, n - p))
        dst = phs.pieces.get((p - 1, n - p + 1))
        if src is None or dst is None:
            continue
        # matrix of xi restricted: coordinates of xi(src_i) in dst basis
        a = ge.splitting.block(xi, (p, n - p), (p - 1, n - p + 1))
        # metric Grams on source and target: sum_rc h[r, c] b_i[r] conj(b_j[c])
        g_src = src @ h @ src.conj_transpose()
        g_dst = dst @ h @ dst.conj_transpose()
        a_star = inverse(g_src.transpose()) @ a.conj_transpose() @ g_dst.transpose()
        m1 = a_star @ a
        sum_l2 = m1.trace().real_or_raise()
        sum_l4 = (m1 @ m1).trace().real_or_raise()
        out[p] = (sum_l2, sum_l4)
    return out
