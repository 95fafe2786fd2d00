"""Curvature of the horizontal distribution through the endomorphism algebra.

At a polarized Hodge structure the form-preserving endomorphisms carry a
grading by Hodge type; the (-1)-graded piece models horizontal tangent
directions, its curvature is a difference of two norms, and on commuting
directions only the negative one survives.  Everything is computed with the
exact Hodge metric Tr(X Y*).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import NotPolarized, ZeroVector
from .lmhs import first_relation_holds, hermitian_sign, hodge_riemann_status
from .matrices import (
    Mat, Splitting, inverse, rank, row_coords, sub_canonical, sub_zero,
)
from .rationals import GaussianRational
from .records import Record


class PolarizedHS(Record):
    """A pure polarized structure: bases of the (p, q) pieces plus the form."""

    dim: int
    weight: int
    q: Mat
    pieces: dict           # (p, q) -> basis Mat (rows)

    def __post_init__(self):
        self.validate()

    def validate(self):
        """The Hodge-Riemann relations of `lmhs` with N = 0, the first on F^p =
        sum of V^{a, n-a} over a >= p.  For a real Q, it and conjugation symmetry
        make the Hodge metric -Q(Cu, conj v) block-diagonal with Hermitian blocks,
        so positivity piece by piece is its positive definiteness."""
        n, d, q = self.weight, self.dim, self.q
        if not q.is_real():
            raise NotPolarized("form is not real")
        if q.transpose() != q.scale(-1 if n % 2 else 1):
            raise NotPolarized("form is not (-1)^weight-symmetric")
        basis = Mat.stack([sub_zero(d), *self.pieces.values()])
        if (basis.rows, basis.cols) != (d, d) or rank(basis) != d:
            raise NotPolarized("Hodge pieces do not decompose the space")
        for (p, qq), m in self.pieces.items():
            if p + qq != n:
                raise NotPolarized("piece of wrong total weight")
            other = self.pieces.get((qq, p))
            if other is None or sub_canonical(m.conj()) != sub_canonical(other):
                raise NotPolarized("conjugation symmetry fails")
        levels = {p: Mat.stack([sub_zero(d), *(m for (a, _), m in self.pieces.items() if a >= p)])
                  for p in range(1, n + 1)}
        if not first_relation_holds(q, levels, n):
            raise NotPolarized("first bilinear relation fails")
        if not all(hodge_riemann_status(q, m, m, *k)[2] for k, m in self.pieces.items() if m.rows):
            raise NotPolarized("metric is not positive definite")


def phs_weight1(genus: int, omega: Mat | None = None) -> PolarizedHS:
    """Weight-one structure from a normalized period matrix (default i*I)."""
    g = genus
    if omega is None:
        omega = Mat.identity(g).scale(GaussianRational(0, 1))
    d = 2 * g
    q = Mat.from_rows([[0, 1], [-1, 0]]).kron(Mat.identity(g))
    # row c is (column c of omega, e_c)
    v10 = Mat.stack([omega, Mat.identity(g)]).transpose()
    v01 = v10.conj()
    return PolarizedHS(d, 1, q, {(1, 0): v10, (0, 1): v01})


def phs_weight2(h20: int, h11: int, omega: Mat | None = None) -> PolarizedHS:
    """Weight-two structure in the standard normal form Q = diag(I, -I, I)."""
    if omega is None:
        omega = Mat.identity(h20)
    d = 2 * h20 + h11
    q = Mat.diag([1] * h20 + [-1] * h11 + [1] * h20)
    # row c of v20 is (column c of omega, 0, i * column c of omega); of v11, (0, e_c, 0)
    v20 = Mat.stack([omega, Mat.zeros(h11, h20), omega.scale(GaussianRational(0, 1))]).transpose()
    v11 = Mat.stack([Mat.zeros(h20, h11), Mat.identity(h11), Mat.zeros(h20, h11)]).transpose()
    return PolarizedHS(d, 2, q, {(2, 0): v20, (1, 1): v11, (0, 2): v20.conj()})


# ---------------------------------------------------------------------------
# The graded endomorphism algebra
# ---------------------------------------------------------------------------

class GradedEnd(Record):
    """Graded pieces of the form-preserving endomorphisms, with metric data."""

    phs: PolarizedHS
    # p -> basis Mat of g^{p,-p} as built (rows are flattened endomorphisms);
    # only g^{-1,1}, whose coordinates are read, is in canonical form
    pieces: dict
    metric: Mat           # Hodge metric Gram on V (for adjoints)
    # derived once and never compared: V split into the pieces of phs, and (metric^T)^-1
    splitting: Splitting
    metric_t_inv: Mat
    _hidden = ("splitting", "metric_t_inv")

    def piece_dim(self, p: int) -> int:
        m = self.pieces.get(p)
        return m.rows if m is not None else 0

    def unflatten(self, vec) -> Mat:
        d = self.phs.dim
        return Mat(d, d, list(vec))

    def adjoint(self, x: Mat) -> Mat:
        """Metric adjoint on V: h(Xu, v) = h(u, X* v)."""
        return self.metric_t_inv @ x.conj_transpose() @ self.metric.transpose()

    def inner(self, x: Mat, y: Mat) -> GaussianRational:
        """Hodge inner product Tr(X Y*) on endomorphisms."""
        return (x @ self.adjoint(y)).trace()

    def norm2(self, x: Mat) -> Fraction:
        return self.inner(x, x).real_or_raise()


def _type_pairs(labels, n: int) -> dict:
    """p -> the index pairs (a, b) of the basis vectors X_ab of g^{p,-p}, in
    order: a < b, or a <= b in odd weight, with n - r_a - r_b = p for
    r_a = labels[a][0]."""
    pairs = {}
    for a in range(len(labels)):
        for b in range(a + 1 - n % 2, len(labels)):
            pairs.setdefault(n - labels[a][0] - labels[b][0], []).append((a, b))
    return pairs


def graded_end_algebra(phs: PolarizedHS) -> GradedEnd:
    """The graded pieces of {X : X^T Q + Q X = 0}, in closed form.

    With e = (-1)^weight, Q^T = e Q, so X preserves Q exactly when M = Q X
    has M^T = -e M; over the dual Hodge basis phi those M have the basis
    phi_a (x) phi_b - e phi_b (x) phi_a (a < b, or a <= b when e = -1), so
    its image u_a (x) phi_b - e u_b (x) phi_a under Q^-1 (u = phi Q^-T) is a
    basis of the algebra.  Q(v, u_a) = phi_a(v), and Q pairs (r, s) with
    (s, r) alone, so u_a lies in (n - r_a, r_a): both terms have type
    n - r_a - r_b."""
    n, split = phs.weight, Splitting(phs.pieces)
    phi = split.t_inv
    u = phi @ inverse(phs.q).transpose()
    pairs = _type_pairs(split.labels, n)
    pieces = {}
    for p in sorted(pairs):
        a, b = zip(*pairs[p])
        x, y = u.take(a).face_split(phi.take(b)), u.take(b).face_split(phi.take(a))
        span = x + y if n % 2 else x - y
        pieces[p] = sub_canonical(span) if p == -1 else span
    # Hodge metric -Q(Cu, conj v) = sum H[a, b] u_a conj(v_b), C = i^(p-q) on V^{p,q}
    h = split.diagonal(lambda key: hermitian_sign(*key)).transpose() @ phs.q
    return GradedEnd(phs, pieces, h, split, inverse(h.transpose()))


def bracket(x: Mat, y: Mat) -> Mat:
    return x @ y - y @ x


def bisectional_curvature(ge: GradedEnd, eta: Mat, xi: Mat) -> Fraction:
    """|[xi, eta]|^2 - |[xi*, eta]|^2 in the Hodge metric."""
    return ge.norm2(bracket(xi, eta)) - ge.norm2(bracket(ge.adjoint(xi), eta))


def kernel_dimension(ge: GradedEnd, xi: Mat) -> int:
    """dim ker of the lowering adjoint on the (-1) piece: the corank of
    bracketing with xi (ValueError unless xi lies in that piece) from the 0
    piece into it, read in the Hodge frame t of the splitting.  There the
    basis vector X_ab of the algebra has t^T Q X_ab t = S_ab = E_ab - e E_ba,
    and as xi preserves Q, t^T Q [xi, X_ab] t = -(S_ab xi' - e (S_ab xi')^T)
    for xi' = t^-1 xi t: its (c, f) entries at the (-1) pairs, coordinates on
    the (-1) piece, come from rows a and b of xi' alone."""
    n, d, split = ge.phs.weight, ge.phs.dim, ge.splitting
    e, labels = -1 if n % 2 else 1, split.labels
    if (xi.rows, xi.cols) != (d, d):
        raise ValueError("xi is not in g^{-1,1}")
    qx, frame = ge.phs.q @ xi, split.t_inv @ xi @ split.t
    rows = frame.int_rows()
    # xi preserves Q when Q xi is e-antisymmetric, and has type -1 when xi'
    # maps each basis vector of V^{p,q} into V^{p-1,q+1}
    if qx.transpose() != qx.scale(-e) or any(
            (re[j] or im[j]) and labels[j] != (labels[i][0] + 1, labels[i][1] - 1)
            for i, (re, im, _) in enumerate(rows) for j in range(d)):
        raise ValueError("xi is not in g^{-1,1}")
    pairs = _type_pairs(labels, n)
    cols = pairs.get(-1, [])
    parts = ([],) if frame.is_real() else ([], [])      # real, imaginary
    for a, b in pairs.get(0, []):
        (ra, ia, da), (rb, ib, db) = rows[a], rows[b]
        den = lcm(da, db)
        # one row over the lcm of the two row denominators, up to its sign
        for out, xa, xb in zip(parts, (ra, ia), (rb, ib)):
            xa, xb = [x * (den // da) for x in xa], [x * (den // db) for x in xb]
            out.append([(xb[f] if c == a else 0) - (e * xa[f] if c == b else 0)
                        - (e * xb[c] if f == a else 0) + (xa[c] if f == b else 0)
                        for c, f in cols])
    m = Mat.from_int_rows(parts[0], 1)
    if len(parts) > 1:
        m = m + Mat.from_int_rows(parts[1], 1).scale(GaussianRational(0, 1))
    return len(cols) - rank(m)


class QuarticReport(Record):
    value: Fraction              # |ad*_xi(xi)|^2 / |xi|^4
    norm2: Fraction              # |xi|^2
    raw: Fraction                # |ad*_xi(xi)|^2
    block_traces: dict           # p -> (sum lambda^2, sum lambda^4)


def sectional_quartic(ge: GradedEnd, xi: Mat) -> QuarticReport:
    """|ad*_xi(xi)|^2 / |xi|^4, with its parts and, per level p of the
    independent upper range ceil((n+1)/2) .. n, the traces of (A* A) and
    (A* A)^2 for the block A of xi mapping the (p, q) piece to (p-1, q+1)."""
    # xi* is taken once: |xi|^2 = Tr(xi xi*), the bracket, the block traces
    xi_star = ge.adjoint(xi)
    norm2 = (xi @ xi_star).trace().real_or_raise()
    if norm2 == 0:
        raise ZeroVector("sectional curvature of the zero direction")
    raw = ge.norm2(bracket(xi_star, xi))
    n, split = ge.phs.weight, ge.splitting
    traces = {}
    for p in range((n + 2) // 2, n + 1):
        src, dst = (p, n - p), (p - 1, n - p + 1)
        if src not in ge.phs.pieces or dst not in ge.phs.pieces:
            continue
        # A* A for the src -> dst block A of xi: the Hodge decomposition is
        # orthogonal for the metric, so A* is the dst -> src block of xi*
        m1 = split.block(xi_star, dst, src) @ split.block(xi, src, dst)
        traces[p] = (m1.trace().real_or_raise(), (m1 @ m1).trace().real_or_raise())
    return QuarticReport(raw / (norm2 * norm2), norm2, raw, traces)


def top_block(ge: GradedEnd, xi: Mat) -> Mat:
    """Matrix of xi restricted to the top piece map V^{n,0} -> V^{n-1,1},
    with columns indexed by the source basis."""
    n = ge.phs.weight
    return ge.splitting.block(xi, (n, 0), (n - 1, 1))


def direction_with_block(ge: GradedEnd, target: Mat) -> Mat:
    """A horizontal direction whose top block equals `target`.

    Solves within the (-1)-graded piece; raises when the block is not
    attainable.  In weights 1 and 2 the block map is injective on the piece,
    so the solution is unique when it exists.  From weight 3 on it is not:
    the V^{n-1,2} -> V^{n-2,3} block of a direction is free, and one of the
    directions with the given top block is returned."""
    gm1 = ge.pieces.get(-1)
    if gm1 is None or gm1.rows == 0:
        raise ZeroVector("the (-1) piece is trivial")
    phs = ge.phs
    n = phs.weight
    shape = (phs.pieces[(n - 1, 1)].rows, phs.pieces[(n, 0)].rows)
    if (target.rows, target.cols) != shape:
        raise ValueError(f"top block must be {shape[0]}x{shape[1]} "
                         f"(dim V^(n-1,1) x dim V^(n,0)), got {target.rows}x{target.cols}")
    # row i is the flattened top block of the i-th basis vector of the piece
    blocks = ge.splitting.flat_blocks(gm1, (n, 0), (n - 1, 1))
    c = row_coords(blocks, target.reshape(1, target.rows * target.cols))
    if c is None:
        raise ZeroVector("no horizontal direction has the requested block")
    out = (c @ gm1).reshape(phs.dim, phs.dim)
    if top_block(ge, out) != target:
        raise ZeroVector("internal error: block solve failed")
    return out
