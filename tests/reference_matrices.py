"""Reference implementations of the matrix kernels, kept as test oracles.

These are the fraction-full ``GaussianRational`` versions of ``rref``,
``det``, ``Mat.__matmul__`` and ``Mat.mat_vec`` that ``hodgecalc.matrices``
used before its integer kernels, the entry-by-entry ``Mat`` methods it
used before matrices were stored as integer rows, and the index loops that
``Mat.kron`` replaced.  They are slow and simple on purpose; the property
tests in ``test_matrix_oracles.py`` assert that the library gives exactly the
same answers.  ``ad_matrix``, the d^2 x d^2 matrix of ad(n) on End(V), is
kept with the index loop it replaced; the library no longer builds it.
``Quotient``, coordinates on sup/sub through an echelon complement, is kept
for the weight-filtration oracles; the library reads such coordinates off a
``Splitting`` of complements.  ``sub_canonical`` and ``sub_intersect`` are
the subspace operations as they were before the library learned to return
a canonical basis without eliminating it and to intersect with the whole
space without a kernel: every basis is reduced, every intersection goes
through the left kernel of [a; -b].  ``sub_contains`` compares the ranks of
s and [s; t], eliminating even a canonical s, where the library reads
membership off one product; the weight-filtration, LMHS and monomial
oracles test containment with it.  ``trace`` sums the diagonal entries.
``solve``, ``inverse``, ``coords_in_basis``, ``row_coords`` and
``sub_contains_vec`` are the linear systems as the library solved them
before it read every solution off one elimination of [m | b]: each builds
its own augmented matrix, treats empty shapes its own way and reads the
answer off differently; here they run on the reference ``rref``.
"""

from __future__ import annotations

from math import lcm

from hodgecalc.errors import NoSolution
from hodgecalc.matrices import (
    _Z, _ZI, _cut_columns, _from_pairs, _rows_in, Mat, kernel_matrix, rank, sub_complement_in,
)
from hodgecalc.rationals import as_gauss, ZERO, ONE


def rref(m: Mat):
    """Reduced row echelon form.

    Returns (reduced, pivot_cols, rank).  Pivot selection is leftmost column
    first, then smallest row index.
    """
    a = m.row_list()
    nr, nc = m.rows, m.cols
    pivots = []
    pr = 0
    for pc in range(nc):
        sel = None
        for r in range(pr, nr):
            if a[r][pc]:
                sel = r
                break
        if sel is None:
            continue
        a[pr], a[sel] = a[sel], a[pr]
        inv = ONE / a[pr][pc]
        a[pr] = [inv * x for x in a[pr]]
        for r in range(nr):
            if r != pr and a[r][pc]:
                f = a[r][pc]
                a[r] = [x - f * y for x, y in zip(a[r], a[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return Mat.from_rows(a) if nr else m, tuple(pivots), len(pivots)


def det(m: Mat):
    """Exact determinant by fraction-full Gaussian elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    a = m.row_list()
    n = m.rows
    out = ONE
    for c in range(n):
        sel = None
        for r in range(c, n):
            if a[r][c]:
                sel = r
                break
        if sel is None:
            return ZERO
        if sel != c:
            a[c], a[sel] = a[sel], a[c]
            out = -out
        out = out * a[c][c]
        inv = ONE / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def matmul(self: Mat, other: Mat) -> Mat:
    """The product self @ other, testing both factors inside the inner loop."""
    if self.cols != other.rows:
        raise ValueError("shape mismatch in matrix product")
    out = []
    for i in range(self.rows):
        ri = self.row(i)
        for j in range(other.cols):
            acc = ZERO
            for k in range(self.cols):
                a = ri[k]
                if a:
                    b = other.entries[k * other.cols + j]
                    if b:
                        acc = acc + a * b
            out.append(acc)
    return Mat(self.rows, other.cols, out)


def mat_vec(self: Mat, v):
    """Matrix times column vector (v a sequence)."""
    v = [as_gauss(x) for x in v]
    if len(v) != self.cols:
        raise ValueError("vector length mismatch")
    return tuple(sum((self[i, k] * v[k] for k in range(self.cols)
                      if v[k]), ZERO) for i in range(self.rows))


# --- entry-wise methods ------------------------------------------------------

def add(a: Mat, b: Mat) -> Mat:
    return Mat(a.rows, a.cols, [x + y for x, y in zip(a.entries, b.entries)])


def sub(a: Mat, b: Mat) -> Mat:
    return Mat(a.rows, a.cols, [x - y for x, y in zip(a.entries, b.entries)])


def neg(a: Mat) -> Mat:
    return Mat(a.rows, a.cols, [-x for x in a.entries])


def scale(a: Mat, c) -> Mat:
    c = as_gauss(c)
    return Mat(a.rows, a.cols, [c * x for x in a.entries])


def transpose(a: Mat) -> Mat:
    return Mat(a.cols, a.rows, [a.entries[i * a.cols + j]
                                for j in range(a.cols) for i in range(a.rows)])


def conj(a: Mat) -> Mat:
    return Mat(a.rows, a.cols, [x.conj() for x in a.entries])


def is_zero(a: Mat) -> bool:
    return all(not x for x in a.entries)


def is_real(a: Mat) -> bool:
    return all(x.is_real for x in a.entries)


def stack(mats) -> Mat:
    rows = [r for m in mats for r in m.row_list()]
    return Mat.from_rows(rows) if rows else Mat.zeros(0, mats[0].cols)


def extend_basis(sub: Mat, candidates: Mat) -> Mat:
    """The greedy complement on row lists that sub_complement_in and the
    grading construction each ran before ``matrices.extend_basis``."""
    base = sub.row_list()
    chosen = []
    for cand in candidates.row_list():
        if rref(Mat.from_rows(base + chosen + [cand]))[2] > len(base) + len(chosen):
            chosen.append(cand)
    return Mat.from_rows(chosen) if chosen else Mat.zeros(0, candidates.cols)


# --- Kronecker products --------------------------------------------------------

def kron(a: Mat, b: Mat) -> Mat:
    """The Kronecker product, one entry product at a time."""
    return Mat(a.rows * b.rows, a.cols * b.cols,
               [a[i, j] * b[k, l] for i in range(a.rows) for k in range(b.rows)
                for j in range(a.cols) for l in range(b.cols)])


def ad_matrix(n: Mat) -> Mat:
    """Matrix of ad(n) = [n, .] on row-major flattened endomorphisms:
    n (x) I - I (x) n^T, as ``hodgecalc.matrices`` built it while
    ``monomial.w_minus1_end`` read W_-1 End(V) off its weight filtration."""
    one = Mat.identity(n.rows)
    return n.kron(one) - one.kron(n.transpose())


def ad_matrix_loop(n: Mat) -> Mat:
    """``ad_matrix`` one entry at a time, as ``hodgecalc.monomial`` built it
    before ``Mat.kron``."""
    d = n.rows
    rows = []
    for i in range(d):
        for j in range(d):
            row = [ZERO] * (d * d)
            for k_ in range(d):
                row[k_ * d + j] = row[k_ * d + j] + n[i, k_]
                row[i * d + k_] = row[i * d + k_] - n[k_, j]
            rows.append(row)
    return Mat.from_rows(rows)


# --- subspaces -----------------------------------------------------------------

def sub_canonical(basis: Mat) -> Mat:
    """Canonical (rref, zero rows dropped) basis matrix of a row space, by
    one elimination whatever the basis."""
    red, _, r = rref(basis)
    return red.take(range(r)) if r else Mat.zeros(0, basis.cols)


def sub_intersect(a: Mat, b: Mat) -> Mat:
    """The intersection of two row spaces: x a = y b exactly when (x, y) is
    in the left kernel of [a; -b]."""
    if a.rows == 0 or b.rows == 0:
        return Mat.zeros(0, a.cols)
    kern = kernel_matrix(Mat.stack([a, -b]).transpose())
    return sub_canonical(kern.transpose().take(range(a.rows)).transpose() @ a)


def sub_contains(s: Mat, t: Mat) -> bool:
    """True iff row space t is contained in row space s, by two ranks."""
    return t.rows == 0 or rank(Mat.stack([s, t])) == rank(s)


def trace(m: Mat):
    """The sum of the diagonal entries, entry by entry."""
    return sum((m[i, i] for i in range(min(m.rows, m.cols))), ZERO)


# --- linear systems --------------------------------------------------------------

def solve(m: Mat, b):
    """One exact solution of m @ x = b with the free variables zero, or None:
    [m | b] built entry by entry of b."""
    b = [as_gauss(x) for x in b]
    if len(b) != m.rows:
        raise ValueError("vector length mismatch")
    ring = _ZI if m._ring is _ZI or any(x.im for x in b) else _Z
    aug = []                # the canonical rows of [m | b]
    for i, (row, d) in enumerate(zip(_rows_in(m, ring), m._den)):
        x, q = ring.clear([b[i]])
        l = lcm(d, q)
        aug.append(ring.normal(ring.join(ring.mul(row, l // d), ring.mul(x, l // q)), l))
    red, pivots, _ = rref(_from_pairs(m.rows, m.cols + 1, ring, aug))
    if m.cols in pivots:
        return None
    ring = red._ring
    x = [ZERO] * m.cols
    for pc, row, d in zip(pivots, red._num, red._den):
        x[pc] = ring.value(ring.at(row, m.cols), d)
    return tuple(x)


def inverse(m: Mat) -> Mat:
    """The inverse of a square matrix, cut out of the rref of [m | I]."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n, ring = m.rows, m._ring
    # [m | I] row by row: row i of m is m._num[i] / d, so that of I is d e_i / d
    aug = Mat._make(n, 2 * n, ring, [ring.join(row, ring.unit_row(n, i, d))
                                      for i, (row, d) in enumerate(zip(m._num, m._den))], m._den)
    red, pivots, r = rref(aug)
    if r != n or any(p >= n for p in pivots):
        raise NoSolution("matrix is singular")
    return _cut_columns(red, n, 2 * n)


def coords_in_basis(basis: Mat, v):
    """Coordinates of v in the given row basis, or None."""
    if basis.rows == 0:
        return () if not any(as_gauss(x) for x in v) else None
    return solve(basis.transpose(), v)


def row_coords(basis: Mat, s: Mat):
    """Row i holds ``coords_in_basis(basis, row i of s)``, or None: one
    elimination of [basis^T | s^T]."""
    k = basis.rows
    if k == 0:
        return Mat.zeros(s.rows, 0) if s.is_zero() else None
    if s.rows == 0:
        return Mat.zeros(0, k)
    red, pivots, r = rref(Mat.stack([basis, s]).transpose())
    if r and pivots[-1] >= k:
        return None
    ring = red._ring
    rows, dens = [ring.zero_row(s.rows)] * k, [1] * k     # free coordinates are 0
    for pc, row, d in zip(pivots, red._num, red._den):
        rows[pc], dens[pc] = ring.normal(ring.cut(row, k, k + s.rows), d)
    return Mat._make(k, s.rows, ring, rows, dens).transpose()


def sub_contains_vec(s: Mat, v) -> bool:
    """True iff v is in the row space s, by a solve against s^T."""
    if not any(as_gauss(x) for x in v):
        return True
    if s.rows == 0:
        return False
    return solve(s.transpose(), v) is not None


# --- quotient spaces -----------------------------------------------------------

class Quotient:
    """Quotient space sup/sub with an explicit echelon complement.

    Vectors of the quotient are represented by coordinates in the chosen
    complement basis.
    """

    def __init__(self, sup: Mat, sub: Mat):
        self.sup = sub_canonical(sup)
        self.sub = sub_canonical(sub)
        if not sub_contains(self.sup, self.sub):
            raise ValueError("sub is not contained in sup")
        self.comp = sub_complement_in(self.sub, self.sup)
        self.dim = self.comp.rows
        self.ambient = sup.cols
        self._basis = Mat.stack([self.comp, self.sub])

    def project_rows(self, s: Mat) -> Mat:
        """The classes of the rows of s (which must lie in sup) as rows of
        complement coordinates."""
        coords = row_coords(self._basis, s)
        if coords is None:
            raise ValueError("vector not in the total space")
        return coords.transpose().take(range(self.dim)).transpose()

    def project_sub(self, s: Mat) -> Mat:
        """Image in the quotient of a subspace of sup (rows in quotient coords)."""
        if self.dim == 0 or s.rows == 0:
            return Mat.zeros(0, self.dim)
        return sub_canonical(self.project_rows(s))

    def induced_map(self, m: Mat) -> Mat:
        """Matrix of the endomorphism induced by m (which must preserve sup, sub)."""
        if self.dim == 0:
            return Mat.zeros(0, 0)
        return self.project_rows(self.comp @ m.transpose()).transpose()
