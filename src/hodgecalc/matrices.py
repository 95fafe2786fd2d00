"""Dense exact matrices over the Gaussian rationals, plus subspace calculus.

Subspaces of a fixed ambient space are represented by matrices whose rows
form a basis; the canonical representative is the reduced row echelon form,
so two subspaces are equal iff their canonical matrices are equal.

Pivoting is always leftmost-column, smallest-row-index: every operation is
deterministic.

Entries are ``GaussianRational``, but products and elimination run on
Python ints: each row is cleared of denominators, a real matrix is reduced
over Z and one with a non-real entry over Z[i], by fraction-free
(Bareiss) Gauss-Jordan elimination with the pivot rule above, and the
result is divided back once at the end.  The reduced row echelon form is
unique, so the answer is exactly the one of fraction-by-fraction
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .errors import NoSolution, NotNilpotent
from .rationals import GaussianRational, as_gauss, ZERO, ONE


class Mat:
    """Immutable dense matrix with GaussianRational entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        ent = tuple(map(as_gauss, entries))
        if len(ent) != rows * cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def diag(cls, values) -> "Mat":
        values = list(values)
        n = len(values)
        return cls(n, n, [as_gauss(values[i]) if i == j else ZERO
                          for i in range(n) for j in range(n)])

    # -- access --------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [-a for a in self.entries])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return _product(self, other)

    def scale(self, c) -> "Mat":
        c = as_gauss(c)
        return Mat(self.rows, self.cols, [c * a for a in self.entries])

    def __pow__(self, n: int) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        out = Mat.identity(self.rows)
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return out

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   [self.entries[i * self.cols + j]
                    for j in range(self.cols) for i in range(self.rows)])

    def conj(self) -> "Mat":
        return Mat(self.rows, self.cols, [a.conj() for a in self.entries])

    def conj_transpose(self) -> "Mat":
        return self.transpose().conj()

    def trace(self) -> GaussianRational:
        return sum((self[i, i] for i in range(min(self.rows, self.cols))), ZERO)

    def vec(self):
        """Row-major flattening as a tuple."""
        return self.entries

    def mat_vec(self, v):
        """Matrix times column vector (v a sequence)."""
        v = [as_gauss(x) for x in v]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        support = [k for k, x in enumerate(v) if x]
        c = self.cols
        columns = Mat(self.rows, len(support),
                      [self.entries[i * c + k] for i in range(self.rows) for k in support])
        return _product(columns, Mat(len(support), 1, [v[k] for k in support])).entries

    def is_zero(self) -> bool:
        return all(not e for e in self.entries)

    def is_real(self) -> bool:
        return all(e.is_real for e in self.entries)

    def commutes_with(self, other: "Mat") -> bool:
        return self @ other == other @ self

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(i))
                         for i in range(self.rows))
        return f"Mat[{body}]"

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return [[e.to_json() for e in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, data) -> "Mat":
        return cls.from_rows([[GaussianRational.from_json(e) for e in row]
                              for row in data])


# ---------------------------------------------------------------------------
# Integer kernels
# ---------------------------------------------------------------------------
#
# Products and elimination run on Python ints: each row is multiplied by the
# lcm of its denominators.  A real matrix runs over Z, where a row is a list
# of ints and a scalar an int.  A matrix with any non-real entry runs over
# Z[i], where a row is a pair of parallel int lists (real parts, imaginary
# parts) and a scalar an (re, im) pair, or 0 when it is zero.  The ring is
# read from the entries once per matrix.

_FZERO = Fraction(0)


def _fraction(x: int, d: int) -> Fraction:
    return Fraction(x) if d == 1 else Fraction(x, d)


def _clear(parts):
    """The fractions in parts times their lcm d, as ints, and d."""
    ratios = [x.as_integer_ratio() for x in parts]
    d = lcm(*[q for _, q in ratios])
    if d == 1:
        return [p for p, _ in ratios], 1
    return [p * (d // q) for p, q in ratios], d


class _Z:
    """Row arithmetic over the integers."""

    one = 1

    @staticmethod
    def rows(m: Mat):
        """Rows of m times the lcm of their denominators, and those lcms."""
        out = [_clear([e.re for e in m.row(i)]) for i in range(m.rows)]
        return [row for row, _ in out], [d for _, d in out]

    @staticmethod
    def embed(n: int) -> int:
        return n

    @staticmethod
    def at(row, j):
        return row[j]

    @staticmethod
    def scale(row, p, q):
        """p * row / q, where the division is exact."""
        return [x * p // q for x in row]

    @staticmethod
    def combine(row, prow, p, f, q):
        """(p * row - f * prow) / q, where the division is exact."""
        if q == 1:
            return [p * x - f * y for x, y in zip(row, prow)]
        return [(p * x - f * y) // q for x, y in zip(row, prow)]

    @staticmethod
    def support(row, c: int):
        """The nonzero (column, c * value) pairs of row."""
        return [(j, c * y) for j, y in enumerate(row) if y]

    @staticmethod
    def dot(row, supports, cols: int):
        """row times the matrix whose rows have the given supports."""
        acc = [0] * cols
        for x, nz in zip(row, supports):
            if x:
                for j, y in nz:
                    acc[j] += x * y
        return acc

    @staticmethod
    def value(x, d) -> GaussianRational:
        """The Gaussian rational x / d."""
        return GaussianRational(_fraction(x, d), _FZERO) if x else ZERO

    @staticmethod
    def entries(row, d):
        """The Gaussian rationals row / d."""
        return [_Z.value(x, d) for x in row]


class _ZI:
    """Row arithmetic over the Gaussian integers."""

    one = (1, 0)

    @staticmethod
    def rows(m: Mat):
        """Rows of m times the lcm of their denominators, and those lcms."""
        c = m.cols
        out = [_clear([e.re for e in m.row(i)] + [e.im for e in m.row(i)])
               for i in range(m.rows)]
        return [(row[:c], row[c:]) for row, _ in out], [d for _, d in out]

    @staticmethod
    def embed(n: int):
        return (n, 0)

    @staticmethod
    def at(row, j):
        a, b = row[0][j], row[1][j]
        return (a, b) if a or b else 0

    @staticmethod
    def _divide(re, im, q):
        """(re + i im) / q, where the division is exact."""
        qr, qi = q
        if qi == 0:
            if qr == 1:
                return re, im
            return [x // qr for x in re], [y // qr for y in im]
        n = qr * qr + qi * qi
        return ([(x * qr + y * qi) // n for x, y in zip(re, im)],
                [(y * qr - x * qi) // n for x, y in zip(re, im)])

    @staticmethod
    def scale(row, p, q):
        """p * row / q, where the division is exact."""
        (xr, xi), (pr, pi) = row, p
        return _ZI._divide([pr * a - pi * b for a, b in zip(xr, xi)],
                           [pr * b + pi * a for a, b in zip(xr, xi)], q)

    @staticmethod
    def combine(row, prow, p, f, q):
        """(p * row - f * prow) / q, where the division is exact."""
        (xr, xi), (yr, yi), (pr, pi), (fr, fi) = row, prow, p, f
        columns = list(zip(xr, xi, yr, yi))
        return _ZI._divide([pr * a - pi * b - fr * c + fi * e for a, b, c, e in columns],
                           [pr * b + pi * a - fr * e - fi * c for a, b, c, e in columns], q)

    @staticmethod
    def support(row, c: int):
        """The nonzero (column, c * re, c * im) triples of row."""
        return [(j, c * a, c * b) for j, (a, b) in enumerate(zip(*row)) if a or b]

    @staticmethod
    def dot(row, supports, cols: int):
        """row times the matrix whose rows have the given supports."""
        re, im = [0] * cols, [0] * cols
        for a, b, nz in zip(row[0], row[1], supports):
            if a or b:
                for j, c, e in nz:
                    re[j] += a * c - b * e
                    im[j] += a * e + b * c
        return re, im

    @staticmethod
    def value(x, d) -> GaussianRational:
        """The Gaussian rational x / d."""
        (a, b), (dr, di) = x, d
        if not (a or b):
            return ZERO
        if di == 0:
            return GaussianRational(_fraction(a, dr), _fraction(b, dr))
        n = dr * dr + di * di
        return GaussianRational(Fraction(a * dr + b * di, n), Fraction(b * dr - a * di, n))

    @staticmethod
    def entries(row, d):
        """The Gaussian rationals row / d."""
        return [_ZI.value(x, d) for x in zip(*row)]


def _ring(*matrices):
    """Z when every entry is real, else Z[i]."""
    return _ZI if any(e.im for m in matrices for e in m.entries) else _Z


def _product(a: Mat, b: Mat) -> Mat:
    """a @ b, row by row, with the support of each row of b found once."""
    ring = _ring(a, b)
    arows, alcms = ring.rows(a)
    brows, blcms = ring.rows(b)
    d = lcm(*blcms)
    supports = [ring.support(row, d // l) for row, l in zip(brows, blcms)]
    out = []
    for row, l in zip(arows, alcms):
        out.extend(ring.entries(ring.dot(row, supports, b.cols), ring.embed(l * d)))
    return Mat(a.rows, b.cols, out)


def _eliminate(rows, cols: int, ring):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of int rows, in place.

    Pivots are chosen leftmost column first, then smallest row index.  The
    k-th pivot is the leading k x k minor of the pivot rows and columns, and
    the next row operation divides exactly by it (E. H. Bareiss, Math. Comp.
    22, 1968).  A row that needs no operation at a step is left as it is:
    rows[r] equals minors[level[r]] times the rational row it stands for,
    so the row operations divide by that minor instead.

    Returns (pivot columns, sign of the row permutation, minors, level).
    """
    nr = len(rows)
    minors = [ring.one]
    level = [0] * nr
    pivots = []
    sign = 1
    for pc in range(cols):
        pr = len(pivots)
        if pr == nr:
            break
        sel = next((r for r in range(pr, nr) if ring.at(rows[r], pc)), None)
        if sel is None:
            continue
        if sel != pr:
            rows[pr], rows[sel] = rows[sel], rows[pr]
            level[pr], level[sel] = level[sel], level[pr]
            sign = -sign
        if level[pr] != pr:
            rows[pr] = ring.scale(rows[pr], minors[pr], minors[level[pr]])
        prow = rows[pr]
        p = ring.at(prow, pc)
        for r in range(nr):
            f = ring.at(rows[r], pc) if r != pr else 0
            if f:
                rows[r] = ring.combine(rows[r], prow, p, f, minors[level[r]])
                level[r] = pr + 1
        level[pr] = pr + 1
        minors.append(p)
        pivots.append(pc)
    return pivots, sign, minors, level


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------

def rref(m: Mat):
    """Reduced row echelon form.

    Returns (reduced, pivot_cols, rank).  Pivot selection is leftmost column
    first, then smallest row index.  Each pivot row is divided by its minor
    once, at the end.
    """
    if not m.rows:
        return m, (), 0
    ring = _ring(m)
    rows, _ = ring.rows(m)
    pivots, _, minors, level = _eliminate(rows, m.cols, ring)
    out = []
    for r in range(len(pivots)):
        out.extend(ring.entries(rows[r], minors[level[r]]))
    out.extend([ZERO] * ((m.rows - len(pivots)) * m.cols))
    return Mat(m.rows, m.cols, out), tuple(pivots), len(pivots)


def kernel_basis(m: Mat):
    """Basis of the right null space {v : m @ v = 0}.

    Free variables are taken in increasing column order, so the result is
    deterministic.
    """
    red, pivots, rank = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    basis = []
    for fc in free:
        v = [ZERO] * m.cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, fc]
        basis.append(tuple(v))
    return basis


def solve(m: Mat, b):
    """One exact solution of m @ x = b, or None if inconsistent.

    Free variables are set to zero (deterministic particular solution).
    """
    b = [as_gauss(x) for x in b]
    aug = Mat.from_rows([list(m.row(i)) + [b[i]] for i in range(m.rows)])
    red, pivots, rank = rref(aug)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r, m.cols]
    return tuple(x)


def det(m: Mat) -> GaussianRational:
    """Exact determinant: the sign of the row permutation times the last
    pivot of the fraction-free elimination, over the product of the row lcms.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    ring = _ring(m)
    rows, lcms = ring.rows(m)
    pivots, sign, minors, _ = _eliminate(rows, m.cols, ring)
    if len(pivots) < m.rows:
        return ZERO
    out = ring.value(minors[-1], ring.embed(prod(lcms)))
    return -out if sign < 0 else out


def inverse(m: Mat) -> Mat:
    """Exact inverse of a square matrix; NoSolution if it is singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    aug = Mat.from_rows([list(m.row(i)) + [ONE if i == j else ZERO for j in range(n)]
                         for i in range(n)])
    red, piv, r = rref(aug)
    if r != n or any(p >= n for p in piv[:n]):
        raise NoSolution("matrix is singular")
    return Mat.from_rows([list(red.row(i))[n:] for i in range(n)])


def rank(m: Mat) -> int:
    return rref(m)[2]


# ---------------------------------------------------------------------------
# Subspaces (row-space representation)
# ---------------------------------------------------------------------------

def sub_canonical(basis: Mat) -> Mat:
    """Canonical (rref, zero rows dropped) basis matrix of a row space."""
    red, pivots, r = rref(basis)
    return Mat.from_rows([list(red.row(i)) for i in range(r)]) if r else Mat.zeros(0, basis.cols)


def sub_zero(ambient: int) -> Mat:
    return Mat.zeros(0, ambient)


def sub_full(ambient: int) -> Mat:
    return Mat.identity(ambient)


def sub_dim(s: Mat) -> int:
    return s.rows


def sub_sum(*spaces: Mat) -> Mat:
    spaces = [s for s in spaces if s.rows]
    if not spaces:
        raise ValueError("sum of no spaces needs an ambient dimension")
    stacked = Mat.from_rows([r for s in spaces for r in s.row_list()])
    return sub_canonical(stacked)


def sub_sum_ambient(spaces, ambient: int) -> Mat:
    spaces = [s for s in spaces if s.rows]
    if not spaces:
        return sub_zero(ambient)
    return sub_sum(*spaces)


def sub_contains_vec(s: Mat, v) -> bool:
    if not any(as_gauss(x) for x in v):
        return True
    if s.rows == 0:
        return False
    return solve(s.transpose(), v) is not None


def sub_contains(s: Mat, t: Mat) -> bool:
    """True iff row space t is contained in row space s."""
    return all(sub_contains_vec(s, t.row(i)) for i in range(t.rows))


def sub_equal(s: Mat, t: Mat) -> bool:
    return sub_canonical(s) == sub_canonical(t)


def sub_intersect(a: Mat, b: Mat) -> Mat:
    ambient = a.cols
    if a.rows == 0 or b.rows == 0:
        return sub_zero(ambient)
    cols = []
    for i in range(a.rows):
        cols.append(list(a.row(i)))
    for i in range(b.rows):
        cols.append([-x for x in b.row(i)])
    m = Mat.from_rows(cols).transpose()  # ambient x (p+q)
    kern = kernel_basis(m)
    if not kern:
        return sub_zero(ambient)
    return sub_canonical(Mat.from_rows([k[:a.rows] for k in kern]) @ a)


def sub_conj(s: Mat) -> Mat:
    return sub_canonical(s.conj())


def sub_image(m: Mat, s: Mat) -> Mat:
    """Image of the row space s under the linear map m (column convention)."""
    if s.rows == 0:
        return sub_zero(m.rows)
    return sub_canonical(_product(s, m.transpose()))


def column_space(m: Mat) -> Mat:
    return sub_canonical(m.transpose())


def kernel_space(m: Mat) -> Mat:
    ks = kernel_basis(m)
    if not ks:
        return sub_zero(m.cols)
    return sub_canonical(Mat.from_rows([list(v) for v in ks]))


def sub_complement_in(sub: Mat, sup: Mat) -> Mat:
    """Echelon complement of `sub` inside `sup` (sub must lie in sup).

    Greedily extends a basis of sub by canonical basis rows of sup; the
    result is deterministic.
    """
    current = [list(sub.row(i)) for i in range(sub.rows)]
    chosen = []
    base_rank = sub.rows
    sup_c = sub_canonical(sup)
    for i in range(sup_c.rows):
        cand = list(sup_c.row(i))
        trial = current + chosen + [cand]
        if rref(Mat.from_rows(trial))[2] > base_rank + len(chosen):
            chosen.append(cand)
    if not chosen:
        return sub_zero(sup.cols)
    return Mat.from_rows(chosen)


def coords_in_basis(basis: Mat, v):
    """Coordinates of v in the given row basis, or None."""
    if basis.rows == 0:
        return () if not any(as_gauss(x) for x in v) else None
    return solve(basis.transpose(), v)


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
        if self.dim:
            self._basis = Mat.from_rows(self.comp.row_list() + self.sub.row_list())
        else:
            self._basis = self.sub

    def project_vec(self, v):
        """Class of v (must lie in sup) as complement coordinates."""
        coords = coords_in_basis(self._basis, v)
        if coords is None:
            raise ValueError("vector not in the total space")
        return tuple(coords[: self.dim])

    def project_sub(self, s: Mat) -> Mat:
        """Image in the quotient of a subspace of sup (rows in quotient coords)."""
        if self.dim == 0 or s.rows == 0:
            return Mat.zeros(0, self.dim)
        rows = [list(self.project_vec(s.row(i))) for i in range(s.rows)]
        return sub_canonical(Mat.from_rows(rows))

    def induced_map(self, m: Mat) -> Mat:
        """Matrix of the endomorphism induced by m (which must preserve sup, sub)."""
        cols = []
        for i in range(self.dim):
            img = m.mat_vec(self.comp.row(i))
            cols.append(self.project_vec(img))
        if self.dim == 0:
            return Mat.zeros(0, 0)
        return Mat.from_rows([list(c) for c in cols]).transpose()


class Splitting:
    """The ambient space as a direct sum of subspaces V_key, each given by a
    row basis; empty subspaces are dropped.

    ``t`` has the basis vectors as columns, keys in sorted order, and
    ``labels`` holds the key of each column.  Row j of ``t_inv`` reads off
    the j-th coordinate, and it does not depend on the order of the basis
    vectors, only on the set of them.
    """

    def __init__(self, spaces: dict):
        self.spaces = {k: spaces[k] for k in sorted(spaces) if spaces[k].rows}
        self.labels = tuple(k for k, s in self.spaces.items() for _ in range(s.rows))
        self.t = Mat.from_rows([r for s in self.spaces.values() for r in s.row_list()]).transpose()
        try:
            self.t_inv = inverse(self.t)
        except (NoSolution, ValueError):
            raise NoSolution("the subspaces do not split the space") from None
        # the rows of t_inv that read off the coordinates on each V_k
        self._duals = {k: Mat.from_rows([self.t_inv.row(j) for j, key in enumerate(self.labels)
                                         if key == k]) for k in self.spaces}

    def space(self, k) -> Mat:
        """The row basis of V_k."""
        return self.spaces[k]

    def block(self, m: Mat, src, dst) -> Mat:
        """The V_src -> V_dst block of m: column i holds the V_dst coordinates
        of m applied to the i-th basis vector of V_src."""
        return self._duals[dst] @ m @ self.spaces[src].transpose()

    def projector(self, k) -> Mat:
        """The projection onto V_k along the other subspaces."""
        return self.spaces[k].transpose() @ self._duals[k]

    def diagonal(self, f) -> Mat:
        """The operator acting on each V_k as the scalar f(k)."""
        return self.t @ Mat.diag([f(k) for k in self.labels]) @ self.t_inv


# ---------------------------------------------------------------------------
# Nilpotency
# ---------------------------------------------------------------------------

def nilpotency_index(n: Mat) -> int:
    """Smallest m >= 1 with n**m = 0; raises NotNilpotent otherwise."""
    if n.rows != n.cols:
        raise ValueError("nilpotency of non-square matrix")
    p = Mat.identity(n.rows)
    for m in range(1, n.rows + 1):
        p = p @ n
        if p.is_zero():
            return m
    raise NotNilpotent(f"matrix is not nilpotent (n^{n.rows} != 0)")


def is_nilpotent(n: Mat) -> bool:
    try:
        nilpotency_index(n)
        return True
    except NotNilpotent:
        return False


# ---------------------------------------------------------------------------
# Smith normal form (integer matrices)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithForm:
    """U @ A @ V = D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    u: Mat
    d: Mat
    v: Mat
    invariant_factors: tuple


def _int_entries(m: Mat):
    out = []
    for e in m.entries:
        if not e.is_real or e.re.denominator != 1:
            raise ValueError("smith_normal_form needs integer entries")
        out.append(int(e.re))
    return out


def smith_normal_form(a: Mat) -> SmithForm:
    nr, nc = a.rows, a.cols
    ints = _int_entries(a)
    m = [ints[i * nc:(i + 1) * nc] for i in range(nr)]
    limit = min(nr, nc)
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(f, t, c):  # row t -= c * row f
        m[t] = [x - c * y for x, y in zip(m[t], m[f])]
        u[t] = [x - c * y for x, y in zip(u[t], u[f])]

    def col_op(f, t, c):  # col t -= c * col f
        for r in m:
            r[t] -= c * r[f]
        for r in v:
            r[t] -= c * r[f]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def eliminate_from(t):
        """Reduce the trailing block from position t to diagonal form."""
        while t < limit:
            # find pivot of minimal absolute value in the trailing block
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            swap_rows(t, best[0])
            swap_cols(t, best[1])
            for i in range(t + 1, nr):
                if m[i][t]:
                    row_op(t, i, m[i][t] // m[t][t])
            for j in range(t + 1, nc):
                if m[t][j]:
                    col_op(t, j, m[t][j] // m[t][t])
            if any(m[i][t] for i in range(t + 1, nr)) or any(m[t][j] for j in range(t + 1, nc)):
                continue
            t += 1

    eliminate_from(0)

    # enforce divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            a_i, a_j = m[i][i], m[i + 1][i + 1]
            if a_j != 0 and a_i != 0 and a_j % a_i != 0:
                # classic trick: add col i+1 to col i then re-reduce the 2x2 block
                for r in m:
                    r[i] += r[i + 1]
                for r in v:
                    r[i] += r[i + 1]
                changed = True
                eliminate_from(i)
                break

    # positive diagonal
    for i in range(limit):
        if m[i][i] < 0:
            for r_ in m:
                r_[i] = -r_[i]
            for r_ in v:
                r_[i] = -r_[i]

    d = Mat.from_rows([[Fraction(m[i][j]) for j in range(nc)] for i in range(nr)])
    u_m = Mat.from_rows([[Fraction(x) for x in row] for row in u])
    v_m = Mat.from_rows([[Fraction(x) for x in row] for row in v])
    factors = tuple(int(m[i][i]) for i in range(limit) if m[i][i] != 0)

    # exact sanity checks
    if (u_m @ a @ v_m) != d:
        raise NoSolution("internal error: UAV != D in Smith normal form")
    for x, y in zip(factors, factors[1:]):
        if y % x != 0:
            raise NoSolution("internal error: divisibility chain failed")
    if det(u_m).abs2() != 1 or det(v_m).abs2() != 1:
        raise NoSolution("internal error: transforms not unimodular")
    return SmithForm(u_m, d, v_m, factors)
