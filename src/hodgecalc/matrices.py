"""Dense exact matrices over the Gaussian rationals, plus subspace calculus.

Subspaces of a fixed ambient space are represented by matrices whose rows
form a basis; the canonical representative is the reduced row echelon form,
so two subspaces are equal iff their canonical matrices are equal.

Pivoting is always leftmost-column, smallest-row-index: every operation is
deterministic.

A ``Mat`` is stored in cleared integer form: a ring, one int row per matrix
row and one positive int denominator per row, so that row i of the matrix
is its int row divided by its denominator.  A real matrix is stored over Z
(`_Z`, a row is a list of ints); a matrix with a non-real entry over Z[i]
(`_ZI`, a row is a pair of parallel int lists, real parts and imaginary
parts).  The form is canonical: in each row the gcd of the ints and the
denominator is 1, and the ring is Z[i] only when some imaginary part is
nonzero.  So equal matrices have equal forms, and ``==`` and ``hash``
compare the forms.  A Mat built from entries computes its form once; one
returned by an operation is built in the form directly, and its
``entries`` (a tuple of ``GaussianRational``, row-major) are built the
first time they are read.  Int rows are shared between matrices and are
never changed in place.  Other modules read the form through ``int_rows``,
one (re, im, d) triple of int lists and denominator per row.

Every operation of this module works on the form: products, the entry-wise
operations, and elimination.  Each ring has its own product kernel: over Z
each row of a @ b sums whole rows of b scaled by the entries of a row of a;
over Z[i] it walks the support of each row of b.  Elimination is
fraction-free (Bareiss) Gauss-Jordan elimination with the pivot rule above,
each pivot row divided once at the end.  The reduced row echelon form is
unique, so the answer is exactly the one of fraction-by-fraction
elimination.  The positivity test of a Hermitian matrix,
`hermitian_psd_status`, is the symmetric form of the same elimination, with
diagonal pivots.  `solve`, `inverse`, `row_coords` and `coords_in_basis`
are read off one elimination of [m | b], the unknowns at free columns of m
zero.  `sub_contains` is one product on a canonical basis, the identity at
its pivot columns; `sub_contains_vec` is `sub_contains` of one row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import NoSolution, NotNilpotent
from .rationals import GaussianRational, as_gauss, from_fractions, ZERO
from .records import Record


# ---------------------------------------------------------------------------
# Integer rows
# ---------------------------------------------------------------------------
#
# Over Z a row is a list of ints and a scalar an int.  Over Z[i] a row is a
# pair of parallel int lists (real parts, imaginary parts) and a scalar an
# (re, im) pair, or 0 when it is zero.  Denominators of stored rows are
# always positive ints; the pivots of an elimination over Z[i] are Gaussian.

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
    def clear(entries):
        """The canonical (row, denominator) of a row of Gaussian rationals."""
        return _clear([e.re for e in entries])

    @staticmethod
    def zero_row(cols: int):
        return [0] * cols

    @staticmethod
    def unit_row(cols: int, j: int, d: int):
        row = [0] * cols
        row[j] = d
        return row

    @staticmethod
    def at(row, j):
        return row[j]

    @staticmethod
    def cut(row, lo, hi):
        return row[lo:hi]

    @staticmethod
    def join(row, other):
        return row + other

    @staticmethod
    def columns(rows):
        return [list(c) for c in zip(*rows)]

    @staticmethod
    def mul(row, k: int):
        return [x * k for x in row]

    @staticmethod
    def outer(row, other):
        """The products x * y, x in row and y in other, x the slower index."""
        return [x * y for x in row for y in other]

    @staticmethod
    def kernel_row(cols: int, fc: int, d: int, used):
        """d times the kernel vector of free column fc: v[fc] = d and
        v[pc] = -d * x / q for each pivot column pc with entry x / q at fc."""
        v = [0] * cols
        v[fc] = d
        for pc, x, q in used:
            v[pc] = -x * (d // q)
        return v

    @staticmethod
    def lincomb(row, a: int, other, b: int):
        """a * row + b * other, for ints a and b."""
        if a == 1 and b == 1:
            return [x + y for x, y in zip(row, other)]
        return [a * x + b * y for x, y in zip(row, other)]

    @staticmethod
    def normal(row, d: int):
        """The canonical (row', d') with row' / d' = row / d, for an int d."""
        if d == 1:
            return row, 1
        g = gcd(d, *row)
        if d < 0:
            g = -g
        if g == 1:
            return row, d
        return [x // g for x in row], d // g

    quotient = normal      # row / p for a pivot p, which over Z is an int

    @staticmethod
    def scale(row, p, q):
        """p * row / q, where the division is exact."""
        if q == 1:
            return [x * p for x in row]
        return [x * p // q for x in row]

    @staticmethod
    def combine(row, prow, p, f, q):
        """(p * row - f * prow) / q, where the division is exact."""
        if q == 1:
            return [p * x - f * y for x, y in zip(row, prow)]
        return [(p * x - f * y) // q for x, y in zip(row, prow)]

    @staticmethod
    def product(a, a_den, b, b_den, cols: int):
        """The canonical pairs of a @ b, by rows (Gustavson, ACM TOMS 4, 1978)."""
        d = lcm(*b_den)
        rows = [(row if l == d else [y * (d // l) for y in row]) if any(row) else ()
                for row, l in zip(b, b_den)]        # () marks a zero row
        zero, pairs = [0] * cols, []
        for row, l in zip(a, a_den):
            acc = None
            for x, y in zip(row, rows):
                if x and y:
                    acc = [x * v for v in y] if acc is None else [s + x * v for s, v in zip(acc, y)]
            pairs.append((zero, 1) if acc is None else _Z.normal(acc, l * d))
        return pairs

    @staticmethod
    def value(x, d: int) -> GaussianRational:
        """The Gaussian rational x / d."""
        return from_fractions(_fraction(x, d), _FZERO) if x else ZERO

    @staticmethod
    def entries(row, d: int):
        """The Gaussian rationals row / d."""
        return [_Z.value(x, d) for x in row]


class _ZI:
    """Row arithmetic over the Gaussian integers."""

    one = (1, 0)

    @staticmethod
    def clear(entries):
        """The canonical (row, denominator) of a row of Gaussian rationals."""
        row, d = _clear([e.re for e in entries] + [e.im for e in entries])
        c = len(entries)
        return (row[:c], row[c:]), d

    @staticmethod
    def zero_row(cols: int):
        return [0] * cols, [0] * cols

    @staticmethod
    def unit_row(cols: int, j: int, d: int):
        return _Z.unit_row(cols, j, d), [0] * cols

    @staticmethod
    def at(row, j):
        a, b = row[0][j], row[1][j]
        return (a, b) if a or b else 0

    @staticmethod
    def cut(row, lo, hi):
        return row[0][lo:hi], row[1][lo:hi]

    @staticmethod
    def join(row, other):
        return row[0] + other[0], row[1] + other[1]

    @staticmethod
    def columns(rows):
        return [(list(a), list(b)) for a, b in zip(zip(*[r[0] for r in rows]),
                                                   zip(*[r[1] for r in rows]))]

    @staticmethod
    def mul(row, k: int):
        return [x * k for x in row[0]], [y * k for y in row[1]]

    @staticmethod
    def outer(row, other):
        """The products x * y, x in row and y in other, x the slower index."""
        return ([a * c - b * e for a, b in zip(*row) for c, e in zip(*other)],
                [a * e + b * c for a, b in zip(*row) for c, e in zip(*other)])

    @staticmethod
    def kernel_row(cols: int, fc: int, d: int, used):
        """d times the kernel vector of free column fc: v[fc] = d and
        v[pc] = -d * x / q for each pivot column pc with entry x / q at fc."""
        re, im = [0] * cols, [0] * cols
        re[fc] = d
        for pc, (a, b), q in used:
            re[pc], im[pc] = -a * (d // q), -b * (d // q)
        return re, im

    @staticmethod
    def lincomb(row, a: int, other, b: int):
        """a * row + b * other, for ints a and b."""
        return _Z.lincomb(row[0], a, other[0], b), _Z.lincomb(row[1], a, other[1], b)

    @staticmethod
    def normal(row, d: int):
        """The canonical (row', d') with row' / d' = row / d, for an int d."""
        if d == 1:
            return row, 1
        re, im = row
        g = gcd(d, *re, *im)
        if d < 0:
            g = -g
        if g == 1:
            return row, d
        return ([x // g for x in re], [y // g for y in im]), d // g

    @staticmethod
    def quotient(row, p):
        """The canonical (row', d') with row' / d' = row / p."""
        pr, pi = p
        if pi:      # row / p = row * conj(p) / |p|^2
            re, im = row
            row = ([x * pr + y * pi for x, y in zip(re, im)],
                   [y * pr - x * pi for x, y in zip(re, im)])
            pr = pr * pr + pi * pi
        return _ZI.normal(row, pr)

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
    def product(a, a_den, b, b_den, cols: int):
        """The canonical pairs of a @ b, with the support of each row of b found once."""
        d = lcm(*b_den)
        supports = [[(j, c * y, c * z) for j, (y, z) in enumerate(zip(*row)) if y or z]
                    for row, c in zip(b, [d // l for l in b_den])]
        pairs = []
        for row, l in zip(a, a_den):
            re, im = [0] * cols, [0] * cols
            for x, y, nz in zip(row[0], row[1], supports):
                if x or y:
                    for j, c, e in nz:
                        re[j] += x * c - y * e
                        im[j] += x * e + y * c
            pairs.append(_ZI.normal((re, im), l * d))
        return pairs

    @staticmethod
    def value(x, d: int) -> GaussianRational:
        """The Gaussian rational x / d."""
        return _gauss(*x, d) if x else ZERO

    @staticmethod
    def entries(row, d: int):
        """The Gaussian rationals row / d."""
        return [_gauss(a, b, d) for a, b in zip(*row)]


def _gauss(a: int, b: int, d: int) -> GaussianRational:
    """The Gaussian rational (a + b i) / d."""
    return from_fractions(_fraction(a, d), _fraction(b, d)) if a or b else ZERO


def _rows_in(m: "Mat", ring):
    """The int rows of m over ring: a real matrix's rows lifted to Z[i]."""
    if m._ring is ring:
        return m._num
    zero = [0] * m.cols
    return [(row, zero) for row in m._num]


def _common_ring(*matrices):
    return _ZI if any(m._ring is _ZI for m in matrices) else _Z


class Mat:
    """Immutable dense matrix with GaussianRational entries, stored as
    canonical integer rows (see the module docstring)."""

    __slots__ = ("rows", "cols", "_ring", "_num", "_den", "_entries")

    def __init__(self, rows: int, cols: int, entries):
        ent = tuple(map(as_gauss, entries))
        if len(ent) != rows * cols:
            raise ValueError("entry count does not match shape")
        ring = _ZI if any(e.im for e in ent) else _Z
        form = [ring.clear(ent[i * cols:(i + 1) * cols]) for i in range(rows)]
        _set(self, rows, cols, ring, [r for r, _ in form], [d for _, d in form], ent)

    @classmethod
    def _make(cls, rows: int, cols: int, ring, num, den) -> "Mat":
        """The Mat of canonical int rows; over Z[i] with no imaginary part
        left, the rows drop to Z."""
        if ring is _ZI and not any(any(im) for _, im in num):
            ring, num = _Z, [re for re, _ in num]
        m = object.__new__(cls)
        _set(m, rows, cols, ring, num, den, None)
        return m

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @property
    def entries(self):
        """Row-major tuple of GaussianRational entries, built on first read."""
        ent = self._entries
        if ent is None:
            entries = self._ring.entries
            ent = tuple(e for row, d in zip(self._num, self._den) for e in entries(row, d))
            object.__setattr__(self, "_entries", ent)
        return ent

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
    def from_int_rows(cls, rows, den: int) -> "Mat":
        """The real matrix of int sequences (copied) over one positive denominator."""
        form = [_Z.normal(list(row), den) for row in rows]
        return cls._make(len(form), len(rows[0]) if rows else 0, _Z,
                         [r for r, _ in form], [d for _, d in form])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._make(n, n, _Z, [_Z.unit_row(n, i, 1) for i in range(n)], [1] * n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._make(rows, cols, _Z, [[0] * cols] * rows if rows else [], [1] * rows)

    @classmethod
    def diag(cls, values) -> "Mat":
        values = list(values)
        n = len(values)
        return cls(n, n, [as_gauss(values[i]) if i == j else ZERO
                          for i in range(n) for j in range(n)])

    @classmethod
    def stack(cls, mats) -> "Mat":
        """The rows of the given matrices, one matrix under the next.  A
        matrix with no rows adds nothing, whatever its number of columns."""
        mats = list(mats)
        if not mats:
            raise ValueError("stack of no matrices")
        cols = next((m.cols for m in mats if m.rows), mats[0].cols)
        mats = [m for m in mats if m.rows]
        if any(m.cols != cols for m in mats):
            raise ValueError("shape mismatch in stack")
        ring = _common_ring(*mats)
        return cls._make(sum(m.rows for m in mats), cols, ring,
                         [row for m in mats for row in _rows_in(m, ring)],
                         [d for m in mats for d in m._den])

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

    def int_rows(self):
        """The canonical form, one (re, im, d) per row: row i is (re + i im) / d
        for int lists re and im (im zero when the matrix is real) and a
        positive int d.  The lists are shared; do not change them."""
        return [(re, im, d) for (re, im), d in zip(_rows_in(self, _ZI), self._den)]

    # -- algebra --------------------------------------------------------------

    def _plus(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other."""
        self._same_shape(other)
        ring = _common_ring(self, other)
        pairs = []
        for x, dx, y, dy in zip(_rows_in(self, ring), self._den, _rows_in(other, ring), other._den):
            d = dx if dx == dy else lcm(dx, dy)
            pairs.append(ring.normal(ring.lincomb(x, d // dx, y, sign * (d // dy)), d))
        return _from_pairs(self.rows, self.cols, ring, pairs)

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return _product(self, other)

    def scale(self, c) -> "Mat":
        c = as_gauss(c)
        if not c:
            return Mat.zeros(self.rows, self.cols)
        ring = _ZI if c.im else self._ring
        crow, q = ring.clear([c])
        p = ring.at(crow, 0)
        return _from_pairs(self.rows, self.cols, ring,
                           [ring.normal(ring.scale(row, p, ring.one), d * q)
                            for row, d in zip(_rows_in(self, ring), self._den)])

    def kron(self, other: "Mat") -> "Mat":
        """The Kronecker product: entry (i * other.rows + k, j * other.cols + l)
        is self[i, j] * other[k, l]."""
        ring = _common_ring(self, other)
        return _from_pairs(self.rows * other.rows, self.cols * other.cols, ring,
                           [ring.normal(ring.outer(x, y), dx * dy)
                            for x, dx in zip(_rows_in(self, ring), self._den)
                            for y, dy in zip(_rows_in(other, ring), other._den)])

    def face_split(self, other: "Mat") -> "Mat":
        """The row-wise Kronecker product: row i is row i of self (x) row i
        of other, so entry (i, j * other.cols + l) is self[i, j] * other[i, l]."""
        if self.rows != other.rows:
            raise ValueError("face-splitting product of unequal row counts")
        ring = _common_ring(self, other)
        return _from_pairs(self.rows, self.cols * other.cols, ring,
                           [ring.normal(ring.outer(x, y), dx * dy) for x, dx, y, dy in
                            zip(_rows_in(self, ring), self._den, _rows_in(other, ring), other._den)])

    def take(self, indices) -> "Mat":
        """The rows at the given indices, in that order."""
        return Mat._make(len(indices), self.cols, self._ring,
                         [self._num[i] for i in indices], [self._den[i] for i in indices])

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The rows x cols matrix of the same row-major entries.  Only whole
        rows are split or joined: cols must divide self.cols or be a
        multiple of it."""
        n, c = self.rows * self.cols, self.cols
        if rows < 0 or cols < 0 or rows * cols != n or not (
                cols == c or (cols and c % cols == 0) or (c and cols % c == 0)):
            raise ValueError(f"cannot reshape {self.rows}x{c} to {rows}x{cols}")
        if not n:
            return Mat.zeros(rows, cols)
        ring = self._ring
        if cols <= c:       # split each row into c // cols rows
            pairs = [ring.normal(ring.cut(row, lo, lo + cols), d)
                     for row, d in zip(self._num, self._den) for lo in range(0, c, cols)]
        else:               # join each k = cols // c consecutive rows
            k, pairs = cols // c, []
            for lo in range(0, self.rows, k):
                dens = self._den[lo:lo + k]
                l = lcm(*dens)
                joined = ring.zero_row(0)
                for row, d in zip(self._num[lo:lo + k], dens):
                    joined = ring.join(joined, row if d == l else ring.mul(row, l // d))
                pairs.append(ring.normal(joined, l))
        return _from_pairs(rows, cols, ring, pairs)

    def transpose(self) -> "Mat":
        ring, den = self._ring, self._den
        if not self.rows:
            return Mat.zeros(self.cols, 0)
        d = lcm(*den)
        rows = self._num if d == 1 else [ring.mul(r, d // q) for r, q in zip(self._num, den)]
        return _from_pairs(self.cols, self.rows, ring, [ring.normal(c, d) for c in ring.columns(rows)])

    def conj(self) -> "Mat":
        if self._ring is _Z:
            return self
        return Mat._make(self.rows, self.cols, _ZI,
                         [(re, [-y for y in im]) for re, im in self._num], self._den)

    def conj_transpose(self) -> "Mat":
        return self.transpose().conj()

    def trace(self) -> GaussianRational:
        """The sum of the diagonal entries: the diagonal ints brought to the
        lcm of their row denominators and summed once."""
        n = min(self.rows, self.cols)
        d = lcm(*self._den[:n])
        k = [d // e for e in self._den[:n]]
        if self._ring is _Z:
            return _Z.value(sum(row[i] * c for i, (row, c) in enumerate(zip(self._num, k))), d)
        return _gauss(sum(re[i] * c for i, ((re, _), c) in enumerate(zip(self._num, k))),
                      sum(im[i] * c for i, ((_, im), c) in enumerate(zip(self._num, k))), d)

    def mat_vec(self, v):
        """Matrix times column vector (v a sequence)."""
        v = list(v)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return _product(self, Mat(len(v), 1, v)).entries

    def is_zero(self) -> bool:
        return self._ring is _Z and not any(map(any, self._num))

    def is_real(self) -> bool:
        return self._ring is _Z

    def commutes_with(self, other: "Mat") -> bool:
        return self @ other == other @ self

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self._ring is other._ring
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        if self._ring is _Z:
            body = tuple(map(tuple, self._num))
        else:
            body = tuple((tuple(re), tuple(im)) for re, im in self._num)
        return hash((self.rows, self.cols, self._den, body))

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


def _set(m: Mat, rows, cols, ring, num, den, entries):
    put = object.__setattr__
    put(m, "rows", rows)
    put(m, "cols", cols)
    put(m, "_ring", ring)
    put(m, "_num", tuple(num))
    put(m, "_den", tuple(den))
    put(m, "_entries", entries)


def _from_pairs(rows: int, cols: int, ring, pairs) -> Mat:
    """The Mat of a list of canonical (int row, denominator) pairs."""
    return Mat._make(rows, cols, ring, [r for r, _ in pairs], [d for _, d in pairs])


def _cut_columns(m: Mat, lo: int, hi: int) -> Mat:
    """Columns lo..hi-1 of m."""
    ring = m._ring
    return _from_pairs(m.rows, hi - lo, ring, [ring.normal(ring.cut(row, lo, hi), d)
                                               for row, d in zip(m._num, m._den)])


# ---------------------------------------------------------------------------
# Integer kernels
# ---------------------------------------------------------------------------

def _product(a: Mat, b: Mat) -> Mat:
    """a @ b by the product kernel of their common ring."""
    ring = _common_ring(a, b)
    return _from_pairs(a.rows, b.cols, ring,
                       ring.product(_rows_in(a, ring), a._den, _rows_in(b, ring), b._den, b.cols))


def _eliminate(rows, cols: int, ring):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of int rows, in place.

    Pivots are chosen leftmost column first, then smallest row index.  The
    k-th pivot is the leading k x k minor of the pivot rows and columns, and
    the next row operation divides exactly by it (E. H. Bareiss, Math. Comp.
    22, 1968).  A row that needs no operation at a step is left as it is:
    rows[r] equals minors[level[r]] times the rational row it stands for,
    so the row operations divide by that minor instead.  Only the list
    `rows` changes: each row operation makes a new row.

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
    ring, rows = m._ring, list(m._num)
    pivots, _, minors, level = _eliminate(rows, m.cols, ring)
    reduced = [ring.quotient(rows[r], minors[level[r]]) for r in range(len(pivots))]
    reduced += [(ring.zero_row(m.cols), 1)] * (m.rows - len(pivots))
    return _from_pairs(m.rows, m.cols, ring, reduced), tuple(pivots), len(pivots)


def kernel_matrix(m: Mat) -> Mat:
    """The vectors of `kernel_basis` as the rows of a Mat."""
    return kernel_with_free_columns(m)[0]


def kernel_with_free_columns(m: Mat):
    """(kernel_matrix(m), free): free lists the non-pivot columns of m in
    increasing order, one per kernel row.  Row i is 1 at free[i] and 0 at
    the other free columns, so the coordinates in these rows of a vector of
    their span are its entries at the free columns."""
    red, pivots, _ = rref(m)
    ring = red._ring
    pairs, free = [], []
    for fc in range(m.cols):
        if fc in pivots:
            continue
        used = [(pc, ring.at(row, fc), q) for pc, row, q in zip(pivots, red._num, red._den)
                if ring.at(row, fc)]
        d = lcm(*[q for _, _, q in used])
        pairs.append(ring.normal(ring.kernel_row(m.cols, fc, d, used), d))
        free.append(fc)
    return _from_pairs(len(pairs), m.cols, ring, pairs), free


def kernel_basis(m: Mat):
    """Basis of the right null space {v : m @ v = 0}.

    Free variables are taken in increasing column order, so the result is
    deterministic.
    """
    k = kernel_matrix(m)
    return [k.row(i) for i in range(k.rows)]


def _solution(m: Mat, b: Mat):
    """The X with m @ X = b whose rows at the free columns of m are zero, or
    None, read off one elimination of [m | b].  Row i of [m | b] joins rows
    i of m and b over the lcm of their denominators, canonical with no gcd:
    each prime of the lcm leaves an entry of one side undivided."""
    if b.rows != m.rows:
        raise ValueError("vector length mismatch")
    n, ring = m.cols, _common_ring(m, b)
    rows, dens = [], []
    for x, dx, y, dy in zip(_rows_in(m, ring), m._den, _rows_in(b, ring), b._den):
        d = dx if dx == dy else lcm(dx, dy)
        rows.append(ring.join(x if d == dx else ring.mul(x, d // dx),
                              y if d == dy else ring.mul(y, d // dy)))
        dens.append(d)
    red, pivots, r = rref(Mat._make(m.rows, n + b.cols, ring, rows, dens))
    if r and pivots[-1] >= n:
        return None
    ring = red._ring
    rows, dens = [ring.zero_row(b.cols)] * n, [1] * n
    for pc, row, d in zip(pivots, red._num, red._den):
        rows[pc], dens[pc] = ring.normal(ring.cut(row, n, n + b.cols), d)
    return Mat._make(n, b.cols, ring, rows, dens)


def solve(m: Mat, b):
    """One exact solution of m @ x = b, or None if inconsistent.

    Free variables are set to zero (deterministic particular solution).
    """
    b = list(b)
    x = _solution(m, Mat(len(b), 1, b))
    return None if x is None else x.entries


def det(m: Mat) -> GaussianRational:
    """Exact determinant: the sign of the row permutation times the last
    pivot of the fraction-free elimination, over the product of the row
    denominators.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    ring = m._ring
    pivots, sign, minors, _ = _eliminate(list(m._num), m.cols, ring)
    if len(pivots) < m.rows:
        return ZERO
    out = ring.value(minors[-1], prod(m._den))
    return -out if sign < 0 else out


def hermitian_psd_status(h: Mat):
    """(is_psd, rank, is_pd) of a Hermitian matrix, by symmetric Bareiss
    elimination of the int rows of l * h, l the lcm of the row denominators.

    The pivot is the first positive diagonal entry of the active block; a
    negative one ends the test.  After k pivots an active entry is the one
    of pivoted LDL times the (positive) principal minor of the pivots, so
    signs and zeros are those of LDL; each step divides exactly by the
    previous pivot.
    """
    n, ring = h.rows, h._ring
    l = lcm(*h._den)
    rows = [ring.mul(row, l // d) for row, d in zip(h._num, h._den)]
    diag = (lambda i: rows[i][i]) if ring is _Z else (lambda i: rows[i][0][i])
    if ring is _ZI and any(rows[i][1][i] for i in range(n)):
        raise ValueError("matrix is not Hermitian")
    active, q = list(range(n)), ring.one
    while active:
        if any(diag(i) < 0 for i in active):
            return False, n - len(active), False
        pivot = next((i for i in active if diag(i) > 0), None)
        if pivot is None:
            # all active diagonal entries are zero: PSD iff the block is zero
            zero = not any(ring.at(rows[i], j) for i in active for j in active)
            return zero, n - len(active), False
        active.remove(pivot)
        prow, p = rows[pivot], ring.at(rows[pivot], pivot)
        for i in active:
            f = ring.at(rows[i], pivot)
            rows[i] = ring.combine(rows[i], prow, p, f, q) if f else ring.scale(rows[i], p, q)
        q = p
    return True, n, True


def inverse(m: Mat) -> Mat:
    """Exact inverse of a square matrix; NoSolution if it is singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    x = _solution(m, Mat.identity(m.rows))
    if x is None:
        raise NoSolution("matrix is singular")
    return x


def rank(m: Mat) -> int:
    return rref(m)[2]


# ---------------------------------------------------------------------------
# Subspaces (row-space representation)
# ---------------------------------------------------------------------------

def pivot_columns(m: Mat):
    """The pivot columns of m when m is a canonical basis (reduced row
    echelon form, no zero rows; see `sub_canonical`), else None.  The
    coordinates of a vector of the row space are its entries at these
    columns.  Read off the int rows: every row is nonzero, the leading
    columns strictly increase, each leading entry equals its row's
    denominator (so the entry is 1), and each pivot column is zero in every
    other row.  The rows after a row lead further right, so only the rows
    above it can be nonzero in its pivot column."""
    ring, pivots = m._ring, []
    for row, d in zip(m._num, m._den):
        lead = next((j for j in range(m.cols) if ring.at(row, j)), None)
        if (lead is None or (pivots and lead <= pivots[-1])
                or ring.at(row, lead) != (d if ring is _Z else (d, 0))):
            return None
        pivots.append(lead)
    if any(ring.at(row, pc) for i, row in enumerate(m._num) for pc in pivots[i + 1:]):
        return None
    return tuple(pivots)


def sub_canonical(basis: Mat) -> Mat:
    """Canonical (rref, zero rows dropped) basis matrix of a row space; a
    basis already in that form is returned as it is."""
    if pivot_columns(basis) is not None:
        return basis
    red, pivots, r = rref(basis)
    return red.take(range(r)) if r else Mat.zeros(0, basis.cols)


def sub_zero(ambient: int) -> Mat:
    return Mat.zeros(0, ambient)


def sub_full(ambient: int) -> Mat:
    return Mat.identity(ambient)


def sub_dim(s: Mat) -> int:
    return s.rows


def sub_sum(*spaces: Mat) -> Mat:
    if len({s.cols for s in spaces}) > 1:
        raise ValueError("vector length mismatch")
    spaces = [s for s in spaces if s.rows]
    if not spaces:
        raise ValueError("sum of no spaces needs an ambient dimension")
    return sub_canonical(Mat.stack(spaces))


def sub_sum_ambient(spaces, ambient: int) -> Mat:
    if any(s.cols != ambient for s in spaces):
        raise ValueError("vector length mismatch")
    spaces = [s for s in spaces if s.rows]
    if not spaces:
        return sub_zero(ambient)
    return sub_sum(*spaces)


def sub_contains_vec(s: Mat, v) -> bool:
    """`sub_contains` of the one-row matrix v."""
    return sub_contains(s, Mat.from_rows([v]))


def sub_contains(s: Mat, t: Mat) -> bool:
    """True iff row space t lies in row space s.  The canonical s is the
    identity at its pivot columns P, so t lies in it exactly when
    t = t[:, P] s: one product, and one elimination for any other s."""
    if t.cols != s.cols:
        raise ValueError("vector length mismatch")
    if t.is_zero():
        return True
    pivots = pivot_columns(s)
    if pivots is None:
        s = sub_canonical(s)
        pivots = pivot_columns(s)
    return t.transpose().take(pivots).transpose() @ s == t


def sub_equal(s: Mat, t: Mat) -> bool:
    return sub_canonical(s) == sub_canonical(t)


def sub_intersect(a: Mat, b: Mat) -> Mat:
    ambient = a.cols
    if b.cols != ambient:
        raise ValueError("vector length mismatch")
    if a.rows == 0 or b.rows == 0:
        return sub_zero(ambient)
    # a square canonical basis is the identity: the whole space
    if a.rows == ambient and pivot_columns(a) is not None:
        return sub_canonical(b)
    if b.rows == ambient and pivot_columns(b) is not None:
        return sub_canonical(a)
    # x a = y b exactly when (x, y) is in the left kernel of [a; -b]
    kern = kernel_matrix(Mat.stack([a, -b]).transpose())
    return sub_canonical(_cut_columns(kern, 0, a.rows) @ a)


def sub_conj(s: Mat) -> Mat:
    return sub_canonical(s.conj())


def sub_image(m: Mat, s: Mat) -> Mat:
    """Image of the row space s under the linear map m (column convention)."""
    if s.cols != m.cols:
        raise ValueError("vector length mismatch")
    if s.rows == 0:
        return sub_zero(m.rows)
    return sub_canonical(_product(s, m.transpose()))


def column_space(m: Mat) -> Mat:
    return sub_canonical(m.transpose())


def kernel_space(m: Mat) -> Mat:
    return sub_canonical(kernel_matrix(m))


def extend_basis(sub: Mat, candidates: Mat) -> Mat:
    """The rows of `candidates`, taken in order, that each raise the rank of
    `sub` plus the rows already taken (sub must have independent rows).

    One elimination of [sub^T | candidates^T]: a column is a pivot exactly
    when it is outside the span of the columns before it, so the pivots
    after the first sub.rows columns mark the rows to take."""
    if sub.cols != candidates.cols:
        raise ValueError("vector length mismatch")
    _, pivots, _ = rref(Mat.stack([sub, candidates]).transpose())
    return candidates.take([p - sub.rows for p in pivots if p >= sub.rows])


def sub_complement_in(sub: Mat, sup: Mat) -> Mat:
    """Echelon complement of `sub` inside `sup` (sub must lie in sup).

    Greedily extends a basis of sub by canonical basis rows of sup; the
    result is deterministic.
    """
    return extend_basis(sub, sub_canonical(sup))


def coords_in_basis(basis: Mat, v):
    """Coordinates of v in the given row basis, or None."""
    return solve(basis.transpose(), v)


def row_coords(basis: Mat, s: Mat):
    """The matrix whose row i holds `coords_in_basis(basis, row i of s)`, or
    None when some row of s is not in the row space of basis."""
    x = _solution(basis.transpose(), s.transpose())
    return None if x is None else x.transpose()


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
        self.t = (Mat.stack(self.spaces.values()).transpose() if self.spaces
                  else Mat.zeros(0, 0))
        try:
            self.t_inv = inverse(self.t)
        except (NoSolution, ValueError):
            raise NoSolution("the subspaces do not split the space") from None
        # the rows of t_inv that read off the coordinates on each V_k
        self._duals = {k: self.t_inv.take([j for j, key in enumerate(self.labels) if key == k])
                       for k in self.spaces}

    def coords(self, s: Mat, k) -> Mat:
        """Row i holds the V_k coordinates of row i of s."""
        return s @ self._duals[k].transpose()

    def block(self, m: Mat, src, dst) -> Mat:
        """The V_src -> V_dst block of m: column i holds the V_dst coordinates
        of m applied to the i-th basis vector of V_src."""
        return self._duals[dst] @ m @ self.spaces[src].transpose()

    def flat_blocks(self, flat: Mat, src, dst) -> Mat:
        """The V_src -> V_dst blocks of the endomorphisms whose row-major
        flattenings are the rows of `flat`, each block flattened the same way,
        from one product: vec(D X S^T) = (D (x) S) vec(X) for the block
        D X S^T of X."""
        return flat @ self._duals[dst].kron(self.spaces[src]).transpose()

    def projector(self, k) -> Mat:
        """The projection onto V_k along the other subspaces."""
        return self.spaces[k].transpose() @ self._duals[k]

    def diagonal(self, f) -> Mat:
        """The operator acting on each V_k as the scalar f(k)."""
        return self.t @ Mat.diag([f(k) for k in self.labels]) @ self.t_inv


# ---------------------------------------------------------------------------
# Nilpotency
# ---------------------------------------------------------------------------

def nilpotent_powers(n: Mat) -> list:
    """[n, n^2, ..., n^m] for the smallest m >= 1 with n^m = 0; raises
    NotNilpotent otherwise."""
    if n.rows != n.cols:
        raise ValueError("nilpotency of non-square matrix")
    powers = []
    for _ in range(n.rows):
        powers.append(powers[-1] @ n if powers else n)
        if powers[-1].is_zero():
            return powers
    raise NotNilpotent(f"matrix is not nilpotent (n^{n.rows} != 0)")


def nilpotency_index(n: Mat) -> int:
    """Smallest m >= 1 with n**m = 0; raises NotNilpotent otherwise."""
    return len(nilpotent_powers(n))


def is_nilpotent(n: Mat) -> bool:
    try:
        nilpotency_index(n)
        return True
    except NotNilpotent:
        return False


# ---------------------------------------------------------------------------
# Smith normal form (integer matrices)
# ---------------------------------------------------------------------------

class SmithForm(Record):
    """U @ A @ V = D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    u: Mat
    d: Mat
    v: Mat
    invariant_factors: tuple


def smith_normal_form(a: Mat) -> SmithForm:
    nr, nc = a.rows, a.cols
    if a._ring is not _Z or any(d != 1 for d in a._den):
        raise ValueError("smith_normal_form needs integer entries")
    m = [list(row) for row in a._num]
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

    d, u_m, v_m = (Mat.from_int_rows(rows, 1) for rows in (m, u, v))
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
