"""Weight filtrations of nilpotent endomorphisms and their sl2 completions.

Index conventions: the increasing filtration of a nilpotent N acting on a
space of Hodge-theoretic weight n runs over 0..2n ("Hodge" indexing); the
underlying construction is centered at 0 ("representation" indexing) and the
two are related by a shift of n.  Bracket identities for triples are always
checked in the centered normalization.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NoSolution, NotCommuting
from .matrices import (
    Mat, Splitting, kernel_space, extend_basis, kernel_matrix, kernel_with_free_columns,
    nilpotent_powers, rank, row_coords, sub_canonical, sub_complement_in, sub_contains,
    sub_dim, sub_equal, sub_full, sub_intersect, sub_zero,
)
from .records import Record


# ---------------------------------------------------------------------------
# Weight filtration
# ---------------------------------------------------------------------------

def weight_filtration_centered(n: Mat) -> dict:
    """Centered weight filtration of a nilpotent matrix.

    Returns a dict k -> basis matrix for -s..s where s = nilpotency index - 1;
    outside that range the filtration is 0 below and full above.  Uses the
    descending recursion

        W_k = ker N^(k+1) + N W_(k+2)   (k >= 0),
        W_k = N W_(k+2)                 (k < 0),

    equivalent to the closed form  W_k = sum_a im(N^a) ∩ ker(N^(a+k+1)),
    which the test suite keeps as its independent oracle.  Each level is
    one canonical form of ker N^(k+1) stacked on N W_(k+2); the top level
    is W_s = ker N^(s+1) = V.
    """
    return _centered(n, nilpotent_powers(n))


def _centered(n: Mat, powers) -> dict:
    """`weight_filtration_centered` of n, given `nilpotent_powers(n)`."""
    s = len(powers) - 1
    nt = n.transpose()
    out = {s: sub_full(n.rows)}
    for k in range(s - 1, -s - 1, -1):
        kernel = [kernel_matrix(powers[k])] if k >= 0 else []
        out[k] = sub_canonical(Mat.stack([*kernel, out.get(k + 2, out[s]) @ nt]))
    return out


class WeightFiltration(Record):
    """Increasing filtration W_0 ⊆ ... ⊆ W_{2n} with its graded dimensions."""

    weight: int
    subspaces: tuple      # length 2n+1, canonical basis matrices
    graded_dims: tuple

    @property
    def ambient(self) -> int:
        return self.subspaces[-1].cols

    def level(self, k: int) -> Mat:
        """W_k with the out-of-range conventions W_{<0}=0, W_{>2n}=V."""
        if k < 0:
            return sub_zero(self.ambient)
        if k >= len(self.subspaces):
            return self.subspaces[-1]
        return self.subspaces[k]


def weight_filtration(n: Mat, weight: int) -> WeightFiltration:
    """The unique weight filtration of the nilpotent n, in Hodge indexing."""
    powers = nilpotent_powers(n)
    s = len(powers) - 1
    if s > weight:
        raise ValueError(f"nilpotent of string length {s} does not fit weight {weight}")
    d = n.rows
    centered = _centered(n, powers)     # centred levels -s..s, the top one V
    subspaces = [sub_zero(d) if c < -s else centered[min(c, s)]
                 for c in range(-weight, weight + 1)]
    if sub_dim(subspaces[-1]) != d:
        raise NoSolution("internal error: top filtration level is not V")
    graded = tuple(sub_dim(subspaces[k]) - (sub_dim(subspaces[k - 1]) if k else 0)
                   for k in range(len(subspaces)))
    wf = WeightFiltration(weight, tuple(subspaces), graded)
    _check_weight_filtration(n, wf, powers)
    return wf


def _check_weight_filtration(n: Mat, wf: WeightFiltration, powers):
    """Postconditions: N W_k ⊆ W_{k-2} and Hard Lefschetz isomorphisms;
    powers is `nilpotent_powers(n)`, its last entry 0 standing for any higher.

    Every level is canonical, so N W_k ⊆ W_{k-2} is `sub_contains` of the
    rows N w (w in W_k), one product.  Given that, N^k induces a map
    Gr_{n+k} -> Gr_{n-k}, which between spaces of equal dimension is
    bijective exactly when it is onto: W_{n-k-1} + N^k W_{n+k} = W_{n-k}.
    """
    nw, nt = wf.weight, n.transpose()
    for k in range(0, 2 * nw + 1):
        if not sub_contains(wf.level(k - 2), wf.level(k) @ nt):
            raise NoSolution("internal error: N does not shift the filtration by -2")
    for k in range(1, nw + 1):
        dim = wf.graded_dims[nw + k]
        if dim != wf.graded_dims[nw - k]:
            raise NoSolution("internal error: graded dimensions not symmetric")
        if dim:
            nk = powers[min(k, len(powers)) - 1]
            image = Mat.stack([wf.level(nw - k - 1), wf.level(nw + k) @ nk.transpose()])
            if rank(image) != wf.level(nw - k).rows:
                raise NoSolution("internal error: Hard Lefschetz map not bijective")


# ---------------------------------------------------------------------------
# Grading elements and sl2 triples
# ---------------------------------------------------------------------------

def grading_element(n: Mat, wf: WeightFiltration) -> Mat:
    """A semisimple Y with eigenspaces splitting wf and [Y, n] = -2n; see
    `grading_splitting`."""
    return grading_splitting(n, wf)[0]


def grading_splitting(n: Mat, wf: WeightFiltration):
    """(Y, its eigenspace splitting): Y is a semisimple grading element of wf
    with [Y, n] = -2n, and the splitting is keyed by Hodge-indexed weight.

    Construction: lift the primitive subspace of each graded piece (echelon
    representatives, corrected so the appropriate power of n kills the lift
    exactly), then walk the lifts down their n-strings (`_strings`); the
    string vectors are the basis of the splitting.  By the Lefschetz
    decomposition the primitive part of Gr_m has dimension
    dim Gr_m - dim Gr_(m+2), so a level where that is 0 is skipped.
    """
    nw = wf.weight
    powers = nilpotent_powers(n)     # N^1 .. N^(s+1) = 0: the longest string has s+1 vectors
    s = len(powers) - 1

    tops = {}       # centred weight m -> the corrected primitive lifts
    dims = (*wf.graded_dims, 0, 0)
    for m in range(s, -1, -1):
        if dims[nw + m] == dims[nw + m + 2]:
            continue        # no primitive vectors at centred weight m
        wk = wf.level(nw + m)
        wk1 = wf.level(nw + m - 1)
        pt = powers[m].transpose()
        # primitive candidates: v in W_{n+m} whose class is killed by n^(m+1),
        # i.e. n^(m+1) v lands in W_{n-m-3}, the kernel of its annihilator
        images = wk @ pt @ kernel_matrix(wf.level(nw - m - 3)).transpose()
        prim_cand = sub_canonical(kernel_matrix(images.transpose()) @ wk)
        lifts = extend_basis(sub_intersect(prim_cand, wk1), prim_cand)
        # subtract from each lift v the u in W_{n+m-1} with n^(m+1) u = n^(m+1) v
        # whose coordinates in the rows of W_{n+m-1} have the free ones zero
        coords = row_coords(wk1 @ pt, lifts @ pt)
        if coords is not None:
            lifts = lifts - coords @ wk1
        if coords is None or not (lifts @ pt).is_zero():
            raise NoSolution("internal error: primitive correction failed")
        tops[m] = lifts

    try:
        split = Splitting({m + nw: v for m, v in _strings(n, tops)[0].items()})
    except NoSolution:
        raise NoSolution("internal error: string basis does not span") from None
    y = split.diagonal(lambda k: k)
    if not (y @ n - n @ y + n.scale(2)).is_zero():
        raise NoSolution("internal error: [Y,N] != -2N")
    _check_grading(split, wf)
    return y, split


def _strings(n: Mat, tops: dict):
    """The n-strings of primitive vectors, stacked per centred weight.

    The rows of tops[m] are vectors v_0 of centred weight m with
    n^(m+1) v_0 = 0.  Returns (vectors, raised), both keyed by centred
    weight: the rows of vectors[m-2j] are the v_j = n^j v_0 of every top, in
    the order of `tops`, and the rows of raised[m-2j] are their images
    n+ v_j = j(m-j+1) v_(j-1) under the raising operator n+ of the sl2 triple
    in which each v_0 is a highest weight vector.
    """
    nt = n.transpose()
    vectors, raised = {}, {}
    for m, top in tops.items():
        string = [top]
        for _ in range(m):
            string.append(string[-1] @ nt)
        for j, v in enumerate(string):
            vectors.setdefault(m - 2 * j, []).append(v)
            raised.setdefault(m - 2 * j, []).append(
                string[j - 1].scale(j * (m - j + 1)) if j else Mat.zeros(top.rows, n.rows))
    return ({k: Mat.stack(vs) for k, vs in vectors.items()},
            {k: Mat.stack(rs) for k, rs in raised.items()})


def _check_grading(split: Splitting, wf: WeightFiltration):
    """Postconditions of a grading splitting: each V_k lies in W_k and has
    the dimension of Gr_k.  The V_k are exactly the eigenspaces of
    Y = split.diagonal(k -> k), so they need no probing."""
    if not set(split.spaces) <= set(range(len(wf.graded_dims))):
        raise NoSolution("internal error: Y is not semisimple with the right spectrum")
    for k, dim in enumerate(wf.graded_dims):
        space = split.spaces.get(k, sub_zero(wf.ambient))
        if not sub_contains(wf.level(k), space):
            raise NoSolution("internal error: eigenspace not inside W_k")
        if space.rows != dim:
            raise NoSolution("internal error: eigenspace dimension mismatch")


class Sl2Triple(Record):
    """Raising/grading/lowering matrices in the centered normalization.

    Brackets: [y, n_minus] = -2 n_minus, [y, n_plus] = 2 n_plus,
    [n_plus, n_minus] = y.
    """

    n_plus: Mat
    y: Mat
    n_minus: Mat

    def check(self) -> bool:
        ok1 = (self.y @ self.n_minus - self.n_minus @ self.y + self.n_minus.scale(2)).is_zero()
        ok2 = (self.y @ self.n_plus - self.n_plus @ self.y - self.n_plus.scale(2)).is_zero()
        ok3 = (self.n_plus @ self.n_minus - self.n_minus @ self.n_plus - self.y).is_zero()
        return ok1 and ok2 and ok3


def complete_sl2(n: Mat, y: Mat, weight: int = 0) -> Sl2Triple:
    """The sl2 triple (X, y, n) with the unique raising operator X:
    [y, X] = 2X and [X, n] = y.

    `y` may be given in Hodge indexing (pass the weight to recenter) or
    already centered (weight=0).  If the triple exists, the vectors of
    y-eigenvalue m >= 0 that n^(m+1) kills are its highest weight vectors,
    so their n-strings (`_strings`) are a basis of V on which X is known, and
    X is read off that basis with one inverse.  The highest weights are the
    eigenvalues of y on V/im n (`_highest_weight_vectors`), so y is probed
    only there.  If the strings are not a basis, no raising operator exists;
    y's own spectrum is probed then, so that a y which is not semisimple
    with integer eigenvalues is reported as such.
    """
    d = n.rows
    yc = y - Mat.identity(d).scale(Fraction(weight))
    try:
        vectors, raised = _strings(n, _highest_weight_vectors(n, yc))
        try:
            if sum(v.rows for v in vectors.values()) != d:     # Splitting({}) splits only 0
                raise NoSolution
            split = Splitting(vectors)
        except NoSolution:
            raise NoSolution("no raising operator: y is not a grading element for n") from None
    except NoSolution:
        integer_eigen_decomposition(yc)     # raises first if y is not semisimple
        raise
    images = Mat.stack([Mat.zeros(0, d), *(raised[k] for k in split.spaces)])
    triple = Sl2Triple(images.transpose() @ split.t_inv, yc, n)
    if not triple.check():
        raise NoSolution("internal error: bracket relations failed")
    return triple


def _highest_weight_vectors(n: Mat, yc: Mat) -> dict:
    """m -> the vectors of yc-eigenvalue m that n^(m+1) kills, for each
    eigenvalue m >= 0 of yc on V/im n, highest first: when the triple
    exists, these are its highest weights.

    [yc, n] = -2n makes yc map im n into itself, so yc acts on the
    annihilator of im n, the rows L of `kernel_matrix(n^T)`, by the k x k
    matrix B with L yc = B L (k the number of Jordan blocks of n), read off
    the free columns of L yc (`kernel_with_free_columns`).
    """
    if not (yc @ n - n @ yc + n.scale(2)).is_zero():
        raise NoSolution("no raising operator: y does not grade n by -2")
    d, nt = n.rows, n.transpose()
    ann, free = kernel_with_free_columns(nt)
    quotient = (ann @ yc).transpose().take(free)        # B^T, with the spectrum of B
    tops = {}
    for m in sorted((m for m in integer_eigen_decomposition(quotient) if m >= 0), reverse=True):
        eigen = kernel_space(yc - Mat.identity(d).scale(m))
        image = eigen
        for _ in range(m + 1):
            image = image @ nt
        tops[m] = kernel_matrix(image.transpose()) @ eigen
    return tops


# ---------------------------------------------------------------------------
# Eigenspace decompositions and the relative weight filtration
# ---------------------------------------------------------------------------

def integer_eigen_decomposition(y: Mat) -> dict:
    """Eigenspaces of a semisimple matrix with integer eigenvalues.

    Returns k -> basis matrix, keys in ascending order; raises if the
    eigenspaces do not fill the space.  Candidates are probed from zero
    outwards (0, -1, 1, -2, 2, ...): the eigenvalues of a grading lie near
    zero, those of a centred one closest to it.  The eigenvalues, counted
    with multiplicity, have squares summing to tr(y^2), so the probe stops
    once k^2 exceeds tr(y^2) less the squares of those already found.  They
    sum to tr(y), and r of them with sum t have squares summing to t^2 / r
    exactly when all r equal t / r: then that value is the only one probed.
    """
    d = y.rows
    squares, trace = (y @ y).trace(), y.trace()
    if (squares.im or squares.re.denominator != 1 or squares.re < 0
            or trace.im or trace.re.denominator != 1):
        raise NoSolution("matrix is not semisimple with integer eigenvalues")
    rest = int(squares.re)      # sum of the squares of the eigenvalues not found yet
    left = int(trace.re)        # and their sum
    spaces, total, k = {}, 0, 0
    while total < d and k * k <= rest:
        count = d - total
        last = left * left == count * rest
        if last:
            if left % count or left // count in spaces:
                break       # not an integer, or probed already: y is not semisimple
            k = left // count
        eig = kernel_space(y - Mat.identity(d).scale(k))
        if eig.rows:
            spaces[k] = eig
            total += eig.rows
            rest -= eig.rows * k * k
            left -= eig.rows * k
        if last:
            break
        k = -k if k < 0 else -k - 1
    if total < d:
        raise NoSolution("matrix is not semisimple with integer eigenvalues")
    return dict(sorted(spaces.items()))


def y_eigen_decomposition(n2: Mat, y: Mat) -> dict:
    """ad-eigencomponents of n2 with respect to a semisimple y.

    Returns m -> component with [y, component] = m * component; components
    sum to n2 exactly.
    """
    d = y.rows
    split = Splitting(integer_eigen_decomposition(y))
    projectors = {k: split.projector(k) for k in split.spaces}
    comps = {}
    for k2 in split.spaces:
        for k1 in split.spaces:
            m = k2 - k1
            piece = projectors[k2] @ n2 @ projectors[k1]
            if not piece.is_zero():
                comps[m] = comps.get(m, Mat.zeros(d, d)) + piece
    total = Mat.zeros(d, d)
    for piece in comps.values():
        total = total + piece
    if total != n2:
        raise NoSolution("internal error: eigencomponents do not sum back")
    for m, piece in comps.items():
        if not (y @ piece - piece @ y - piece.scale(Fraction(m))).is_zero():
            raise NoSolution("internal error: component has wrong ad-weight")
    return comps


class RwfpReport(Record):
    """Comparison of the two natural filtrations on each graded piece."""

    holds: bool
    details: tuple   # (graded index m, level m', lhs dim, rhs dim, equal)


def relative_weight_filtration_check(na: Mat, nb: Mat, weight: int) -> RwfpReport:
    """Compare the filtration induced by W(na+nb) on Gr W(na) with the
    weight filtration of the induced endomorphism, both centered at 0 per
    graded piece.

    Gr_m W(na) is read as the complement V_m of W_(m-1) in W_m: the V_m
    split V with W_m = V_m + W_(m-1), so the V_m-coordinates of a vector of
    W_m are those of its class in Gr_m, and nb, which preserves W(na),
    induces the block of nb on V_m.  From level 2n up W(na+nb) is all of V,
    so there the induced filtration is all of Gr_m."""
    if not na.commutes_with(nb):
        raise NotCommuting("the two nilpotents do not commute")
    top = 2 * weight
    wa = weight_filtration(na, weight)
    wab = weight_filtration(na + nb, weight)
    split = Splitting({m: sub_complement_in(wa.level(m - 1), wa.level(m))
                       for m in range(0, top + 1)})
    details = []
    holds = True
    for m, space in split.spaces.items():
        dim = space.rows
        # keys -s..s; outside them the filtration is 0 below and Gr_m above
        centred = weight_filtration_centered(split.block(nb, m, m))
        span = max(max(centred), top)
        for mp in range(-span, span + 1):
            if m + mp >= top:
                lhs = sub_full(dim)
            else:
                lhs = sub_canonical(split.coords(sub_intersect(wab.level(m + mp), wa.level(m)), m))
            rhs = centred.get(mp, sub_zero(dim) if mp < 0 else sub_full(dim))
            eq = sub_equal(lhs, rhs)
            holds = holds and eq
            details.append((m, mp, sub_dim(lhs), sub_dim(rhs), eq))
    return RwfpReport(holds, tuple(details))
