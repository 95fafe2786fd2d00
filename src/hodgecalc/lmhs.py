"""Mixed Hodge structures attached to commuting nilpotents.

The central object is a polarized orbit: (V, Q, N_1..N_k, F) with commuting
Q-skew nilpotents and a Hodge filtration such that (W(sum N_i), F) is an
R-split mixed Hodge structure polarized in the graded sense.  Everything is
exact: V = Q^d, F has Gaussian-rational bases, and positivity checks are
fraction-free symmetric eliminations (``matrices.hermitian_psd_status``).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotMHS
from .matrices import (
    Mat, hermitian_psd_status, is_nilpotent, kernel_matrix, rank, row_coords, rref,
    sub_canonical, sub_conj, sub_contains, sub_dim, sub_equal, sub_full,
    sub_intersect, sub_sum_ambient, sub_zero,
)
from .rationals import GaussianRational, i_power
from .records import Record
from .weightfilt import WeightFiltration, grading_splitting, weight_filtration

# Global orientation of the positivity convention for polarizing forms: the
# Hermitian form  - i^(p-q) * Q(u, N^i conj v) = - i^(p-q) (-1)^i Q(N^i u, conj v)
# is required to be positive definite on each primitive (p, q) piece sitting
# i steps above the middle weight.  The single pure-structure orientation
# - i^(p-q) Q(u, conj v) > 0 is pinned by the bundled fixtures (it agrees
# with the Hodge metric -Q(C u, conj v) used for endomorphism algebras).
def hermitian_sign(p: int, q: int, level: int = 0) -> GaussianRational:
    """The positivity unit multiplying Q(N^level u, conj v) on a primitive
    (p, q) piece of the graded at `level` steps above the middle weight:
    -(-1)^level i^(p-q) = i^(p-q+2 level+2)."""
    return i_power(p - q + 2 * level + 2)


# ---------------------------------------------------------------------------
# Flags
# ---------------------------------------------------------------------------

def flag_levels(flag, weight: int, ambient: int):
    """Normalize a decreasing flag given as [F^n, ..., F^0] to a dict p -> Mat."""
    levels = {}
    if any(f.cols != ambient for f in flag if f.rows):
        raise ValueError("flag bases must live in the ambient space")
    mats = [sub_canonical(f) if f.rows else sub_zero(ambient) for f in flag]
    if len(mats) != weight + 1:
        raise ValueError(f"flag must list F^{weight}..F^0 ({weight + 1} levels)")
    for i, f in enumerate(mats):
        levels[weight - i] = f
    return levels


def flag_level(levels: dict, p: int, weight: int, ambient: int) -> Mat:
    if p > weight:
        return sub_zero(ambient)
    if p < 0:
        return sub_full(ambient)
    return levels[p]


# ---------------------------------------------------------------------------
# Deligne bigrading
# ---------------------------------------------------------------------------

class DeligneBigrading(Record):
    """The canonical (p, q)-decomposition of an R-splittable MHS.

    pieces maps (p, q) to a canonical basis matrix of I^{p,q}; the range of
    indices actually probed is recorded so effectivity can be tested.
    """

    weight: int
    ambient: int
    pieces: dict
    r_split: bool
    effective: bool

    def piece(self, p: int, q: int) -> Mat:
        return self.pieces.get((p, q), sub_zero(self.ambient))

    def grading_subspace(self, k: int) -> Mat:
        """V_k = direct sum of I^{p,q} with p+q = k."""
        return sub_sum_ambient(
            [m for (p, q), m in self.pieces.items() if p + q == k], self.ambient)

    def hodge_numbers(self) -> dict:
        return {(p, q): m.rows for (p, q), m in self.pieces.items() if m.rows}


def deligne_bigrading(wf: WeightFiltration, flag) -> DeligneBigrading:
    """Compute I^{p,q} from the standard closed formula (see `_closed_formula`).

    Raises NotMHS when the pieces fail to decompose the space, or do not
    span W and F.
    """
    n = wf.weight
    d = wf.ambient
    levels = flag_levels(flag, n, d)
    bi = _closed_formula(wf, levels)
    pieces = bi.pieces
    total = sum(m.rows for m in pieces.values())
    stacked_rank = rref(Mat.stack(pieces.values()))[2] if pieces else 0
    if total != d or (pieces and stacked_rank != d):
        raise NotMHS(
            f"Deligne pieces have total dimension {total} with rank "
            f"{stacked_rank}, ambient {d}")

    # compatibility with W and F
    for k in range(0, 2 * n + 1):
        span = sub_sum_ambient([m for (p, q), m in pieces.items() if p + q <= k], d)
        if not sub_equal(span, wf.level(k)):
            raise NotMHS(f"W_{k} is not the span of I^(p,q) with p+q <= {k}")
    for p in range(0, n + 1):
        span = sub_sum_ambient([m for (pp, q), m in pieces.items() if pp >= p], d)
        if not sub_equal(span, flag_level(levels, p, n, d)):
            raise NotMHS(f"F^{p} is not the span of I^(p',q) with p' >= {p}")
    return bi


def _closed_formula(wf: WeightFiltration, levels: dict) -> DeligneBigrading:
    """The pieces I^{p,q} = F^p ∩ W_{p+q} ∩ ( conj(F^q) ∩ W_{p+q} +
    sum_{j>=1} conj(F^{q-j}) ∩ W_{p+q-j-1} ) of the flag with levels
    p -> F^p, with their R-splitness and effectivity, whether or not they
    form a mixed Hodge structure."""
    n = wf.weight
    d = wf.ambient

    def f_level(p):
        return flag_level(levels, p, n, d)

    # conj(F^q) ∩ W_m, each computed once; F^q is 0 above n and V below 0
    meets = {}

    def conj_meet(q, m):
        key = (min(max(q, -1), n + 1), m)
        if key not in meets:
            meets[key] = sub_intersect(sub_conj(f_level(q)), wf.level(m))
        return meets[key]

    pieces = {}
    lo, hi = -n - 1, 2 * n + 1   # probe well beyond the effective window
    for p in range(lo, n + 1):   # F^p = 0 for p > n
        for q in range(lo, hi + 1):
            k = p + q
            if k < 0 or k > 2 * n:
                continue
            fw = sub_intersect(f_level(p), wf.level(k))
            if not fw.rows:
                continue
            extra = [conj_meet(q, k)] + [conj_meet(q - j, k - j - 1) for j in range(1, k)]
            piece = sub_intersect(fw, sub_sum_ambient(extra, d))
            if sub_dim(piece):
                pieces[(p, q)] = piece

    r_split = all(sub_equal(sub_conj(m), pieces.get((q, p), sub_zero(d)))
                  for (p, q), m in pieces.items())
    effective = all(0 <= p <= n and 0 <= q <= n for (p, q) in pieces)
    return DeligneBigrading(n, d, pieces, r_split, effective)


# ---------------------------------------------------------------------------
# Polarized orbit specs
# ---------------------------------------------------------------------------

class PolarizedOrbitSpec(Record):
    """A several-parameter degeneration: (dim, weight, Q, N_1..N_k, F)."""

    dim: int
    weight: int
    q: Mat
    nilpotents: tuple
    flag: tuple          # [F^n basis, ..., F^0 basis]

    @property
    def num_params(self) -> int:
        return len(self.nilpotents)

    def stratum(self, subset) -> list:
        """The distinct indices of `subset` in increasing order; ValueError
        when one is not the index of a nilpotent."""
        subset = sorted(set(subset))
        if any(i < 0 or i >= self.num_params for i in subset):
            raise ValueError("stratum index out of range")
        return subset

    def n_sum(self, subset=None) -> Mat:
        total = Mat.zeros(self.dim, self.dim)
        for i, n in enumerate(self.nilpotents):
            if subset is None or i in subset:
                total = total + n
        return total

    def lmhs(self):
        """Weight filtration of the full cone and the Deligne bigrading."""
        wf = weight_filtration(self.n_sum(), self.weight)
        bi = deligne_bigrading(wf, self.flag)
        return wf, bi



def q_gram(q: Mat, left: Mat, right: Mat) -> Mat:
    """The matrix of Q(u, v) for the rows u of left and v of right."""
    return left @ q @ right.transpose()


def first_relation_holds(q: Mat, levels: dict, weight: int) -> bool:
    """The first bilinear relation Q(F^p, F^(n-p+1)) = 0 for the flag with
    levels p -> F^p, n = weight; Q is (-1)^n-symmetric, so p <= n - p + 1
    suffices."""
    return all(q_gram(q, levels[p], levels[weight - p + 1]).is_zero()
               for p in range(1, (weight + 1) // 2 + 1))


def hodge_riemann_status(q: Mat, piece: Mat, image: Mat, p: int, q_: int, level: int = 0):
    """hermitian_psd_status of hermitian_sign(p, q_, level) Q(N^level u, conj v)
    for u, v the rows of `piece`, `image` the rows N^level u.  The form is
    Hermitian when Q and N are real, Q is (-1)^n-symmetric, N is Q-skew and
    p + q_ = n + level; callers check all of these first."""
    return hermitian_psd_status(q_gram(q, image, piece.conj()).scale(hermitian_sign(p, q_, level)))


class CheckResult(Record):
    name: str
    passed: bool
    detail: str = ""


class LmhsReport(Record):
    checks: tuple
    # (weight filtration, bigrading) when validation got that far, for
    # callers that go on to use them; never rendered and never compared
    lmhs: tuple = None
    _hidden = ("lmhs",)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]


def _primitive_parts(space, n: Mat, weight: int):
    """(i, P_i, N^i) for i = 0..weight and each nonzero primitive part
    P_i = ker N^(i+1) ∩ space(weight + i), as a canonical basis; `space`
    maps a weight to the row basis of a subspace that N^(i+1) respects."""
    power = Mat.identity(n.rows)
    for i in range(weight + 1):
        higher = power @ n
        s = space(weight + i)
        prim = sub_canonical(kernel_matrix((s @ higher.transpose()).transpose()) @ s)
        if prim.rows:
            yield i, prim, power
        power = higher


def verify_polarized_lmhs(spec: PolarizedOrbitSpec) -> LmhsReport:
    """Run every structural check; failures are reported, not raised."""
    checks = []
    d, n = spec.dim, spec.weight

    sym = spec.q.transpose() == (spec.q if n % 2 == 0 else -spec.q)
    nondeg = rank(spec.q) == d
    checks.append(CheckResult("q-form symmetry", sym,
                              f"(-1)^{n}-symmetric expected"))
    checks.append(CheckResult("q-form nondegenerate", nondeg))
    if not spec.q.is_real():     # listed on failure alone, like the first relation
        checks.append(CheckResult("q-form rational", False))

    for idx, nmat in enumerate(spec.nilpotents):
        checks.append(CheckResult(f"nilpotent[{idx}] is nilpotent", is_nilpotent(nmat)))
        skew = nmat.transpose() @ spec.q == -(spec.q @ nmat)
        checks.append(CheckResult(f"nilpotent[{idx}] infinitesimally q-skew", skew))
        real = nmat.is_real()
        checks.append(CheckResult(f"nilpotent[{idx}] rational", real))
    for a in range(len(spec.nilpotents)):
        for b in range(a + 1, len(spec.nilpotents)):
            checks.append(CheckResult(
                f"nilpotents[{a},{b}] commute",
                spec.nilpotents[a].commutes_with(spec.nilpotents[b])))

    levels = flag_levels(spec.flag, n, d)
    decreasing = all(sub_contains(levels[p], levels[p + 1]) for p in range(n))
    checks.append(CheckResult("flag decreasing", decreasing))
    checks.append(CheckResult("flag fills V at F^0", sub_dim(levels[0]) == d))

    # every N_j in one containment per p; sub_zero(d) keeps the stack valid
    # when there is no N_j, and then the check holds
    stable = all(sub_contains(levels[p - 1], Mat.stack(
        [sub_zero(d), *(levels[p] @ nmat.transpose() for nmat in spec.nilpotents)]))
        for p in range(1, n + 1))
    checks.append(CheckResult("N F^p inside F^(p-1)", stable))
    if not first_relation_holds(spec.q, levels, n):     # listed on failure alone
        checks.append(CheckResult("first bilinear relation", False, "Q(F^p, F^(n-p+1)) = 0"))

    if not all(c.passed for c in checks):
        return LmhsReport(tuple(checks))

    try:
        wf, bi = spec.lmhs()
    except (NotMHS, ValueError) as exc:     # refusals are reported; a crash is raised
        checks.append(CheckResult("limiting MHS exists", False, str(exc)))
        return LmhsReport(tuple(checks))
    checks.append(CheckResult("limiting MHS exists", True))
    checks.append(CheckResult("R-split", bi.r_split))
    checks.append(CheckResult("effective", bi.effective))
    if not (bi.r_split and bi.effective):
        return LmhsReport(tuple(checks), (wf, bi))

    # primitive part of the graded piece of weight n+i, inside the canonical
    # grading subspace V_{n+i} (N respects the grading)
    for i, prim, power in _primitive_parts(bi.grading_subspace, spec.n_sum(), n):
        gram = q_gram(spec.q, prim @ power.transpose(), prim)
        nd = rank(gram) == prim.rows
        checks.append(CheckResult(f"Q_{i} nondegenerate on primitive weight {n + i}", nd))
        # positivity piece by piece
        for (p, q_), m in sorted(bi.pieces.items()):
            if p + q_ != n + i:
                continue
            pm = sub_intersect(m, prim)
            if pm.rows == 0:
                continue
            _, rk, pd = hodge_riemann_status(spec.q, pm, pm @ power.transpose(), p, q_, i)
            checks.append(CheckResult(
                f"Hodge-Riemann positivity on primitive ({p},{q_})",
                pd, f"rank {rk} of {pm.rows}"))
    return LmhsReport(tuple(checks), (wf, bi))


# ---------------------------------------------------------------------------
# Associated graded orbits along a stratum
# ---------------------------------------------------------------------------

class StratumPiece(Record):
    """One primitive graded piece of a stratum degeneration, as its own orbit.

    `level` is the shift i (the piece sits in graded weight n+i before the
    Tate untwist); `orbit` carries the untwisted weight n-i, the twisted
    pairing, the induced nilpotents of the remaining directions, and the
    induced filtration, all in the coordinates of `basis` (rows inside the
    ambient space)."""

    level: int
    basis: Mat
    orbit: PolarizedOrbitSpec


def associated_graded_orbit(spec: PolarizedOrbitSpec, subset):
    """Primitive graded pieces of W(N_I) with their induced orbit data.

    The splitting is the deterministic echelon grading element of N_I; on
    each graded piece the surviving directions j outside I act through the
    ad-weight-zero components, and the filtration is the projected one.
    """
    subset = spec.stratum(subset)
    k = spec.num_params
    if not subset:
        return [StratumPiece(0, sub_full(spec.dim), spec)]
    d, n = spec.dim, spec.weight
    n_i = spec.n_sum(subset)
    wf = weight_filtration(n_i, n)
    _, split = grading_splitting(n_i, wf)

    complement = [j for j in range(k) if j not in subset]
    levels = flag_levels(spec.flag, n, d)
    pieces = []
    # primitive part: kernel of N_I^(i+1) inside V_k
    for i, prim, power in _primitive_parts(lambda w: split.spaces.get(w, sub_zero(d)), n_i, n):
        kk, pd = n + i, prim.rows

        def coords(s: Mat) -> Mat:
            c = row_coords(prim, s)
            if c is None:
                raise NotMHS("projection left the primitive subspace")
            return c

        proj_k = split.projector(kk)
        # induced nilpotents: ad-weight-zero parts restricted to the piece
        induced = []
        for j in complement:
            nj0 = proj_k @ spec.nilpotents[j] @ proj_k
            induced.append(coords(prim @ nj0.transpose()).transpose())
        # twisted pairing
        sign = Fraction(-1) ** i
        gram = q_gram(spec.q, prim @ power.transpose(), prim).scale(sign)
        # induced filtration, untwisted by i
        piece_weight = n - i
        flag_rows = []
        for p_prime in range(piece_weight, -1, -1):
            fp = flag_level(levels, p_prime + i, n, d)
            inter = sub_intersect(fp, wf.level(kk))
            projected = sub_canonical(inter @ proj_k.transpose())
            flag_rows.append(coords(sub_intersect(projected, prim)))
        orbit = PolarizedOrbitSpec(
            dim=pd, weight=piece_weight, q=gram,
            nilpotents=tuple(induced), flag=tuple(flag_rows))
        pieces.append(StratumPiece(i, prim, orbit))
    return pieces


def piece_hodge_numbers(pieces) -> dict:
    """j -> h^(n-j,0) summed over the pieces of associated_graded_orbit."""
    out = {}
    for piece in pieces:
        top = piece.orbit.flag[0]
        if top.rows:
            out[piece.level] = out.get(piece.level, 0) + top.rows
    return out


def stratum_hodge_numbers(spec: PolarizedOrbitSpec, subset) -> dict:
    """j -> h^(n-j,0) of the limiting structure along the stratum `subset`."""
    if not set(subset):
        return {0: spec.flag[0].rows}
    return piece_hodge_numbers(associated_graded_orbit(spec, subset))
