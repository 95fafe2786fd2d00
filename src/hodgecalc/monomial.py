"""Monomial maps separating the fibers of nilpotent-orbit period maps.

A tuple of commuting nilpotents has a rational relation space R; monomials
t^B with B in the non-negative part of R-perp are constant on orbit fibers,
and extreme rays of that cone give a canonical generating set.  Along a
boundary stratum the same construction applies with the relation condition
"sum b_j N_j lies in W_{-1} of the stratum cone acting on endomorphisms".
The saturation refinement factors a monomial map through a finite covering
so that its fibers become connected at the lattice level.
"""

from __future__ import annotations

from itertools import combinations

from .cones import nonnegative_extreme_rays, primitive_rows
from .errors import NoSolution
from .lmhs import PolarizedOrbitSpec
from .matrices import (
    Mat, inverse, kernel_matrix, kernel_space, smith_normal_form, sub_canonical, sub_contains,
)
from .polynomials import monomial_string
from .records import Record
from .weightfilt import weight_filtration_centered


# ---------------------------------------------------------------------------
# Relation spaces
# ---------------------------------------------------------------------------

class RelationSpace(Record):
    """Kernel and cokernel data of a -> sum a_i N_i."""

    basis: Mat          # canonical basis of {a : sum a_i N_i = 0}
    orth_basis: Mat     # canonical basis of its orthogonal complement


def _flat(nilpotents, d: int) -> Mat:
    """The matrix whose rows are the row-major flattenings vec(N_j)."""
    return Mat.stack([Mat.zeros(0, d * d)] + [n.reshape(1, d * d) for n in nilpotents])


def relation_space(nilpotents) -> RelationSpace:
    """Exact kernel of the flattening map a -> sum a_i N_i."""
    if not nilpotents:
        return RelationSpace(Mat.zeros(0, 0), Mat.zeros(0, 0))
    basis = kernel_space(_flat(nilpotents, nilpotents[0].rows).transpose())
    return RelationSpace(basis, kernel_space(basis))


# ---------------------------------------------------------------------------
# Monomial maps
# ---------------------------------------------------------------------------

class MonomialMap(Record):
    """Rows of `exponents` are the defining monomials in variables
    t_{j+1} for j in `variables` (global indices)."""

    exponents: tuple     # tuple of integer tuples
    variables: tuple     # global variable indices (0-based)

    def monomial_strings(self):
        return tuple(monomial_string(row, "t", self.variables) or "1" for row in self.exponents)

    @classmethod
    def from_rays(cls, rays, variables) -> "MonomialMap":
        """The map whose exponents are the given primitive rays, largest
        first."""
        return cls(tuple(sorted(rays, reverse=True)), tuple(variables))

    def to_json(self):
        return {"exponents": [list(r) for r in self.exponents],
                "variables": [j + 1 for j in self.variables],
                "monomials": list(self.monomial_strings())}


def nonnegative_generators(orth: Mat):
    """Primitive non-negative integer generators of rowspace(orth) ∩ orthant."""
    return nonnegative_extreme_rays(orth)


def monomial_map(spec: PolarizedOrbitSpec) -> MonomialMap:
    """Monomials separating the fibers of the full orbit."""
    rays = nonnegative_generators(relation_space(spec.nilpotents).orth_basis)
    return MonomialMap.from_rays(rays, range(spec.num_params))


def w_minus1_end(n_cone: Mat) -> Mat:
    """Level -1 of the centered weight filtration of ad(n_cone) on End(V), as
    canonical rows of row-major flattened endomorphisms.

    The weight filtration of ad N on End(V) = V (x) V* is the one that the
    centered W = W(N) on V induces, so level -1 is the space of X with
    X W_k ⊆ W_(k-1) for all k: the sum over k of W_k (x) Ann(W_k), since X
    lies in it exactly when it lowers the weight of each vector of a basis
    adapted to W.  The map v φ flattens to v (x) φ, the Kronecker product of
    the rows of W_k and of its kernel; levels 0 and V add nothing."""
    d = n_cone.rows
    return sub_canonical(Mat.stack([Mat.zeros(0, d * d)] + [
        w.kron(kernel_matrix(w)) for w in weight_filtration_centered(n_cone).values()
        if 0 < w.rows < d]))


def stratum_relation_rows(spec: PolarizedOrbitSpec, subset):
    """(canonical basis of {b over the complement : sum b_j N_j in
    W_-1(N_subset) End(V)}, complement)."""
    subset = spec.stratum(subset)
    return _relation_space(spec, subset, w_minus1_end(spec.n_sum(subset)))


def _relation_space(spec: PolarizedOrbitSpec, subset, w: Mat):
    """(canonical basis Mat of the stratum_relation_rows, complement), with
    W_-1(N_subset) End(V) given as `w`: sum b_j vec(N_j) lies in the row
    space of w exactly when it is orthogonal to the kernel of w."""
    complement = [j for j in range(spec.num_params) if j not in subset]
    flat = _flat([spec.nilpotents[j] for j in complement], spec.dim)
    return kernel_space(kernel_matrix(w) @ flat.transpose()), complement


def stratum_monomial_map(spec: PolarizedOrbitSpec, subset) -> MonomialMap:
    """Monomials in the complement variables separating stratum fibers."""
    subset = spec.stratum(subset)
    space, complement = _relation_space(spec, subset, w_minus1_end(spec.n_sum(subset)))
    return MonomialMap.from_rays(nonnegative_generators(kernel_space(space)), complement)


class CompatibilityReport(Record):
    subset_small: tuple
    subset_large: tuple
    generators: tuple      # integer relation vectors over the small complement
    verdicts: tuple        # bool per generator
    passed: bool


def compatibility_check(spec: PolarizedOrbitSpec, small, large) -> CompatibilityReport:
    """Check that stratum relations persist into deeper strata.

    For every relation generator of the small stratum, its truncation to the
    large stratum's complement must satisfy the W_-1 condition of the large
    cone.
    """
    small = spec.stratum(small)
    large = spec.stratum(large)
    if not set(small) < set(large):
        raise ValueError("need a strictly nested pair of strata")
    relations = _relation_space(spec, small, w_minus1_end(spec.n_sum(small)))
    return _compatibility(spec, small, large, relations, w_minus1_end(spec.n_sum(large)))


def _compatibility(spec, small, large, relations, w_large: Mat) -> CompatibilityReport:
    """compatibility_check from the relations of `small` and W_-1 of `large`."""
    space, complement = relations
    gens = tuple(primitive_rows(space))
    # row i is sum_j g_ij vec(N_j) over the complement of `large`
    d = spec.dim
    flat = _flat([spec.nilpotents[j] if j not in large else Mat.zeros(d, d)
                  for j in complement], d)
    totals = Mat(len(gens), len(complement), [c for g in gens for c in g]) @ flat
    verdicts = tuple(sub_contains(w_large, totals.take([i])) for i in range(totals.rows))
    return CompatibilityReport(tuple(small), tuple(large), gens, verdicts, all(verdicts))


def compatibility_checks(spec: PolarizedOrbitSpec):
    """compatibility_check of every strictly nested pair of nonempty proper
    strata, small by size then lexicographically, each large after it the
    same way; W_-1(End) and the relation rows of each stratum are derived
    once per call."""
    k = spec.num_params
    w = {}

    def w_of(subset):
        if subset not in w:
            w[subset] = w_minus1_end(spec.n_sum(subset))
        return w[subset]

    out = []
    for r in range(1, k):
        for small in combinations(range(k), r):
            relations = _relation_space(spec, list(small), w_of(small))
            rest = [j for j in range(k) if j not in small]
            for extra in range(1, k - r + 1):
                for add in combinations(rest, extra):
                    large = tuple(sorted(small + add))
                    out.append(_compatibility(spec, list(small), list(large),
                                              relations, w_of(large)))
    return out


# ---------------------------------------------------------------------------
# Saturation refinement
# ---------------------------------------------------------------------------

class SaturationRefinement(Record):
    eta: Mat                 # k x k exponent matrix of the covering
    refined: MonomialMap     # exponents of the connected-fiber map
    invariant_factors: tuple


def connected_refinement(m: MonomialMap) -> SaturationRefinement:
    """Factor t^E through a finite monomial covering so the image lattice is
    saturated.

    With E = U^-1 D V^-1 (Smith form), the refined exponents replace each
    elementary divisor by 1 and the covering collects them; the quotient of
    the saturation by the image lattice is the direct sum of Z/d_i with the
    d_i > 1.
    """
    if not m.exponents:
        k = len(m.variables)
        return SaturationRefinement(Mat.identity(k), m, tuple())
    e = Mat.from_int_rows(m.exponents, 1)
    snf = smith_normal_form(e)
    u_inv = inverse(snf.u)
    v_inv = inverse(snf.v)
    nr, nc = e.rows, e.cols
    # the nonzero diagonal entries of D come first: they are the invariant factors
    factors = snf.invariant_factors
    r = len(factors)
    d_hat = Mat.from_int_rows([[int(i == j < r) for j in range(nc)] for i in range(nr)], 1)
    a_tilde = u_inv @ d_hat @ v_inv
    b = snf.v @ Mat.diag(list(factors) + [1] * (nc - r)) @ v_inv
    if a_tilde @ b != e:
        raise NoSolution("internal error: refinement diagram does not commute")
    refined = a_tilde.int_rows()
    if any(d != 1 for _, _, d in refined):
        raise NoSolution("internal error: refined exponents not integral")
    if any(d != 1 for _, _, d in b.int_rows()):
        raise NoSolution("internal error: covering exponents not integral")
    # saturation check: the refined lattice has trivial elementary divisors
    if any(f != 1 for f in smith_normal_form(a_tilde).invariant_factors):
        raise NoSolution("internal error: refined lattice is not saturated")
    refined_map = MonomialMap(tuple(tuple(re) for re, _, _ in refined), m.variables)
    return SaturationRefinement(b, refined_map, tuple(f for f in factors if f > 1))


# ---------------------------------------------------------------------------
# Boundary positivity
# ---------------------------------------------------------------------------

def strata_boundary_positivity(spec: PolarizedOrbitSpec, index: int, subset=None) -> bool:
    """True iff the index-th direction stays independent at the stratum.

    With I the stratum containing the normal direction, checks that N_index
    does not fall into W_-1 of the residual cone N_{I minus index} together
    with the span of the other residual nilpotents.
    """
    if subset is None:
        subset = {index}
    subset = spec.stratum(subset)
    if index not in subset:
        raise ValueError("the normal direction must belong to the stratum")
    rest = [j for j in subset if j != index]
    flat = _flat([spec.nilpotents[j] for j in rest], spec.dim)
    space = Mat.stack([w_minus1_end(spec.n_sum(rest)), flat])
    return not sub_contains(space, spec.nilpotents[index].reshape(1, spec.dim ** 2))
