"""Pointwise curvature models with the norm-positivity property.

A model is a linear map A : E (x) T -> G between Hermitian spaces with
standard inner products in the given frames; the induced curvature form is
Theta(e, xi) = |A(e (x) xi)|^2, automatically Nakano semi-positive because
its matrix is a Gram matrix.  Symmetric powers are handled inside the
tensor power (an isometric embedding), keeping every norm rational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial, prod
import random

from .errors import DimensionMismatch, NotUnit
from .matrices import Mat, hermitian_psd_status, kernel_basis, kernel_matrix, rank
from .polynomials import poly_mat_det, poly_matrix
from .rationals import GaussianRational, ZERO, as_gauss
from .records import Record


class NormPositivityModel(Record):
    """A : E (x) T -> G as a (rank_g) x (rank_e * dim_t) matrix.

    Column index convention: (alpha, i) -> alpha * dim_t + i with alpha the
    fiber index and i the tangent index.
    """

    dim_t: int
    rank_e: int
    rank_g: int
    a: Mat

    def __post_init__(self):
        if self.a.rows != self.rank_g or self.a.cols != self.rank_e * self.dim_t:
            raise DimensionMismatch("model matrix shape mismatch")

    def apply(self, e, xi):
        """A(e (x) xi) for vectors e in E, xi in T."""
        return (self.a @ Mat(self.rank_e, 1, e).kron(Mat(self.dim_t, 1, xi))).entries


class CurvatureTensor(Record):
    """Theta^alpha_{beta-bar i j-bar} stored as the Nakano matrix on E (x) T."""

    rank_e: int
    dim_t: int
    nakano: Mat

    def theta(self, alpha: int, beta: int, i: int, j: int) -> GaussianRational:
        return self.nakano[alpha * self.dim_t + i, beta * self.dim_t + j]

    def value(self, e, xi) -> Fraction:
        """The real curvature form on a decomposable pair: v N v* for the
        row vector v = e (x) xi and N the Nakano matrix."""
        v = Mat(1, self.rank_e, e).kron(Mat(1, self.dim_t, xi))
        return (v @ self.nakano @ v.conj_transpose())[0, 0].real_or_raise()

    def horizontal_form(self, e) -> Mat:
        """The Hermitian form Theta(e, ., .) on T: E^T N conj(E) for the
        column E = e (x) I_T."""
        frame = Mat(self.rank_e, 1, e).kron(Mat.identity(self.dim_t))
        return frame.transpose() @ self.nakano @ frame.conj()

    def trace_form(self) -> Mat:
        """The first Chern form as a Hermitian matrix on T: the sum of the
        horizontal forms of the frame vectors of E."""
        return sum((self.horizontal_form(e) for e in Mat.identity(self.rank_e).row_list()),
                   Mat.zeros(self.dim_t, self.dim_t))


def curvature_from_model(model: NormPositivityModel) -> CurvatureTensor:
    """Nakano matrix A* A; a Gram matrix, hence exactly PSD."""
    nak = model.a.conj_transpose() @ model.a
    return CurvatureTensor(model.rank_e, model.dim_t, nak)


# ---------------------------------------------------------------------------
# Symmetric powers via the tensor-power embedding
# ---------------------------------------------------------------------------

def sym_power_model(model: NormPositivityModel, k: int) -> NormPositivityModel:
    """Curvature model of the k-th tensor power, restricting to the symmetric
    summand.

    One summand of the target per tensor slot, kept as a direct sum exactly
    as in the product functoriality (A (x) Id) (+) (Id (x) A): collapsing the
    slots into one copy of E^(k-1) (x) G would distort the Gram matrix.  The
    symmetric power sits inside the tensor power isometrically, so evaluating
    on symmetrized vectors gives its curvature; rank_e of the output is
    rank_e ** k.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    if k == 1:
        return model
    r, t = model.rank_e, model.dim_t
    identity = Mat.identity(r ** k)
    rest_a = Mat.identity(r ** (k - 1)).kron(model.a)
    slots = []
    for pos in range(k):
        # S_pos moves the factor in slot pos of E^(x)k to the last place: its
        # row (rest, a) picks the tensor index with a put back into slot pos
        s_pos = identity.take([_tensor_index(s[:pos] + s[-1:] + s[pos:-1], r)
                               for s in product(range(r), repeat=k)])
        # slot pos of the target: A applied to that factor, the rest kept
        slots.append(rest_a @ s_pos.kron(Mat.identity(t)))
    a_k = Mat.stack(slots)
    return NormPositivityModel(t, r ** k, a_k.rows, a_k)


def _tensor_index(alphas, rank_e: int) -> int:
    """The position of e_{a1} (x) ... (x) e_{ak} in the tensor power."""
    idx = 0
    for a in alphas:
        idx = idx * rank_e + a
    return idx


def sym_vector(indices, rank_e: int):
    """The symmetrization of e_{i1} (x) ... (x) e_{ik} inside the tensor power.

    Returns (vector, squared norm); both exact.
    """
    k = len(indices)
    dim = rank_e ** k
    v = [ZERO] * dim
    perms = list(permutations(indices))
    coeff = GaussianRational(Fraction(1, len(perms)))
    for p in perms:
        idx = _tensor_index(p, rank_e)
        v[idx] = v[idx] + coeff
    norm2 = sum((x.abs2() for x in v), Fraction(0))
    return v, norm2


def sym_subspace_basis(rank_e: int, k: int):
    """Rows spanning the symmetric tensors inside the k-th tensor power."""
    rows = []
    for combo in combinations_with_replacement(range(rank_e), k):
        v, _ = sym_vector(combo, rank_e)
        rows.append([x for x in v])
    return Mat.from_rows(rows)


# ---------------------------------------------------------------------------
# Projectivized Chern form
# ---------------------------------------------------------------------------

class ProjectivizedForm(Record):
    horizontal: Mat
    vertical: Mat
    psd: bool
    positive_definite: bool
    horizontal_kernel_dim: int


def projectivized_chern_form(model: NormPositivityModel, e, *,
                             fiber_subspace: Mat | None = None) -> ProjectivizedForm:
    """Curvature of the tautological bundle at (x, [e]) for a unit vector e.

    The horizontal block is Theta(e, ., .); the vertical block is the
    Fubini-Study form restricted transverse to the scaling direction (cross
    terms vanish in the normalized pointwise frame).  `fiber_subspace`
    restricts the vertical directions, e.g. to the symmetric tensors when
    the model is a tensor-power embedding of a symmetric power.
    """
    e = [as_gauss(x) for x in e]
    if len(e) != model.rank_e:
        raise DimensionMismatch("fiber vector has wrong length")
    norm2 = sum((x.abs2() for x in e), Fraction(0))
    if norm2 != 1:
        raise NotUnit(f"fiber vector has squared norm {norm2}, expected 1")
    theta = curvature_from_model(model)
    horizontal = theta.horizontal_form(e)

    ambient = (fiber_subspace if fiber_subspace is not None
               else Mat.identity(model.rank_e))
    # directions in the fiber subspace orthogonal to e: the inner product
    # <w, e> = sum w_i conj(e_i) vanishes, a kernel within the subspace
    row_e = Mat(1, model.rank_e, e)
    basis = kernel_matrix(row_e.conj() @ ambient.transpose()) @ ambient
    # Fubini-Study matrix I - e e* restricted to the chosen basis
    fubini_study = Mat.identity(model.rank_e) - row_e.conj_transpose() @ row_e
    vertical = basis @ fubini_study @ basis.conj_transpose()

    hpsd, hrank, hpd = hermitian_psd_status(horizontal)
    vpsd, _, vpd = hermitian_psd_status(vertical)
    psd = hpsd and vpsd
    pd = hpd and vpd
    return ProjectivizedForm(horizontal, vertical, psd, pd,
                             model.dim_t - hrank)


def flat_directions(model: NormPositivityModel, e):
    """Basis of {xi in T : A(e (x) xi) = 0} and its dimension."""
    frame = Mat(model.rank_e, 1, e).kron(Mat.identity(model.dim_t))
    basis = kernel_basis(model.a @ frame)
    return basis, len(basis)


def quotient_curvature_at(theta_e: CurvatureTensor, inclusion: Mat, beta_mats,
                          q_vec, xi) -> Fraction:
    """Curvature of a quotient: the sub-bundle value plus the second
    fundamental form's norm; always >= the first term."""
    jq = inclusion.mat_vec(q_vec)
    base = theta_e.value(jq, xi)
    if len(beta_mats) != theta_e.dim_t:
        raise DimensionMismatch("need one second-fundamental-form matrix per direction")
    # |sum_i xi_i beta_i* q|^2
    dim_s = beta_mats[0].cols if beta_mats else 0
    q = Mat(len(q_vec), 1, q_vec)
    w = sum((b.conj_transpose().scale(x) @ q for b, x in zip(beta_mats, xi)),
            Mat.zeros(dim_s, 1))
    correction = (w.conj_transpose() @ w)[0, 0].real_or_raise()
    if correction < 0:
        raise DimensionMismatch("internal error: correction term not a norm")
    return base + correction


# ---------------------------------------------------------------------------
# Chern-form norms
# ---------------------------------------------------------------------------

def chern_form_norm(model: NormPositivityModel, q: int, subspace_rows) -> Fraction:
    """(1/q!) s_q(Theta), the signed q-th Segre form, on a q-dimensional
    subspace of T (for q = 1, c_1: the trace form); a norm, hence >= 0.  The
    name predates this reading; the rename waits (ROADMAP item 7).

    Computed as the norm of the q x q minors of the E-valued matrix of A
    restricted to the subspace; entries multiply as polynomials in the fiber
    coordinates and the symmetric-power norm is the permanent one.
    """
    rows = [list(r) for r in subspace_rows]
    if len(rows) != q:
        raise DimensionMismatch(f"need {q} spanning vectors, got {len(rows)}")
    if q == 0:
        return Fraction(1)
    # E-valued matrix: entry (gamma, c) is linear in the fiber coordinates, with
    # coefficient of e_alpha entry (gamma, c) of A (e_alpha (x) Xi), Xi = [xi_1 ... xi_q]
    xi = Mat.from_rows(rows).transpose()
    forms = poly_matrix(model.rank_e, {tuple(u): model.a @ Mat(model.rank_e, 1, u).kron(xi)
                                       for u, _, _ in Mat.identity(model.rank_e).int_rows()})
    total = Fraction(0)
    for gammas in combinations(range(model.rank_g), q):
        for exp, coef in poly_mat_det([forms[gamma] for gamma in gammas]).terms.items():
            c2 = coef.abs2() if isinstance(coef, GaussianRational) else coef * coef
            total += c2 * prod(map(factorial, exp))
    return total / factorial(q)


def trace_form_power_vanishes(model: NormPositivityModel, q: int) -> bool:
    """True iff the q-th power of the first Chern form vanishes on every
    q-dimensional subspace, i.e. the trace form has rank < q."""
    trace = curvature_from_model(model).trace_form()
    return rank(trace) < q


def tangent_to_hom_rank(model: NormPositivityModel) -> int:
    """Rank of A viewed as T -> Hom(E, G).  Read as rank_g * rank_e rows of
    length dim_t, A has the rows of its column blocks A (e_alpha (x) I_T), one
    for each frame vector of E, stacked, in another order."""
    return rank(model.a.reshape(model.rank_g * model.rank_e, model.dim_t))


# ---------------------------------------------------------------------------
# Semipositivity reports
# ---------------------------------------------------------------------------

# Seeded decomposable tensors drawn per sample for the strong-positivity witness.
WITNESS_DRAWS = 25


class SemipositivityReport(Record):
    semi_positive: tuple      # bool per sample (Nakano matrix PSD)
    sampled_minima: tuple     # Fraction per sample over seeded decomposables
    trace_positive: tuple     # bool per sample (trace form positive definite)
    strongly_semi_positive: bool


def strong_semipositivity_check(samples, *, seed: int = 0) -> SemipositivityReport:
    """Check each curvature sample for semi-positivity and the sampled
    strong-positivity witness over WITNESS_DRAWS seeded decomposables."""
    rng = random.Random(seed)
    semis, minima, traces = [], [], []
    for sample in samples:
        psd, _, _ = hermitian_psd_status(sample.nakano)
        semis.append(psd)
        worst = None
        for _ in range(WITNESS_DRAWS):
            e = [GaussianRational(Fraction(rng.randint(-3, 3)),
                                  Fraction(rng.randint(-3, 3)))
                 for _ in range(sample.rank_e)]
            xi = [GaussianRational(Fraction(rng.randint(-3, 3)),
                                   Fraction(rng.randint(-3, 3)))
                  for _ in range(sample.dim_t)]
            if not any(e) or not any(xi):
                continue
            val = sample.value(e, xi)
            scale = (sum((x.abs2() for x in e), Fraction(0))
                     * sum((x.abs2() for x in xi), Fraction(0)))
            if scale:
                val = val / scale
            if worst is None or val < worst:
                worst = val
        minima.append(worst if worst is not None else Fraction(0))
        _, _, pd = hermitian_psd_status(sample.trace_form())
        traces.append(pd)
    strongly = all(semis) and any(traces)
    return SemipositivityReport(tuple(semis), tuple(minima), tuple(traces), strongly)
