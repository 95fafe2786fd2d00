"""hodgecalc: exact calculators for degenerating Hodge structures.

Subpackages by theme:

- ``rationals``, ``matrices``, ``polynomials``: the exact-arithmetic core
  (Gaussian rationals, dense matrices and subspace calculus, Smith normal
  form, sparse multivariate polynomials);
- ``weightfilt``, ``lmhs``: weight filtrations, sl2 completions, Deligne
  bigradings, polarized-orbit validation and associated graded orbits;
- ``orbit``: metric polynomials, Chern-form samples, stratum factorization,
  restriction limits;
- ``cones``, ``monomial``: double description, relation spaces, monomial
  maps and the saturation refinement;
- ``chern``, ``normpos``, ``multiplier``: Chern-class symbols, pointwise
  curvature models, monomial multiplier ideals;
- ``horizontal``: the graded endomorphism algebra and its curvature;
- ``schemas``, ``report``, ``cli``: problem documents and the command line.
"""

from .rationals import GaussianRational
from .matrices import Mat, SmithForm, kernel_basis, rref, smith_normal_form
from .polynomials import MultiPoly, poly_mat_det
from .weightfilt import (
    Sl2Triple, WeightFiltration, complete_sl2, grading_element,
    relative_weight_filtration_check, weight_filtration, y_eigen_decomposition,
)
from .lmhs import (
    DeligneBigrading, PolarizedOrbitSpec, associated_graded_orbit,
    deligne_bigrading, verify_polarized_lmhs,
)
from .orbit import (
    ChernSample, MetricPolynomial, chern_form_at, hodge_metric_matrix,
    hodge_metric_polynomial, restriction_limit_check, stratum_factorization,
)
from .monomial import (
    MonomialMap, RelationSpace, SaturationRefinement, compatibility_check,
    compatibility_checks, connected_refinement, monomial_map, nonnegative_generators, relation_space,
    strata_boundary_positivity, stratum_monomial_map,
)
from .chern import ChernSymbol, schur_polynomial, segre_polynomial
from .normpos import (
    CurvatureTensor, NormPositivityModel, chern_form_norm, curvature_from_model,
    flat_directions, projectivized_chern_form, quotient_curvature_at,
    strong_semipositivity_check, sym_power_model,
)
from .multiplier import multiplier_ideal_monomials
from .horizontal import (
    GradedEnd, PolarizedHS, bisectional_curvature, graded_end_algebra,
    kernel_dimension, phs_weight1, phs_weight2, sectional_quartic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
