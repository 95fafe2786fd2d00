"""Problem-document parsing, validation, and serialization.

A problem document is a JSON object {"kind", "payload", "meta"}; the kind
selects the payload schema.  All scalars parse exactly ("p/q" strings or
{"re","im"} objects); schema violations raise SchemaError naming the
violated constraint, malformed input raises ParseError.
"""

from __future__ import annotations

import json
import sys
from importlib import resources

from .errors import DimensionMismatch, NotPolarized, ParseError, SchemaError
from .horizontal import phs_weight1, phs_weight2
from .lmhs import PolarizedOrbitSpec
from .matrices import Mat, is_nilpotent
from .multiplier import DEFAULT_DEGREE_BOUND
from .normpos import NormPositivityModel
from .rationals import GaussianRational
from .records import Record

KINDS = ("orbit", "phs", "model", "subspace", "alpha")

# The largest dimension of a phs document.  The graded algebra has about d^2/2
# basis vectors of d^2 entries; `horizontal` on the normal forms at d = 24 takes under 1 s
# on a 2.1 GHz Xeon vCPU, where weight 2 with h11 = 400 ran out of memory.
MAX_PHS_DIM = 24

# The widest subspace document.  `monomial-map` runs a double description
# whose cost climbs steeply with the width: on 54 seeded random integer
# documents of each width (2-vCPU Xeon, Python 3.11) the slowest took 0.29 s
# at width 16, 1.4 s at 18 and 7.0 s at 20, and 3 of 18 ran past 60 s at 24.
MAX_SUBSPACE_WIDTH = 16

# The widest model document, in rankE * dimT: `curvature` builds the square
# Nakano matrix A*A of that size.  With a dense A of 4-16 rows (2-vCPU Xeon,
# Python 3.11) it took 1.1-1.4 s at width 256 and 4.0 s at 512; with G = 0,
# 13 s at 2048, and past 60 s and 1 GB at 8192.
MAX_MODEL_WIDTH = 256


class ProblemDocument(Record):
    kind: str
    payload: dict          # raw JSON payload (already validated)
    meta: dict
    obj: object            # parsed domain object (spec/model/...)

    def canonical_json(self) -> str:
        return json.dumps({"kind": self.kind, "meta": self.meta,
                           "payload": self.payload},
                          sort_keys=True, separators=(",", ":"))


def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _int_field(payload, key: str, default=None) -> int:
    """payload[key] (or the default when it is absent) as an int: a JSON
    integer or a string of one."""
    value = payload.get(key, default)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise SchemaError(f"'{key}' must be an integer, got {value!r}")


def _parse_matrix(data, what: str) -> Mat:
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
        raise ParseError(f"bad matrix for {what}: expected a list of rows, each a list")
    try:
        return Mat.from_json(data)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad matrix for {what}: {exc}") from exc


def _build_orbit(payload) -> PolarizedOrbitSpec:
    for key in ("dim", "weight", "Q", "nilpotents", "F"):
        _require(key in payload, f"orbit payload is missing '{key}'")
    dim = _int_field(payload, "dim")
    weight = _int_field(payload, "weight")
    _require(dim > 0, "dim must be positive")
    _require(weight >= 0, "weight must be non-negative")
    for key in ("nilpotents", "F"):
        _require(isinstance(payload[key], list), f"'{key}' must be a list")
    q = _parse_matrix(payload["Q"], "Q")
    _require(q.rows == dim and q.cols == dim, "Q must be dim x dim")
    nilpotents = []
    for i, nd in enumerate(payload["nilpotents"]):
        n = _parse_matrix(nd, f"nilpotents[{i}]")
        _require(n.rows == dim and n.cols == dim, f"nilpotents[{i}] must be dim x dim")
        _require(is_nilpotent(n), f"nilpotents[{i}] must be nilpotent")
        nilpotents.append(n)
    for a in range(len(nilpotents)):
        for b in range(a + 1, len(nilpotents)):
            _require(nilpotents[a].commutes_with(nilpotents[b]),
                     "nilpotents must commute")
    flag = []
    fdata = payload["F"]
    _require(len(fdata) == weight + 1, f"F must list F^{weight}..F^0")
    for i, fd in enumerate(fdata):
        if fd == []:
            f = Mat.zeros(0, dim)
        else:
            f = _parse_matrix(fd, f"F[{i}]")
            _require(f.cols == dim, "flag vectors must have length dim")
        flag.append(f)
    return PolarizedOrbitSpec(dim, weight, q, tuple(nilpotents), tuple(flag))


def _require_phs_dim(field: str, dim: int):
    _require(dim <= MAX_PHS_DIM,
             f"{field} gives a phs of dimension {dim}, more than {MAX_PHS_DIM}")


def _polarized(make, *args):
    try:
        return make(*args)
    except NotPolarized as exc:     # omega is the one field that can fail validation
        raise SchemaError(f"omega gives no polarized structure: {exc}") from exc


def _build_phs(payload):
    _require("weight" in payload, "phs payload is missing 'weight'")
    weight = _int_field(payload, "weight")
    if weight == 1:
        _require("genus" in payload or "omega" in payload,
                 "weight-1 phs needs 'genus' or 'omega'")
        if "omega" in payload:
            omega = _parse_matrix(payload["omega"], "omega")
            _require(omega.rows == omega.cols, "weight-1 omega must be square")
            _require_phs_dim(f"omega {omega.rows}x{omega.cols}", 2 * omega.rows)
            return _polarized(phs_weight1, omega.rows, omega)
        genus = _int_field(payload, "genus")
        _require(genus >= 0, f"genus must be non-negative, got {genus}")
        _require_phs_dim(f"genus {genus}", 2 * genus)
        return phs_weight1(genus)
    if weight == 2:
        for key in ("h20", "h11"):
            _require(key in payload, f"weight-2 phs needs '{key}'")
        h20, h11 = _int_field(payload, "h20"), _int_field(payload, "h11")
        for key, value in (("h20", h20), ("h11", h11)):
            _require(value >= 0, f"{key} must be non-negative, got {value}")
        _require_phs_dim(f"h20 {h20} with h11 {h11}", 2 * h20 + h11)
        omega = None
        if "omega" in payload:
            omega = _parse_matrix(payload["omega"], "omega")
            _require(omega.rows == h20 and omega.cols == h20, "weight-2 omega must be h20 x h20")
        return _polarized(phs_weight2, h20, h11, omega)
    raise SchemaError("phs constructors cover weights 1 and 2")


def _build_model(payload) -> NormPositivityModel:
    for key in ("dimT", "rankE", "rankG", "A"):
        _require(key in payload, f"model payload is missing '{key}'")
    a = _parse_matrix(payload["A"], "A")
    dims = [_int_field(payload, key) for key in ("dimT", "rankE", "rankG")]
    for key, value, least in zip(("dimT", "rankE", "rankG"), dims, (0, 1, 0)):
        _require(value >= least, f"{key} must be at least {least}, got {value}")
    width = dims[0] * dims[1]
    _require(width <= MAX_MODEL_WIDTH, f"rankE {dims[1]} with dimT {dims[0]} gives a model "
                                       f"of width {width}, more than {MAX_MODEL_WIDTH}")
    if not a.rows:      # an empty A has no row to read its width from
        a = Mat.zeros(0, width)
    try:
        return NormPositivityModel(*dims, a)
    except DimensionMismatch as exc:
        raise SchemaError(str(exc)) from exc


def _build_subspace(payload) -> Mat:
    _require("basis" in payload, "subspace payload is missing 'basis'")
    basis = _parse_matrix(payload["basis"], "basis")
    _require(basis.is_real(), "subspace basis must be real")
    width = basis.cols
    if "ambient" in payload:
        width = _int_field(payload, "ambient")
        _require(width >= 0, f"'ambient' must be non-negative, got {width}")
        _require(basis.cols == width or not basis.rows,
                 "basis vectors must match the ambient dimension")
    _require(width <= MAX_SUBSPACE_WIDTH,
             f"the subspace has width {width}, more than {MAX_SUBSPACE_WIDTH}")
    return basis if basis.rows else Mat.zeros(0, width)


def _build_alpha(payload):
    _require("alpha" in payload, "alpha payload is missing 'alpha'")
    weights = payload["alpha"]
    _require(isinstance(weights, list), "'alpha' must be a list of weights")
    try:    # each weight a document scalar, so a JSON float or boolean is refused
        alpha = [GaussianRational.from_json(a).real_or_raise() for a in weights]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad weight in 'alpha': {exc}") from exc
    _require(all(a > 0 for a in alpha), "weights must be positive")
    bound = _int_field(payload, "degreeBound", DEFAULT_DEGREE_BOUND)
    _require(bound >= 0, "degreeBound must be non-negative")
    return (alpha, bound)


_BUILDERS = {
    "orbit": _build_orbit,
    "phs": _build_phs,
    "model": _build_model,
    "subspace": _build_subspace,
    "alpha": _build_alpha,
}


def parse_problem_text(text: str) -> ProblemDocument:
    if not text.strip():
        raise ParseError("empty input document")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError("document must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}")
    payload = data.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("payload must be a JSON object")
    meta = data.get("meta", {})
    obj = _BUILDERS[kind](payload)
    return ProblemDocument(kind, payload, meta, obj)


def parse_problem(path) -> ProblemDocument:
    """Parse a document from a path, 'builtin:NAME', or '-' for stdin."""
    if path == "-":
        return parse_problem_text(sys.stdin.read())
    name = str(path)
    if name.startswith("builtin:"):
        return load_fixture(name[len("builtin:"):])
    try:
        with open(name, "r", encoding="utf-8") as fh:
            return parse_problem_text(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {name}: {exc}") from exc


def render_problem(doc: ProblemDocument) -> str:
    return json.dumps({"kind": doc.kind, "meta": doc.meta, "payload": doc.payload},
                      indent=1, sort_keys=True) + "\n"


def fixture_names():
    out = []
    for entry in resources.files("hodgecalc").joinpath("fixtures").iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[:-5])
    return sorted(out)


def load_fixture(name: str) -> ProblemDocument:
    try:
        text = (resources.files("hodgecalc").joinpath("fixtures")
                .joinpath(f"{name}.json").read_text())
    except (FileNotFoundError, OSError) as exc:
        raise ParseError(f"no bundled fixture named {name!r}; "
                         f"available: {', '.join(fixture_names())}") from exc
    return parse_problem_text(text)
