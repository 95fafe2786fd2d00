"""Command-line front end.

    hodgecalc <subcommand> [--input FILE] [--stratum i,j,...] [--rays N]
              [--scales LO..HI] [--seed S] [--format json|text]
              [--output FILE] ...

The input is a problem document (JSON file path, '-' for stdin, or
'builtin:NAME' for a bundled fixture).  Exit codes: 0 on success/PASS, 1 on
a failed check, 2 on input errors.
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import sys
import time
from fractions import Fraction

from . import chern, multiplier
from .errors import HodgecalcError, ParseError, SchemaError, UnknownSubcommand
from .horizontal import graded_end_algebra, sectional_quartic
from .lmhs import verify_polarized_lmhs
from .matrices import Mat, nilpotent_powers
from .monomial import (
    MonomialMap, compatibility_checks, connected_refinement, monomial_map,
    nonnegative_generators, stratum_monomial_map,
)
from .normpos import curvature_from_model, flat_directions, strong_semipositivity_check
from .orbit import (
    LIMIT_TOLERANCE, chern_form_at, default_rays, hodge_metric_polynomial,
    restriction_limit_check, stratum_factorization,
)
from .rationals import GaussianRational
from .report import Report, digest_text, exact_entry, render_report
from .schemas import KINDS, parse_problem
from .weightfilt import (
    complete_sl2, grading_element, relative_weight_filtration_check, weight_filtration,
)

# The most sample rays --rays may ask for.  On dollar-bill (2-vCPU Xeon,
# Python 3.11): `chern --rays 1000` takes 0.11 s, `limit-check --stratum 3
# --rays 1000` 0.36 s over the 8 default scales, and 2.5 s with --scales
# 1e-30..1e30 as well, the slowest run the two budgets allow.
MAX_RAYS = 1000

# The largest |e| of a scale 10^e in --scales, so at most 61 scales of at most
# 31 digits: `limit-check --stratum 3 --scales 1e-30..1e30` takes 0.02 s on
# dollar-bill with the 5 default rays.
MAX_SCALE_EXPONENT = 30


def _parse_stratum(text, k, proper):
    """0-based indices of a --stratum value, checked against the k variables
    of the document (not checked when k is None)."""
    try:
        indices = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise SchemaError(f"bad --stratum value {text!r}") from exc
    if k is not None and any(not 1 <= i <= k for i in indices):
        raise SchemaError(f"--stratum {text!r}: indices must lie in 1..{k}")
    if len(set(indices)) != len(indices):
        raise SchemaError(f"--stratum {text!r} repeats an index")
    if proper and k is not None and len(indices) >= k:
        raise SchemaError(f"--stratum {text!r} must leave out at least one of the {k} variables")
    return [i - 1 for i in indices]


def _parse_partition(text, rank):
    try:
        lam = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise SchemaError(f"bad --partition value {text!r}") from exc
    if min(lam) < 0 or lam != sorted(lam, reverse=True) or (rank is not None and lam[0] > rank):
        raise SchemaError(f"--partition {text!r} must be non-increasing, nonnegative "
                          "and at most the rank")
    return lam


def _in_range(flag, value, low, high=None):
    if value is not None and value < low:
        raise SchemaError(f"--{flag} {value}: must be at least {low}")
    if value is not None and high is not None and value > high:
        raise SchemaError(f"--{flag} {value}: must be at most {high}")
    return value


def _parse_alpha(text):
    try:
        alpha = [Fraction(a) for a in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad --alpha value {text!r}") from exc
    if any(a <= 0 for a in alpha):
        raise SchemaError(f"--alpha {text!r}: weights must be positive")
    return alpha


def _parse_scales(text):
    try:
        lo_s, hi_s = text.split("..")

        def decade(s):
            if "e" in s:
                base, exp = s.split("e")
                return int(exp) if base in ("1", "") else None
            v = Fraction(s)
            e = 0
            while v >= 10:
                v /= 10
                e += 1
            return e if v == 1 else None
        lo, hi = decade(lo_s), decade(hi_s)
        if lo is None or hi is None or lo > hi:
            raise ValueError("scales must look like 1e1..1e8")
        if max(-lo, hi) > MAX_SCALE_EXPONENT:
            raise ValueError(f"scales must lie in 1e-{MAX_SCALE_EXPONENT}..1e{MAX_SCALE_EXPONENT}")
        return [Fraction(10) ** e for e in range(lo, hi + 1)]
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bad --scales value {text!r}: {exc}") from exc


def _fitting_sum(spec, indices):
    """The sum of the nilpotents at `indices`, refused unless its strings fit
    the weight (N^(weight+1) = 0); the sum can have longer strings than each
    of its terms."""
    n = spec.n_sum(set(indices))
    length = len(nilpotent_powers(n)) - 1
    if length > spec.weight:
        terms = " + ".join(f"nilpotents[{i}]" for i in sorted(indices))
        raise SchemaError(f"{terms}: string length {length} does not fit weight {spec.weight}")
    return n


def _validate(doc, flags, f, g):
    g["valid"] = True
    if doc.kind == "orbit":
        rep = verify_polarized_lmhs(doc.obj)
        f["checks"] = [{"name": c.name, "passed": c.passed,
                        **({"detail": c.detail} if c.detail else {})}
                       for c in rep.checks]
        g["valid"] = rep.all_passed
    elif doc.kind == "phs":
        f["pieces"] = {f"{p},{q}": m.rows for (p, q), m in doc.obj.pieces.items()}
    else:
        f["note"] = f"document of kind {doc.kind} parsed"


def _weight_filtration(doc, flags, f, g):
    spec = doc.obj
    n = _fitting_sum(spec, flags.get("stratum") or range(spec.num_params))
    wf = weight_filtration(n, spec.weight)
    f["gradedDims"] = list(wf.graded_dims)
    f["levels"] = {str(k): wf.level(k).rows for k in range(2 * spec.weight + 1)}
    g["computed"] = True


def _sl2(doc, flags, f, g):
    spec = doc.obj
    n = _fitting_sum(spec, flags.get("stratum") or range(spec.num_params))
    wf = weight_filtration(n, spec.weight)
    y = grading_element(n, wf)
    triple = complete_sl2(n, y, weight=spec.weight)
    f["gradingElement"] = y.to_json()
    f["raising"] = triple.n_plus.to_json()
    g["brackets"] = triple.check()


def _bigrading(doc, flags, f, g):
    _fitting_sum(doc.obj, range(doc.obj.num_params))
    wf, bi = doc.obj.lmhs()
    f["pieces"] = {f"{p},{q}": m.rows for (p, q), m in sorted(bi.pieces.items())}
    g["rSplit"] = bi.r_split
    g["effective"] = bi.effective


def _rwfp(doc, flags, f, g):
    spec = doc.obj
    results = {}
    for a, b in itertools.permutations(range(spec.num_params), 2):
        na = _fitting_sum(spec, [a])
        _fitting_sum(spec, [a, b])
        rep = relative_weight_filtration_check(na, spec.nilpotents[b], spec.weight)
        results[f"{a + 1},{b + 1}"] = rep.holds
    f["pairs"] = results
    g["holds"] = all(results.values())


def _metric_poly(doc, flags, f, g):
    p = hodge_metric_polynomial(doc.obj)
    f["polynomial"] = p.p.to_string("x")
    f["terms"] = p.p.to_json()["terms"]
    f["normalization"] = exact_entry(p.normalization)
    f["degree"] = p.degree
    g["computed"] = True


def _chern(doc, flags, f, g):
    p = hodge_metric_polynomial(doc.obj)
    rng = random.Random(flags.get("seed", 0))
    points = [tuple(Fraction(1) for _ in range(p.num_vars))]
    for _ in range(flags.get("rays", 3) - 1):
        points.append(tuple(Fraction(rng.randint(1, 12), rng.randint(1, 4))
                            for _ in range(p.num_vars)))
    out = []
    for x in points:
        s = chern_form_at(p, x)
        out.append({"x": [str(v) for v in x],
                    "G": [[str(s.g[i, j].real_or_raise())
                           for j in range(s.g.cols)] for i in range(s.g.rows)],
                    "psd": s.psd, "rank": s.rank})
    f["samples"] = out
    g["psd"] = all(sample["psd"] for sample in out)


def _limit_check(doc, flags, f, g):
    seed, stratum = flags.get("seed", 0), flags["stratum"]
    rays = default_rays(stratum, flags["rays"], seed) if "rays" in flags else None
    lr = restriction_limit_check(
        doc.obj, stratum, seed=seed, scales=flags.get("scales"), rays=rays)
    f["scales"] = [str(s) for s in lr.scales]
    f["rays"] = [[str(c) for c in ray] for ray in lr.rays]
    f["deviations"] = [[exact_entry(d) for d in per_ray] for per_ray in lr.deviations]
    f["finalMaxDeviation"] = exact_entry(lr.final_max_deviation)
    f["exactZero"] = lr.exact_zero
    g["eventuallyDecreasing"] = lr.eventually_decreasing
    g["withinTolerance"] = lr.final_max_deviation <= LIMIT_TOLERANCE


def _factorize(doc, flags, f, g):
    p = hodge_metric_polynomial(doc.obj)
    fac = stratum_factorization(p, flags["stratum"], doc.obj)
    f["leading"] = fac.leading.to_string("x")
    f["subsetFactor"] = fac.p_i.to_string("x")
    f["complementFactor"] = fac.p_ic.to_string("x")
    f["remainder"] = fac.remainder.to_string("x")
    f["subsetDegree"] = fac.deg_bound
    g["factors"] = True


def _monomial_map(doc, flags, f, g):
    if doc.kind == "orbit":
        mm = monomial_map(doc.obj)
    else:
        mm = MonomialMap.from_rays(nonnegative_generators(doc.obj), range(doc.obj.cols))
    f.update(mm.to_json())
    g["computed"] = True


def _stratum_map(doc, flags, f, g):
    f.update(stratum_monomial_map(doc.obj, flags["stratum"]).to_json())
    g["computed"] = True


def _refine(doc, flags, f, g):
    if doc.kind == "orbit":
        mm = monomial_map(doc.obj)
    else:
        rows = doc.obj.int_rows()
        if any(d != 1 for _, _, d in rows):
            raise SchemaError("refine needs a basis of integer exponent vectors")
        mm = MonomialMap(tuple(tuple(re) for re, _, _ in rows), tuple(range(doc.obj.cols)))
    ref = connected_refinement(mm)
    f["invariantFactors"] = list(ref.invariant_factors)
    f["covering"] = ref.eta.to_json()
    f["refined"] = ref.refined.to_json()
    g["saturated"] = True


def _compat(doc, flags, f, g):
    results = {}
    for rep in compatibility_checks(doc.obj):
        key = (",".join(str(i + 1) for i in rep.subset_small) + " < "
               + ",".join(str(i + 1) for i in rep.subset_large))
        results[key] = rep.passed
    f["pairs"] = results
    g["compatible"] = all(results.values())


def _curvature(doc, flags, f, g):
    model = doc.obj
    rep = strong_semipositivity_check([curvature_from_model(model)], seed=flags.get("seed", 0))
    f["rankE"] = model.rank_e
    f["dimT"] = model.dim_t
    f["sampledMinima"] = [exact_entry(m) for m in rep.sampled_minima]
    e0 = [1] + [0] * (model.rank_e - 1)
    f["flatDirectionsAtFirstBasisVector"] = flat_directions(model, e0)[1]
    g["semiPositive"] = all(rep.semi_positive)
    g["stronglySemiPositiveOnSample"] = rep.strongly_semi_positive


def _horizontal(doc, flags, f, g):
    ge = graded_end_algebra(doc.obj)
    f["pieceDims"] = {str(p): ge.piece_dim(p) for p in sorted(ge.pieces)}
    rng = random.Random(flags.get("seed", 0))
    gm1 = ge.pieces.get(-1)
    if gm1 is None:
        raise SchemaError("horizontal needs a nonzero horizontal piece g^{-1,1} (h20 > 0 "
                          "and h11 > 0 for weight 2, genus > 0 for weight 1)")
    samples = []
    all_neg = True
    while len(samples) < 3:
        coeffs = [GaussianRational(Fraction(rng.randint(-3, 3)),
                                   Fraction(rng.randint(-3, 3)))
                  for _ in range(gm1.rows)]
        if not any(coeffs):     # the zero direction: draw again
            continue
        xi = (Mat.from_rows([coeffs]) @ gm1).reshape(ge.phs.dim, ge.phs.dim)
        q = sectional_quartic(ge, xi)
        val = -q.raw    # the self-bisectional curvature: |[xi, xi]|^2 = 0
        samples.append({"selfBisectional": exact_entry(val),
                        "quartic": exact_entry(q.value)})
        all_neg = all_neg and val < 0
    f["samples"] = samples
    g["negativeSelfCurvature"] = all_neg


def _schur(doc, flags, f, g):
    partition = flags.get("partition") or []
    rank_ = flags.get("rank", max(partition, default=1) or 1)
    f["partition"] = list(partition)
    f["rank"] = rank_
    f["symbol"] = str(chern.schur_polynomial(partition, rank_))
    g["computed"] = True


def _segre(doc, flags, f, g):
    degree = flags.get("degree", 1)
    rank_ = flags.get("rank", 2)
    if chern.segre_products(degree, rank_) > chern.MAX_SEGRE_PRODUCTS:
        raise SchemaError(f"--degree {degree} with --rank {rank_} takes more than "
                          f"{chern.MAX_SEGRE_PRODUCTS} monomial products")
    f["degree"] = degree
    f["rank"] = rank_
    f["symbol"] = str(chern.segre_polynomial(degree, rank_))
    g["computed"] = True


def _multiplier_ideal(doc, flags, f, g):
    if doc is not None:
        alpha, bound = doc.obj
        field = f"degreeBound {bound}"
    elif flags.get("alpha"):
        alpha = flags["alpha"]
        bound = flags.get("degree", multiplier.DEFAULT_DEGREE_BOUND)
        field = f"--degree {bound}" + ("" if "degree" in flags else " (default)")
    else:
        raise SchemaError("multiplier-ideal needs an alpha document or --alpha")
    if multiplier.simplex_points(bound, len(alpha)) > multiplier.MAX_SIMPLEX_POINTS:
        raise SchemaError(f"{field} with {len(alpha)} weights walks more than "
                          f"{multiplier.MAX_SIMPLEX_POINTS} points")
    ideal = multiplier.multiplier_ideal_monomials(alpha, bound)
    f["alpha"] = [str(a) for a in alpha]
    f["generators"] = [list(b) for b in ideal.generators]
    f["monomials"] = list(ideal.monomial_strings())
    f["truncated"] = ideal.truncated
    g["computed"] = True


# name -> (handler, the document kinds it takes, its --stratum need), in the
# order of --help; a handler fills the findings `f` and flags `g` of a report.
# None among the kinds means no document: `multiplier-ideal` then reads
# --alpha.  A --stratum need of "any" takes any subset, the empty one too;
# "proper" a nonempty one that leaves out a variable; None leaves it optional.
_TABLE = {
    "validate": (_validate, KINDS, None),
    "weight-filtration": (_weight_filtration, ("orbit",), None),
    "sl2": (_sl2, ("orbit",), None),
    "bigrading": (_bigrading, ("orbit",), None),
    "rwfp": (_rwfp, ("orbit",), None),
    "metric-poly": (_metric_poly, ("orbit",), None),
    "chern": (_chern, ("orbit",), None),
    "limit-check": (_limit_check, ("orbit",), "proper"),
    "factorize": (_factorize, ("orbit",), "proper"),
    "monomial-map": (_monomial_map, ("orbit", "subspace"), None),
    "stratum-map": (_stratum_map, ("orbit",), "any"),
    "refine": (_refine, ("orbit", "subspace"), None),
    "compat": (_compat, ("orbit",), None),
    "curvature": (_curvature, ("model",), None),
    "horizontal": (_horizontal, ("phs",), None),
    "schur": (_schur, (None,), None),
    "segre": (_segre, (None,), None),
    "multiplier-ideal": (_multiplier_ideal, ("alpha", None), None),
}

SUBCOMMANDS = tuple(_TABLE)


def dispatch(doc, subcommand: str, flags) -> Report:
    """Check the document and --stratum against the subcommand's table entry,
    then run its handler on a fresh report."""
    handler, kinds, stratum_need = _TABLE[subcommand]
    kind = doc.kind if doc is not None else None
    if kind not in kinds:
        if kind is None:
            raise SchemaError(f"{subcommand} needs --input")
        wanted = " or ".join(repr(k) for k in kinds if k is not None) or "no"
        raise SchemaError(f"{subcommand} takes {wanted} documents, got {kind!r}")
    stratum = flags.get("stratum")
    if stratum_need and (stratum is None or stratum_need == "proper" and not stratum):
        raise SchemaError(f"{subcommand} needs --stratum")
    digest = digest_text(doc.canonical_json()) if doc is not None else digest_text(subcommand)
    report = Report(subcommand, digest, flags.get("seed", 0))
    handler(doc, flags, report.findings, report.flags)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgecalc",
        description="Exact calculators for degenerating Hodge structures")
    parser.add_argument("subcommand", help="one of: " + ", ".join(SUBCOMMANDS))
    parser.add_argument("--input", help="problem document: path, '-', or builtin:NAME")
    parser.add_argument("--stratum", help="comma-separated 1-based variable indices")
    parser.add_argument("--rays", type=int, help="number of sample rays/points")
    parser.add_argument("--scales", help="geometric scale range, e.g. 1e1..1e8")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--output", help="write the report to a file")
    parser.add_argument("--partition", help="comma-separated partition for schur")
    parser.add_argument("--degree", type=int, help="degree for segre/multiplier-ideal")
    parser.add_argument("--rank", type=int, help="bundle rank for schur/segre")
    parser.add_argument("--alpha", help="comma-separated weights for multiplier-ideal")
    return parser


# Built once per process: parsing leaves the parser unchanged.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        seed = args.seed
        if seed is None:
            env = os.environ.get("HODGECALC_SEED", "0")
            try:
                seed = int(env)
            except ValueError as exc:
                raise SchemaError(f"HODGECALC_SEED must be an integer, got {env!r}") from exc
        if args.subcommand not in SUBCOMMANDS:
            raise UnknownSubcommand(
                f"unknown subcommand {args.subcommand!r}; expected one of "
                + ", ".join(SUBCOMMANDS))
        doc = parse_problem(args.input) if args.input else None
        k = doc.obj.num_params if doc is not None and doc.kind == "orbit" else None
        proper = _TABLE[args.subcommand][2] == "proper"
        flags = {
            "seed": seed,
            "stratum": _parse_stratum(args.stratum, k, proper) if args.stratum else None,
            "rays": _in_range("rays", args.rays, 1, MAX_RAYS),
            "scales": _parse_scales(args.scales) if args.scales else None,
            "degree": _in_range("degree", args.degree, 0),
            "rank": _in_range("rank", args.rank, 1),
            "alpha": _parse_alpha(args.alpha) if args.alpha else None,
            "partition": _parse_partition(args.partition, args.rank) if args.partition else None,
        }
        flags = {name: v for name, v in flags.items() if v is not None}
        try:
            start = time.perf_counter()
            report = dispatch(doc, args.subcommand, flags)
            report.timings["total"] = time.perf_counter() - start
            text = render_report(report, args.format)
        except ValueError as exc:
            if "integer string conversion" not in str(exc):
                raise    # only an exact number too long for str() is the input's doing
            raise SchemaError(f"the report holds a number of more than "
                              f"{sys.get_int_max_str_digits()} digits, the limit of "
                              "sys.get_int_max_str_digits()") from exc
    except (ParseError, SchemaError, UnknownSubcommand) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HodgecalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
