"""Inputs, jobs and correctness checks of the three workloads.

Every input is generated here from the workload seed; the library only ever
receives the generated objects.  A job calls the library through module
attributes (``hc.orbit.hodge_metric_polynomial``), so a tracer that rebinds
those attributes sees the calls.  A job returns a text summary of its answer
(compared across passes) and raises ``CheckFailed`` when an answer is wrong.

Why these workloads:

- ``cli-fixtures``: what users run.  Mostly 4x4 matrices and thousands of
  elimination calls, so per-call overhead dominates; a kernel that only helps
  large matrices shows no change here, and added per-call cost shows.
  ``compat`` is where deriving each object once per orbit shows.
- ``orbit-scaled``: medium-size real matrices mixed with sparse-polynomial
  work (orbit, polynomials, lmhs, weightfilt), with an exact oracle:
  P(V+V') = P(V) P(V') in renamed variables.
- ``horizontal-scaled``: Gaussian-rational systems in d^2 unknowns, up to
  100x100; the elimination kernel and the graded-algebra solve dominate.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDENS = Path(__file__).resolve().parent / "goldens"


class CheckFailed(Exception):
    """An answer of the library is wrong."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str
    run: Callable[[dict], str]    # takes the pass state, returns a summary
    largest: bool = False


@dataclass
class Workload:
    name: str
    jobs: list


class Modules:
    """The library's modules, looked up once per set-up."""

    def __init__(self):
        for name in ("cli", "schemas", "matrices", "polynomials", "lmhs", "orbit",
                     "weightfilt", "horizontal", "rationals"):
            setattr(self, name, importlib.import_module(f"hodgecalc.{name}"))


# ---------------------------------------------------------------------------
# cli-fixtures
# ---------------------------------------------------------------------------

# The 16 commands of acceptance criterion 9, then the four that cover the
# remaining subcommands and fixtures.  SEED marks a seed-dependent report.
SEED = object()
CLI_COMMANDS = [
    ["validate", "--input", "builtin:dollar-bill"],
    ["metric-poly", "--input", "builtin:dollar-bill"],
    ["bigrading", "--input", "builtin:dollar-bill"],
    ["chern", "--input", "builtin:dollar-bill", "--seed", SEED],
    ["limit-check", "--input", "builtin:dollar-bill", "--stratum", "3",
     "--scales", "1e1..1e8", "--seed", SEED],
    ["factorize", "--input", "builtin:dollar-bill", "--stratum", "3"],
    ["monomial-map", "--input", "builtin:dollar-bill"],
    ["stratum-map", "--input", "builtin:dollar-bill", "--stratum", "1"],
    ["refine", "--input", "builtin:duplicated-pair"],
    ["compat", "--input", "builtin:dollar-bill"],
    ["rwfp", "--input", "builtin:dollar-bill"],
    ["curvature", "--input", "builtin:grassmannian-g24", "--seed", SEED],
    ["horizontal", "--input", "builtin:weight2-normal-form", "--seed", SEED],
    ["schur", "--partition", "1,1", "--rank", "3"],
    ["segre", "--degree", "3", "--rank", "4"],
    ["multiplier-ideal", "--input", "builtin:alpha-example"],
    ["weight-filtration", "--input", "builtin:dollar-bill"],
    ["sl2", "--input", "builtin:dollar-bill"],
    ["validate", "--input", "builtin:elliptic-degeneration"],
    ["horizontal", "--input", "builtin:weight1-genus2", "--seed", SEED],
]


def cli_job_name(argv):
    label = argv[0]
    if "--input" in argv:
        label += "@" + argv[argv.index("--input") + 1].split(":")[-1]
    return label


def golden_path(argv):
    return GOLDENS / f"{cli_job_name(argv)}.json"


def run_cli(hc, argv):
    """Run one command in process; returns (exit code, JSON report text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hc.cli.main(argv + ["--format", "json"])
    return code, out.getvalue()


def cli_fixtures(hc, seed):
    rng = random.Random(seed)
    jobs = []
    for template in CLI_COMMANDS:
        seeded = SEED in template
        argv = [str(rng.randrange(10 ** 6)) if tok is SEED else tok for tok in template]
        golden = None if seeded else golden_path(argv).read_text()

        def run(state, argv=argv, golden=golden):
            code, text = run_cli(hc, argv)
            require(code == 0, f"{argv[0]} exited with {code}")
            flags = json.loads(text)["flags"]
            require(flags and all(flags.values()), f"{argv[0]} failed flags {flags}")
            require(golden is None or text == golden, f"{argv[0]} differs from its golden")
            return text
        jobs.append(Job(cli_job_name(argv), run, largest=argv[0] == "compat"))
    return Workload("cli-fixtures", jobs)


# ---------------------------------------------------------------------------
# orbit-scaled
# ---------------------------------------------------------------------------

def direct_sum(hc, specs):
    """Orbit direct sum: block-diagonal Q and N_j, stacked flags.

    The nilpotents of each summand get their own variables, so the metric
    polynomial of the sum is the product of the summands' polynomials."""
    Mat = hc.matrices.Mat
    dim = sum(s.dim for s in specs)
    weight = specs[0].weight
    offsets = [sum(s.dim for s in specs[:i]) for i in range(len(specs))]

    def place(blocks):
        rows = [[0] * dim for _ in range(dim)]
        for off, m in blocks:
            for i in range(m.rows):
                rows[off + i][off:off + m.cols] = m.row(i)
        return Mat.from_rows(rows)

    q = place(zip(offsets, (s.q for s in specs)))
    nilpotents = tuple(place([(off, n)]) for off, s in zip(offsets, specs)
                       for n in s.nilpotents)
    flag = []
    for p in range(weight + 1):
        rows = [[0] * off + list(f.row(i)) + [0] * (dim - off - s.dim)
                for off, s in zip(offsets, specs)
                for f in [s.flag[p]] for i in range(f.rows)]
        flag.append(Mat.from_rows(rows) if rows else Mat.zeros(0, dim))
    return hc.lmhs.PolarizedOrbitSpec(dim, weight, q, nilpotents, tuple(flag))


def random_nilpotent(hc, rng, dim):
    """A seeded random regular nilpotent: strictly upper triangular with a
    nonzero superdiagonal, conjugated by a random unimodular lower-triangular
    matrix.  This is the tests' recipe except for the superdiagonal, which
    makes N one Jordan block: every seed then gives the weight filtration the
    same shape and about the same work (GaussianRational operations vary by
    2% across seeds instead of 9%)."""
    Mat = hc.matrices.Mat
    a = [[(rng.choice((-2, -1, 1, 2)) if j == i + 1 else rng.randint(-2, 2)) if j > i else 0
          for j in range(dim)] for i in range(dim)]
    lower = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0)
              for j in range(dim)] for i in range(dim)]
    # inverse of a unit lower-triangular integer matrix, by forward substitution
    inverse = [[0] * dim for _ in range(dim)]
    for j in range(dim):
        inverse[j][j] = 1
        for i in range(j + 1, dim):
            inverse[i][j] = -sum(lower[i][k] * inverse[k][j] for k in range(j, i))
    t, m, t_inv = Mat.from_rows(lower), Mat.from_rows(a), Mat.from_rows(inverse)
    return t @ m @ t_inv


def _e2(hc, k, vars_):
    x = [hc.polynomials.MultiPoly.variable(k, j) for j in vars_]
    return x[0] * x[1] + x[0] * x[2] + x[1] * x[2]


# Dollar-bill facts (acceptance criterion 1): P = x1 x2 + x1 x3 + x2 x3.
DOLLAR_BILL_PARAMS = 3
# One direct sum of three copies (dim 12) and three nilpotents of dim 8 keep a
# pass near 4.5 s, so that a run holds eight passes.  Smaller sums add
# no layer that the dim-12 chain does not call, and stratum-map at dim 8 (3 s
# on its own) is left to cli-fixtures, which calls the same monomial code.
ORBIT_COPIES = 3
NILPOTENT_DIMS = (8, 8, 8)    # three, so that their seeded cost averages out


def _positive(rng, n):
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))


def orbit_chain(hc, spec, expected, stratum, points, rays):
    """The chain of one direct sum, as four jobs that share the pass state,
    so that each is short enough to be timed between bursts of host load."""
    def validate(state):
        rep = hc.lmhs.verify_polarized_lmhs(spec)
        require(rep.all_passed, f"validation failed: {[c.name for c in rep.failed()]}")
        wf, bi = spec.lmhs()
        require(bi.r_split and bi.effective, "bigrading not R-split and effective")
        return f"{wf.graded_dims} | {sorted((pq, m.rows) for pq, m in bi.pieces.items())}"

    def metric(state):
        p = state["metric"] = hc.orbit.hodge_metric_polynomial(spec)
        require(p.p == expected, f"P = {p.p} is not the product of the summands")
        for x in points:
            require(hc.orbit.chern_form_at(p, x).psd, f"Chern form not PSD at {x}")
        return str(p.p)

    def limit(state):
        lr = hc.orbit.restriction_limit_check(spec, stratum, rays=rays)
        require(lr.final_max_deviation <= Fraction(1, 10 ** 6),
                f"limit deviation {lr.final_max_deviation} above 1e-6")
        require(lr.eventually_decreasing, "limit deviations not eventually decreasing")
        return str(lr.final_max_deviation)

    def factor(state):
        fac = hc.orbit.stratum_factorization(state["metric"], stratum, spec)
        return f"{fac.p_i} | {fac.p_ic}"
    return [("validate", validate), ("metric", metric), ("limit", limit), ("factor", factor)]


def nilpotent_chain(hc, n, dim):
    def run(state):
        wf = hc.weightfilt.weight_filtration(n, dim)
        require(sum(wf.graded_dims) == dim, "graded dimensions do not fill V")
        y = hc.weightfilt.grading_element(n, wf)
        triple = hc.weightfilt.complete_sl2(n, y, weight=dim)
        require(triple.check(), "sl2 brackets fail")
        return f"{wf.graded_dims} | {y.to_json()}"
    return run


def orbit_scaled(hc, seed):
    rng = random.Random(seed)
    base = hc.schemas.load_fixture("dollar-bill").obj
    spec = direct_sum(hc, [base] * ORBIT_COPIES)
    k = spec.num_params
    expected = hc.polynomials.MultiPoly.const(k, 1)
    for c in range(ORBIT_COPIES):
        expected = expected * _e2(hc, k, range(3 * c, 3 * c + 3))
    # a stratum with one seeded variable from each summand
    stratum = [c * DOLLAR_BILL_PARAMS + rng.randrange(DOLLAR_BILL_PARAMS)
               for c in range(ORBIT_COPIES)]
    points = [_positive(rng, k) for _ in range(3)]
    rays = [_positive(rng, len(stratum))]
    jobs = [Job(f"sum-dim{spec.dim}-{step}", run, largest=True)
            for step, run in orbit_chain(hc, spec, expected, stratum, points, rays)]
    for i, dim in enumerate(NILPOTENT_DIMS):
        jobs.append(Job(f"nilpotent-d{dim}-{i}",
                        nilpotent_chain(hc, random_nilpotent(hc, rng, dim), dim)))
    return Workload("orbit-scaled", jobs)


# ---------------------------------------------------------------------------
# horizontal-scaled
# ---------------------------------------------------------------------------

# The d = 10 algebra of (3, 4) and a few small structures keep a pass near
# 3 s; g = 4, 5 and (2, 4) would add 6 s and no layer.
WEIGHT1_GENERA = (2, 3)
WEIGHT2_NUMBERS = ((1, 2), (2, 2), (3, 4))
LARGEST_PHS = (2, (3, 4))


def unimodular(hc, rng, size):
    """Seeded integer matrix of determinant 1: unit lower times unit upper."""
    Mat = hc.matrices.Mat
    lower = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0) for j in range(size)]
             for i in range(size)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if i < j else 0) for j in range(size)]
             for i in range(size)]
    return Mat.from_rows(lower) @ Mat.from_rows(upper)


def horizontal_jobs(hc, rng, weight, numbers):
    """Jobs for one structure: its graded algebra, then its directions."""
    hz, Mat = hc.horizontal, hc.matrices.Mat
    if weight == 1:
        (g,) = numbers
        phs = hz.phs_weight1(g)
        algebra_dim, minus_one = g * (2 * g + 1), g * (g + 1) // 2
        ranks = range(g + 1)

        def kernel(r):
            return (g - r + 1) * (g - r) // 2
    else:
        h20, h11 = numbers
        phs = hz.phs_weight2(h20, h11)
        algebra_dim, minus_one = phs.dim * (phs.dim - 1) // 2, h20 * h11
        ranks = range(min(h20, h11) + 1)

        def kernel(r):
            return (h20 - r) * (h11 - r)
    src = phs.pieces[(weight, 0)].rows
    dst = phs.pieces[(weight - 1, 1)].rows
    targets = []
    for r in ranks:
        base = Mat.from_rows([[1 if (i == j and i < r) else 0 for j in range(src)]
                              for i in range(dst)])
        if weight == 1:        # blocks are symmetric: vary by congruence
            t = unimodular(hc, rng, src)
            targets.append((r, t.transpose() @ base @ t))
        else:
            targets.append((r, unimodular(hc, rng, dst) @ base @ unimodular(hc, rng, src)))
    gauss = hc.rationals.GaussianRational
    xi_coeffs = [gauss(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(minus_one)]
    if not any(xi_coeffs):
        xi_coeffs[0] = gauss(1)
    key = f"w{weight}-" + "-".join(map(str, numbers))

    def algebra(state):
        ge = hz.graded_end_algebra(phs)
        state[key] = ge
        dims = {p: ge.piece_dim(p) for p in sorted(ge.pieces)}
        require(sum(dims.values()) == algebra_dim, f"graded dims {dims} do not sum to {algebra_dim}")
        require(ge.piece_dim(-1) == minus_one, f"piece_dim(-1) = {ge.piece_dim(-1)} != {minus_one}")
        return json.dumps(dims)

    def directions(state):
        ge = state[key]
        found = []
        for r, target in targets:
            got = hz.kernel_dimension(ge, hz.direction_with_block(ge, target))
            require(got == kernel(r), f"kernel dimension {got} at rank {r}, expected {kernel(r)}")
            found.append(got)
        gm1 = ge.pieces[-1]
        v = [sum((c * gm1[i, j] for i, c in enumerate(xi_coeffs) if c), gauss(0))
             for j in range(gm1.cols)]
        xi = ge.unflatten(v)
        value = hz.bisectional_curvature(ge, xi, xi)
        require(value < 0, f"self-curvature {value} is not negative")
        quartic = hz.sectional_quartic(ge, xi)
        return f"{found} | {value} | {quartic.value}"

    return [Job(f"algebra-{key}", algebra, largest=(weight, numbers) == LARGEST_PHS),
            Job(f"directions-{key}", directions)]


def horizontal_scaled(hc, seed):
    rng = random.Random(seed)
    jobs = []
    for g in WEIGHT1_GENERA:
        jobs += horizontal_jobs(hc, rng, 1, (g,))
    for numbers in WEIGHT2_NUMBERS:
        jobs += horizontal_jobs(hc, rng, 2, numbers)
    return Workload("horizontal-scaled", jobs)


WORKLOADS = {"cli-fixtures": cli_fixtures, "orbit-scaled": orbit_scaled,
             "horizontal-scaled": horizontal_scaled}


def import_library(src):
    """Import hodgecalc from `src` afresh (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "hodgecalc" or n.startswith("hodgecalc.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import hodgecalc
    if Path(hodgecalc.__file__).resolve().parent.parent != Path(src).resolve():
        raise ImportError(f"hodgecalc was imported from {hodgecalc.__file__}, not {src}")
    return Modules()


def build(name, seed, src):
    """Set-up: import the library and generate the workload's inputs."""
    hc = import_library(src)
    return hc, WORKLOADS[name](hc, seed)
