"""Spans and counters recorded from outside the library.

Nothing under ``src/`` knows about this module.  A ``Tracer`` replaces each
listed public function with a wrapper at every module attribute that binds
it (modules import names with ``from .matrices import rref``, so patching the
defining module alone would miss calls), records one span per call, and puts
every binding back on ``uninstall``.  A ``Counter`` does the same with
wrappers that count instead of time, in a pass of its own, so its cost never
reaches the span times.

A call made from inside a span of the same name records no span of its own:
``calls`` counts entries into a layer, and its time stays in the outer span.
"""

from __future__ import annotations

import functools
import itertools
import sys
from time import perf_counter

# span name -> (module, attribute) pairs; "Class.method" patches the class.
SPANS = {
    "cli": [("cli", "main"), ("cli", "dispatch")],
    "schemas.parse": [("schemas", "parse_problem"), ("schemas", "parse_problem_text"),
                      ("schemas", "load_fixture")],
    "report.render": [("report", "render_report")],
    "matrices.elim": [("matrices", "rref"), ("matrices", "det")],
    "matrices.matmul": [("matrices", "Mat.__matmul__")],
    "matrices.subspace": [("matrices", name) for name in (
        "sub_canonical", "sub_sum", "sub_sum_ambient", "sub_contains_vec",
        "sub_contains", "sub_equal", "sub_intersect", "sub_conj", "sub_image",
        "column_space", "kernel_space", "sub_complement_in", "coords_in_basis")],
    "matrices.smith": [("matrices", "smith_normal_form")],
    "polynomials.det": [("polynomials", "poly_mat_det")],
    "polynomials.eval": [("polynomials", "MultiPoly.evaluate")],
    "weightfilt": [("weightfilt", name) for name in (
        "weight_filtration", "weight_filtration_centered", "grading_element",
        "complete_sl2", "integer_eigen_decomposition", "y_eigen_decomposition",
        "relative_weight_filtration_check")],
    "lmhs.bigrading": [("lmhs", "deligne_bigrading")],
    "lmhs.verify": [("lmhs", "verify_polarized_lmhs")],
    "lmhs.assoc_graded": [("lmhs", "associated_graded_orbit"),
                          ("lmhs", "stratum_hodge_numbers")],
    "orbit.metric": [("orbit", "hodge_metric_matrix"), ("orbit", "hodge_metric_polynomial"),
                     ("orbit", "stratum_metric_polynomial")],
    "orbit.chern": [("orbit", "chern_form_at")],
    "orbit.limit": [("orbit", "restriction_limit_check")],
    "orbit.factor": [("orbit", "stratum_factorization")],
    "cones.dd": [("cones", "dd_extreme_rays"), ("cones", "nonnegative_extreme_rays"),
                 ("cones", "hull_contains")],
    "monomial": [("monomial", name) for name in (
        "relation_space", "monomial_map", "nonnegative_generators",
        "stratum_relation_rows", "stratum_monomial_map", "compatibility_check",
        "connected_refinement", "strata_boundary_positivity")],
    "monomial.w_end": [("monomial", "w_minus1_end")],
    "horizontal.graded_end": [("horizontal", "graded_end_algebra")],
    "horizontal.kernel_dim": [("horizontal", "kernel_dimension")],
    "horizontal.curvature": [("horizontal", "bisectional_curvature"),
                             ("horizontal", "sectional_quartic")],
    "horizontal.top_block": [("horizontal", "top_block")],
    "normpos": [("normpos", name) for name in (
        "curvature_from_model", "sym_power_model", "projectivized_chern_form",
        "flat_directions", "quotient_curvature_at", "chern_form_norm",
        "strong_semipositivity_check", "tangent_to_hom_rank")],
    "chern": [("chern", name) for name in (
        "chern_generator", "schur_polynomial", "segre_polynomial", "grothendieck_defect")],
    "multiplier": [("multiplier", "multiplier_ideal_monomials")],
}

# GaussianRational methods that count as one exact arithmetic operation each.
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__")

PACKAGE = "hodgecalc"
PASS_SPAN = "bench"  # the span around one pass


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class _Patcher:
    """Replaces functions at every binding and remembers how to put them back."""

    def __init__(self):
        self.saved = []       # (owner, attribute, original), in patch order

    def resolve(self, module, attr):
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            return cls, meth, cls.__dict__[meth]
        return mod, attr, getattr(mod, attr)

    def patch_function(self, module, attr, make_wrapper):
        owner, name, original = self.resolve(module, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, name, original, wrapper)
            return
        for mod in _modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, original, wrapper)

    def _set(self, owner, name, original, wrapper):
        self.saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self):
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)
        self.saved.clear()


class Tracer:
    """Records (name, start, end, parent) for every wrapped call, in memory."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.stack = [-1]
        self._patcher = _Patcher()

    def install(self):
        for name, targets in SPANS.items():
            for module, attr in targets:
                self._patcher.patch_function(module, attr,
                                             functools.partial(self._wrap, name))

    def uninstall(self):
        self._patcher.restore()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent >= 0 and spans[parent][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    def open(self, name):
        """Start a span from the benchmark itself (a pass or a job)."""
        span = [name, perf_counter(), 0.0, self.stack[-1]]
        self.stack.append(len(self.spans))
        self.spans.append(span)

    def close(self):
        self.spans[self.stack.pop()][2] = perf_counter()

    def self_times(self):
        """Span name -> (span count, summed self time in seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - covered)
        return out


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def _entry_bits(entries):
    best = 0
    for e in entries:
        for part in (e.re, e.im):
            best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


class Counter:
    """Counts and content statistics from one untimed pass.

    Arguments are hashed per job: a call whose arguments were already seen in
    the same job counts as a repeat (work a per-orbit cache could skip).
    """

    REPEATS = ("weightfilt", "lmhs.bigrading", "monomial.w_end")

    def __init__(self):
        self._patcher = _Patcher()
        self._tick = itertools.count()     # advanced once per operation
        self.ops = 0
        self.elim_calls = self.elim_complex = self.elim_cells = self.max_bits = 0
        self.max_terms = 0
        self.eigen_probes = self.eigen_hits = 0
        self._in_eigen = 0
        self.calls = {name: 0 for name in self.REPEATS}
        self.repeats = {name: 0 for name in self.REPEATS}
        self._depth = {name: 0 for name in self.REPEATS}
        self._seen = set()

    def start_job(self):
        self._seen = set()

    def install(self):
        for meth in ARITHMETIC:
            self._patcher.patch_function("rationals", f"GaussianRational.{meth}",
                                         functools.partial(self._count_op, self._tick))
        for module, attr in SPANS["matrices.elim"]:
            self._patcher.patch_function(module, attr, self._elim)
        for name in self.REPEATS:
            for module, attr in SPANS[name]:
                make = (self._eigen if attr == "integer_eigen_decomposition"
                        else functools.partial(self._keyed, name, attr))
                self._patcher.patch_function(module, attr, make)
        self._patcher.patch_function("matrices", "kernel_space", self._kernel_space)
        self._patcher.patch_function("polynomials", "poly_mat_det", self._poly_result)
        self._patcher.patch_function("polynomials", "MultiPoly.evaluate", self._poly_self)

    def uninstall(self):
        self._patcher.restore()
        self.ops = next(self._tick)

    @staticmethod
    def _count_op(tick, fn):
        def op(*args):
            next(tick)
            return fn(*args)
        return op

    def _elim(self, fn):
        @functools.wraps(fn)
        def elim(m, *args, **kwargs):
            self.elim_calls += 1
            self.elim_cells += m.rows * m.cols
            if not m.is_real():
                self.elim_complex += 1
            out = fn(m, *args, **kwargs)
            entries = out[0].entries if isinstance(out, tuple) else (out,)
            self.max_bits = max(self.max_bits, _entry_bits(entries))
            return out
        return elim

    def _keyed(self, name, attr, fn):
        @functools.wraps(fn)
        def keyed(*args, **kwargs):
            if self._depth[name] == 0:
                self.calls[name] += 1
                key = (attr, _freeze(args), _freeze(kwargs))
                if key in self._seen:
                    self.repeats[name] += 1
                self._seen.add(key)
            self._depth[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth[name] -= 1
        return keyed

    def _eigen(self, fn):
        inner = self._keyed("weightfilt", "integer_eigen_decomposition", fn)

        @functools.wraps(fn)
        def eigen(*args, **kwargs):
            self._in_eigen += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._in_eigen -= 1
        return eigen

    def _kernel_space(self, fn):
        @functools.wraps(fn)
        def kernel_space(m):
            out = fn(m)
            if self._in_eigen:
                self.eigen_probes += 1
                self.eigen_hits += out.rows > 0
            return out
        return kernel_space

    def _poly_result(self, fn):
        @functools.wraps(fn)
        def poly_det(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.max_terms = max(self.max_terms, len(out.terms))
            return out
        return poly_det

    def _poly_self(self, fn):
        @functools.wraps(fn)
        def evaluate(poly, *args, **kwargs):
            self.max_terms = max(self.max_terms, len(poly.terms))
            return fn(poly, *args, **kwargs)
        return evaluate
