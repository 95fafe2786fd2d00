"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run          # noqa: E402
import tracing      # noqa: E402
from workloads import build, import_library  # noqa: E402

SRC = HERE.parent / "src"


@pytest.fixture(scope="module")
def cli_workload():
    return build("cli-fixtures", 5, SRC)[1]


def _bindings():
    """Every attribute of the library's modules and of its patched classes."""
    out = {}
    for mod in tracing._modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
    for module, cls in (("matrices", "Mat"), ("polynomials", "MultiPoly"),
                        ("rationals", "GaussianRational")):
        klass = getattr(sys.modules[f"hodgecalc.{module}"], cls)
        for key, value in vars(klass).items():
            out[(module, cls, key)] = value
    return out


@pytest.mark.parametrize("kind", [tracing.Tracer, tracing.Counter])
def test_every_binding_is_wrapped_and_restored(kind):
    import_library(SRC)
    before = _bindings()
    rref = sys.modules["hodgecalc.matrices"].rref
    holders = [k for k, v in before.items() if v is rref]
    assert len(holders) > 3       # matrices, the package and importing modules
    tool = kind()
    tool.install()
    try:
        during = _bindings()
        assert all(during[k] is not rref for k in holders)
    finally:
        tool.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_reports_identical_with_tracing_on_and_off(cli_workload):
    plain, traced, counted = {}, {}, {}
    assert run.run_pass(cli_workload, plain)[2] == []
    (_, _, failures), _ = run.traced_pass(cli_workload, traced)
    assert failures == []
    counter = tracing.Counter()
    counter.install()
    try:
        assert run.run_pass(cli_workload, counted, counter=counter)[2] == []
    finally:
        counter.uninstall()
    assert plain == traced == counted
    assert counter.ops > 0 and counter.elim_calls > 0


def test_self_times_add_up_to_the_pass(cli_workload):
    (total, _, _), tracer = run.traced_pass(cli_workload, {})
    name, start, end, parent = tracer.spans[0]
    assert (name, parent) == (tracing.PASS_SPAN, -1)
    self_times = tracer.self_times()
    assert all(seconds >= -1e-9 for _, seconds in self_times.values())
    assert sum(s for _, s in self_times.values()) == pytest.approx(end - start, abs=1e-6)
    assert end - start == pytest.approx(total, rel=0.01)
    assert {"cli", "matrices.elim", "monomial.w_end"} <= self_times.keys()


def test_calibration_runs_no_library_code():
    import_library(SRC)
    counter = tracing.Counter()
    counter.install()
    try:
        assert run.calibrate() > 0
    finally:
        counter.uninstall()
    assert counter.ops == 0 and counter.elim_calls == 0


def test_metric_names_match_benchmark_json(cli_workload):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    passes = [run.run_pass(cli_workload, {})]
    assert set(run.end_to_end(cli_workload, passes, [(1.0, 1.0)])) == {
        m["name"] for m in spec["end_to_end"]}
    counter = tracing.Counter()
    assert set(run.per_layer({}, counter, 1.0)) == {m["name"] for m in spec["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-fixtures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
