"""Byte-identical JSON reports against goldens saved from a known-good build.

Criterion 9 compares two runs of the same build; this file compares each
report with the bytes in `tests/goldens/`, so a change in how numbers are
represented or computed that alters a printed digit fails here.

Write the goldens (only on a commit whose reports are known to be right):

    PYTHONPATH=src python tests/test_golden_reports.py --capture
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

from hodgecalc.cli import main

GOLDENS = Path(__file__).resolve().parent / "goldens"

# the 16 criterion-9 commands with --seed 7, then sl2, weight-filtration, and
# more validate and limit-check runs; the exit code each printed at capture time
COMMANDS = [
    (["validate", "--input", "builtin:dollar-bill"], 0),
    (["metric-poly", "--input", "builtin:dollar-bill"], 0),
    (["bigrading", "--input", "builtin:dollar-bill"], 0),
    (["chern", "--input", "builtin:dollar-bill", "--seed", "7"], 0),
    (["limit-check", "--input", "builtin:dollar-bill", "--stratum", "3",
      "--scales", "1e1..1e8", "--seed", "7"], 0),
    (["factorize", "--input", "builtin:dollar-bill", "--stratum", "3"], 0),
    (["monomial-map", "--input", "builtin:dollar-bill"], 0),
    (["stratum-map", "--input", "builtin:dollar-bill", "--stratum", "1"], 0),
    (["refine", "--input", "builtin:duplicated-pair"], 0),
    (["compat", "--input", "builtin:dollar-bill"], 0),
    (["rwfp", "--input", "builtin:dollar-bill"], 0),
    (["curvature", "--input", "builtin:grassmannian-g24", "--seed", "7"], 0),
    (["horizontal", "--input", "builtin:weight2-normal-form", "--seed", "7"], 0),
    (["schur", "--partition", "1,1", "--rank", "3"], 0),
    (["segre", "--degree", "3", "--rank", "4"], 0),
    (["multiplier-ideal", "--input", "builtin:alpha-example"], 0),
    (["sl2", "--input", "builtin:dollar-bill"], 0),
    (["weight-filtration", "--input", "builtin:dollar-bill"], 0),
    (["validate", "--input", "builtin:elliptic-degeneration"], 0),
    # validate on the other document kinds: phs (piece dimensions), model, alpha
    (["validate", "--input", "builtin:weight2-normal-form"], 0),
    (["validate", "--input", "builtin:grassmannian-g24"], 0),
    (["validate", "--input", "builtin:alpha-example"], 0),
    # seeded rays; plain-decade scales, where 1e3 is too small a scale for
    # the tolerance
    (["limit-check", "--input", "builtin:dollar-bill", "--stratum", "3",
      "--rays", "2", "--seed", "7"], 0),
    (["limit-check", "--input", "builtin:dollar-bill", "--stratum", "3",
      "--scales", "10..1000", "--seed", "7"], 1),
]

# the orbit fixtures and their number of variables
ORBIT_FIXTURES = {"commuting-pair": 2, "dollar-bill": 3, "duplicated-pair": 2,
                  "elliptic-degeneration": 1, "pure-elliptic": 1,
                  "weight2-tate-degeneration": 1}


def _strata(k: int, proper: bool):
    return [",".join(map(str, c)) for r in range(1, k + (not proper))
            for c in itertools.combinations(range(1, k + 1), r)]


# sl2 on the whole cone and on every nonempty stratum, factorize on every
# proper stratum, of each orbit fixture (those not listed above); each one
# exited with 0 at capture time
COMMANDS += [
    (argv, 0) for name, k in ORBIT_FIXTURES.items()
    for argv in ([["sl2", "--input", f"builtin:{name}"]]
                 + [["sl2", "--input", f"builtin:{name}", "--stratum", s]
                    for s in _strata(k, proper=False)]
                 + [["factorize", "--input", f"builtin:{name}", "--stratum", s]
                    for s in _strata(k, proper=True)])
    if (argv, 0) not in COMMANDS
]


# horizontal on a seeded dense weight-1 omega of genus 4 and on a skewed
# weight-2 omega, documents kept in goldens/inputs: their graded pieces have
# long canonical forms, where the fixtures' pieces are sparse
INPUTS = GOLDENS / "inputs"
COMMANDS += [(["horizontal", "--input", str(INPUTS / f"{name}.json"), "--seed", "7"], 0)
             for name in ("dense-weight1-genus4", "skewed-weight2")]


def golden_path(argv) -> Path:
    name = "_".join(Path(a).stem if a.endswith(".json") else
                    a.replace("builtin:", "").replace("--", "").replace(",", "-").replace(".", "")
                    for a in argv)
    return GOLDENS / f"{name}.json"


def run_report(argv, out: Path) -> int:
    return main(argv + ["--format", "json", "--output", str(out)])


@pytest.mark.parametrize("argv,code", COMMANDS,
                         ids=[golden_path(a).stem for a, _ in COMMANDS])
def test_report_matches_golden(argv, code, tmp_path):
    out = tmp_path / "report.json"
    assert run_report(argv, out) == code
    assert out.read_bytes() == golden_path(argv).read_bytes()


def capture():
    GOLDENS.mkdir(exist_ok=True)
    for argv, code in COMMANDS:
        path = golden_path(argv)
        got = run_report(argv, path)
        if got != code:
            raise SystemExit(f"{argv} exited with {got}, expected {code}")
        print(path.name)


if __name__ == "__main__" and sys.argv[1:] == ["--capture"]:
    capture()
