from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from hodgecalc import cli
from hodgecalc.cli import MAX_RAYS, MAX_SCALE_EXPONENT, SUBCOMMANDS, main
from hodgecalc.errors import ParseError, SchemaError
from hodgecalc.matrices import Mat
from hodgecalc.schemas import (
    MAX_MODEL_WIDTH, MAX_PHS_DIM, MAX_SUBSPACE_WIDTH, fixture_names, load_fixture,
    parse_problem_text, render_problem,
)
from unpolarized_documents import I, UNPOLARIZED_OMEGA


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fixture_catalog():
    names = fixture_names()
    assert "dollar-bill" in names
    assert "grassmannian-g24" in names


def test_parse_round_trip():
    for name in fixture_names():
        doc = load_fixture(name)
        again = parse_problem_text(render_problem(doc))
        assert again.kind == doc.kind
        assert again.payload == doc.payload
        assert again.canonical_json() == doc.canonical_json()


def test_parse_dollar_bill_shape():
    doc = load_fixture("dollar-bill")
    assert doc.kind == "orbit"
    assert doc.obj.dim == 4 and doc.obj.num_params == 3


def test_empty_input_is_parse_error():
    with pytest.raises(ParseError):
        parse_problem_text("")


def test_noncommuting_is_schema_error():
    doc = json.dumps({
        "kind": "orbit",
        "payload": {
            "dim": 2, "weight": 1,
            "Q": [["0", "1"], ["-1", "0"]],
            "nilpotents": [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
            "F": [[["0", "1"]], [["1", "0"], ["0", "1"]]],
        }})
    with pytest.raises(SchemaError) as err:
        parse_problem_text(doc)
    assert "commute" in str(err.value)


def test_metric_poly_command(capsys):
    code, out, err = run_cli(
        ["metric-poly", "--input", "builtin:dollar-bill"], capsys)
    assert code == 0
    assert "x1*x2 + x1*x3 + x2*x3" in out


def test_stratum_map_command(capsys):
    code, out, err = run_cli(
        ["stratum-map", "--input", "builtin:dollar-bill", "--stratum", "1"],
        capsys)
    assert code == 0
    assert "t2*t3" in out


def test_limit_check_command(capsys):
    code, out, err = run_cli(
        ["limit-check", "--input", "builtin:dollar-bill", "--stratum", "3",
         "--scales", "1e1..1e8", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["flags"]["eventuallyDecreasing"]
    assert data["flags"]["withinTolerance"]


def test_exit_code_schema_error(capsys):
    code, out, err = run_cli(["metric-poly"], capsys)
    assert code == 2
    assert "error" in err


def test_exit_code_unknown_subcommand(capsys):
    code, out, err = run_cli(["frobnicate", "--input", "builtin:dollar-bill"],
                             capsys)
    assert code == 2


def _flipped_dollar_bill(tmp_path):
    """The dollar-bill document with its polarization negated, as a file."""
    bad = json.loads(render_problem(load_fixture("dollar-bill")))
    bad["payload"]["Q"] = [[str(-int(x)) for x in row]
                           for row in [[0, 0, 1, 0], [0, 0, 0, 1],
                                       [-1, 0, 0, 0], [0, -1, 0, 0]]]
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(bad))
    return path


def test_exit_code_failing_check(capsys, tmp_path):
    # flip the polarization: validation fails with exit code 1
    path = _flipped_dollar_bill(tmp_path)
    code, out, err = run_cli(["validate", "--input", str(path)], capsys)
    assert code == 1


@pytest.mark.parametrize("argv", [["metric-poly"], ["chern"],
                                  ["factorize", "--stratum", "3"],
                                  ["limit-check", "--stratum", "3"]],
                         ids=lambda argv: argv[0])
def test_exit_code_library_error(argv, capsys, tmp_path):
    # the flipped polarization again: commands that validate the orbit before
    # computing stop with a library error, exit 1 and one line
    path = _flipped_dollar_bill(tmp_path)
    code, out, err = run_cli(argv[:1] + ["--input", str(path)] + argv[1:], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: orbit fails validation: "
                   "Hodge-Riemann positivity on primitive (1,1)\n")


def _subspace(tmp_path, basis, **fields):
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps({"kind": "subspace", "payload": {"basis": basis, **fields}}))
    return str(path)


def test_monomial_map_on_subspace(tmp_path, capsys):
    code, out, _ = run_cli(["monomial-map", "--input",
                            _subspace(tmp_path, [[1, 1, 0], [0, 1, 1]]),
                            "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)["findings"]
    assert data["exponents"] == [[1, 1, 0], [0, 1, 1]]
    assert data["monomials"] == ["t1*t2", "t2*t3"]


def test_refine_on_subspace(tmp_path, capsys):
    # the refined exponents are not pinned: they need not be nonnegative yet
    code, out, _ = run_cli(["refine", "--input", _subspace(tmp_path, [[2, 0], [0, 3]]),
                            "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["flags"]["saturated"] is True
    assert data["findings"]["invariantFactors"] == [6]


def test_zero_subspace_takes_its_width_from_ambient(tmp_path, capsys):
    # an empty basis has no rows to read a width from
    path = _subspace(tmp_path, [], ambient=3)
    code, out, _ = run_cli(["monomial-map", "--input", path, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["findings"] == {"exponents": [], "monomials": [],
                                           "variables": [1, 2, 3]}
    code, out, _ = run_cli(["refine", "--input", path, "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["flags"]["saturated"] is True
    assert data["findings"]["invariantFactors"] == []
    assert data["findings"]["covering"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert data["findings"]["refined"]["exponents"] == []
    assert data["findings"]["refined"]["variables"] == [1, 2, 3]
    code, out, _ = run_cli(["validate", "--input", path, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["flags"]["valid"] is True


def test_validate_passes(capsys):
    for name in ("dollar-bill", "commuting-pair", "duplicated-pair",
                 "elliptic-degeneration", "pure-elliptic"):
        code, out, err = run_cli(["validate", "--input", f"builtin:{name}"],
                                 capsys)
        assert code == 0, name


def test_schur_segre_commands(capsys):
    code, out, _ = run_cli(["schur", "--partition", "1,1", "--rank", "3"], capsys)
    assert code == 0 and "c1^2 - c2" in out
    code, out, _ = run_cli(["segre", "--degree", "2", "--rank", "3"], capsys)
    assert code == 0 and "c1^2 - c2" in out


def test_multiplier_ideal_command(capsys):
    code, out, _ = run_cli(
        ["multiplier-ideal", "--input", "builtin:alpha-example"], capsys)
    assert code == 0 and "z1^2*z2" in out


def test_json_reports_are_deterministic(tmp_path, capsys):
    cases = [
        ["metric-poly", "--input", "builtin:dollar-bill"],
        ["chern", "--input", "builtin:dollar-bill", "--seed", "7"],
        ["limit-check", "--input", "builtin:dollar-bill", "--stratum", "3",
         "--scales", "1e1..1e4", "--seed", "7"],
        ["monomial-map", "--input", "builtin:dollar-bill"],
        ["horizontal", "--input", "builtin:weight2-normal-form", "--seed", "5"],
    ]
    for argv in cases:
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code_a = main(argv + ["--format", "json", "--output", str(a)])
        code_b = main(argv + ["--format", "json", "--output", str(b)])
        capsys.readouterr()
        assert code_a == code_b and code_a in (0, 1)
        assert a.read_bytes() == b.read_bytes()


def test_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("HODGECALC_SEED", "11")
    code, out, _ = run_cli(
        ["chern", "--input", "builtin:dollar-bill", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 11


@pytest.mark.parametrize("value", ["abc", ""])
def test_a_non_integer_env_seed_exits_2(value, monkeypatch, capsys):
    monkeypatch.setenv("HODGECALC_SEED", value)
    code, out, err = run_cli(["chern", "--input", "builtin:dollar-bill"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: HODGECALC_SEED must be an integer, got {value!r}\n"


# Each bad flag value exits 2 with a one-line message and no traceback.
BAD_FLAGS = {
    "stratum-not-a-number": ["weight-filtration", "--input", "builtin:dollar-bill",
                             "--stratum", "x"],
    "scales-not-a-range": ["limit-check", "--input", "builtin:dollar-bill",
                           "--stratum", "3", "--scales", "abc"],
    "scales-not-a-decade": ["limit-check", "--input", "builtin:dollar-bill",
                            "--stratum", "3", "--scales", "20..1000"],
    "partition-not-a-number": ["schur", "--partition", "a,1"],
    "limit-check-stratum-zero": ["limit-check", "--input", "builtin:dollar-bill",
                                 "--stratum", "0"],
    "limit-check-stratum-all": ["limit-check", "--input", "builtin:dollar-bill",
                                "--stratum", "1,2,3"],
    "factorize-stratum-repeated": ["factorize", "--input", "builtin:dollar-bill",
                                   "--stratum", "2,2"],
    "weight-filtration-stratum-nine": ["weight-filtration", "--input",
                                       "builtin:dollar-bill", "--stratum", "9"],
    "stratum-map-stratum-seven": ["stratum-map", "--input", "builtin:dollar-bill",
                                  "--stratum", "7"],
    "alpha-not-a-number": ["multiplier-ideal", "--alpha", "abc"],
    "alpha-zero-denominator": ["multiplier-ideal", "--alpha", "1/0"],
    "alpha-not-positive": ["multiplier-ideal", "--alpha", "2,0"],
    "segre-degree-negative": ["segre", "--degree", "-1"],
    "segre-rank-negative": ["segre", "--rank", "-1"],
    "multiplier-ideal-degree-negative": ["multiplier-ideal", "--alpha", "1,1", "--degree", "-1"],
    # sizes over the budgets: rejected before any work starts
    "multiplier-ideal-degree-over-budget": ["multiplier-ideal", "--alpha", "1,1,1",
                                            "--degree", "100000"],
    "multiplier-ideal-many-weights-over-budget": ["multiplier-ideal",
                                                  "--alpha", ",".join(["2"] * 40)],
    "segre-degree-over-budget": ["segre", "--degree", "100000", "--rank", "6"],
    "segre-huge-rank-over-budget": ["segre", "--degree", "1000000000", "--rank", "1000000000"],
    "chern-rays-zero": ["chern", "--input", "builtin:dollar-bill", "--rays", "0"],
    "chern-rays-negative": ["chern", "--input", "builtin:dollar-bill", "--rays", "-3"],
    "curvature-rays-zero": ["curvature", "--input", "builtin:grassmannian-g24", "--rays", "0"],
    "horizontal-rays-negative": ["horizontal", "--input", "builtin:weight2-normal-form",
                                 "--rays", "-3"],
    "limit-check-rays-negative": ["limit-check", "--input", "builtin:dollar-bill",
                                  "--stratum", "3", "--rays", "-2"],
    "schur-rank-zero": ["schur", "--partition", "2,1", "--rank", "0"],
    "schur-partition-increasing": ["schur", "--partition", "1,2"],
    "schur-rank-negative": ["schur", "--partition", "1,1", "--rank", "-2"],
    "schur-partition-negative-part": ["schur", "--partition", "2,-1"],
    "schur-part-above-rank": ["schur", "--partition", "3,1", "--rank", "2"],
    "chern-rays-over-budget": ["chern", "--input", "builtin:dollar-bill",
                               "--rays", str(MAX_RAYS + 1)],
    "limit-check-rays-over-budget": ["limit-check", "--input", "builtin:dollar-bill",
                                     "--stratum", "3", "--rays", str(MAX_RAYS + 1)],
    "limit-check-scales-over-budget": ["limit-check", "--input", "builtin:dollar-bill",
                                       "--stratum", "3",
                                       "--scales", f"1e1..1e{MAX_SCALE_EXPONENT + 1}"],
    "limit-check-scales-under-budget": ["limit-check", "--input", "builtin:dollar-bill",
                                        "--stratum", "3",
                                        "--scales", f"1e-{MAX_SCALE_EXPONENT + 1}..1e1"],
    # scales of 3000 digits: a traceback at print time before the budget
    "limit-check-scales-1e3000": ["limit-check", "--input", "builtin:dollar-bill",
                                  "--stratum", "3", "--scales", "1e1..1e3000"],
}


@pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_bad_flag_exits_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_output_exits_2(where, tmp_path, capsys):
    path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(["validate", "--input", "builtin:dollar-bill",
                              "--output", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_the_parser_is_built_once_and_reused(monkeypatch, capsys):
    import hodgecalc.cli as cli

    def fail():
        raise AssertionError("main built a parser")
    monkeypatch.setattr(cli, "build_parser", fail)
    monkeypatch.delenv("HODGECALC_SEED", raising=False)
    chern = ["chern", "--input", "builtin:dollar-bill", "--format", "json"]
    code, seeded, _ = run_cli(chern + ["--seed", "3"], capsys)
    assert code == 0 and json.loads(seeded)["seed"] == 3
    assert run_cli(["sl2", "--input", "builtin:dollar-bill", "--bogus"], capsys)[0] == 2
    # nothing of one call's arguments reaches the next
    assert run_cli(chern, capsys)[1] == run_cli(chern + ["--seed", "0"], capsys)[1] != seeded


def test_scales_off_the_decades_are_named(capsys):
    code, _, err = run_cli(BAD_FLAGS["scales-not-a-decade"], capsys)
    assert code == 2 and "scales must look like 1e1..1e8" in err


def test_budget_messages_name_the_field(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(_mutated("alpha-example", degreeBound=100000)))
    for argv, field in ((["segre", "--degree", "100000", "--rank", "6"], "--degree 100000"),
                        (["multiplier-ideal", "--alpha", "1,1,1", "--degree", "100000"],
                         "--degree 100000"),
                        (["multiplier-ideal", "--input", str(path)], "degreeBound 100000")):
        code, _, err = run_cli(argv, capsys)
        assert code == 2 and err.startswith(f"error: {field} "), err


def test_decimal_alpha_weights_stay_exact(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    runs = [["multiplier-ideal", "--alpha", "0.1,2", "--degree", "4"]]
    for weights in (["0.1", 2], ["1/10", "2"]):
        path.write_text(json.dumps({"kind": "alpha",
                                    "payload": {"alpha": weights, "degreeBound": 4}}))
        runs.append(["multiplier-ideal", "--input", str(path)])
    for argv in runs:
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0 and json.loads(out)["findings"]["alpha"] == ["1/10", "2"], argv


def test_an_internal_error_while_reading_is_no_malformed_document(monkeypatch):
    """Only the errors of a bad scalar or ragged rows make a malformed
    document; anything else is a crash and propagates."""
    def broken(cls, data):
        raise RuntimeError("planted")
    monkeypatch.setattr(Mat, "from_json", classmethod(broken))
    with pytest.raises(RuntimeError, match="planted"):
        main(["validate", "--input", "builtin:dollar-bill"])


def _largest_allowed(size, budget):
    n = 0
    while size(n + 1) <= budget:
        n += 1
    return n


def test_multiplier_budget_edge(monkeypatch, capsys):
    # the walk itself is replaced: only the gate in front of it runs
    from hodgecalc import multiplier
    calls = []
    monkeypatch.setattr(multiplier, "multiplier_ideal_monomials",
                        lambda alpha, bound: calls.append(bound)
                        or multiplier.MonomialIdeal((), bound, False))
    bound = _largest_allowed(lambda b: multiplier.simplex_points(b, 5),
                             multiplier.MAX_SIMPLEX_POINTS)
    assert bound >= 24
    ones = ",".join(["1"] * 5)
    for argv, code in ((["--degree", str(bound)], 0), (["--degree", str(bound + 1)], 2),
                       ([], 0)):
        assert run_cli(["multiplier-ideal", "--alpha", ones] + argv, capsys)[0] == code
    assert calls == [bound, 24]
    # the default bound is named as such when six weights pass the budget
    code, _, err = run_cli(["multiplier-ideal", "--alpha", ",".join(["1"] * 6)], capsys)
    assert code == 2 and err.startswith("error: --degree 24 (default) with 6 weights "), err


def test_segre_budget_edge(monkeypatch, capsys):
    from hodgecalc import chern
    calls = []
    monkeypatch.setattr(chern, "segre_polynomial", lambda degree, rank: calls.append(degree)
                        or chern.ChernSymbol(rank, chern.MultiPoly.const(rank, 1)))
    degree = _largest_allowed(lambda q: chern.segre_products(q, 6), chern.MAX_SEGRE_PRODUCTS)
    for q, code in ((degree, 0), (degree + 1, 2)):
        argv = ["segre", "--degree", str(q), "--rank", "6"]
        assert run_cli(argv, capsys)[0] == code
    assert calls == [degree]


def test_smallest_allowed_flag_values(capsys):
    for argv, expected in ((["segre", "--degree", "0", "--rank", "1"], '"symbol": "1"'),
                           (["schur", "--partition", "2,0", "--rank", "2"], '"rank": 2'),
                           (["schur", "--partition", "0"], '"rank": 1')):
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0 and expected in out
    code, out, _ = run_cli(["chern", "--input", "builtin:dollar-bill", "--rays", "1",
                            "--format", "json"], capsys)
    assert code == 0 and len(json.loads(out)["findings"]["samples"]) == 1


def test_full_stratum_allowed_where_no_complement_is_needed(capsys):
    argv = ["weight-filtration", "--input", "builtin:dollar-bill", "--format", "json"]
    code, full, _ = run_cli(argv + ["--stratum", "1,2,3"], capsys)
    assert code == 0
    assert run_cli(argv, capsys)[1] == full    # the whole cone is the default


def _mutated(name, **changes):
    doc = json.loads(render_problem(load_fixture(name)))
    doc["payload"].update(changes)
    return doc


LONG_STRING = {"kind": "orbit", "payload": {
    "dim": 3, "weight": 1, "Q": [[0, 0, 1], [0, -1, 0], [1, 0, 0]],
    "nilpotents": [[[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [0, 0, 0]]],
    "F": [[[1, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}}
SUM_TOO_LONG = {"kind": "orbit", "payload": {
    "dim": 4, "weight": 1, "Q": [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
    "nilpotents": [[[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
                   [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]],
    "F": [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                         [0, 0, 0, 1]]]}}


# Each malformed field exits 2 with a one-line message and no traceback:
# integer fields of every document kind, and the list fields of an orbit.
NEGATIVE_PHS = {"h20-negative": {"weight": 2, "h20": -1, "h11": 3},
                "h11-negative": {"weight": 2, "h20": 2, "h11": -1},
                "genus-negative": {"weight": 1, "genus": -2}}
BAD_MODEL_DIMS = {"rankE-and-dimT-negative": {"dimT": -1, "rankE": -1, "rankG": 1, "A": [["1"]]},
                  "rankE-zero": {"dimT": 2, "rankE": 0, "rankG": 0, "A": []}}

BAD_DOCUMENTS = {
    "dim-not-an-integer": ("validate", _mutated("dollar-bill", dim="x")),
    "weight-a-fraction": ("validate", _mutated("dollar-bill", weight=1.5)),
    "weight-a-boolean": ("validate", _mutated("dollar-bill", weight=True)),
    "nilpotents-not-a-list": ("validate", _mutated("dollar-bill", nilpotents=5)),
    "F-not-a-list": ("validate", _mutated("dollar-bill", F=5)),
    "genus-not-an-integer": ("horizontal", _mutated("weight1-genus2", genus="x")),
    "h20-not-an-integer": ("horizontal", _mutated("weight2-normal-form", h20=[2])),
    "dimT-not-an-integer": ("curvature", _mutated("grassmannian-g24", dimT="x")),
    "degreeBound-not-an-integer": ("multiplier-ideal",
                                   _mutated("alpha-example", degreeBound="x")),
    "degreeBound-over-budget": ("multiplier-ideal",
                                _mutated("alpha-example", degreeBound=100000)),
    "ambient-not-an-integer": ("validate", {"kind": "subspace",
                                            "payload": {"basis": [["1", "0"]], "ambient": None}}),
    "ambient-negative": ("validate", {"kind": "subspace",
                                      "payload": {"basis": [], "ambient": -1}}),
    "ambient-negative-with-rows": ("monomial-map", {"kind": "subspace",
                                                    "payload": {"basis": [["1"]], "ambient": -1}}),
    "ambient-not-the-width": ("monomial-map", {"kind": "subspace",
                                               "payload": {"basis": [[1, 1, 1]], "ambient": 2}}),
    # no horizontal directions: the (-1) piece of the graded algebra is empty
    "horizontal-h20-zero": ("horizontal", _mutated("weight2-normal-form", h20=0)),
    "horizontal-genus-zero": ("horizontal", _mutated("weight1-genus2", genus=0)),
    "horizontal-h11-zero": ("horizontal", {"kind": "phs", "payload": {
        "weight": 2, "h20": 2, "h11": 0}}),
    # structures over the dimension budget: rejected before any work starts
    "h11-over-budget": ("horizontal", {"kind": "phs", "payload": {
        "weight": 2, "h20": 1, "h11": 400}}),
    "genus-over-budget": ("horizontal", _mutated("weight1-genus2", genus=MAX_PHS_DIM // 2 + 1)),
    "weight1-omega-over-budget": ("validate", {"kind": "phs", "payload": {
        "weight": 1, "omega": [["1"] * (MAX_PHS_DIM // 2 + 1)] * (MAX_PHS_DIM // 2 + 1)}}),
    # an omega of the wrong shape: a weight-1 omega must be square, one of
    # weight 2 must be h20 x h20
    "weight1-omega-3x1": ("validate", {"kind": "phs", "payload": {
        "weight": 1, "omega": [[{"re": "0", "im": "1"}]] * 3}}),
    "weight1-omega-2x3": ("validate", {"kind": "phs", "payload": {
        "weight": 1, "omega": [[{"re": "0", "im": "1"}, "0", "5"],
                               ["0", {"re": "0", "im": "1"}, "7"]]}}),
    "weight2-omega-too-small": ("validate", _mutated("weight2-normal-form",
                                                     omega=[["1"]])),
    # refine reads a subspace basis as exponent vectors, so they must be
    # integers; no subspace basis may have a non-real entry
    "refine-half-exponent": ("refine", {"kind": "subspace",
                                        "payload": {"basis": [["1/2", 1]]}}),
    "refine-fractional-exponents": ("refine", {"kind": "subspace",
                                               "payload": {"basis": [["3/2", "1/2"]]}}),
    "monomial-map-gaussian-basis": ("monomial-map", {"kind": "subspace", "payload": {
        "basis": [[{"re": "1", "im": "1"}, "1"]]}}),
    "refine-gaussian-basis": ("refine", {"kind": "subspace", "payload": {
        "basis": [[{"re": "1", "im": "1"}, "1"]]}}),
    # a JSON boolean is no scalar, although Python reads it as 1 or 0
    "flag-entry-a-boolean": ("validate", _mutated("dollar-bill", F=[
        [["0", "0", True, "0"], ["0", "0", "0", "1"]],
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]])),
    "flag-entry-a-boolean-part": ("validate", _mutated("dollar-bill", F=[
        [["0", "0", {"re": "1", "im": False}, "0"], ["0", "0", "0", "1"]],
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]])),
    "refine-boolean-basis": ("refine", {"kind": "subspace", "payload": {
        "basis": [[True, False], [False, True]]}}),
    # subspaces over the width budget, the width read off the ambient
    # dimension or off the basis
    "ambient-over-budget": ("monomial-map", {"kind": "subspace", "payload": {
        "basis": [], "ambient": MAX_SUBSPACE_WIDTH + 1}}),
    "basis-over-budget": ("refine", {"kind": "subspace", "payload": {
        "basis": [[1] + [0] * MAX_SUBSPACE_WIDTH]}}),
    # models over the width budget, with an empty A (whose width comes from
    # the two integers alone) and with a row of that width
    "model-over-budget": ("curvature", {"kind": "model", "payload": {
        "dimT": MAX_MODEL_WIDTH + 1, "rankE": 1, "rankG": 0, "A": []}}),
    "model-row-over-budget": ("validate", {"kind": "model", "payload": {
        "dimT": MAX_MODEL_WIDTH + 1, "rankE": 1, "rankG": 1,
        "A": [[1] * (MAX_MODEL_WIDTH + 1)]}}),
    "alpha-a-boolean": ("multiplier-ideal", _mutated("alpha-example", alpha=[True, "1/2"])),
    # a JSON float is a binary fraction: 0.1 would be 3602879701896397/2^55
    "alpha-a-float": ("multiplier-ideal", {"kind": "alpha", "payload": {"alpha": [0.1, 2]}}),
    # only [] is an empty flag level: any other falsy JSON value is no matrix
    **{f"flag-level-{name}": ("validate", _mutated("dollar-bill", F=[level, [
        ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]]))
       for name, level in (("zero", 0), ("empty-string", ""), ("empty-object", {}),
                           ("false", False), ("null", None))},
    # a JSON string or object where the schema needs an array: read element
    # by element, "44" would be the weights (4, 4) and a matrix row "12" the
    # entries 1 and 2
    "alpha-a-string": ("multiplier-ideal", _mutated("alpha-example", alpha="44")),
    "alpha-an-object": ("multiplier-ideal", _mutated("alpha-example", alpha={"4": 1, "5": 2})),
    "basis-rows-strings": ("validate", {"kind": "subspace", "payload": {"basis": ["12", "30"]}}),
    "basis-an-object": ("validate", {"kind": "subspace", "payload": {"basis": {"12": "30"}}}),
    "Q-rows-strings": ("validate", _mutated("dollar-bill", Q=["0001", "0010", "0100", "1000"])),
    # a nilpotent with strings longer than the weight allows: no weight
    # filtration indexed 0..2n exists for it
    **{f"{command}-string-longer-than-weight": (command, LONG_STRING)
       for command in ("weight-filtration", "sl2", "bigrading", "rwfp")},
    # N1 = J (x) I and N2 = I (x) J commute with N1^2 = N2^2 = 0, but
    # (N1 + N2)^2 = 2 J (x) J: only the sum is too long for weight 1
    "bigrading-sum-longer-than-weight": ("bigrading", SUM_TOO_LONG),
    "rwfp-sum-longer-than-weight": ("rwfp", SUM_TOO_LONG),
    # negative phs fields, and model dimensions whose product still matches
    # the shape of A: refused by the schema, before anything is built
    **{f"{command}-{name}": (command, {"kind": "phs", "payload": payload})
       for command in ("validate", "horizontal") for name, payload in NEGATIVE_PHS.items()},
    **{f"{command}-{name}": (command, {"kind": "model", "payload": payload})
       for command in ("validate", "curvature") for name, payload in BAD_MODEL_DIMS.items()},
    # an omega that gives no polarized structure: refused while the document
    # is read, whatever the subcommand
    **{name: (command, {"kind": "phs", "payload": payload})
       for name, (command, payload, _) in UNPOLARIZED_OMEGA.items()},
}


@pytest.mark.parametrize("doc", BAD_DOCUMENTS.values(), ids=BAD_DOCUMENTS.keys())
def test_bad_document_field_exits_2(doc, tmp_path, capsys):
    command, payload = doc
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


SUM = "nilpotents[0] + nilpotents[1]"
TOO_LONG = {name: f"error: {SUM}: string length 2 does not fit weight 1\n"
            for name in BAD_DOCUMENTS if name.endswith("-longer-than-weight")}
# rwfp checks N_a before N_a + N_b, and here N_1 alone has a string of length 2
TOO_LONG["rwfp-string-longer-than-weight"] = \
    "error: nilpotents[0]: string length 2 does not fit weight 1\n"


@pytest.mark.parametrize("name", TOO_LONG)
def test_the_fit_check_names_the_sum(name, tmp_path, capsys):
    command, payload = BAD_DOCUMENTS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    assert run_cli([command, "--input", str(path)], capsys) == (2, "", TOO_LONG[name])


def test_horizontal_without_h11_names_h11(tmp_path, capsys):
    # g^{-1,1} has dimension h20 * h11, so h11 = 0 empties it even at h20 = 2
    command, payload = BAD_DOCUMENTS["horizontal-h11-zero"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli([command, "--input", str(path)], capsys)
    assert code == 2 and "h11 > 0" in err


def test_a_float_weight_names_the_field(tmp_path, capsys):
    command, payload = BAD_DOCUMENTS["alpha-a-float"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli([command, "--input", str(path)], capsys)
    assert code == 2 and err.startswith("error: bad weight in 'alpha': ") and "0.1" in err, err


def test_negative_ambient_names_the_field(tmp_path, capsys):
    # refused before an empty basis takes its width from it
    for name in ("ambient-negative", "ambient-negative-with-rows"):
        command, payload = BAD_DOCUMENTS[name]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli([command, "--input", str(path)], capsys)
        assert (code, err) == (2, "error: 'ambient' must be non-negative, got -1\n"), name


def test_phs_budget_names_the_field(tmp_path, capsys, monkeypatch):
    from hodgecalc import schemas
    monkeypatch.setattr(schemas, "phs_weight1", None)
    monkeypatch.setattr(schemas, "phs_weight2", None)
    half = MAX_PHS_DIM // 2 + 1
    path = tmp_path / "doc.json"
    for name, field in (("h11-over-budget", "h20 1 with h11 400 gives a phs of dimension 402,"),
                        ("genus-over-budget", f"genus {half} gives a phs of dimension {2 * half},"),
                        ("weight1-omega-over-budget", f"omega {half}x{half} gives ")):
        command, payload = BAD_DOCUMENTS[name]
        path.write_text(json.dumps(payload))
        code, _, err = run_cli([command, "--input", str(path)], capsys)
        assert code == 2 and err.startswith(f"error: {field}"), err


def test_bad_dimensions_name_the_field(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for name, field in (("h20-negative", "h20 must be non-negative, got -1"),
                        ("h11-negative", "h11 must be non-negative, got -1"),
                        ("genus-negative", "genus must be non-negative, got -2"),
                        ("rankE-and-dimT-negative", "dimT must be at least 0, got -1"),
                        ("rankE-zero", "rankE must be at least 1, got 0")):
        for command in ("validate", "horizontal", "curvature"):
            if f"{command}-{name}" in BAD_DOCUMENTS:
                path.write_text(json.dumps(BAD_DOCUMENTS[f"{command}-{name}"][1]))
                code, _, err = run_cli([command, "--input", str(path)], capsys)
                assert code == 2 and err == f"error: {field}\n", err


def test_unpolarized_omega_names_the_field(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for name, (command, _, reason) in UNPOLARIZED_OMEGA.items():
        path.write_text(json.dumps(BAD_DOCUMENTS[name][1]))
        code, _, err = run_cli([command, "--input", str(path)], capsys)
        assert code == 2 and err == f"error: omega gives no polarized structure: {reason}\n", err


# orbits that pass the earlier checks but are not polarized: an N = 0 orbit
# of genus 2 with the period matrix [[i, 1], [0, i]], which is not symmetric,
# so Q(F^1, F^1) != 0 and F lies outside the compact dual (the same omega in
# a phs document exits 2); and a weight-0 orbit whose form Q = [[i]] is
# symmetric and nondegenerate but not rational, so Q(u, conj v) is not Hermitian
UNPOLARIZED_ORBITS = {
    "first bilinear relation": {"kind": "orbit", "payload": {
        "dim": 4, "weight": 1,
        "Q": [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
        "nilpotents": [],
        "F": [[[I, "1", "1", "0"], ["0", I, "0", "1"]],
              [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]}},
    "q-form rational": {"kind": "orbit", "payload": {
        "dim": 1, "weight": 0, "Q": [[I]], "nilpotents": [], "F": [[[1]]]}},
}


@pytest.mark.parametrize("failed", UNPOLARIZED_ORBITS)
def test_unpolarized_orbit_fails_its_one_check(failed, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(UNPOLARIZED_ORBITS[failed]))
    code, out, err = run_cli(["validate", "--input", str(path), "--format", "json"], capsys)
    report = json.loads(out)
    assert code == 1 and report["flags"]["valid"] is False and err == ""
    assert [c["name"] for c in report["findings"]["checks"] if not c["passed"]] == [failed]
    code, out, err = run_cli(["metric-poly", "--input", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: orbit fails validation: {failed}\n"


def test_subspace_budget_names_the_width(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for name in ("ambient-over-budget", "basis-over-budget"):
        command, payload = BAD_DOCUMENTS[name]
        path.write_text(json.dumps(payload))
        code, _, err = run_cli([command, "--input", str(path)], capsys)
        assert (code, err) == (2, f"error: the subspace has width {MAX_SUBSPACE_WIDTH + 1}, "
                                  f"more than {MAX_SUBSPACE_WIDTH}\n"), name


def test_model_budget_names_the_width(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for name in ("model-over-budget", "model-row-over-budget"):
        command, payload = BAD_DOCUMENTS[name]
        path.write_text(json.dumps(payload))
        code, _, err = run_cli([command, "--input", str(path)], capsys)
        w = MAX_MODEL_WIDTH + 1
        assert (code, err) == (2, f"error: rankE 1 with dimT {w} gives a model of width {w}, "
                                  f"more than {MAX_MODEL_WIDTH}\n"), name


def test_a_model_with_no_rows_of_A_takes_its_width_from_the_dimensions(tmp_path, capsys):
    # [] has no row to read the width rankE * dimT from.  G = 0 is
    # semi-positive, every sampled minimum is 0 and both directions are flat
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "model", "payload": {
        "dimT": 2, "rankE": 2, "rankG": 0, "A": []}}))
    code, _, err = run_cli(["validate", "--input", str(path)], capsys)
    assert code == 0 and err == ""
    code, out, err = run_cli(["curvature", "--input", str(path), "--format", "json"], capsys)
    report = json.loads(out)
    assert code == 1 and err == ""
    assert report["flags"] == {"semiPositive": True, "stronglySemiPositiveOnSample": False}
    assert report["findings"]["flatDirectionsAtFirstBasisVector"] == 2
    assert {m["exact"] for m in report["findings"]["sampledMinima"]} == {"0"}


def test_curvature_of_a_model_with_no_tangent_directions(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "model", "payload": {
        "dimT": 0, "rankE": 1, "rankG": 0, "A": []}}))
    code, _, err = run_cli(["curvature", "--input", str(path)], capsys)
    assert code == 0 and err == ""


def test_horizontal_draws_again_on_a_zero_direction(tmp_path, capsys):
    # genus 1 has a one-dimensional g^{-1,1}, and seed 195165 draws the zero
    # coefficient three times before any other
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "phs", "payload": {"weight": 1, "genus": 1}}))
    code, out, _ = run_cli(["horizontal", "--input", str(path), "--seed", "195165",
                            "--format", "json"], capsys)
    report = json.loads(out)
    assert code == 0 and report["flags"]["negativeSelfCurvature"]
    assert [s["selfBisectional"]["exact"] for s in report["findings"]["samples"]] == [
        "-128", "-32", "-2048"]


def test_size_budgets_name_the_flag(capsys):
    for name in ("chern-rays-over-budget", "limit-check-rays-over-budget"):
        code, _, err = run_cli(BAD_FLAGS[name], capsys)
        assert code == 2 and err == f"error: --rays {MAX_RAYS + 1}: must be at most {MAX_RAYS}\n"
    for name in ("limit-check-scales-over-budget", "limit-check-scales-under-budget",
                 "limit-check-scales-1e3000"):
        code, _, err = run_cli(BAD_FLAGS[name], capsys)
        assert code == 2 and err.startswith("error: bad --scales value ")
        assert err.endswith(f"scales must lie in 1e-{MAX_SCALE_EXPONENT}..1e{MAX_SCALE_EXPONENT}\n")


def test_a_number_too_long_to_print_exits_2(tmp_path, capsys):
    # every entry of Q has 2501 digits: the document parses and validates,
    # but the normalization of P is too long for str()
    doc = json.loads(render_problem(load_fixture("dollar-bill")))
    doc["payload"]["Q"] = [[str(int(x) * 10 ** 2500) for x in row] for row in doc["payload"]["Q"]]
    path = tmp_path / "big-q.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["validate", "--input", str(path)], capsys)[0] == 0
    code, out, err = run_cli(["metric-poly", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "sys.get_int_max_str_digits()" in err and str(sys.get_int_max_str_digits()) in err


def test_other_value_errors_are_not_input_errors(monkeypatch, capsys):
    def broken(spec):
        raise ValueError("a fault of the library")
    monkeypatch.setattr(cli, "hodge_metric_polynomial", broken)
    with pytest.raises(ValueError, match="a fault of the library"):
        main(["metric-poly", "--input", "builtin:dollar-bill"])


# The document kinds each subcommand takes; None stands for no document.
ALL_KINDS = (None, "orbit", "phs", "model", "subspace", "alpha")
TAKES = {
    "validate": {"orbit", "phs", "model", "subspace", "alpha"},
    **{name: {"orbit"} for name in ("weight-filtration", "sl2", "bigrading", "rwfp",
                                     "metric-poly", "chern", "limit-check", "factorize",
                                     "stratum-map", "compat")},
    "monomial-map": {"orbit", "subspace"},
    "refine": {"orbit", "subspace"},
    "curvature": {"model"},
    "horizontal": {"phs"},
    "schur": {None},
    "segre": {None},
    "multiplier-ideal": {"alpha", None},
}
FIXTURE_OF_KIND = {"orbit": "builtin:dollar-bill", "phs": "builtin:weight2-normal-form",
                   "model": "builtin:grassmannian-g24", "alpha": "builtin:alpha-example"}
# the flags each subcommand needs besides its document, so that only the
# document is wrong
OTHER_FLAGS = {"schur": ["--partition", "1"], "multiplier-ideal": ["--alpha", "2,2"],
               **{name: ["--stratum", "1"] for name in ("limit-check", "factorize",
                                                         "stratum-map")}}
REFUSED = [(name, kind) for name in SUBCOMMANDS for kind in ALL_KINDS
           if kind not in TAKES[name]]


def test_every_subcommand_says_what_it_takes():
    assert sorted(TAKES) == sorted(SUBCOMMANDS)
    assert len(REFUSED) == 83


@pytest.mark.parametrize("name,kind", REFUSED, ids=[f"{n}-{k}" for n, k in REFUSED])
def test_a_document_of_a_refused_kind_exits_2(name, kind, tmp_path, capsys):
    argv = [name] + OTHER_FLAGS.get(name, [])
    if kind == "subspace":
        argv += ["--input", _subspace(tmp_path, [[1, 1, 0], [0, 1, 1]])]
    elif kind is not None:
        argv += ["--input", FIXTURE_OF_KIND[kind]]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == "" and err.count("\n") == 1
    if kind is None:
        assert err == f"error: {name} needs --input\n"
    else:
        assert err.startswith(f"error: {name} takes ") and err.endswith(f", got {kind!r}\n")


@pytest.mark.parametrize("name", ["limit-check", "factorize", "stratum-map"])
def test_stratum_is_required(name, capsys):
    code, out, err = run_cli([name, "--input", "builtin:dollar-bill"], capsys)
    assert code == 2 and out == "" and err == f"error: {name} needs --stratum\n"


@pytest.mark.parametrize("name", ["limit-check", "factorize"])
def test_a_proper_stratum_is_not_empty(name, capsys):
    code, out, err = run_cli([name, "--input", "builtin:dollar-bill", "--stratum", ","],
                             capsys)
    assert code == 2 and out == "" and err == f"error: {name} needs --stratum\n"


def test_the_empty_stratum_maps_like_the_whole_cone(capsys):
    def findings(argv):
        code, out, _ = run_cli(argv + ["--input", "builtin:dollar-bill", "--format", "json"],
                               capsys)
        assert code == 0
        return json.loads(out)["findings"]
    assert findings(["stratum-map", "--stratum", ","]) == findings(["monomial-map"])


def test_the_readme_names_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line")[1].split("\n## ")[0]
    assert [name for name in SUBCOMMANDS if f"`{name}`" not in section] == []
