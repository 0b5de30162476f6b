"""End-to-end tests of the command-line interface (in-process, via main(argv))."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planemoduli import InputError, check_ids, parse_curve_csv, register_check, rows_to_csv
from planemoduli.cli import _build_parser, _suite_settings, main, parse_eps_range, parse_norm_token
from planemoduli.verify import CheckDef, Relation, SuiteSettings, Term, _pointwise
from planemoduli.moduli import ModulusKind

FAST = ["--grid-n", "96", "--refine-rounds", "3"]


# -- argument parsing ------------------------------------------------------------


def test_eps_range_forms():
    assert parse_eps_range("0.6") == [0.6]
    grid = parse_eps_range("0.05:1:0.05")
    assert len(grid) == 20
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(1.0)
    assert parse_eps_range("0.5:0.5:0.1") == [0.5]


@pytest.mark.parametrize("bad", ["0.5:0.1:0.1", "1:2:0", "1:2:-1", "a:b:c", "1:2:3:4", "inf"])
def test_eps_range_rejects(bad):
    with pytest.raises(InputError):
        parse_eps_range(bad)


def test_norm_tokens():
    assert parse_norm_token("euclidean").kind == "euclidean"
    assert parse_norm_token("lp:3").to_json_dict() == {"kind": "lp", "p": 3.0}
    assert parse_norm_token("lp:inf").to_json_dict()["p"] == "inf"
    assert parse_norm_token("square").to_json_dict()["p"] == "inf"
    assert parse_norm_token("diamond").to_json_dict()["p"] == 1.0
    assert parse_norm_token("hexagon").kind == "polygon"
    assert parse_norm_token("octagon").kind == "polygon"
    w = parse_norm_token("weighted-lp:2:1:2").to_json_dict()
    assert w == {"kind": "weighted-lp", "p": 2.0, "w": [1.0, 2.0]}
    inline = parse_norm_token('{"kind":"lp","p":4}')
    assert inline.to_json_dict()["p"] == 4.0
    with pytest.raises(InputError):
        parse_norm_token("taxicab")
    with pytest.raises(InputError):
        parse_norm_token("weighted-lp:2:1")


def test_norm_from_json_file(tmp_path):
    path = tmp_path / "hex.json"
    hexagon = parse_norm_token("hexagon")
    path.write_text(json.dumps(hexagon.to_json_dict()))
    assert parse_norm_token(str(path)).to_json_dict() == hexagon.to_json_dict()
    assert parse_norm_token(f"polygon:{path}").to_json_dict() == hexagon.to_json_dict()
    # a bare vertex list is accepted too
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(hexagon.to_json_dict()["vertices"]))
    assert parse_norm_token(f"polygon:{bare}").kind == "polygon"


# -- compute ----------------------------------------------------------------------


def test_compute_emits_twenty_rows(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["compute", "--norm", "lp:3", "--modulus", "zeta-plus", "--eps", "0.05:1:0.05", "--out", str(out), *FAST])
    assert code == 0
    rows = parse_curve_csv(out.read_text())
    assert len(rows) == 20
    assert rows[-1]["eps"] == 1.0
    assert rows_to_csv(rows) == out.read_text()  # byte-identical round trip


def test_compute_single_value_matches_chord_square(tmp_path, capsys):
    code = main(["compute", "--norm", "euclidean", "--modulus", "phi-minus", "--eps", "0.5:0.5:0.1", *FAST])
    assert code == 0
    rows = parse_curve_csv(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["value"] == pytest.approx(0.125, abs=1e-6)


def test_compute_square_lambda_minus_is_zero(capsys):
    code = main(["compute", "--norm", "lp:inf", "--modulus", "lambda-minus", "--eps", "0.5:0.5:0.1", *FAST])
    assert code == 0
    rows = parse_curve_csv(capsys.readouterr().out)
    assert rows[0]["value"] == 0.0


def test_compute_reaches_the_diameter_on_a_sharp_norm(capsys):
    # the evaluated chord to the antipode rounds below 2 on this norm; eps = 2
    # still has a chord from every sphere point
    code = main(["compute", "--norm", "weighted-lp:1:10000:0.0001", "--modulus", "delta", "--eps", "0:2:1"])
    assert code == 0
    rows = parse_curve_csv(capsys.readouterr().out)
    assert [r["eps"] for r in rows] == [0.0, 1.0, 2.0]


def test_compute_json_format_with_reference(capsys):
    code = main(
        ["compute", "--norm", "euclidean", "--modulus", "delta-t:0.25", "--eps", "1", "--format", "json",
         "--with-hilbert", "--witnesses", *FAST]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "delta-t:0.25"
    (s,) = doc["samples"]
    assert s["value"] == pytest.approx(1.0 - math.sqrt(1.0 - 0.1875), abs=1e-6)
    assert s["hilbert"] == pytest.approx(s["value"], abs=1e-6)
    assert "witness" in s


def test_compute_witness_sidecar(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["compute", "--norm", "euclidean", "--modulus", "delta", "--eps", "0.5", "--witnesses", "--out", str(out), *FAST])
    assert code == 0
    side = json.loads((tmp_path / "c.csv.witnesses.json").read_text())
    assert side["kind"] == "delta"
    assert len(side["witnesses"]) == 1


def test_compute_errors():
    # no --out for the witness sidecar
    assert main(["compute", "--norm", "euclidean", "--modulus", "delta", "--eps", "0.5", "--witnesses", *FAST]) == 2
    # eps outside the kind's domain
    assert main(["compute", "--norm", "square", "--modulus", "delta", "--eps", "2.5", *FAST]) == 2
    # invalid norm parameter
    assert main(["compute", "--norm", "lp:0.5", "--modulus", "delta", "--eps", "0.5", *FAST]) == 2
    # unwritable output path
    code = main(["compute", "--norm", "euclidean", "--modulus", "delta", "--eps", "0.5", "--out", "/no/such/dir/c.csv", *FAST])
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--norm", "weighted-lp:2:a:1", "--modulus", "delta", "--eps", "0.5"],
        ["compute", "--norm", "euclidean", "--modulus", "delta", "--eps", "abc"],
        ["compute", "--norm", "euclidean", "--modulus", "delta", "--eps", "0:1:x"],
        ["compute", "--norm", "{bad.json}", "--modulus", "delta", "--eps", "0.5"],
        ["compute", "--norm", "{letters.json}", "--modulus", "delta", "--eps", "0.5"],
        ["figure", "--norm", "euclidean", "--theta-x", "0", "--eps", "0.5", "--sphere-points", "0"],
    ],
    ids=["weight", "eps", "eps-range", "json-file", "vertex-file", "sphere-points"],
)
def test_malformed_arguments_are_usage_errors(argv, tmp_path, capsys):
    (tmp_path / "bad.json").write_text('{"kind": ')
    (tmp_path / "letters.json").write_text('[["a", 1], [0, 1], [-1, 0], [0, -1]]')
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_python_dash_m_runs_the_cli():
    import planemoduli

    src = str(Path(planemoduli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "planemoduli", "--version"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"planemoduli {planemoduli.__version__}"


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


# -- verify -----------------------------------------------------------------------

VERIFY_FAST = ["--grid-n", "96", "--refine-rounds", "3", "--cone-samples", "9", "--grid-n-2d", "64", "--eps-points", "5"]


def test_verify_euclid_subset_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--norm", "euclidean", "--checks", "lambda-day-nordlander,zeta-envelope",
         "--slack", "1e-4", "--seed", "3", "--out", str(out), *VERIFY_FAST]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["suite"]["seed"] == 3
    assert [c["id"] for c in doc["checks"]] == ["lambda-day-nordlander", "zeta-envelope"]
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_defaults_are_the_suite_settings():
    assert _suite_settings(_build_parser().parse_args(["verify"])) == SuiteSettings()


def test_verify_unknown_check_exits_2(capsys):
    assert main(["verify", "--checks", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "valid ids" in err and "lambda-envelope" in err


def test_verify_bad_eps_points_exits_2(capsys):
    assert main(["verify", "--norm", "euclidean", "--checks", "zeta-envelope", "--eps-points", "-1"]) == 2
    assert "eps_points" in capsys.readouterr().err


@pytest.mark.parametrize("slack", ("nan", "inf"))
def test_verify_non_finite_slack_exits_2(slack, capsys):
    argv = ["verify", "--norm", "euclidean", "--checks", "zeta-envelope", "--eps-points", "2", "--slack", slack]
    assert main([*argv, "--grid-n", "64", "--grid-n-2d", "64", "--refine-rounds", "1"]) == 2
    assert "slack" in capsys.readouterr().err


def test_verify_failing_check_exits_1(tmp_path):
    if "test-cli-floor" not in check_ids():
        kind = ModulusKind("delta")
        fn = lambda eps: [Relation("1/2 <= delta(eps)", -0.5, (Term(1.0, kind, eps),))]
        register_check(CheckDef("test-cli-floor", "inequality", "deliberately false", (0.0, 1.0), relations=_pointwise(fn)))
    out = tmp_path / "report.json"
    code = main(["verify", "--norm", "euclidean", "--checks", "test-cli-floor", "--out", str(out), *VERIFY_FAST])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["checks"][0]["status"] == "fail"
    assert doc["checks"][0]["witness"] is not None


# -- probe ------------------------------------------------------------------------


def test_probe_zero_count_is_usage_error():
    assert main(["probe", "--family", "random-lp", "--count", "0", "--seed", "1"]) == 2


def test_probe_zero_eps_points_is_usage_error(capsys):
    assert main(["probe", "--family", "random-lp", "--count", "1", "--seed", "1", "--eps-points", "0"]) == 2
    assert "eps_points" in capsys.readouterr().err


def test_probe_cli_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code = main(["probe", "--family", "lp", "--count", "2", "--seed", "5", "--eps-points", "3", "--out", str(out)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["suite"]["family"] == "lp"
    assert {c["status"] for c in doc["checks"]} == {"report-only"}


# -- figure -----------------------------------------------------------------------


def test_figure_euclid_descent(capsys):
    code = main(["figure", "--norm", "euclidean", "--theta-x", "0", "--eps", "0.6", "--sphere-points", "64"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    fig = doc["figure"]
    z, y1 = np.array(fig["z"]), np.array(fig["y1"])
    assert np.allclose(z, [0.8, 0.6], atol=1e-9)
    assert np.linalg.norm(y1 - z) == pytest.approx(0.2, abs=1e-9)
    assert doc["residuals"]["cathetus_identity"] <= 1e-8
    assert len(doc["sphere"]) == 65
    assert doc["sphere"][0] == doc["sphere"][-1]


def test_figure_square_facet_point_needs_no_descent(capsys):
    code = main(["figure", "--norm", "lp:inf", "--theta-x", "0", "--eps", "0.5"])
    assert code == 0
    fig = json.loads(capsys.readouterr().out)["figure"]
    assert fig["lam"] == 0.0
    assert fig["z"] == fig["y1"]


def test_figure_rejects_large_eps():
    assert main(["figure", "--norm", "euclidean", "--theta-x", "0", "--eps", "1.5"]) == 2
