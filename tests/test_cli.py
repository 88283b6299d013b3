"""Command-line front end: exit codes, report schema, output formats."""
import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import absorb.cli
from absorb.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_holds_exit_0(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--module", "cyc(Zn(12),12)", "--sub", "gen[6]",
        "--prop", "gsdf", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["command"] == "check"
    assert doc["witness"] is None
    assert "elapsed_ms" in doc and "tool_version" in doc


def test_check_fails_exit_1_with_witness(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--module", "cyc(Zn(8),8)", "--sub", "zero",
        "--prop", "sdf", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["holds"] is False
    w = doc["witness"]
    assert (w["u"], w["v"], w["x"]) == (3, 1, 1)
    assert w["rendered"]


def test_check_full_submodule_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "check", "--module", "self(Zn(12))", "--sub", "full", "--prop", "gsdf"
    )
    assert code == 2
    assert "error" in err


def test_check_bad_spec_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "check", "--module", "cyc(Zn(12),5)", "--sub", "zero", "--prop", "gsdf"
    )
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(
        capsys, "check", "--module", "self(Zn(12)", "--sub", "zero", "--prop", "gsdf"
    )
    assert code == 2


@pytest.mark.parametrize(
    "variable, argv",
    [
        ("ABSORB_SCAN_BOUND", ["check", "--module", "self(Zn(12))", "--sub", "zero", "--prop", "gsdf"]),
        ("ABSORB_LATTICE_BOUND", ["enumerate", "--module", "self(Zn(12))", "--props", "gsdf"]),
    ],
)
def test_a_malformed_bound_exits_2_naming_its_variable(variable, argv):
    """In a fresh process, so that no cached hit rows or lattice spare the
    read of the bound."""
    src = Path(__file__).resolve().parent.parent / "src"
    for value in ("abc", "2k", "-1", "1.5", "²"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", **{variable: value})
        out = subprocess.run(
            [sys.executable, "-m", "absorb.cli", *argv], capture_output=True, text=True,
            env=env, timeout=60,
        )
        assert out.returncode == 2, (value, out.stderr)
        assert out.stderr == f"error: {variable}={value!r} is not a non-negative integer\n"


@pytest.mark.parametrize("prop", ["sdfprimary", "sdfideal"])
def test_an_ideal_check_on_z30000_is_decided_by_its_class_pairs(prop):
    """(2) in Z_30000 holds, decided by its 50 associate classes: a walk of
    its u >= v pairs would make some 10^8 ring operations."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["check", "--ring", "Zn(30000)", "--sub", "gen[2]", "--prop", prop, "--format", "json"]
    started = time.monotonic()
    out = subprocess.run([sys.executable, "-m", "absorb.cli", *argv], capture_output=True,
                         text=True, env=env, timeout=60)
    assert time.monotonic() - started < 5
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    t = 30000 - (prop == "sdfideal")
    assert doc["holds"] is True and doc["checked_count"] == t * (t + 1) // 2


def test_check_usage_error_exit_2(capsys):
    code, _, _ = run_cli(capsys, "check", "--sub", "full")
    assert code == 2  # missing --prop (argparse usage error)


def test_variant_nonzero_only_for_sdfprimary(capsys):
    code, _, err = run_cli(
        capsys, "check", "--ring", "Zn(12)", "--sub", "gen[4]",
        "--prop", "gsdf", "--variant-nonzero",
    )
    assert code == 2
    code, out, _ = run_cli(
        capsys, "check", "--ring", "Zn(12)", "--sub", "gen[4]",
        "--prop", "sdfprimary", "--variant-nonzero", "--format", "json",
    )
    assert code in (0, 1)
    assert json.loads(out)["property"] == "sdfprimary"


def test_enumerate_z12_gsdf_column(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--ring", "Zn(12)", "--props", "gsdf", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    rows = {row[0]: row[2] for row in doc["table"]["rows"]}
    assert rows == {"<0>": False, "<6>": True, "<4>": True, "<3>": True, "<2>": True}
    assert doc["spec"] == "self(Zn(12))"


@pytest.mark.parametrize("argv,column", [
    (["check", "--ring", "prod(Zn(2),Zn(1))", "--sub", "zero", "--prop", "gsdf"], 12),
    (["enumerate", "--ring", "quot(Zn(12),gen[5])"], 1),
])
def test_ring_errors_point_into_the_ring_spec_as_typed(capsys, argv, column):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.rstrip().endswith(f"(at line 1, column {column})")


def test_enumerate_z7(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--ring", "Zn(7)", "--props", "gsdf", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["table"]["rows"][0][2] is True


def test_enumerate_no_filters_bare_lattice(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--ring", "Zn(12)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["table"]["columns"] == ["submodule", "order"]
    orders = [row[1] for row in doc["table"]["rows"]]
    assert orders == sorted(orders)  # inclusion-compatible ordering by size


def test_verify_pass_exit_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "unit2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "unit2" and doc["holds"] is True and doc["violations"] == []


def test_verify_unknown_suite_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "unknown-suite")
    assert code == 2


def test_verify_max_sets_the_suites_own_size_parameter(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "product", "--max", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"] == {"max_ab": 3}
    assert doc["instances_checked"] < 573  # the default max_ab = 12 checks 573


@pytest.mark.parametrize("suite", ["idealization", "localization", "amalgamation", "char2"])
def test_verify_max_without_scalar_size_exit_2(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max", "3")
    assert code == 2 and out == ""
    assert "--max" in err


@pytest.mark.parametrize("command", [
    ["check", "--ring", "Zn(12)", "--sub", "gen[6]", "--prop", "gsdf"],
    ["enumerate", "--ring", "Zn(12)", "--props", "gsdf"],
])
def test_elapsed_ms_includes_elaboration(capsys, monkeypatch, command):
    real = absorb.cli.elaborate_module

    def slow(node):
        time.sleep(0.05)
        return real(node)

    monkeypatch.setattr(absorb.cli, "elaborate_module", slow)
    code, out, _ = run_cli(capsys, *command, "--format", "json")
    assert code == 0
    assert json.loads(out)["elapsed_ms"] >= 50


def test_classify_csv(capsys):
    code, out, _ = run_cli(capsys, "classify", "--max", "24", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "factorization", "gsdf", "predicted", "match"]
    assert len(rows) == 24  # header + n = 2..24
    assert rows[1][:2] == ["2", "2"]
    by_n = {r[0]: r for r in rows[1:]}
    assert by_n["12"][2] == "False" and by_n["12"][4] == "True"
    assert by_n["21"][1] == "3*7"


def test_classify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "classify", "--max", "10", "--format", "json")
    doc = json.loads(out)
    assert doc["command"] == "classify" and doc["mismatches"] == 0
    assert len(doc["table"]["rows"]) == 9


def _record_pool_sizes(monkeypatch):
    """Replace multiprocessing.Pool by a serial stand-in that records the
    worker count it was asked for, so no process is started."""
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(i) for i in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return sizes


def test_classify_jobs_below_one_exit_2(capsys, monkeypatch):
    sizes = _record_pool_sizes(monkeypatch)
    for jobs in ("0", "-3"):
        code, _, err = run_cli(capsys, "classify", "--max", "10", "--jobs", jobs)
        assert code == 2 and "--jobs" in err
    assert sizes == []


def test_classify_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    sizes = _record_pool_sizes(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, out, _ = run_cli(
        capsys, "classify", "--max", "10", "--jobs", "64", "--format", "json"
    )
    assert code == 0 and sizes == [3]
    assert json.loads(out)["mismatches"] == 0


def test_classify_bad_max_exit_2(capsys):
    code, _, _ = run_cli(capsys, "classify", "--max", "1")
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "check", "--ring", "Zn(12)", "--sub", "gen[6]", "--prop", "gsdf",
        "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["holds"] is True


def test_json_is_stable_across_runs(capsys):
    def once():
        _, out, _ = run_cli(
            capsys, "check", "--ring", "Zn(12)", "--sub", "gen[6]", "--prop",
            "gsdf", "--format", "json",
        )
        doc = json.loads(out)
        doc.pop("elapsed_ms")
        return doc

    assert once() == once()
