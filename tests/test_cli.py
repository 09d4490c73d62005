"""Command-line parsing, report schema, exit codes, and dump round-trips."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcl
from dcl import cli, percolation
from dcl.cli import (
    EXIT_ERROR,
    EXIT_PASS,
    EXIT_TEST_FAILURE,
    UsageError,
    main,
    parse_invocation,
)
from dcl.coloring import TwoPoint
from dcl.stats import summarize

TOP_KEYS = {"config", "estimates", "predictions", "tests", "seeds", "timing"}


def test_parse_estimate_invocation():
    inv = parse_invocation(
        ["estimate", "--dim", "2", "--radius", "32", "--p", "0.3",
         "--replicates", "100", "--seed", "7"]
    )
    assert inv.subcommand == "estimate"
    assert inv.config.d == 2
    assert inv.config.radii == (32,)
    assert inv.config.p == 0.3
    assert inv.config.graph_replicates == 100
    assert inv.config.master_seed == 7
    assert inv.out_path is None and inv.out_format == "json"


def test_parse_clt_color_measure():
    inv = parse_invocation(
        ["clt", "--mode", "annealed", "--nu", "two-point:-1,1,0.5",
         "--radius", "16", "--p", "0.2", "--regime", "subcritical"]
    )
    assert inv.config.nu == TwoPoint(-1.0, 1.0, 0.5)
    assert inv.config.regime == "subcritical"
    assert inv.config.color_replicates == 1  # one coloring per graph
    quenched = parse_invocation(["clt", "--mode", "quenched", "--radius", "16", "--p", "0.2"])
    assert quenched.config.color_replicates == 1000  # quenched clt default


def test_parse_repeatable_radius():
    inv = parse_invocation(
        ["cluster-clt", "--radius", "4", "--radius", "8", "--radius", "16", "--p", "0.7"]
    )
    assert inv.config.radii == (4, 8, 16)


def test_parse_check_identity_defaults():
    inv = parse_invocation(["check-identity"])
    assert inv.subcommand == "check-identity"
    assert inv.options["radii"] == [16]
    assert inv.options["p_values"] == [0.2, 0.5, 0.8]
    assert inv.options["configs"] == 1000


def test_parse_gamma_sample_options():
    inv = parse_invocation(
        ["gamma-sample", "--nu", "gaussian:0,1", "--chi-f", "2.0",
         "--sigma-p2", "0.25", "--samples", "500", "--seed", "3"]
    )
    assert inv.options["chi_f"] == 2.0
    assert inv.options["sigma_p2"] == 0.25
    assert inv.options["samples"] == 500
    assert inv.options["master_seed"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--radius", "4", "--p", "1.5"],
        ["estimate", "--radius", "4", "--p", "0.5", "--no-such-flag"],
        ["estimate", "--radius", "0", "--p", "0.5"],
        ["estimate", "--p", "0.5"],  # missing required --radius
        ["lln", "--radius", "4", "--p", "0.5"],  # missing required --mode
        ["lln", "--mode", "annealed", "--radius", "4", "--p", "0.5",
         "--nu", "two-point:-1,1,1.5"],
        ["clt", "--mode", "annealed", "--radius", "4", "--p", "0.5"],  # no regime
        ["estimate", "--radius", "4", "--p", "0.5", "--format", "csv"],  # csv, no out
        ["gamma-sample", "--nu", "gaussian:0,1", "--chi-f", "-1"],
        ["no-such-subcommand"],
        ["gamma-sample", "--nu", "two-point:-1,1,0.3", "--chi-f", "nan"],
        ["gamma-sample", "--nu", "two-point:-1,1,0.3", "--sigma-p2", "inf"],
        # finite options whose gamma component variances overflow
        ["gamma-sample", "--nu", "gaussian:0,1e300", "--chi-f", "1e300"],
        ["gamma-sample", "--nu", "two-point:-1e150,1e150,0.5", "--sigma-p2", "1e300"],
        # check-identity: repeated radii or densities, margin outside [0, min radius]
        ["check-identity", "--radius", "3", "--radius", "3"],
        ["check-identity", "--p", "0.2", "--p", "0.20"],
        ["check-identity", "--radius", "5", "--radius", "3", "--margin", "4"],
        ["check-identity", "--radius", "3", "--margin", "-1"],
        ["check-identity", "--margin", "17"],
        # single-box subcommands: a repeated --radius would be ignored
        ["estimate", "--radius", "4", "--radius", "8", "--p", "0.3"],
        ["lln", "--mode", "annealed", "--radius", "4", "--radius", "8", "--p", "0.7"],
        ["clt", "--mode", "quenched", "--radius", "4", "--radius", "8", "--p", "0.3"],
        ["clt", "--mode", "annealed", "--regime", "subcritical", "--radius", "4", "--radius", "8",
         "--p", "0.2"],
        ["weighted-lln", "--radius", "4", "--radius", "8", "--p", "0.3"],
        # a flag the chosen run would not read
        ["lln", "--mode", "annealed", "--radius", "4", "--p", "0.7", "--color-replicates", "50"],
        ["lln", "--mode", "quenched", "--radius", "4", "--p", "0.7", "--color-replicates", "1"],
        ["clt", "--mode", "annealed", "--regime", "subcritical", "--radius", "4", "--p", "0.2",
         "--color-replicates", "1000"],
        ["clt", "--mode", "quenched", "--regime", "supercritical", "--radius", "4", "--p", "0.3"],
        ["cluster-clt", "--radius", "4", "--radius", "8", "--p", "0.7", "--margin", "2"],
        # supercritical with no stand-in cluster: no replicate could span the box
        ["clt", "--mode", "annealed", "--regime", "supercritical", "--radius", "8", "--p", "0.9",
         "--proxy", "disabled"],
    ],
)
def test_parse_rejects_bad_input(argv):
    with pytest.raises(UsageError):
        parse_invocation(argv)


def test_seed_env_fallback(monkeypatch):
    monkeypatch.delenv("DCL_SEED", raising=False)
    inv = parse_invocation(["estimate", "--radius", "4", "--p", "0.5"])
    assert inv.config.master_seed == 0
    monkeypatch.setenv("DCL_SEED", "123")
    inv = parse_invocation(["estimate", "--radius", "4", "--p", "0.5"])
    assert inv.config.master_seed == 123
    # explicit flag wins over the environment
    inv = parse_invocation(["estimate", "--radius", "4", "--p", "0.5", "--seed", "9"])
    assert inv.config.master_seed == 9
    monkeypatch.setenv("DCL_SEED", "not-a-number")
    with pytest.raises(UsageError):
        parse_invocation(["estimate", "--radius", "4", "--p", "0.5"])


def test_report_schema_and_degenerate_estimate(capsys):
    code = main(
        ["estimate", "--dim", "2", "--radius", "8", "--p", "0",
         "--replicates", "5", "--proxy", "disabled"]
    )
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert set(report) == TOP_KEYS
    assert report["estimates"]["theta_hat"] == 0.0
    assert report["estimates"]["chi_f_hat"] == 1.0
    assert report["estimates"]["kappa_hat"] == 1.0
    config = report["config"]
    assert config["experiment"] == "estimate"
    # resolved defaults are echoed; scheduling knobs are not
    assert config["proxy_rule"] == "disabled"
    assert "workers" not in config


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--radius", "4", "--p", "0.3", "--replicates", "5"],
        ["cluster-clt", "--radius", "2", "--radius", "4", "--p", "0.7", "--graph-replicates", "5"],
    ],
    ids=["estimate", "cluster-clt"],
)
def test_colorless_reports_carry_no_color_measure(argv, capsys):
    main(argv)
    assert "nu" not in json.loads(capsys.readouterr().out)["config"]


def test_exit_code_on_failed_checks(capsys):
    # a 33^2 box leaves a 5x5 default window, whose lattice-valued statistic
    # cannot pass a continuous KS check; the failure must map to status 2
    code = main(
        ["clt", "--mode", "quenched", "--radius", "16", "--p", "0.3",
         "--nu", "two-point:-1,1,0.5", "--seed", "9"]
    )
    assert code == EXIT_TEST_FAILURE
    report = json.loads(capsys.readouterr().out)
    decisions = [t["decision"] for t in report["tests"]]
    assert "fail" in decisions


def test_exit_code_on_usage_error(capsys):
    code = main(["estimate", "--radius", "4", "--p", "1.5"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "usage error" in err and "--p" in err


@pytest.mark.parametrize(
    "nu,message",
    [
        ("discrete:1:nan,2:nan", "atom values and weights must be finite"),
        # finite atoms whose variance overflows a float, by an error or to inf
        ("two-point:-1e200,1e200,0.5", "two-point variance must be finite"),
        ("discrete:-1e200:0.5,1e200:0.5", "discrete variance must be finite"),
        ("two-point:1e308,-1e308,0.5", "two-point variance must be finite"),
    ],
    ids=["nan-weights", "two-point-overflow", "discrete-overflow", "two-point-inf"],
)
def test_non_finite_color_measure_is_a_usage_error(nu, message, capsys):
    for argv in (["lln", "--mode", "annealed"], ["clt", "--mode", "quenched"]):
        code = main([*argv, "--radius", "4", "--p", "0.5", "--nu", nu])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"usage error: --nu: {message}")


def test_box_too_large_is_a_usage_error(capsys):
    code = main(["estimate", "--dim", "2", "--radius", str(2**21), "--p", "0.4", "--replicates", "1"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("usage error: box side 4194305^2 needs about")


@pytest.mark.parametrize("seed", [2**127, -(2**127) - 1, 2**128])
@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--radius", "2", "--p", "0.4", "--replicates", "3"],
        ["gamma-sample", "--nu", "gaussian:0,1", "--samples", "10"],
        ["check-identity", "--radius", "2", "--p", "0.4", "--configs", "3"],
    ],
)
def test_out_of_range_seed_is_a_usage_error(argv, seed, monkeypatch, capsys):
    monkeypatch.delenv("DCL_SEED", raising=False)
    assert main(argv + ["--seed", str(seed)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("usage error: --seed: master seed must lie in the signed 128-bit range")
    monkeypatch.setenv("DCL_SEED", str(seed))
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("usage error: $DCL_SEED: master seed must lie in")


def test_importing_the_cli_loads_no_numpy_random():
    # Stream seeding imports numpy.random on first use, so start-up does not
    # pay for it. Older numpy loads it with numpy itself; only what importing
    # the CLI adds on top of plain `import numpy` counts.
    code = (
        "import sys, numpy\n"
        "def loaded(): return {m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']}\n"
        "before = loaded()\n"
        "import dcl.cli\n"
        "print(sorted(loaded() - before))\n"
    )
    src = str(Path(dcl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_seed_range_endpoints_accepted(monkeypatch):
    monkeypatch.delenv("DCL_SEED", raising=False)
    for seed in (2**127 - 1, -(2**127)):
        inv = parse_invocation(["estimate", "--radius", "2", "--p", "0.4", "--seed", str(seed)])
        assert inv.config.master_seed == seed


def test_contradicted_regime_exits_1(capsys):
    code = main(
        ["clt", "--mode", "annealed", "--regime", "supercritical", "--radius", "8",
         "--p", "0.1", "--graph-replicates", "10"]
    )
    assert code == EXIT_ERROR
    assert "supercritical declared but 0/10 replicates" in capsys.readouterr().err


def test_near_critical_warning_is_one_line_without_source(capsys):
    # The report gate keeps stderr: it must not name a package file or line,
    # or an edit above the warning's call would change it.
    code = main(["lln", "--mode", "quenched", "--radius", "8", "--p", "0.5", "--graph-replicates", "3"])
    assert code == EXIT_PASS
    err = capsys.readouterr().err
    assert err == (
        "warning: NearCriticalWarning: p=0.5 is within 0.02 of the d=2 critical point 0.5; "
        "asymptotic predictions are unreliable here\n"
    )
    assert "harness.py" not in err


def test_exit_code_on_unwritable_path(capsys):
    code = main(
        ["estimate", "--radius", "4", "--p", "0.4", "--replicates", "2",
         "--out", "/dev/null/nested/report.json"]
    )
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_check_identity_report(capsys):
    code = main(
        ["check-identity", "--dim", "2", "--radius", "4", "--p", "0.3",
         "--configs", "50", "--seed", "3"]
    )
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["estimates"] == {"n=4,p=0.3": {"configs": 50, "violations": 0}}
    assert all(t["decision"] == "pass" for t in report["tests"])


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "runs" / "report.json"
    code = main(
        ["estimate", "--radius", "4", "--p", "0.2", "--replicates", "3",
         "--out", str(out)]
    )
    assert code == EXIT_PASS
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert set(report) == TOP_KEYS


class _CLibrary:
    """A C library as ctypes.CDLL(None) returns it, recording its mallopt calls if it has one."""

    def __init__(self, has_mallopt):
        self.calls = []
        if has_mallopt:
            self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


@pytest.mark.parametrize("has_mallopt", [True, False], ids=["glibc", "no-mallopt"])
def test_run_sets_both_allocator_thresholds_or_none(has_mallopt, tmp_path, monkeypatch):
    # glibc gets both thresholds, since setting one alone stops it adapting
    # the other; a C library without mallopt is left alone. Either way the
    # report is the one a run writes without the stand-in.
    argv = ["estimate", "--radius", "6", "--p", "0.7", "--replicates", "20", "--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "real.json")]) == EXIT_PASS
    library = _CLibrary(has_mallopt)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: library)
    assert main(argv + ["--out", str(tmp_path / "stub.json")]) == EXIT_PASS
    reports = [json.loads((tmp_path / f"{name}.json").read_text()) for name in ("real", "stub")]
    for report in reports:
        report.pop("timing")
    assert reports[0] == reports[1]
    assert library.calls == ([(-3, 32 << 20), (-1, 1 << 30)] if has_mallopt else [])


@pytest.mark.parametrize(
    "argv,config_keys",
    [
        (["estimate", "--radius", "3", "--p", "0.3", "--replicates", "4"],
         {"experiment", "d", "radii", "p", "graph_replicates", "master_seed", "margin", "proxy_rule"}),
        (["lln", "--mode", "quenched", "--radius", "2", "--radius", "4", "--p", "0.7",
          "--graph-replicates", "3"],
         {"experiment", "d", "radii", "p", "nu", "graph_replicates", "master_seed", "margin",
          "proxy_rule"}),
        (["lln", "--mode", "annealed", "--radius", "4", "--p", "0.7", "--graph-replicates", "5"],
         {"experiment", "d", "radii", "p", "nu", "graph_replicates", "master_seed", "margin",
          "proxy_rule"}),
        (["clt", "--mode", "quenched", "--radius", "4", "--p", "0.3",
          "--color-replicates", "20", "--graph-replicates", "3"],
         {"experiment", "d", "radii", "p", "nu", "graph_replicates", "color_replicates",
          "master_seed", "margin", "proxy_rule"}),
        (["clt", "--mode", "annealed", "--regime", "subcritical", "--radius", "4", "--p", "0.2",
          "--graph-replicates", "5", "--proxy", "disabled"],
         {"experiment", "d", "radii", "p", "nu", "graph_replicates", "master_seed", "margin",
          "proxy_rule", "regime"}),
        (["cluster-clt", "--radius", "2", "--radius", "4", "--p", "0.7", "--graph-replicates", "5"],
         {"experiment", "d", "radii", "p", "graph_replicates", "master_seed", "proxy_rule",
          "ratio_rtol"}),
        (["weighted-lln", "--radius", "4", "--p", "0.3", "--graph-replicates", "5"],
         {"experiment", "d", "radii", "p", "nu", "graph_replicates", "master_seed", "margin",
          "proxy_rule", "ratio_rtol"}),
        (["gamma-sample", "--nu", "two-point:-1,1,0.3", "--samples", "50"],
         {"experiment", "nu", "chi_f", "sigma_p2", "samples", "master_seed"}),
        (["check-identity", "--radius", "3", "--p", "0.4", "--configs", "5"],
         {"experiment", "d", "radii", "p_values", "configs", "master_seed", "proxy_rule", "margin"}),
    ],
    ids=[
        "estimate", "lln-quenched", "lln-annealed", "clt-quenched", "clt-annealed",
        "cluster-clt", "weighted-lln", "gamma-sample", "check-identity",
    ],
)
def test_every_subcommand_writes_one_schema(argv, config_keys, capsys):
    code = main(argv + ["--seed", "4"])
    assert code in (EXIT_PASS, EXIT_TEST_FAILURE)  # statistical outcome aside
    report = json.loads(capsys.readouterr().out)
    assert set(report) == TOP_KEYS
    assert report["config"]["experiment"]
    assert set(report["config"]) == config_keys
    streams = report["seeds"]["streams"]
    assert isinstance(streams, list) and streams
    for stream in streams:
        assert set(stream) == {"role", "count"}
        assert isinstance(stream["role"], str) and isinstance(stream["count"], int)
    assert isinstance(report["timing"]["wall_seconds"], float)


GAMMA_KEYS = {"type", "chi_f", "sigma_p2", "nu", "components"}


def test_mixture_gamma_is_written_by_its_parameters(tmp_path, capsys):
    code = main(["gamma-sample", "--nu", "two-point:-1,1,0.3", "--chi-f", "1.5",
                 "--sigma-p2", "0.5", "--samples", "50", "--seed", "4"])
    assert code == EXIT_PASS
    gamma = json.loads(capsys.readouterr().out)["predictions"]["gamma"]
    assert gamma == {
        "type": "gaussian-mixture", "chi_f": 1.5, "sigma_p2": 0.5,
        "nu": {"type": "two-point", "a": -1.0, "b": 1.0, "alpha": 0.3}, "components": 2,
    }
    # Gaussian colors: 231 quadrature components, written as their count.
    gate_path = Path(__file__).resolve().parents[1] / "tools" / "report_gate.py"
    spec = importlib.util.spec_from_file_location("report_gate", gate_path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    out = tmp_path / "report.json"
    assert main(gate.gate_argv(gate.INVOCATIONS["clt-annealed-gaussian"], out, "json")) == EXIT_PASS
    text = out.read_text()
    gamma = json.loads(text)["predictions"]["gamma"]
    assert set(gamma) == GAMMA_KEYS and gamma["components"] == 231
    assert len(text.splitlines()) <= 100


def test_gamma_sample_csv_round_trip(tmp_path):
    out = tmp_path / "gamma.json"
    code = main(
        ["gamma-sample", "--nu", "two-point:-1,1,0.5", "--chi-f", "1.0",
         "--sigma-p2", "0.5", "--samples", "2000", "--seed", "11",
         "--format", "csv", "--out", str(out)]
    )
    assert code == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["predictions"]["gamma"]
    dump = tmp_path / "gamma_gamma_draw.csv"
    lines = dump.read_text().splitlines()
    assert lines[0] == "index,gamma_draw (dimensionless)"
    values = [float(line.split(",", 1)[1]) for line in lines[1:]]
    assert len(values) == 2000
    # repr round-trips doubles, so the dump reproduces the summary exactly
    resummary = summarize(values).to_dict()
    for key, value in report["estimates"]["draw_summary"].items():
        assert math.isclose(resummary[key], value, rel_tol=1e-12, abs_tol=1e-300)


# At radius 16 a stack holds 15 graphs, so 60 graphs are 4 stacks and
# 1024 colorings are 4 chunks: several workers share each loop. With
# margin 4 the quenched window reads about 400 cluster ids, so each chunk
# holds several coloring blocks and ends in a partial one. Its colors are
# not dyadic, so its sums round and a summation order that followed the
# worker count would show.
@pytest.mark.parametrize(
    "argv",
    [
        ["lln", "--mode", "annealed", "--radius", "16", "--p", "0.7",
         "--nu", "two-point:-1,1,0.7", "--graph-replicates", "60"],
        ["clt", "--mode", "quenched", "--radius", "16", "--p", "0.3", "--nu", "two-point:-0.3,1.1,0.3",
         "--margin", "4", "--graph-replicates", "60", "--color-replicates", "1024"],
        ["clt", "--mode", "annealed", "--regime", "supercritical", "--radius", "16", "--p", "0.7",
         "--nu", "two-point:-1,1,0.3", "--graph-replicates", "60"],
    ],
    ids=["lln-annealed", "clt-quenched", "clt-annealed"],
)
def test_worker_count_reports_byte_identical(argv, tmp_path):
    reports = []
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}.json"
        main(argv + ["--seed", "5", "--workers", str(workers), "--out", str(out)])
        report = json.loads(out.read_text())
        report.pop("timing")
        reports.append(json.dumps(report, sort_keys=True))
    # every stream counted, whichever worker derived it
    assert reports[1] == reports[0] and reports[2] == reports[0]
    report = json.loads(reports[0])
    assert set(report) == TOP_KEYS - {"timing"}


def test_estimate_workers_reach_the_engine(tmp_path, monkeypatch):
    seen = []
    real = percolation.map_ordered

    def spy(fn, count, workers=1):
        seen.append(workers)
        return real(fn, count, workers)

    monkeypatch.setattr(percolation, "map_ordered", spy)
    # 300 replicates of a 17x17 box fill six stacks, so two workers share them
    argv = ["estimate", "--radius", "8", "--p", "0.3", "--replicates", "300", "--seed", "5"]
    out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
    assert main(argv + ["--workers", "1", "--out", str(out1)]) == EXIT_PASS
    assert main(argv + ["--workers", "2", "--out", str(out2)]) == EXIT_PASS
    assert seen == [1, 2]
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    a.pop("timing"), b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_csv_dump_is_one_repr_per_row(tmp_path):
    # Signed zeros, NaNs of both signs, infinities, subnormals, repeated
    # lattice values and one-row series: each row is the value's own repr,
    # as a plain per-row join writes it.
    samples = {
        "mixed": [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.5, -1.0, 2.5,
                  -0.0, 0.1 + 0.2, -math.nan, 2.5, 0.0, -1.0, 1e300, math.inf],
        "single": [-0.0],
        "constant": [2.5] * 7,
    }
    out = tmp_path / "r.json"
    invocation = cli.CliInvocation("estimate", lambda: None, None, {}, out, "csv")
    cli._emit({}, samples, invocation)
    for name, values in samples.items():
        rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(values))
        expected = f"index,{name} (dimensionless)\n{rows}"
        assert (tmp_path / f"r_{name}.csv").read_bytes() == expected.encode()


def test_csv_dumps_per_sample_series(tmp_path):
    out = tmp_path / "cc.json"
    code = main(
        ["cluster-clt", "--radius", "4", "--radius", "8", "--p", "0.8",
         "--graph-replicates", "10", "--seed", "2", "--format", "csv",
         "--out", str(out)]
    )
    assert code in (EXIT_PASS, EXIT_TEST_FAILURE)  # statistical outcome aside
    report = json.loads(out.read_text())
    assert set(report) == TOP_KEYS
    for name in ("statistic_n4", "statistic_n8"):
        dump = tmp_path / f"cc_{name}.csv"
        lines = dump.read_text().splitlines()
        assert lines[0].startswith("index,")
        assert len(lines) == 11
