"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ergofilt import chains, cli
from ergofilt.cli import cli_main


def _parse_metadata(line):
    assert line.startswith("# ")
    pairs = dict(part.split("=") for part in line[2:].strip().split(", "))
    return float(pairs["lambda_low"]), float(pairs["pi_f"])


def test_cycle_walk_stdout(capsys):
    code = cli_main(["cycle-walk", "--paper-defaults"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 22
    lam, pi_f = _parse_metadata(lines[0])
    assert f"{lam:.4f}" == "0.0733"
    assert pi_f == pytest.approx(3.65)
    assert lines[1] == "degree,ergodic,bernstein,chebyshev,legendre"


def test_glauber_stdout_metadata(capsys):
    code = cli_main(["glauber", "--paper-defaults"])
    out = capsys.readouterr().out
    assert code == 0
    lam, _ = _parse_metadata(out.splitlines()[0])
    assert f"{lam:.3f}" == "0.155"
    assert lam == pytest.approx((1.0 - np.tanh(0.4)) / 4.0, abs=1e-10)


def test_explicit_p_k_max_seed(capsys):
    code = cli_main(["cycle-walk", "--p", "5", "--k-max", "3", "--seed", "17"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 5


def test_even_p_rejected(capsys):
    code = cli_main(["cycle-walk", "--p", "10", "--paper-defaults"])
    captured = capsys.readouterr()
    assert code == 1
    assert "odd" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["cycle-walk", "--p", "0"], "cycle length must be at least 3, got 0"),
        (["glauber", "--p", "-1"], "ring size must be at least 3, got -1"),
        (["glauber", "--p", "2"], "ring size must be at least 3, got 2"),
        (["cycle-walk", "--k-max", "0"], "k_max must be at least 1, got 0"),
    ],
    ids=["cycle-p0", "glauber-p-1", "glauber-p2", "k-max0"],
)
def test_bad_size_rejected_by_its_owner(capsys, argv, message):
    # the CLI passes --p and --k-max through; the chain builder or the
    # run's config names the rule each breaks
    code = cli_main([*argv, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _traced_main(argv):
    """``cli_main(argv)`` and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        return cli_main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oversized_ring_refused_before_allocating(capsys):
    # the enumeration cap is judged on --p alone, before GlauberParams makes
    # its p couplings (76 MiB here)
    code, peak = _traced_main(["glauber", "--p", "10000000", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: enumeration capped at 2^20 states, got p=10000000\n"
    assert peak < 1 << 20, peak


def test_bad_override_refused_before_building(capsys):
    # the override is judged with the config, before the 2^20-state chain
    # (344 MiB) is built and validated
    code, peak = _traced_main(["glauber", "--p", "20", "--lambda-low", "5", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: lambda_low must lie in (0, 2), got 5.0\n"
    assert peak < 1 << 20, peak


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "line, message",
    [
        ("glauber --p 9 --coupling -1 --beta 110 --seed 1", "stationary mass is NaN"),
        ("glauber --p 5 --coupling -1 --beta 200 --seed 1", "stationary mass is not strictly positive"),
    ],
    ids=["p9-beta110", "p5-beta200"],
)
def test_cold_frustrated_ring_exits_two(capsys, line, message):
    # a frustrated ring's gap bound stays positive at any temperature, so its
    # overflowing sigmoids and Gibbs weights are built, and validation of pi
    # alone refuses them, with no numpy warning
    code = cli_main(line.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"numerical failure: {message}")
    assert captured.err.count("\n") == 1


def test_unknown_flag_exits_one(capsys):
    code = cli_main(["cycle-walk", "--paper-defaults", "--frobnicate"])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage" in captured.err


def test_usage_errors_exit_one_and_help_exits_zero(monkeypatch, capsys):
    # argparse's own report of bad usage, its exit status 2 mapped to 1
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    code = cli_main(["cycle-walk", "--p", "x"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "usage: ergofilt cycle-walk [-h] [--p P] [--k-max K_MAX] [--signal SIGNAL]\n"
        "                           [--paper-defaults] [--seed SEED] [--out OUT]\n"
        "                           [--lambda-low LAMBDA_LOW] [--json]\n"
        "ergofilt cycle-walk: error: argument --p: invalid int value: 'x'\n"
    )
    code = cli_main(["glauber", "--help"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.startswith("usage: ergofilt glauber [-h]")
    assert "inverse temperature (default 0.2)" in captured.out


# argv whose first entry names an experiment is parsed by that experiment's
# parser alone; the rest go to the top-level parser. {signal} and {out} are
# files under the test's temporary directory
DISPATCH_ARGV = [
    ["cycle-walk", "--seed", "3", "--k-max", "4"],
    ["glauber", "--beta", "0.7", "--coupling", "-0.5", "--seed", "3", "--k-max", "3", "--json"],
    ["cycle-walk", "--signal", "@{signal}", "--k-max", "2", "--json"],
    ["cycle-walk", "--signal", "1,2,3,4,5,6,7,8,9,10,11", "--k-max", "2"],
    ["cycle-walk", "--paper-defaults", "--lambda-low", "0.5", "--k-max", "2", "--out", "{out}"],
    ["glauber", "--paper-defaults", "--k-max", "2", "--seed", "4"],
    ["cycle-walk", "--p=x"],
    ["cycle-walk", "--p=5", "--k", "5", "--seed", "1"],
    ["cycle-walk", "--seed", "1", "--seed", "2", "--k-max", "2"],
    ["cycle-walk", "--k-max"],
    ["glauber", "--lambda-low", "5", "--seed", "1"],
    ["cycle-walk", "-h"],
    ["glauber", "--help"],
    ["-h"],
    ["--help"],
    [],
    ["ring", "--seed", "1"],
    ["cycle-walk", "--seed", "1", "--frobnicate"],
    ["glauber", "--frobnicate", "x", "--seed", "1", "-q"],
    ["cycle-walk", "--seed", "1", "--", "--k-max", "2"],
    ["--seed", "1", "cycle-walk"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_dispatch_matches_top_level_parse(monkeypatch, capsys, tmp_path, argv):
    # exit code, stdout, stderr, any --out file and the Namespace are those of
    # a run whose argv goes through the top-level parser
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    (tmp_path / "signal.txt").write_text("8.53 6.22 3.50 5.13 4.01 0.75\n2.39 1.23 1.83 2.39 4.17\n")
    out = tmp_path / "out.csv"
    argv = [arg.format(signal=tmp_path / "signal.txt", out=out) for arg in argv]

    def run(parse, given):
        monkeypatch.setattr(cli, "_parse_args", parse)
        code = cli_main(given)
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        try:
            namespace = vars(parse(given))
        except SystemExit as exc:
            namespace = exc.code
        capsys.readouterr()
        return code, captured.out, captured.err, written, namespace

    dispatch = cli._parse_args
    dispatched = run(dispatch, argv)
    assert dispatched == run(cli._PARSER.parse_args, argv)
    # argv=None reads sys.argv[1:]
    monkeypatch.setattr(sys, "argv", ["ergofilt", *argv])
    assert run(dispatch, None) == dispatched


def test_missing_signal_source(capsys):
    code = cli_main(["cycle-walk"])
    captured = capsys.readouterr()
    assert code == 1
    assert "signal" in captured.err


def test_wrong_signal_length(capsys):
    code = cli_main(["cycle-walk", "--signal", "1,2,3"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "signal, message",
    [("1,x,3", "could not parse signal value: "), ("@{absent}", "{absent}")],
    ids=["unparsable", "missing-file"],
)
def test_unreadable_signal_exits_one(tmp_path, capsys, signal, message):
    absent = tmp_path / "absent.txt"
    code = cli_main(["cycle-walk", "--signal", signal.format(absent=absent)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ") and message.format(absent=absent) in captured.err
    assert captured.err.count("\n") == 1


def test_inline_signal(capsys):
    values = ",".join(str(v) for v in range(1, 12))
    code = cli_main(["cycle-walk", "--signal", values, "--k-max", "2"])
    out = capsys.readouterr().out
    assert code == 0
    _, pi_f = _parse_metadata(out.splitlines()[0])
    assert pi_f == pytest.approx(6.0)


def test_file_signal(tmp_path, capsys):
    path = tmp_path / "signal.txt"
    path.write_text("1, 2, 3 4\n5 6,7\n8 9 10 11\n")
    code = cli_main(["cycle-walk", "--signal", f"@{path}", "--k-max", "2"])
    out = capsys.readouterr().out
    assert code == 0
    _, pi_f = _parse_metadata(out.splitlines()[0])
    assert pi_f == pytest.approx(6.0)


def test_out_file_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli_main(["glauber", "--paper-defaults", "--k-max", "6", "--out", str(first)]) == 0
    assert cli_main(["glauber", "--paper-defaults", "--k-max", "6", "--out", str(second)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert first.read_bytes() == second.read_bytes()


def test_json_output(tmp_path):
    path = tmp_path / "table.json"
    code = cli_main(
        ["cycle-walk", "--paper-defaults", "--k-max", "3", "--json", "--out", str(path)]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["metadata"]["experiment"] == "cycle-walk"
    assert [row["degree"] for row in payload["rows"]] == [1, 2, 3]


def test_multiple_sources_note(capsys):
    code = cli_main(["cycle-walk", "--paper-defaults", "--seed", "5", "--k-max", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err != ""
    _, pi_f = _parse_metadata(captured.out.splitlines()[0])
    assert pi_f == pytest.approx(3.65)


def test_lambda_low_flag(capsys):
    code = cli_main(
        ["cycle-walk", "--paper-defaults", "--k-max", "2", "--lambda-low", "0.5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lam, _ = _parse_metadata(out.splitlines()[0])
    assert lam == pytest.approx(0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "extra",
    [["--k-max", "916"], ["--lambda-low", "1.9", "--k-max", "82"]],
    ids=["k916", "lam1.9-k82"],
)
def test_high_degree_runs_exit_zero(capsys, extra):
    # the degrees where the Legendre normalizer S_k = sum L~_k(0)^2 used to
    # overflow float64; the sweeps carry only bounded ratios, so every cell
    # is finite
    code = cli_main(["cycle-walk", "--p", "11", "--paper-defaults", *extra])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    lines = captured.out.splitlines()
    k_max = int(extra[-1])
    assert len(lines) == k_max + 2
    cells = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert cells[:, 0].tolist() == list(range(1, k_max + 1))
    assert np.all(np.isfinite(cells))


@pytest.mark.filterwarnings("error")
def test_low_temperature_glauber_exits_one(capsys):
    code = cli_main(["glauber", "--p", "10", "--beta", "400", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: gap bound degenerates")


def _run_module(*argv):
    """``python [argv]`` with ``src`` on the path, as a separate process."""
    src = str(Path(chains.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )


def test_near_maximum_signal_exits_zero():
    # |f| near the float64 maximum: the running average's fourth sum would
    # overflow, so the sweeps run on f scaled by a power of two and the
    # errors are scaled back; under -X dev -W error a numpy RuntimeWarning
    # would end the run with a traceback
    signal = ",".join(["1e308", "-1e308"] * 5 + ["1e308"])
    for mode in ([], ["-X", "dev", "-W", "error"]):
        run = _run_module(*mode, "-m", "ergofilt.cli", "cycle-walk", f"--signal={signal}")
        assert run.returncode == 0, (mode, run.stderr)
        assert run.stderr == ""
        lines = run.stdout.splitlines()
        assert lines[0] == "# lambda_low=0.0733333333333, pi_f=9.09090909091e+306"
        cells = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
        assert cells.shape == (20, 5)
        assert np.all(np.isfinite(cells))


def test_overflowing_sweep_exits_two():
    # an error itself past the float64 maximum: with three adjacent -1.7e308
    # among +1.7e308 the middle state's first average is -1.7e308, 16/11 of
    # 1.7e308 from the mean. It stays a typed error naming the first filter
    # and degree that fail, reported on one line
    signal = ",".join(["1.7e308"] * 8 + ["-1.7e308"] * 3)
    for mode in ([], ["-X", "dev", "-W", "error"]):
        run = _run_module(*mode, "-m", "ergofilt.cli", "cycle-walk", f"--signal={signal}")
        assert run.returncode == 2, (mode, run.stderr)
        assert run.stdout == ""
        assert run.stderr == (
            "numerical failure: non-finite ergodic filter error at degree 1\n"
        ), (mode, run.stderr)


def test_negative_seed_rejected(capsys):
    code = cli_main(["cycle-walk", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "seed" in captured.err


def test_success_stdout_clean(capsys):
    code = cli_main(["cycle-walk", "--paper-defaults", "--k-max", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.startswith("# lambda_low=")
