"""Golden stdout: each benchmark command line and each CLI line the CI
workflow runs exits with the code and prints the bytes pinned, by sha256, in
``golden_stdout.json``, with every eigensolver made to raise.

An update of the golden file is a deliberate change of output: after one,
``PYTHONPATH=src python tests/test_golden.py`` rewrites it from the tree on
the path.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ergofilt import densela
from ergofilt.cli import cli_main

GOLDEN = Path(__file__).with_name("golden_stdout.json")
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# the CLI lines: the two the CI workflow runs through the console script;
# the largest chain the tests run (2^16 states, where each block that
# filters._errors reduces holds a single output); the couplings -1, 0 and 0.5, and
# beta 5 at coupling -1.3, where eigh's 1 - gamma_1 would cancel, all with
# no eigensolver; degree 2000, past where T_k(m0) and S_k overflow; eleven
# values alternating +-1e308; the widest Bernstein weight loop (c = 379); and
# two cold frustrated rings, whose Gibbs weights and sigmoids overflow and
# which exit 2 on validation of pi alone. Warnings are errors in Tier-1, so a
# numpy warning fails
CI_LINES = [
    "cycle-walk --paper-defaults",
    "glauber --p 10 --beta 400 --seed 1",
    "glauber --p 16 --k-max 20 --seed 1",
    *(
        f"glauber --p {p} --coupling {j} --k-max 5 --seed 1"
        for p in range(3, 9)
        for j in ("-1", "0", "0.5")
    ),
    "glauber --p 6 --beta 5 --coupling -1.3 --k-max 20 --seed 1",
    "cycle-walk --p 11 --k-max 2000 --paper-defaults",
    "cycle-walk --signal=" + ",".join(["1e308", "-1e308"] * 5 + ["1e308"]),
    "cycle-walk --p 11 --k-max 400 --lambda-low 1.9 --paper-defaults",
    "glauber --p 9 --coupling -1 --beta 110 --seed 1",
    "glauber --p 5 --coupling -1 --beta 200 --seed 1",
]


def _benchmark_lines() -> list[str]:
    """The 60 command lines of the benchmark's three workloads at seeds 1-10,
    read from ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [
        " ".join(variant.argv())
        for name in workloads.WORKLOADS
        for seed in range(1, 11)
        for variant in workloads.variants(name, seed)
    ]


LINES = _benchmark_lines() + CI_LINES


def _run(line: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(line.split())
    return {"code": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _refuse(*args, **kwargs):
    raise AssertionError("eigensolver called on a CLI path")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_every_line_once(golden):
    assert len(set(LINES)) == len(LINES) == 60 + len(CI_LINES)
    assert sorted(golden) == sorted(LINES)


@pytest.mark.parametrize("line", LINES)
def test_stdout_matches_golden(monkeypatch, golden, line):
    # densela only passes through to eigh, so numpy's own calls are refused too
    monkeypatch.setattr(densela, "symmetric_eigen", _refuse)
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, _refuse)
    assert _run(line) == golden[line]


if __name__ == "__main__":
    # one line per command line
    entries = [f" {json.dumps(line)}: {json.dumps(_run(line))}" for line in LINES]
    GOLDEN.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
