"""Byte-for-byte CLI output against stored golden files.

Each file in ``tests/golden/`` holds the exit code, stdout and stderr of one
command, run from the repository root with relative config paths. A change
that alters printed output on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and states why the output changed.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from stefan_thaw.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "solve_convective": ["solve", "configs/thaw_convective.cfg"],
    "solve_subcritical": ["solve", "configs/thaw_subcritical.cfg"],
    "solve_two_roots": ["solve", "configs/thaw_two_roots.cfg"],
    "solve_classical": ["solve", "configs/thaw_classical.cfg", "--mode", "classical"],
    "solve_temperature": ["solve", "configs/thaw_convective.cfg", "--mode", "temperature"],
    "solve_temperature_noroot": ["solve", "configs/thaw_convective.cfg", "--mode", "temperature",
                                 "--scan-max", "0.1"],
    "classify_convective": ["classify", "configs/thaw_convective.cfg"],
    "classify_subcritical": ["classify", "configs/thaw_subcritical.cfg"],
    "classify_two_roots": ["classify", "configs/thaw_two_roots.cfg"],
    "classify_classical": ["classify", "configs/thaw_classical.cfg", "--mode", "classical"],
    "sweep_convective": ["sweep", "configs/thaw_convective.cfg", "--h0-points", "8"],
    "equiv_convective": ["equiv", "configs/thaw_convective.cfg"],
    "verify_convective": ["verify", "configs/thaw_convective.cfg"],
    "verify_temperature": ["verify", "configs/thaw_convective.cfg", "--mode", "temperature"],
    "verify_perturbed": ["verify", "configs/thaw_convective.cfg", "--perturb-front", "1.01"],
    "verify_two_roots": ["verify", "configs/thaw_two_roots.cfg"],
    "verify_classical": ["verify", "configs/thaw_classical.cfg", "--mode", "classical"],
    "profile_convective": ["profile", "configs/thaw_convective.cfg", "--points", "16"],
    "profile_temperature": ["profile", "configs/thaw_convective.cfg", "--mode", "temperature",
                            "--points", "16"],
}


def run_case(argv) -> str:
    """Exit code, stdout and stderr of one CLI run, as one text."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run_case(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.txt").write_text(run_case(argv))
    sys.exit(0)
