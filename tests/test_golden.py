"""Pinned-seed CLI outputs at n=3, compared with the files under tests/golden/.

Every subcommand runs on seeded inputs: ``generate`` for three families,
``unravel`` with all four algorithms in exact and sampled mode, ``verify``
(passing and failing), ``report`` and ``sample``.  Their exit codes,
stdout, stderr and written files must match the recorded ones: floats
within 1e-12, everything else exactly.  Numbers inside printed text count
as floats when they carry a decimal point or an exponent.

Re-record only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
from pathlib import Path

import pytest

from qcomb.cli import main

GOLDEN = Path(__file__).parent / "golden"
FILES = GOLDEN / "files"
TRANSCRIPT = GOLDEN / "transcript.json"
FLOAT_TOL = 1e-12

_CHAIN = "--family isometric-chain --n 3 --dim 2 --mem-dim 2"
_SAMPLED = "--mode sampled --chi-min 0.3 --kappa 0.1 --rank-bound 1 --seed 9"

COMMANDS = (
    f"generate {_CHAIN} --d-env 1 --seed 42 --out chain.json",
    f"generate {_CHAIN} --d-env 2 --seed 11 --out mixed.json",
    "generate --family total-order-chain --n 3 --dim 2 --seed 5 --out order.json",
    "generate --family memoryless --n 3 --dim 2 --seed 7 --out prod.json",
    "unravel --process chain.json --algorithm recursive --mode exact --out recursive-exact.json",
    f"unravel --process chain.json --algorithm recursive {_SAMPLED} --out recursive-sampled.json",
    "unravel --process mixed.json --algorithm general-c --c 2 --mode exact --eta-max 0.3"
    " --out general-c-exact.json",
    f"unravel --process mixed.json --algorithm general-c --c 2 {_SAMPLED} --out general-c-sampled.json",
    "unravel --process order.json --algorithm total-order --mode exact --out total-order-exact.json",
    "unravel --process order.json --algorithm total-order --mode sampled --queries 2000 --seed 3"
    " --out total-order-sampled.json",
    "unravel --process prod.json --algorithm memoryless --mode exact --out memoryless-exact.json",
    "unravel --process prod.json --algorithm memoryless --mode sampled --queries 2000 --seed 3"
    " --out memoryless-sampled.json",
    "verify --process chain.json --unravelling recursive-exact.json",
    "verify --process mixed.json --unravelling general-c-exact.json",
    "verify --process order.json --unravelling prod.truth.json",
    "report --result recursive-exact.json",
    "report --result recursive-sampled.json",
    "report --result general-c-exact.json",
    "report --result general-c-sampled.json",
    "report --result total-order-exact.json",
    "report --result total-order-sampled.json",
    "report --result memoryless-exact.json",
    "report --result memoryless-sampled.json",
    "sample --process chain.json --queries 300 --seed 5 --out outcomes.csv",
)

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def run_commands(workdir: Path) -> list[dict]:
    """Run every command in ``workdir`` and return what each one printed."""
    transcript = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for cmd in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(cmd.split())
            transcript.append(
                {"argv": cmd, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
            )
    finally:
        os.chdir(cwd)
    return transcript


def _text_mismatch(got: str, want: str) -> str | None:
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    if len(g) != len(w):
        return f"{got!r} != {want!r}"
    for i, (a, b) in enumerate(zip(g, w)):
        if i % 2 == 0 or not re.search(r"[.eE]", a + b):
            if a != b:
                return f"{a!r} != {b!r} in {got!r}"
        elif abs(float(a) - float(b)) > FLOAT_TOL:
            return f"{a} differs from {b} by more than {FLOAT_TOL} in {got!r}"
    return None


def mismatch(got, want, path: str = "$") -> str | None:
    """First difference between two decoded outputs, or None when they match."""
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) <= FLOAT_TOL:
            return None
        return f"{path}: {got!r} differs from {want!r} by more than {FLOAT_TOL}"
    if type(got) is not type(want):
        return f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, str):
        msg = _text_mismatch(got, want)
        return f"{path}: {msg}" if msg else None
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        items = [(got[k], want[k], f"{path}.{k}") for k in want]
    elif isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        items = [(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(got, want))]
    else:
        return None if got == want else f"{path}: {got!r} != {want!r}"
    for a, b, p in items:
        msg = mismatch(a, b, p)
        if msg:
            return msg
    return None


def _decode(path: Path):
    text = path.read_text()
    return json.loads(text) if path.suffix == ".json" else text


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return workdir, run_commands(workdir)


def test_transcript_matches_golden(produced):
    _, transcript = produced
    assert mismatch(transcript, json.loads(TRANSCRIPT.read_text())) is None


def test_written_file_set_matches_golden(produced):
    workdir, _ = produced
    assert sorted(p.name for p in workdir.iterdir()) == sorted(p.name for p in FILES.iterdir())


@pytest.mark.parametrize("name", sorted(p.name for p in FILES.glob("*")))
def test_written_file_matches_golden(produced, name):
    workdir, _ = produced
    assert mismatch(_decode(workdir / name), _decode(FILES / name), name) is None


def record() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    FILES.mkdir(parents=True)
    transcript = run_commands(FILES)
    TRANSCRIPT.write_text(json.dumps(transcript, indent=2) + "\n")
    print(f"recorded {len(transcript)} commands and {len(list(FILES.iterdir()))} files")


if __name__ == "__main__":
    record()
