"""The benchmark's workloads: how inputs are built, what a trial runs, and
how every trial's output is checked.

A run with ``--seed s`` picks ``input_sets`` generator seeds out of a pool of
``POOL_SIZE`` pinned seeds per workload, so the same seed always gives the
same inputs, different seeds give different inputs, and
``reference.json`` holds the output of every pool member at the commit that
recorded it.  Each set-up builds one input set with ``qcomb generate``;
trials cycle through the input sets.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

POOL_SIZE = 16
FLOAT_TOL = 1e-12
MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class Cmd:
    """One ``qcomb`` command of a trial.

    ``label`` keys the command's reference entry; ``check`` names the
    invariant its output must satisfy.  A ``statistical`` check may fail
    without the program being wrong: sampled solvers mis-recover with some
    probability, and such a trial counts as failed but not as incorrect.
    """

    label: str
    argv: tuple[str, ...]
    out: str | None = None
    check: str | None = None
    statistical: bool = False


@dataclass(frozen=True)
class InputSet:
    gen_seed: int
    dir: Path
    files: dict[str, str]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json and README.md."""

    name: str
    base_seed: int
    input_sets: int
    setup: Callable[[Path, int], tuple[list[tuple[str, ...]], dict[str, str]]]
    trial: Callable[[InputSet], list[Cmd]]

    def pool(self) -> list[int]:
        return list(range(self.base_seed, self.base_seed + POOL_SIZE))

    def gen_seeds(self, seed: int) -> list[int]:
        return random.Random(f"{self.name}:{seed}").sample(self.pool(), self.input_sets)


def _chain_args(n: int) -> tuple[str, ...]:
    return ("--family", "isometric-chain", "--n", str(n), "--dim", "2", "--mem-dim", "2", "--d-env", "1")


def chain_setup(n: int):
    def setup(d: Path, g: int):
        proc = str(d / "chain.json")
        cmds = [("generate", *_chain_args(n), "--seed", str(g), "--out", proc)]
        return cmds, {"process": proc}

    return setup


def chain_exact_trial(inp: InputSet) -> list[Cmd]:
    proc, res = inp.files["process"], str(inp.dir / "exact.json")
    return [
        Cmd("unravel-exact", ("unravel", "--process", proc, "--mode", "exact", "--out", res),
            out=res, check="membership"),
        Cmd("verify", ("verify", "--process", proc, "--unravelling", res)),
        Cmd("report", ("report", "--result", res), check="report"),
    ]


def chain_sampled_trial(inp: InputSet) -> list[Cmd]:
    proc, res = inp.files["process"], str(inp.dir / "sampled.json")
    return [
        Cmd("unravel-sampled",
            ("unravel", "--process", proc, "--mode", "sampled", "--chi-min", "0.3",
             "--kappa", "0.1", "--rank-bound", "1", "--seed", str(inp.gen_seed), "--out", res),
            out=res, check="membership", statistical=True),
        Cmd("report", ("report", "--result", res), check="report"),
    ]


def pairwise_setup(d: Path, g: int):
    order, prod = str(d / "order.json"), str(d / "prod.json")
    cmds = [
        ("generate", "--family", "total-order-chain", "--n", "3", "--dim", "2", "--seed", str(g), "--out", order),
        ("generate", "--family", "memoryless", "--n", "3", "--dim", "2", "--seed", str(g), "--out", prod),
    ]
    return cmds, {"order": order, "prod": prod}


def pairwise_trial(inp: InputSet) -> list[Cmd]:
    f, g = inp.files, str(inp.gen_seed)
    cmds = []
    for algo, proc, check in (("total-order", f["order"], "truth"), ("memoryless", f["prod"], "membership")):
        for mode, extra in (("exact", ()), ("sampled", ("--queries", "20000"))):
            out = str(inp.dir / f"{algo}-{mode}.json")
            cmds.append(Cmd(
                f"unravel-{algo}-{mode}",
                ("unravel", "--process", proc, "--algorithm", algo, "--mode", mode, *extra,
                 "--seed", g, "--out", out),
                out=out, check=check, statistical=mode == "sampled"))
    csv = str(inp.dir / "outcomes.csv")
    cmds.append(Cmd("sample", ("sample", "--process", f["order"], "--queries", "100000",
                               "--seed", g, "--out", csv), out=csv, check="csv"))
    return cmds


GENERATE_FAMILIES = (
    ("chain-n5", _chain_args(5)),
    ("chain-n4", _chain_args(4)),
    ("total-order-n3", ("--family", "total-order-chain", "--n", "3", "--dim", "2")),
    ("memoryless-n4", ("--family", "memoryless", "--n", "4", "--dim", "2")),
)


def generate_setup(d: Path, g: int):
    """No input files: the set-up generates each family once at n=2.

    That warm-up runs the code paths the timed trials use (Haar draws,
    composition, rejection probes, eigensolves, JSON writing), so the first
    timed trial pays no first-call costs.
    """
    cmds = []
    for name, args in GENERATE_FAMILIES:
        small = list(args)
        small[small.index("--n") + 1] = "2"
        cmds.append(("generate", *small, "--seed", str(g), "--out", str(d / f"warm-{name}.json")))
    return cmds, {}


def generate_trial(inp: InputSet) -> list[Cmd]:
    cmds = []
    for name, args in GENERATE_FAMILIES:
        out = str(inp.dir / f"{name}.json")
        cmds.append(Cmd(f"generate-{name}", ("generate", *args, "--seed", str(inp.gen_seed), "--out", out),
                        out=out, check="generated"))
    return cmds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain-exact", 1000, 3, chain_setup(5), chain_exact_trial),
        Workload("chain-sampled", 2000, 3, chain_setup(5), chain_sampled_trial),
        Workload("pairwise", 3000, 3, pairwise_setup, pairwise_trial),
        Workload("generate", 4000, 6, generate_setup, generate_trial),
    )
}


# -- output normalisation and comparison ------------------------------------------


def _flag(cmd: Cmd, flag: str) -> str:
    return cmd.argv[cmd.argv.index(flag) + 1]


def _truth_path(process: str) -> Path:
    """Where ``qcomb generate --out process`` writes the ground truth."""
    return Path(process).with_suffix(".truth.json")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def normalise(cmd: Cmd) -> dict | None:
    """The parts of a command's output that the reference pins."""
    if cmd.out is None:
        return None
    if cmd.check == "csv":
        with open(cmd.out, "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        return {"rows": rows, "sha256": sha256(cmd.out)}
    if cmd.check == "generated":
        truth = json.loads(_truth_path(cmd.out).read_text())
        return {k: truth.get(k) for k in ("ordering", "chi_min_achieved", "kraus_rank", "permutation")}
    obj = json.loads(Path(cmd.out).read_text())
    return {
        "steps": obj["steps"],
        "queries": obj["queries"],
        "warnings": obj["warnings"],
        "certificate": obj["certificate"],
        "error_bound": obj["error_bound"],
        "chi_hat": obj.get("chi_hat"),
    }


def differences(expected, got, where: str = "") -> list[str]:
    """Floats must agree within FLOAT_TOL; everything else exactly."""
    if isinstance(expected, dict) and isinstance(got, dict):
        if expected.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(expected)}"]
        out = []
        for k in expected:
            out += differences(expected[k], got[k], f"{where}.{k}")
        return out
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{where}: length {len(got)} != {len(expected)}"]
        out = []
        for i, (e, g) in enumerate(zip(expected, got)):
            out += differences(e, g, f"{where}[{i}]")
        return out
    numbers = (int, float)
    if (
        isinstance(expected, numbers) and isinstance(got, numbers)
        and not isinstance(expected, bool) and not isinstance(got, bool)
        and (isinstance(expected, float) or isinstance(got, float))
    ):
        return [] if abs(expected - got) <= FLOAT_TOL else [f"{where}: {got!r} != {expected!r}"]
    return [] if expected == got and type(expected) is type(got) else [f"{where}: {got!r} != {expected!r}"]


class Checker:
    """Checks trial outputs; memoises the expensive invariant checks.

    The invariant of one (process file content, output) pair never changes,
    so a repeated output reuses its verdict, while every trial's output is
    still compared with the reference.
    """

    def __init__(self, reference: dict[str, dict]) -> None:
        self.reference = reference
        self._memo: dict[tuple, str | None] = {}

    def check(self, workload: str, inp: InputSet, cmd: Cmd, rc: int, stdout: str):
        """(exact failures, statistical failures, normalised output) of one command."""
        if rc != 0:
            return [f"{cmd.label}: exit code {rc} {stdout.strip()[-200:]}"], [], None
        if cmd.check == "report" and not stdout.startswith("unravelling ("):
            return [f"{cmd.label}: unexpected report output"], [], None
        try:
            got = normalise(cmd)
        except (OSError, ValueError, KeyError) as exc:
            return [f"{cmd.label}: unreadable output: {exc}"], [], None
        if got is None:
            return [], [], None
        exact: list[str] = []
        key = f"{workload}/{inp.gen_seed}/{cmd.label}"
        if key not in self.reference:
            exact.append(f"{cmd.label}: no reference entry {key}")
        else:
            exact += [f"{cmd.label}{d}" for d in differences(self.reference[key], got)]
        problem = self._invariant(cmd, got)
        if problem is None:
            return exact, [], got
        if cmd.statistical:
            return exact, [f"{cmd.label}: {problem}"], got
        return exact + [f"{cmd.label}: {problem}"], [], got

    def _invariant(self, cmd: Cmd, got: dict) -> str | None:
        if cmd.check == "csv":
            want = int(_flag(cmd, "--queries"))
            return None if got["rows"] == want else f"{got['rows']} rows, expected {want}"
        if cmd.check == "truth":
            truth = json.loads(_truth_path(_flag(cmd, "--process")).read_text())["ordering"]
            return None if got["steps"] == truth else "ordering differs from the generator's ground truth"
        if cmd.check == "membership":
            return self._membership(_flag(cmd, "--process"), got["steps"])
        if cmd.check == "generated":
            return self._membership(cmd.out, got["ordering"])
        return None

    def _membership(self, process_path: str, steps: list) -> str | None:
        from qcomb.channels import Unravelling, comb_membership
        from qcomb.cli import load_process

        key = (sha256(process_path), json.dumps(steps, sort_keys=True))
        if key not in self._memo:
            ok = comb_membership(
                load_process(process_path), Unravelling.from_json({"steps": steps}), MEMBERSHIP_TOL
            )
            self._memo[key] = None if ok else f"comb_membership fails at tol {MEMBERSHIP_TOL:g}"
        return self._memo[key]
