"""qcomb benchmark: run one workload through ``qcomb.cli.main`` in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain-exact --seed 1 --seconds 10 --trace 0

Each workload is a closed loop: one process runs one trial at a time, with
BLAS pinned to one thread.  ``--trace 0`` measures the end-to-end metrics.
``--trace 1`` alternates untraced and traced trials for twice ``--seconds``
and reports the per-layer split plus the tracing overhead.  The last line of
standard output is one JSON object; the lines above it print every metric by
name and unit.  ``--record`` rewrites ``reference.json`` from the current
code.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS thread, so runs are steady on
# a shared machine and form a single-threaded baseline.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
# Cheap set-ups repeat round-robin until SETUP_MIN_S of set-up time or
# SETUP_MAX set-ups, so their median rests on many samples.
SETUP_MIN_S = 1.0
SETUP_MAX = 16
# Median SpeedProbe time on the machine that defined the benchmark
# (2 vCPU x86-64, numpy 2.4 with OpenBLAS, one thread).
PROBE_NOMINAL_S = 0.075

# trials_per_s, trial_s_* and setup_s are speed-adjusted (see SpeedProbe);
# their wall-clock values are reported beside them with a _wall suffix.
E2E_UNITS = {
    "trials_per_s": "1/s",
    "trial_s_p50": "s",
    "trial_s_tail": "s",
    "setup_s": "s",
    "failed_frac": "ratio",
    "queries_per_trial": "count",
    "peak_rss_mb": "MiB",
}


def import_qcomb() -> None:
    """Import qcomb from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qcomb" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/qcomb not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import qcomb
    import qcomb.cli

    if Path(qcomb.__file__).resolve().parent != (src / "qcomb").resolve():
        raise SystemExit(f"error: imported qcomb from {qcomb.__file__}, not {src}")


def run_cli(argv) -> tuple[int, str]:
    """qcomb.cli.main with stdout and stderr captured; (exit code, stdout).

    An exception escaping the CLI would end ``python -m qcomb.cli`` with exit
    code 1, so it counts as exit code 1 here and its message is kept.
    """
    from qcomb.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001  a trial that crashed is a failed trial
            return 1, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


class SpeedProbe:
    """A fixed kernel that never touches qcomb, timed before every set-up and
    trial.  On a shared machine, wall times drift by 20% or more over tens of
    seconds as neighbours load the caches and memory.  Scaling each duration
    by PROBE_NOMINAL_S / probe time divides that drift out, so two commits
    compare at equal machine speed.  The mix (dense eigensolves, a Python
    loop, an unoptimised einsum) follows where qcomb spends its time.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.normal(size=(256, 256))
        self.sym = a + a.T
        self.tensor = rng.normal(size=(4,) * 5)
        self.mats = [rng.normal(size=(4, 4)) for _ in range(5)]

    def __call__(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(10):
            np.linalg.eigvalsh(self.sym)
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        np.einsum("abcde,af,bg,ch,di,ej->fghij", self.tensor, *self.mats)
        return time.perf_counter() - t0


def set_up(workload, d: Path, gen_seed: int) -> dict[str, str]:
    """Build one input set in ``d``; returns the workload's input files."""
    cmds, files = workload.setup(d, gen_seed)
    for argv in cmds:
        rc, _ = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"set-up command failed with exit code {rc}: {' '.join(argv)}")
    return files


def build_inputs(workload, workdir: Path, seed: int, probe: SpeedProbe):
    """Build every input set, then rebuild them round-robin while set-up
    time is under SETUP_MIN_S and fewer than SETUP_MAX set-ups ran.

    Returns the input sets and, per set-up, its wall seconds and the mean
    of the speed probes run just before and just after it."""
    from workloads import InputSet

    inputs, times = [], []
    for j, g in enumerate(workload.gen_seeds(seed)):
        d = workdir / f"input{j}"
        d.mkdir()
        inputs.append(InputSet(g, d, {}))
    j = 0
    before = probe()
    while j < len(inputs) or (sum(t for t, _ in times) < SETUP_MIN_S and j < SETUP_MAX):
        inp = inputs[j % len(inputs)]
        t0 = time.perf_counter()
        files = set_up(workload, inp.dir, inp.gen_seed)
        dt = time.perf_counter() - t0
        after = probe()
        times.append((dt, (before + after) / 2))
        before = after
        inp.files.update(files)
        j += 1
    return inputs, times


def run_trial(cmds) -> tuple[float, float, list[tuple[int, str]]]:
    """(wall seconds, CPU seconds of this process, per-command results)."""
    results = []
    c0, t0 = time.process_time(), time.perf_counter()
    for cmd in cmds:
        results.append(run_cli(cmd.argv))
    return time.perf_counter() - t0, time.process_time() - c0, results


def tail(times: list[float]) -> tuple[float, int, int]:
    """(value, percentile, trials beyond it) of the highest percentile that
    leaves at least 10 trials beyond it; the median when that is below 50."""
    n = len(times)
    pct = max(50, math.floor(100 * (n - 10) / n)) if n else 50
    s = sorted(times)
    pos = pct / 100 * (n - 1)
    lo = math.floor(pos)
    value = s[lo] + (s[min(lo + 1, n - 1)] - s[lo]) * (pos - lo)
    return value, pct, sum(1 for t in s if t > value)


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        b = cfg["Build Dependencies"]["blas"]
        blas = f"{b.get('name')} {b.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "qcomb_threads_flag": "accepted by the CLI, no effect; trials leave it at 1",
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload, seed: int, seconds: float, trace: bool, reference: dict, workdir: Path) -> dict:
    """Set up, run the closed loop, check every trial; returns the run record."""
    from tracer import Tracer
    from workloads import Checker

    probe = SpeedProbe()
    inputs, setups = build_inputs(workload, workdir, seed, probe)
    k = len(inputs)
    checker = Checker(reference)
    tracer = Tracer() if trace else None
    trials = []
    spent = {False: 0.0, True: 0.0}
    budget = 2 * seconds if trace else seconds
    i = 0
    before = probe()
    # Whole rounds over the input sets (pairs of rounds when tracing), so
    # every input set carries the same weight in the run's statistics.
    per_round = 2 * k if trace else k
    while sum(spent.values()) < budget or i % per_round:
        traced = trace and i % 2 == 1
        j = (i // 2 if trace else i) % k
        inp = inputs[j]
        cmds = workload.trial(inp)
        if traced:
            tracer.trial = i
            tracer.install()
        try:
            dt, cpu, results = run_trial(cmds)
        finally:
            if traced:
                tracer.uninstall()
        spent[traced] += dt
        after = probe()
        speed = (before + after) / 2
        before = after
        exact, stat, queries = [], [], 0
        for cmd, (rc, stdout) in zip(cmds, results):
            e, s, got = checker.check(workload.name, inp, cmd, rc, stdout)
            exact += e
            stat += s
            if got is not None and "queries" in got:
                queries += got["queries"]
        trials.append({
            "trial": i, "input": j, "gen_seed": inp.gen_seed, "traced": traced,
            "seconds": dt, "cpu_seconds": cpu, "probe_s": speed, "queries": queries,
            "exact_failures": exact, "statistical_failures": stat,
        })
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [t for t in trials if not t["traced"]]
    wall = [t["seconds"] for t in plain]
    adjusted = [t["seconds"] * PROBE_NOMINAL_S / t["probe_s"] for t in plain]
    setup_adjusted = [dt * PROBE_NOMINAL_S / speed for dt, speed in setups]
    tail_s, tail_pct, beyond = tail(adjusted)
    first_of_input = {}
    for t in plain:
        first_of_input.setdefault(t["input"], t)
    failed = sum(1 for t in trials if t["exact_failures"] or t["statistical_failures"])
    broken = sum(1 for t in trials if t["exact_failures"])
    e2e = {
        "trials_per_s": len(plain) / sum(adjusted),
        "trial_s_p50": statistics.median(adjusted),
        "trial_s_tail": tail_s,
        "setup_s": statistics.median(setup_adjusted),
        "failed_frac": failed / len(trials),
        "queries_per_trial": statistics.fmean(t["queries"] for t in first_of_input.values()),
        "peak_rss_mb": peak_rss_mb,
    }
    wall_metrics = {
        "trials_per_s_wall": len(plain) / sum(wall),
        "trial_s_p50_wall": statistics.median(wall),
        "trial_s_tail_wall": tail(wall)[0],
        "setup_s_wall": statistics.median(dt for dt, _ in setups),
        "probe_s_median": statistics.median([t["probe_s"] for t in trials] + [sp for _, sp in setups]),
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "gen_seeds": [inp.gen_seed for inp in inputs],
        "setups": [{"seconds": dt, "probe_s": speed} for dt, speed in setups],
        "end_to_end": e2e,
        "wall": wall_metrics,
        "tail": {"percentile": tail_pct, "trials": len(adjusted), "beyond": beyond},
        "attempted": len(trials),
        "failed": failed,
        "broken": broken,
        "correct": broken == 0,
        "trials": trials,
    }
    if trace:
        record["per_layer"], record["trace_info"] = per_layer(tracer, trials)
        record["spans"] = [list(span) for span in tracer.spans]
    return record


def per_layer(tracer, trials) -> tuple[dict, dict]:
    """Per-layer metrics of the traced trials.

    Counts are the mean per trial over one traced trial of each input set,
    so they repeat exactly; self times are the mean over all traced trials.
    """
    traced = [t for t in trials if t["traced"]]
    one_each = {}
    for t in traced:
        one_each.setdefault(t["input"], t["trial"])
    rounds = set(one_each.values())
    k = len(rounds)
    counts = tracer.summary(rounds)
    times = tracer.summary({t["trial"] for t in traced})
    n_traced = len(traced)
    metrics = {}
    for name in counts:
        metrics[f"{name}.calls"] = counts[name]["calls"] / k
        metrics[f"{name}.self_s"] = times[name]["self_s"] / n_traced
    eig = counts["tensors.eigensolve"]
    metrics["tensors.eigensolve.side3_sum"] = eig["extra"] / k
    metrics["tensors.eigensolve.max_side"] = eig["max_extra"]
    metrics["sampling.exact_cell_probabilities.cells"] = counts["sampling.exact_cell_probabilities"]["extra"] / k
    check = counts["algorithms.check_last"]
    metrics["algorithms.check_last.accept_ratio"] = check["extra"] / check["calls"] if check["calls"] else 0.0
    composes = tracer.generator_composes(rounds)
    draws = counts["synth.random_comb"]["calls"]
    metrics["synth.accept_ratio"] = draws / composes if composes else 0.0
    for layer in ("tensors", "channels", "sampling", "synth", "algorithms", "cli"):
        metrics[f"{layer}.self_s"] = sum(
            v["self_s"] for name, v in times.items() if name.startswith(layer + ".")
        ) / n_traced
    metrics["queries_per_trial"] = statistics.fmean(
        next(t["queries"] for t in traced if t["trial"] == r) for r in rounds
    )
    plain = [t["seconds"] for t in trials if not t["traced"]]
    traced_s = [t["seconds"] for t in traced]
    untraced_tps = len(plain) / sum(plain)
    traced_tps = n_traced / sum(traced_s)
    metrics["trace.overhead_trials_per_s"] = traced_tps - untraced_tps
    # Counts of each input's later traced trials must equal its first one's.
    repeat = True
    for t in traced:
        first = one_each[t["input"]]
        if t["trial"] != first:
            a, b = tracer.summary({first}), tracer.summary({t["trial"]})
            if {n: (v["calls"], v["extra"]) for n, v in a.items()} != {n: (v["calls"], v["extra"]) for n, v in b.items()}:
                repeat = False
    info = {
        "untraced_trials_per_s": untraced_tps,
        "traced_trials_per_s": traced_tps,
        "trace_coverage": tracer.root_seconds({t["trial"] for t in traced}) / sum(traced_s),
        "counts_repeat_within_run": repeat,
        "traced_trials": n_traced,
    }
    return metrics, info


def line_metrics(record: dict) -> dict:
    """The metrics BENCHMARK.json lists for this kind of run, with units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    source = record["per_layer"] if record["trace"] else record["end_to_end"]
    group = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in group}


def print_report(record: dict) -> None:
    print(f"qcomb benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}, generator seeds {record['gen_seeds']}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items()))
    tl = record["tail"]
    for name, value in record["end_to_end"].items():
        note = ""
        if name == "trial_s_tail":
            note = f"  (p{tl['percentile']} of {tl['trials']} trials, {tl['beyond']} beyond)"
        print(f"  {name:<20} {value:>14.6g} {E2E_UNITS[name]}{note}")
    print("  wall-clock, not speed-adjusted: "
          + ", ".join(f"{k} {v:.6g}" for k, v in record["wall"].items()))
    print(f"  attempted {record['attempted']}, failed {record['failed']} "
          f"(of which sampled mis-recoveries only: {record['failed'] - record['broken']}), "
          f"correct {record['correct']}")
    for t in record["trials"]:
        for msg in t["exact_failures"]:
            print(f"  FAIL trial {t['trial']} (generator seed {t['gen_seed']}): {msg}")
        for msg in t["statistical_failures"]:
            print(f"  mis-recovery trial {t['trial']} (generator seed {t['gen_seed']}): {msg}")
    if record["trace"]:
        for k, v in record["trace_info"].items():
            print(f"  {k:<32} {v}")
        for name, value in record["per_layer"].items():
            print(f"  {name:<50} {value:>14.6g}")


def reference_entries(workload, gen_seeds, parent: Path) -> dict:
    """Run one trial per generator seed and normalise its outputs."""
    from workloads import InputSet, normalise

    ref = {}
    for g in gen_seeds:
        with tempfile.TemporaryDirectory(dir=parent) as tmp:
            d = Path(tmp)
            trial = workload.trial(InputSet(g, d, set_up(workload, d, g)))
            _, _, results = run_trial(trial)
            for cmd, (rc, _) in zip(trial, results):
                if rc != 0:
                    raise RuntimeError(f"{workload.name} {g} {cmd.label}: exit code {rc}")
                got = normalise(cmd)
                if got is not None:
                    ref[f"{workload.name}/{g}/{cmd.label}"] = got
    return ref


def record_reference() -> None:
    """Write reference.json: the outputs of every pool member of every workload."""
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    ref = {}
    for w in WORKLOADS.values():
        ref.update(reference_entries(w, w.pool(), OUT))
        print(f"recorded {w.name}", flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite reference.json from the current code")
    args = ap.parse_args(argv)

    import_qcomb()
    from workloads import WORKLOADS

    if args.record:
        record_reference()
        return 0
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    reference = json.loads(REFERENCE.read_text())
    OUT.mkdir(exist_ok=True)
    info = machine_info()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), reference, Path(tmp))
    record["machine"] = info
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    print_report(record)
    # "failed" on the result line counts trials where the program misbehaved.
    # Pinned-seed sampled mis-recoveries are expected outcomes of a correct
    # program; they count in failed_frac and are printed above.
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["broken"],
        "metrics": line_metrics(record),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
