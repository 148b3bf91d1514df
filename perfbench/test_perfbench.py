"""Tests of the benchmark itself, on tiny n=2 chains.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run

run.import_qcomb()

from workloads import (  # noqa: E402  (qcomb must be importable first)
    Checker,
    InputSet,
    Workload,
    chain_exact_trial,
    chain_sampled_trial,
    chain_setup,
)

COUNT_SUFFIXES = (".calls", ".side3_sum", ".max_side", ".cells", "queries_per_trial")


def tiny_chain() -> Workload:
    def trial(inp):
        return chain_exact_trial(inp) + chain_sampled_trial(inp)

    return Workload("tiny-chain", 9000, 2, chain_setup(2), trial)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    w = tiny_chain()
    return w, run.reference_entries(w, w.gen_seeds(1), tmp_path_factory.mktemp("reference"))


def test_traced_counts_repeat_exactly(tiny, tmp_path):
    w, ref = tiny
    records = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        records.append(run.run_workload(w, 1, 0.01, True, ref, d))
    counts = [
        {k: v for k, v in r["per_layer"].items() if k.endswith(COUNT_SUFFIXES)} for r in records
    ]
    assert counts[0] == counts[1]
    assert counts[0]["tensors.eigensolve.side3_sum"] > 0
    assert counts[0]["queries_per_trial"] > 0
    for r in records:
        assert r["correct"]
        assert r["trace_info"]["counts_repeat_within_run"]


def test_altered_reference_queries_fail_every_trial(tiny, tmp_path):
    w, ref = tiny
    bad = json.loads(json.dumps(ref))
    for key, entry in bad.items():
        if key.endswith("unravel-sampled"):
            entry["queries"] += 1
    record = run.run_workload(w, 1, 0.01, False, bad, tmp_path)
    assert not record["correct"]
    assert record["failed"] == record["broken"] == record["attempted"]
    assert all(any("queries" in m for m in t["exact_failures"]) for t in record["trials"])


def test_swapped_step_in_result_is_a_failure(tiny, tmp_path):
    w, ref = tiny
    g = w.gen_seeds(1)[0]
    cmds, files = w.setup(tmp_path, g)
    for argv in cmds:
        assert run.run_cli(argv)[0] == 0
    inp = InputSet(g, tmp_path, files)
    unravel = chain_exact_trial(inp)[0]
    assert run.run_cli(unravel.argv)[0] == 0
    checker = Checker(ref)
    assert checker.check(w.name, inp, unravel, 0, "")[:2] == ([], [])

    out = Path(unravel.out)
    obj = json.loads(out.read_text())
    steps = obj["steps"]
    steps[0]["outputs"], steps[1]["outputs"] = steps[1]["outputs"], steps[0]["outputs"]
    out.write_text(json.dumps(obj))
    exact, statistical, _ = checker.check(w.name, inp, unravel, 0, "")
    assert any(".steps" in m for m in exact)
    assert any("comb_membership" in m for m in exact)
    assert statistical == []


def test_tail_leaves_ten_trials_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (pct, beyond) == (75, 10)
    assert value == pytest.approx(29.25)
    value, pct, _ = run.tail([3.0, 1.0, 2.0, 4.0])
    assert (value, pct) == (2.5, 50)
