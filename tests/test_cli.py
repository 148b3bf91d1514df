import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcomb.cli import _write_json, main
from qcomb.channels import choi_from_kraus
from qcomb.tensors import Direction, WireSystem

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def write_cnot(path):
    p = choi_from_kraus(
        [CNOT],
        (WireSystem("A1", 2, Direction.INPUT), WireSystem("A2", 2, Direction.INPUT)),
        (WireSystem("B1", 2, Direction.OUTPUT), WireSystem("B2", 2, Direction.OUTPUT)),
    )
    path.write_text(json.dumps(p.to_json()))
    return path


def gen_chain(tmp_path, n=3, seed=42, out="comb.json"):
    target = tmp_path / out
    code = main(
        [
            "generate", "--family", "isometric-chain", "--n", str(n),
            "--dim", "2", "--mem-dim", "2", "--d-env", "1",
            "--chi-min-target", "0.1", "--seed", str(seed),
            "--out", str(target),
        ]
    )
    assert code == 0
    return target, tmp_path / out.replace(".json", ".truth.json")


# -- generate ---------------------------------------------------------------------


def test_generate_writes_comb_and_truth(tmp_path):
    comb, truth = gen_chain(tmp_path)
    obj = json.loads(comb.read_text())
    assert "teeth" in obj and len(obj["teeth"]) == 3
    tobj = json.loads(truth.read_text())
    assert len(tobj["ordering"]) == 3
    assert tobj["kraus_rank"] == 1


def test_generate_is_byte_reproducible(tmp_path):
    a, at = gen_chain(tmp_path, out="a.json")
    b, bt = gen_chain(tmp_path, out="b.json")
    assert a.read_bytes() == b.read_bytes()
    assert at.read_bytes() == bt.read_bytes()


def test_generate_memoryless_truth_has_permutation(tmp_path):
    out = tmp_path / "prod.json"
    assert main(
        ["generate", "--family", "memoryless", "--n", "3", "--dim", "2",
         "--seed", "7", "--out", str(out)]
    ) == 0
    obj = json.loads(out.read_text())
    assert obj["repr"] == "choi"
    tobj = json.loads((tmp_path / "prod.truth.json").read_text())
    assert sorted(tobj["permutation"]) == [0, 1, 2]
    assert tobj["chi_min_achieved"] >= 0.1


def test_generate_rejects_bad_dims(tmp_path):
    code = main(
        ["generate", "--family", "memoryless", "--n", "2", "--dim", "0",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 2


# -- unravel ----------------------------------------------------------------------


def test_unravel_exact_then_verify_passes(tmp_path, capsys):
    comb, _ = gen_chain(tmp_path)
    result = tmp_path / "result.json"
    assert main(
        ["unravel", "--process", str(comb), "--algorithm", "recursive",
         "--mode", "exact", "--out", str(result)]
    ) == 0
    obj = json.loads(result.read_text())
    assert len(obj["steps"]) == 3
    assert obj["queries"] == 0
    capsys.readouterr()
    assert main(
        ["verify", "--process", str(comb), "--unravelling", str(result)]
    ) == 0
    out = capsys.readouterr().out
    assert "membership holds" in out
    assert "residual" in out


def test_unravel_general_c_on_cnot(tmp_path):
    proc = write_cnot(tmp_path / "cnot.json")
    result = tmp_path / "res.json"
    assert main(
        ["unravel", "--process", str(proc), "--algorithm", "general-c",
         "--c", "2", "--mode", "exact", "--out", str(result)]
    ) == 0
    obj = json.loads(result.read_text())
    assert obj["steps"] == [
        {"inputs": ["A1", "A2"], "outputs": ["B1", "B2"]}
    ]


def test_unravel_sampled_reports_query_count(tmp_path):
    comb, _ = gen_chain(tmp_path, n=2, seed=5)
    result = tmp_path / "res.json"
    assert main(
        ["unravel", "--process", str(comb), "--algorithm", "recursive",
         "--mode", "sampled", "--chi-min", "0.2", "--kappa", "0.05",
         "--rank-bound", "1", "--seed", "9", "--out", str(result)]
    ) == 0
    obj = json.loads(result.read_text())
    assert obj["mode"] == "sampled"
    assert obj["queries"] == 6 * obj["params"]["n_swap"]
    assert obj["queries"] <= 3 * 2**3 * obj["params"]["n_swap"]


def test_unravel_is_byte_reproducible(tmp_path):
    comb, _ = gen_chain(tmp_path, n=2, seed=5)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    flags = ["unravel", "--process", str(comb), "--algorithm", "recursive",
             "--mode", "sampled", "--chi-min", "0.2", "--rank-bound", "1",
             "--seed", "9"]
    assert main(flags + ["--out", str(r1)]) == 0
    assert main(flags + ["--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_unravel_tol_flag_acts(tmp_path):
    # A trace norm between two states is at most 2, so with --tol 10 the first
    # scanned candidate (A1, B1) passes at every stage and the recursion
    # returns the reversed ordering; the default tolerance finds the truth.
    proc = tmp_path / "order.json"
    assert main(
        ["generate", "--family", "total-order-chain", "--n", "3", "--dim", "2",
         "--seed", "5", "--out", str(proc)]
    ) == 0
    truth = json.loads((tmp_path / "order.truth.json").read_text())["ordering"]
    steps = {}
    for tol in ("1e-8", "10"):
        out = tmp_path / f"res-{tol}.json"
        assert main(
            ["unravel", "--process", str(proc), "--mode", "exact", "--tol", tol,
             "--out", str(out)]
        ) == 0
        steps[tol] = json.loads(out.read_text())["steps"]
    assert steps["1e-8"] == truth
    assert steps["10"] == truth[::-1]


def test_unravel_threads_flag_does_not_change_output(tmp_path):
    comb, _ = gen_chain(tmp_path, n=2, seed=5)
    r1, r2 = tmp_path / "t1.json", tmp_path / "t2.json"
    flags = ["unravel", "--process", str(comb), "--seed", "3"]
    assert main(flags + ["--threads", "1", "--out", str(r1)]) == 0
    assert main(flags + ["--threads", "4", "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_unravel_total_order_sampled_needs_queries(tmp_path):
    comb, _ = gen_chain(tmp_path, n=2)
    code = main(
        ["unravel", "--process", str(comb), "--algorithm", "total-order",
         "--mode", "sampled", "--out", str(tmp_path / "r.json")]
    )
    assert code == 2


def test_unravel_malformed_process_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"neither": 1}')
    assert main(
        ["unravel", "--process", str(bad), "--out", str(tmp_path / "r.json")]
    ) == 2
    bad.write_text("not json at all")
    assert main(
        ["unravel", "--process", str(bad), "--out", str(tmp_path / "r.json")]
    ) == 2
    assert main(
        ["unravel", "--process", str(tmp_path / "missing.json"),
         "--out", str(tmp_path / "r.json")]
    ) == 2


def test_choi_file_is_validated_densely_and_comb_file_on_its_factor(tmp_path, monkeypatch):
    import qcomb.channels as channels
    from qcomb.cli import load_process

    calls = []
    real = channels.validate_channel
    monkeypatch.setattr(channels, "validate_channel", lambda *a: calls.append(1) or real(*a))
    choi = load_process(str(write_cnot(tmp_path / "cnot.json")))
    assert choi.factor is None and calls == [1]
    comb, _ = gen_chain(tmp_path, n=2)
    assert load_process(str(comb)).factor is not None and calls == [1]


def test_comb_and_kraus_files_never_build_the_dense_choi(tmp_path, monkeypatch):
    import qcomb.channels as channels
    from qcomb.cli import load_process

    builds = []
    real = channels._assemble_choi
    monkeypatch.setattr(channels, "_assemble_choi", lambda *a: builds.append(1) or real(*a))
    comb, _ = gen_chain(tmp_path, n=3)
    kraus = tmp_path / "kraus.json"
    obj = json.loads(write_cnot(tmp_path / "cnot.json").read_text())
    del obj["choi"]
    obj.update(repr="kraus", kraus=[{"re": CNOT.real.tolist(), "im": CNOT.imag.tolist()}])
    kraus.write_text(json.dumps(obj))
    builds.clear()
    for proc in (comb, kraus):
        for mode in ("exact", "sampled"):
            out = tmp_path / f"{mode}.json"
            assert main(["unravel", "--process", str(proc), "--mode", mode, "--c", "2",
                         "--algorithm", "general-c", "--out", str(out)]) == 0
            assert main(["verify", "--process", str(proc), "--unravelling", str(out)]) == 0
    assert builds == []
    assert load_process(str(comb)).choi is not None and builds == [1]


def test_generation_error_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["generate", "--family", "memoryless", "--n", "2", "--dim", "2",
                 "--chi-min-target", "1.9", "--seed", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: memoryless: no draw reached") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_non_psd_choi_file_exits_2(tmp_path, capsys):
    # Unit trace and trace-preserving, but eigenvalues 0.5 +- 0.7.
    c = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    c[0, 3] = c[3, 0] = 0.7
    wires = [WireSystem("A1", 2, Direction.INPUT), WireSystem("B1", 2, Direction.OUTPUT)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "inputs": [wires[0].to_json()],
        "outputs": [wires[1].to_json()],
        "repr": "choi",
        "choi": {"wires": [x.to_json() for x in wires], "re": c.real.tolist(), "im": c.imag.tolist()},
    }))
    assert main(["unravel", "--process", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    assert "below the PSD floor" in capsys.readouterr().err


# -- verify -----------------------------------------------------------------------


def test_verify_truth_file_passes(tmp_path):
    comb, truth = gen_chain(tmp_path)
    assert main(["verify", "--process", str(comb), "--unravelling", str(truth)]) == 0


def test_verify_reversed_ordering_fails(tmp_path, capsys):
    # on a chain with cross-teeth signalling the reversed order is not a member
    out = tmp_path / "chain.json"
    assert main(
        ["generate", "--family", "total-order-chain", "--n", "2", "--dim", "2",
         "--seed", "11", "--out", str(out)]
    ) == 0
    truth = json.loads((tmp_path / "chain.truth.json").read_text())
    rev = tmp_path / "rev.json"
    rev.write_text(json.dumps({"ordering": truth["ordering"][::-1]}))
    capsys.readouterr()
    assert main(["verify", "--process", str(out), "--unravelling", str(rev)]) == 1
    assert "FAILED at step" in capsys.readouterr().out


def test_verify_trivial_single_step_always_passes(tmp_path):
    proc = write_cnot(tmp_path / "cnot.json")
    triv = tmp_path / "triv.json"
    triv.write_text(
        json.dumps({"steps": [{"inputs": ["A1", "A2"], "outputs": ["B1", "B2"]}]})
    )
    assert main(["verify", "--process", str(proc), "--unravelling", str(triv)]) == 0


# -- sample -----------------------------------------------------------------------


def test_sample_csv_shape_and_determinism(tmp_path):
    comb, _ = gen_chain(tmp_path, n=2)
    c1, c2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    for target in (c1, c2):
        assert main(
            ["sample", "--process", str(comb), "--queries", "1000",
             "--seed", "5", "--out", str(target)]
        ) == 0
    lines = c1.read_text().strip().split("\n")
    assert len(lines) == 1001
    assert lines[0] == "trial,A1,A2,B1,B2"
    assert all(len(row.split(",")) == 5 for row in lines[1:])
    assert c1.read_bytes() == c2.read_bytes()
    assert (tmp_path / "o1.csv.povm.json").exists()


def test_sample_column_marginals_match_analytic(tmp_path):
    # every wire of a qubit chain is maximally mixed, so each SIC outcome has
    # probability Tr[P_a]/2 = 1/4; check all columns within 5 sigma
    comb, _ = gen_chain(tmp_path, n=2)
    out = tmp_path / "o.csv"
    assert main(
        ["sample", "--process", str(comb), "--queries", "4000",
         "--seed", "8", "--out", str(out)]
    ) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, dtype=np.int64)
    n = rows.shape[0]
    sigma = np.sqrt(0.25 * 0.75 / n)
    for col in range(1, 5):
        counts = np.bincount(rows[:, col] - 1, minlength=4) / n
        assert np.all(np.abs(counts - 0.25) <= 5 * sigma)


def test_sample_rejects_nonpositive_queries(tmp_path):
    comb, _ = gen_chain(tmp_path, n=2)
    assert main(
        ["sample", "--process", str(comb), "--queries", "0",
         "--out", str(tmp_path / "o.csv")]
    ) == 2


# -- report -----------------------------------------------------------------------


def test_report_exact_run(tmp_path, capsys):
    comb, _ = gen_chain(tmp_path)
    result = tmp_path / "result.json"
    main(["unravel", "--process", str(comb), "--out", str(result)])
    capsys.readouterr()
    assert main(["report", "--result", str(result)]) == 0
    out = capsys.readouterr().out
    assert "queries: 0 (exact mode)" in out
    assert "error bound: 8*sqrt(2)*m*r_max^(1/4)*eta_max^(1/2) = 0" in out


def test_report_sampled_run_quotes_budget_inputs(tmp_path, capsys):
    comb, _ = gen_chain(tmp_path, n=2, seed=5)
    result = tmp_path / "res.json"
    main(
        ["unravel", "--process", str(comb), "--mode", "sampled",
         "--chi-min", "0.2", "--rank-bound", "1", "--seed", "9",
         "--out", str(result)]
    )
    capsys.readouterr()
    assert main(["report", "--result", str(result)]) == 0
    out = capsys.readouterr().out
    assert "budget 3*n^3*N" in out
    assert "N = ceil(2*eps^-2*ln(2/kappa))" in out
    assert "eps=" in out and "kappa=" in out


def test_report_chi_hat_table(tmp_path, capsys):
    out = tmp_path / "prod.json"
    main(["generate", "--family", "memoryless", "--n", "2", "--dim", "2",
          "--seed", "7", "--out", str(out)])
    result = tmp_path / "mres.json"
    main(["unravel", "--process", str(out), "--algorithm", "memoryless",
          "--out", str(result)])
    capsys.readouterr()
    assert main(["report", "--result", str(result)]) == 0
    text = capsys.readouterr().out
    assert "chi_hat:" in text
    assert "B1" in text and "B2" in text


def test_threads_must_be_positive(tmp_path):
    comb, _ = gen_chain(tmp_path, n=2)
    assert main(
        ["unravel", "--process", str(comb), "--threads", "0",
         "--out", str(tmp_path / "r.json")]
    ) == 2


# -- JSON writer ------------------------------------------------------------------

_FLOATS = st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")]) | st.floats().map(
    np.float64
)
_LEAVES = st.none() | st.booleans() | st.integers() | _FLOATS | st.text()
_JSON = st.recursive(
    _LEAVES | st.lists(_FLOATS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@given(obj=st.dictionaries(st.text(), _JSON, max_size=5))
@example(obj={"re": [[0.5, -0.0, 1e-300], [2.0, 1e300]], "é": [np.float64(0.1), 3], "x": [1.0, float("nan")]})
@settings(max_examples=150, deadline=None)
def test_write_json_matches_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "write_json.json"
    _write_json(str(path), obj)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
