import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcomb import sampling
from qcomb.channels import ProcessMatrix, choi_from_kraus
from qcomb.sampling import (
    OutcomeMatrix,
    Povm,
    Rng,
    SanityError,
    build_ic_povm,
    build_sic_povm_qubit,
    dual_frame,
    empirical_cell_frequencies,
    exact_cell_probabilities,
    frame_diagnostics,
    povm_for_wire,
    reconstruct_from_frequencies,
    sample_outcome_matrix,
    swap_test_probability,
    swap_test_sample,
    swaptest_draw_count,
    swaptest_estimate,
    wire_povms,
)
from qcomb.tensors import Direction, LabelledMatrix, WireSystem


def qubit_wire(label="q"):
    return (WireSystem(label, 2, Direction.INPUT),)


def state(mat, label="q"):
    d = mat.shape[0]
    return LabelledMatrix(mat, (WireSystem(label, d, Direction.INPUT),))


def random_density(d, gen):
    g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# -- Rng ----------------------------------------------------------------------


def test_rng_reproducible():
    a = Rng(7).child(3, 1).generator().random(5)
    b = Rng(7).child(3, 1).generator().random(5)
    assert np.array_equal(a, b)


def test_rng_children_differ():
    a = Rng(7).child(0).generator().random(5)
    b = Rng(7).child(1).generator().random(5)
    assert not np.array_equal(a, b)


def test_rng_child_path_accumulates():
    assert Rng(7).child(2).child(5, 1).path == (2, 5, 1)


# -- SWAP tests ----------------------------------------------------------------


def test_swap_probability_equal_pure_states():
    rho = state(np.array([[1, 0], [0, 0]], dtype=complex))
    assert swap_test_probability(rho, rho) == pytest.approx(1.0)


def test_swap_probability_orthogonal_states():
    rho = state(np.diag([1.0, 0.0]).astype(complex))
    sig = state(np.diag([0.0, 1.0]).astype(complex))
    assert swap_test_probability(rho, sig) == pytest.approx(0.5)


def test_swap_probability_mixed():
    # Tr[(I/2)^2] = 1/2, so p = 3/4.
    rho = state(np.eye(2, dtype=complex) / 2)
    assert swap_test_probability(rho, rho) == pytest.approx(0.75)


def test_swap_sample_degenerate_laws():
    rho = state(np.array([[1, 0], [0, 0]], dtype=complex))
    rng = Rng(11)
    draws = [swap_test_sample(rho, rho, rng.child(i)) for i in range(50)]
    assert all(x == 1 for x in draws)


def test_swap_sample_is_binary_and_deterministic():
    gen = np.random.default_rng(0)
    rho = state(random_density(2, gen))
    sig = state(random_density(2, gen))
    vals = {swap_test_sample(rho, sig, Rng(5).child(i)) for i in range(40)}
    assert vals <= {0, 1}
    assert swap_test_sample(rho, sig, Rng(5).child(3)) == swap_test_sample(
        rho, sig, Rng(5).child(3)
    )


def test_swap_sanity_rejects_unnormalized_input():
    big = state(5 * np.eye(2, dtype=complex))
    with pytest.raises(SanityError):
        swap_test_probability(big, big)


def test_swap_dimension_mismatch():
    rho = state(np.eye(2, dtype=complex) / 2)
    sig = state(np.eye(3, dtype=complex) / 3, label="r")
    with pytest.raises(ValueError):
        swap_test_probability(rho, sig)


def test_draw_count_frozen_value():
    # ceil(2 / 0.1^2 * ln(2 / 0.05)) = ceil(737.77...) = 738
    assert swaptest_draw_count(0.1, 0.05) == 738


def test_draw_count_monotone():
    assert swaptest_draw_count(0.05, 0.05) > swaptest_draw_count(0.1, 0.05)
    assert swaptest_draw_count(0.1, 0.01) > swaptest_draw_count(0.1, 0.05)


def test_draw_count_rejects_bad_ranges():
    with pytest.raises(ValueError):
        swaptest_draw_count(0.0, 0.05)
    with pytest.raises(ValueError):
        swaptest_draw_count(0.1, 1.5)


def test_estimate_exact_on_degenerate_law():
    rho = state(np.array([[1, 0], [0, 0]], dtype=complex))
    assert swaptest_estimate(rho, rho, 0.1, 0.05, Rng(0)) == pytest.approx(1.0)


def test_estimate_close_to_truth():
    gen = np.random.default_rng(2)
    rho = state(random_density(2, gen))
    sig = state(random_density(2, gen))
    truth = float(np.trace(rho.entries @ sig.entries).real)
    est = swaptest_estimate(rho, sig, 0.1, 0.05, Rng(9))
    assert abs(est - truth) <= 0.1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_swap_probability_range(seed):
    gen = np.random.default_rng(seed)
    rho = state(random_density(3, gen))
    sig = state(random_density(3, gen))
    p = swap_test_probability(rho, sig)
    assert 0.5 <= p <= 1.0


# -- POVMs ---------------------------------------------------------------------


def test_povm_rejects_non_psd():
    w = qubit_wire()
    bad = LabelledMatrix(np.diag([1.5, -0.5]).astype(complex), w)
    rest = LabelledMatrix(np.diag([-0.5, 1.5]).astype(complex), w)
    with pytest.raises(ValueError):
        Povm((bad, rest))


def test_povm_rejects_incomplete_sum():
    w = qubit_wire()
    half = LabelledMatrix(np.eye(2, dtype=complex) / 4, w)
    with pytest.raises(ValueError):
        Povm((half, half))


def test_sic_basic_shape():
    sic = build_sic_povm_qubit()
    assert sic.n_outcomes == 4
    assert sic.dim == 2
    for eff in sic.effects:
        assert np.trace(eff.entries).real == pytest.approx(0.5)


def test_sic_frame_extremes_frozen():
    # Qubit SIC frame eigenvalues: 1/2 on the identity direction (each effect
    # has trace 1/2 and they sum to I) and 1/6 with multiplicity 3 on the
    # traceless directions (sum_a b_a b_a^T = 4/3 I for the tetrahedron).
    diag = frame_diagnostics(build_sic_povm_qubit())
    assert diag.min_eig == pytest.approx(1 / 6, abs=1e-12)
    assert diag.max_eig == pytest.approx(1 / 2, abs=1e-12)


def test_sic_pairwise_overlap_ratio():
    sic = build_sic_povm_qubit()
    for j in range(4):
        for k in range(4):
            p, q = sic.effects[j].entries, sic.effects[k].entries
            ratio = np.trace(p @ q).real / (np.trace(p).real * np.trace(q).real)
            if j == k:
                assert ratio == pytest.approx(1.0, abs=1e-12)
            else:
                assert ratio == pytest.approx(1 / 3, abs=1e-12)


def test_sic_is_informationally_complete():
    assert build_sic_povm_qubit().is_informationally_complete()


def test_dual_frame_inverts_sic():
    sic = build_sic_povm_qubit()
    duals = dual_frame(sic)
    gen = np.random.default_rng(4)
    x = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    x = x + x.conj().T
    recon = sum(
        np.trace(eff.entries @ x) * duals[a] for a, eff in enumerate(sic.effects)
    )
    assert np.allclose(recon, x, atol=1e-10)


def test_build_ic_povm_qutrit():
    povm = build_ic_povm(3, Rng(21))
    assert povm.dim == 3
    assert povm.n_outcomes == 9
    assert povm.is_informationally_complete()
    duals = dual_frame(povm)
    gen = np.random.default_rng(5)
    x = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    x = x + x.conj().T
    recon = sum(
        np.trace(eff.entries @ x) * duals[a] for a, eff in enumerate(povm.effects)
    )
    assert np.allclose(recon, x, atol=1e-9)


def test_build_ic_povm_deterministic():
    a = build_ic_povm(3, Rng(21))
    b = build_ic_povm(3, Rng(21))
    for ea, eb in zip(a.effects, b.effects):
        assert np.array_equal(ea.entries, eb.entries)


def test_povm_for_wire_dispatch():
    sic = povm_for_wire(WireSystem("A1", 2, Direction.INPUT), Rng(0))
    ref = build_sic_povm_qubit()
    for ea, eb in zip(sic.effects, ref.effects):
        assert np.allclose(ea.entries, eb.entries)
    trit = povm_for_wire(WireSystem("A1", 3, Direction.INPUT), Rng(0))
    assert trit.dim == 3


def test_povm_json_round_trip():
    povm = build_ic_povm(3, Rng(21))
    text = json.dumps(povm.to_json())
    back = Povm.from_json(json.loads(text))
    for ea, eb in zip(povm.effects, back.effects):
        assert np.allclose(ea.entries, eb.entries, atol=1e-15)


def test_dual_frame_rejects_non_ic():
    w = qubit_wire()
    basis = Povm(
        (
            LabelledMatrix(np.diag([1.0, 0.0]).astype(complex), w),
            LabelledMatrix(np.diag([0.0, 1.0]).astype(complex), w),
        )
    )
    with pytest.raises(ValueError):
        dual_frame(basis)


# -- cell probabilities and outcome matrices ------------------------------------


def identity_process():
    wires_in = (WireSystem("A1", 2, Direction.INPUT),)
    wires_out = (WireSystem("B1", 2, Direction.OUTPUT),)
    return choi_from_kraus([np.eye(2, dtype=complex)], wires_in, wires_out)


def depolarizing_process():
    wires_in = (WireSystem("A1", 2, Direction.INPUT),)
    wires_out = (WireSystem("B1", 2, Direction.OUTPUT),)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    kraus = [0.5 * np.eye(2, dtype=complex), 0.5 * sx, 0.5 * sy, 0.5 * sz]
    return choi_from_kraus(kraus, wires_in, wires_out)


def test_cells_match_direct_trace():
    p = identity_process()
    sic = build_sic_povm_qubit()
    cell = exact_cell_probabilities(p, [sic], [sic])
    for a in range(4):
        for b in range(4):
            direct = np.trace(
                np.kron(sic.effects[a].entries, sic.effects[b].entries)
                @ p.choi.entries
            ).real
            assert cell[a, b] == pytest.approx(direct, abs=1e-12)
    assert cell.sum() == pytest.approx(1.0, abs=1e-12)


def test_cells_depolarizing_uniform():
    # Choi of full depolarizing is I/4; every SIC cell is Tr[P]Tr[Q]/4 = 1/16.
    p = depolarizing_process()
    sic = build_sic_povm_qubit()
    cell = exact_cell_probabilities(p, [sic], [sic])
    assert np.allclose(cell, np.full((4, 4), 1 / 16), atol=1e-12)


def test_cells_reject_wrong_povm_dim():
    p = identity_process()
    trit = build_ic_povm(3, Rng(21))
    with pytest.raises(ValueError):
        exact_cell_probabilities(p, [trit], [trit])


def test_linear_inversion_recovers_choi():
    p = identity_process()
    sic = build_sic_povm_qubit()
    cell = exact_cell_probabilities(p, [sic], [sic])
    recon = reconstruct_from_frequencies(cell, [sic, sic])
    assert np.allclose(recon, p.choi.entries, atol=1e-10)


def test_sample_outcome_matrix_shapes_and_ranges():
    p = identity_process()
    sic = build_sic_povm_qubit()
    om = sample_outcome_matrix(p, [sic], [sic], 200, Rng(3))
    assert om.rows.shape == (200, 2)
    assert om.wire_labels == ("A1", "B1")
    assert om.rows.min() >= 0 and om.rows.max() <= 3


def test_sample_outcome_matrix_deterministic():
    p = identity_process()
    sic = build_sic_povm_qubit()
    a = sample_outcome_matrix(p, [sic], [sic], 50, Rng(12))
    b = sample_outcome_matrix(p, [sic], [sic], 50, Rng(12))
    assert np.array_equal(a.rows, b.rows)


def test_sample_outcome_matrix_rejects_zero_rows():
    p = identity_process()
    sic = build_sic_povm_qubit()
    with pytest.raises(ValueError):
        sample_outcome_matrix(p, [sic], [sic], 0, Rng(0))


def test_empirical_frequencies_converge():
    p = identity_process()
    sic = build_sic_povm_qubit()
    cell = exact_cell_probabilities(p, [sic], [sic])
    om = sample_outcome_matrix(p, [sic], [sic], 40000, Rng(8))
    freq = empirical_cell_frequencies(om)
    assert freq.shape == (4, 4)
    assert freq.sum() == pytest.approx(1.0)
    assert np.abs(freq - cell).max() < 0.015


def test_finite_sample_reconstruction_is_hermitian():
    p = identity_process()
    sic = build_sic_povm_qubit()
    om = sample_outcome_matrix(p, [sic], [sic], 5000, Rng(4))
    recon = reconstruct_from_frequencies(empirical_cell_frequencies(om), [sic, sic])
    assert np.allclose(recon, recon.conj().T, atol=1e-12)
    assert np.trace(recon).real == pytest.approx(1.0, abs=1e-9)


def test_outcome_matrix_csv_round_trip(tmp_path):
    p = identity_process()
    sic = build_sic_povm_qubit()
    om = sample_outcome_matrix(p, [sic], [sic], 25, Rng(6))
    path = tmp_path / "runs.csv"
    om.write_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "trial,A1,B1"
    first = text[1].split(",")
    assert first[0] == "1"
    assert all(1 <= int(x) <= 4 for x in first[1:])
    back = OutcomeMatrix.read_csv(path)
    assert np.array_equal(back.rows, om.rows)
    assert back.wire_labels == om.wire_labels


def test_outcome_matrix_validation():
    sic = build_sic_povm_qubit()
    with pytest.raises(ValueError):
        OutcomeMatrix(np.zeros((0, 2), dtype=int), ("A1", "B1"), (sic, sic))
    with pytest.raises(ValueError):
        OutcomeMatrix(np.array([[0, 9]]), ("A1", "B1"), (sic, sic))


# -- outcome CSV format, per-wire POVMs and cached frames ------------------------


def reference_csv_bytes(om):
    """The outcome CSV written row by row with csv.writer."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["trial", *om.wire_labels])
    for t, row in enumerate(om.rows, start=1):
        writer.writerow([t, *(int(x) + 1 for x in row)])
    return buf.getvalue().encode()


def random_outcomes(n_rows, povms, labels, seed):
    gen = np.random.default_rng(seed)
    rows = np.column_stack([gen.integers(0, p.n_outcomes, size=n_rows) for p in povms])
    return OutcomeMatrix(rows, labels, povms)


@pytest.mark.parametrize("n_rows", [1, 4095, 4096, 4097, 10001])
def test_write_csv_matches_csv_writer_across_block_edges(tmp_path, n_rows):
    sic = build_sic_povm_qubit()
    om = random_outcomes(n_rows, (sic,) * 4, ("A1", "A2", "B1", "B2"), n_rows)
    om.write_csv(tmp_path / "o.csv")
    assert (tmp_path / "o.csv").read_bytes() == reference_csv_bytes(om)


def test_write_csv_two_digit_outcomes_and_quoted_label(tmp_path):
    trit, ququart = build_ic_povm(3, Rng(21)), build_ic_povm(4, Rng(22))
    labels = ("A,1", 'B "x"', "C1")
    om = random_outcomes(5000, (trit, ququart, ququart), labels, 9)
    assert om.rows[:, 0].max() == 8 and om.rows[:, 1].max() == 15
    path = tmp_path / "o.csv"
    om.write_csv(path)
    data = path.read_bytes()
    assert data == reference_csv_bytes(om)
    assert data.startswith(b'trial,"A,1","B ""x""",C1\r\n')
    back = OutcomeMatrix.read_csv(path)
    assert np.array_equal(back.rows, om.rows)
    assert back.wire_labels == labels


def test_write_csv_splits_columns_into_runs(tmp_path, monkeypatch):
    # Runs of at most 16 cells: Q1's 25 outcomes exceed the bound, so it
    # stands alone; (A1, B1) has 16; C1's 9 fit with neither neighbour; (D1, E1).
    monkeypatch.setattr(sampling, "CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(sampling, "CSV_RUN_CELLS", 16)
    sic, trit, quint = build_sic_povm_qubit(), build_ic_povm(3, Rng(21)), build_ic_povm(5, Rng(23))
    povms = (quint, sic, sic, trit, sic, sic)
    runs = sampling._csv_column_runs(tuple(p.n_outcomes for p in povms))
    assert [(r[0].start, r[0].stop) for r in runs] == [(0, 1), (1, 3), (3, 4), (4, 6)]
    om = random_outcomes(200, povms, ("Q1", "A1", "B1", "C1", "D1", "E1"), 4)
    om.write_csv(tmp_path / "o.csv")
    assert (tmp_path / "o.csv").read_bytes() == reference_csv_bytes(om)


def test_write_csv_mostly_distinct_cells(tmp_path):
    # 4^10 joint cells for 3000 rows: nearly every row is a new cell.
    sic = build_sic_povm_qubit()
    om = random_outcomes(3000, (sic,) * 10, tuple(f"w{k}" for k in range(10)), 8)
    om.write_csv(tmp_path / "o.csv")
    assert (tmp_path / "o.csv").read_bytes() == reference_csv_bytes(om)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4),
    n_rows=st.integers(1, 60),
    seed=st.integers(0, 2**16),
)
def test_csv_write_read_round_trip(dims, n_rows, seed):
    povms = tuple(build_sic_povm_qubit() if d == 2 else build_ic_povm(3, Rng(21)) for d in dims)
    labels = tuple(f"w{k}" for k in range(len(dims)))
    om = random_outcomes(n_rows, povms, labels, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "o.csv"
        om.write_csv(path)
        back = OutcomeMatrix.read_csv(path)
    assert np.array_equal(back.rows, om.rows)
    assert back.wire_labels == labels


@pytest.mark.parametrize(
    "body",
    [
        "1,2,3\r\n2,1.5,4\r\n",  # non-integer cell
        "1,2,3\r\n2,x,4\r\n",  # non-numeric cell
        "1,2,3\r\n2,3\r\n",  # ragged row
        "1,2,3,4\r\n2,3,4,1\r\n",  # every row one column too wide
        "",  # header only
    ],
)
@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
def test_read_csv_rejects_malformed_body(tmp_path, body):
    sic = build_sic_povm_qubit()
    path = tmp_path / "o.csv"
    random_outcomes(2, (sic, sic), ("A1", "B1"), 0).write_csv(path)
    path.write_bytes(b"trial,A1,B1\r\n" + body.encode())
    with pytest.raises(ValueError):
        OutcomeMatrix.read_csv(path)


def test_read_csv_refuses_float_cells_numpy_only_warns_about(tmp_path, monkeypatch):
    # Older numpy parses "1.5" into an int column as 1 with a DeprecationWarning.
    sic = build_sic_povm_qubit()
    path = tmp_path / "o.csv"
    random_outcomes(2, (sic, sic), ("A1", "B1"), 0).write_csv(path)

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return np.array([[1, 1, 1], [2, 1, 1]])

    monkeypatch.setattr(sampling.np, "loadtxt", warning_loadtxt)
    with pytest.raises(ValueError, match="non-integer"):
        OutcomeMatrix.read_csv(path)


def test_read_csv_rejects_header_not_matching_sidecar(tmp_path):
    sic = build_sic_povm_qubit()
    path = tmp_path / "o.csv"
    random_outcomes(2, (sic, sic), ("A1", "B1"), 0).write_csv(path)
    path.write_bytes(b"trial,B1,A1\r\n1,1,1\r\n")
    with pytest.raises(ValueError, match="header"):
        OutcomeMatrix.read_csv(path)


def test_wire_povms_follows_rng_children():
    wires_in = (WireSystem("A1", 2, Direction.INPUT),)
    wires_out = (WireSystem("B1", 3, Direction.OUTPUT),)
    embed = np.eye(3, 2, dtype=complex)
    p = choi_from_kraus([embed], wires_in, wires_out)
    in_povms, out_povms = wire_povms(p, Rng(5))
    assert in_povms == (build_sic_povm_qubit(),)
    (out,) = out_povms
    ref = build_ic_povm(3, Rng(5).child(1, 0))
    for ea, eb in zip(out.effects, ref.effects):
        assert np.array_equal(ea.entries, eb.entries)


def test_sic_is_built_once_and_read_only():
    sic = build_sic_povm_qubit()
    assert build_sic_povm_qubit() is sic
    with pytest.raises(ValueError):
        sic.effects[0].entries[0, 0] = 1.0


def test_dual_frame_is_cached_and_unchanged():
    povm = build_ic_povm(3, Rng(21))
    duals = dual_frame(povm)
    assert dual_frame(povm) is duals
    assert not duals.flags.writeable
    # The uncached definition, computed afresh.
    f = sum(np.outer(e.entries.reshape(-1), e.entries.reshape(-1).conj()) for e in povm.effects)
    f_inv = np.linalg.inv(f)
    ref = np.stack([(f_inv @ e.entries.reshape(-1)).reshape(3, 3) for e in povm.effects])
    assert np.array_equal(duals, ref)
