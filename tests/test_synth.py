import json

import numpy as np
import pytest

from qcomb import synth
from qcomb.channels import (
    ProcessMatrix,
    chi1,
    comb_kraus,
    comb_membership,
    compose_comb,
    kraus_factor,
    kraus_rank,
    last_tooth_candidates,
    last_tooth_residual,
    reduce_channel,
)
from qcomb.sampling import GenerationError, Rng
from qcomb.synth import (
    MAX_REJECTIONS,
    GroundTruth,
    SynthSpec,
    apply_wire_permutation,
    random_comb,
    random_memoryless,
    shuffle_wires,
    total_order_chain,
    probe_values,
    unshuffle_wires,
)


# -- SynthSpec validation --------------------------------------------------------


def test_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        SynthSpec(n=0)
    with pytest.raises(ValueError):
        SynthSpec(n=2, d=0)
    with pytest.raises(ValueError):
        SynthSpec(n=2, chi_min_target=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(n=2, family="nope")
    with pytest.raises(ValueError):
        SynthSpec(n=3, family="entangling_c2")


def test_memoryless_family_routed_elsewhere():
    with pytest.raises(ValueError):
        random_comb(SynthSpec(n=2, family="memoryless"), Rng(0))


# -- isometric chains --------------------------------------------------------------


def test_chain_rank_one_when_env_trivial():
    spec = SynthSpec(n=3, d=2, d_mem=2, d_env=1, chi_min_target=0.1)
    comb, gt = random_comb(spec, Rng(0))
    p = compose_comb(comb)
    assert gt.kraus_rank == 1
    assert kraus_rank(p) == 1
    assert comb_membership(p, gt.ordering)


def test_chain_memory_tapered_to_environment():
    # d_env=1 forces every intermediate memory down to 1: each tooth is then
    # a plain unitary and the whole chain is a product of unitary channels.
    spec = SynthSpec(n=3, d=2, d_mem=2, d_env=1)
    comb, _ = random_comb(spec, Rng(1))
    assert [t.mem_out_dim for t in comb.teeth] == [1, 1, 1]
    assert all(len(t.kraus) == 1 for t in comb.teeth)


def test_chain_unitary_pairs_hit_three_halves():
    # A unitary qubit channel's Choi is maximally entangled and pure, so the
    # matched-pair correlation is ||psi - I/4||_1 = 3/4 + 3*(1/4) = 3/2.
    spec = SynthSpec(n=2, d=2, d_mem=2, d_env=1)
    comb, gt = random_comb(spec, Rng(3))
    p = compose_comb(comb)
    for k in (1, 2):
        assert chi1(p, {f"A{k}"}, {f"B{k}"}) == pytest.approx(1.5, abs=1e-9)
    assert gt.chi_min_achieved == pytest.approx(1.5, abs=1e-9)


def test_chain_env_bounds_rank():
    spec = SynthSpec(n=3, d=2, d_mem=2, d_env=2, chi_min_target=0.1)
    comb, gt = random_comb(spec, Rng(7))
    p = compose_comb(comb)
    assert kraus_rank(p) <= 2
    assert comb_membership(p, gt.ordering)
    assert gt.chi_min_achieved >= 0.1


def test_chain_single_tooth_is_unitary_channel():
    spec = SynthSpec(n=1, d=2, d_mem=2, d_env=1)
    comb, gt = random_comb(spec, Rng(4))
    assert len(comb.teeth) == 1
    assert gt.kraus_rank == 1
    v = comb.teeth[0].kraus[0]
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_chain_deterministic():
    spec = SynthSpec(n=2, d=2, d_mem=2, d_env=1)
    a, _ = random_comb(spec, Rng(11))
    b, _ = random_comb(spec, Rng(11))
    for ta, tb in zip(a.teeth, b.teeth):
        assert np.array_equal(ta.kraus[0], tb.kraus[0])


def test_generation_error_on_unreachable_floor():
    # chi1 never exceeds 2, so a floor of 10 must exhaust the attempts.
    spec = SynthSpec(n=1, d=2, d_mem=1, d_env=1, chi_min_target=10.0)
    with pytest.raises(GenerationError):
        random_comb(spec, Rng(0))


# -- total-order chains -------------------------------------------------------------


def test_total_order_signal_pattern():
    comb, gt = total_order_chain(3, 2, Rng(2), chi_min_target=0.1)
    p = compose_comb(comb)
    for i in range(1, 4):
        for j in range(1, 4):
            v = chi1(p, {f"A{i}"}, {f"B{j}"})
            if j >= i:
                assert v >= 0.1, (i, j, v)
            else:
                assert v <= 1e-10, (i, j, v)
    assert comb_membership(p, gt.ordering)
    assert gt.chi_min_achieved >= 0.1


def test_total_order_trivial_single_tooth():
    comb, gt = total_order_chain(1, 2, Rng(0))
    assert len(comb.teeth) == 1
    assert gt.kraus_rank == 1


def test_total_order_requires_qubit_or_larger():
    with pytest.raises(ValueError):
        total_order_chain(2, 1, Rng(0))


# -- entangling two-tooth family ------------------------------------------------------


def test_entangling_c2_structure():
    spec = SynthSpec(n=2, d=2, d_mem=2, d_env=1, family="entangling_c2")
    comb, gt = random_comb(spec, Rng(5))
    p = compose_comb(comb)
    assert gt.ordering.steps == (
        (("A1", "A2"), ("B1", "B2")),
        (("A3",), ("B3",)),
    )
    assert comb_membership(p, gt.ordering)
    # The block really is entangling: no single pair inside it splits off.
    reduced_last = last_tooth_residual(p, {"A3"}, {"B3"})
    assert reduced_last <= 1e-9
    for a in ("A1", "A2"):
        for b in ("B1", "B2"):
            assert last_tooth_residual(p, {a}, {b}) >= 0.1


# -- memoryless products ---------------------------------------------------------------


def test_memoryless_correlation_pattern():
    p, perm = random_memoryless(3, 2, Rng(1))
    assert sorted(perm) == [0, 1, 2]
    for i in range(3):
        for j in range(3):
            v = chi1(p, {f"A{i + 1}"}, {f"B{j + 1}"})
            if j == perm[i]:
                assert v >= 0.1
            else:
                assert v <= 1e-10


def test_memoryless_constant_pair_uncorrelated():
    p, perm = random_memoryless(3, 2, Rng(2), constant=(1,))
    assert chi1(p, {"A2"}, {f"B{perm[1] + 1}"}) <= 1e-12
    for i in (0, 2):
        assert chi1(p, {f"A{i + 1}"}, {f"B{perm[i] + 1}"}) >= 0.1


def test_memoryless_mixed_dims():
    p, perm = random_memoryless(2, [2, 3], Rng(3))
    by_label = {w.label: w.dim for w in p.outputs}
    assert by_label[f"B{perm[0] + 1}"] == 2
    assert by_label[f"B{perm[1] + 1}"] == 3


def test_memoryless_deterministic():
    a, pa = random_memoryless(3, 2, Rng(8))
    b, pb = random_memoryless(3, 2, Rng(8))
    assert pa == pb
    assert np.array_equal(a.choi.entries, b.choi.entries)


def test_memoryless_unreachable_floor_errors():
    with pytest.raises(GenerationError):
        random_memoryless(1, 2, Rng(0), chi_min_target=10.0)


# -- wire shuffling -------------------------------------------------------------------


def test_shuffle_round_trip_exact():
    p, _ = random_memoryless(3, 2, Rng(1))
    sh, sig, tau = shuffle_wires(p, Rng(9))
    back = unshuffle_wires(sh, sig, tau)
    assert np.array_equal(back.choi.entries, p.choi.entries)
    assert tuple(w.label for w in back.inputs) == tuple(w.label for w in p.inputs)


def test_identity_permutation_is_noop():
    p, _ = random_memoryless(2, 2, Rng(4))
    same = apply_wire_permutation(p, [0, 1], [0, 1])
    assert np.array_equal(same.choi.entries, p.choi.entries)


def test_shuffle_preserves_chi():
    p, perm = random_memoryless(3, 2, Rng(1))
    sh, sig, tau = shuffle_wires(p, Rng(9))
    inv_in = np.argsort(np.asarray(sig))
    inv_out = np.argsort(np.asarray(tau))
    for i in range(3):
        old_a, old_b = f"A{i + 1}", f"B{perm[i] + 1}"
        new_a = sh.inputs[int(inv_in[i])].label
        new_b = sh.outputs[int(inv_out[perm[i]])].label
        assert chi1(sh, {new_a}, {new_b}) == pytest.approx(
            chi1(p, {old_a}, {old_b}), abs=1e-10
        )


def test_bad_permutation_rejected():
    p, _ = random_memoryless(2, 2, Rng(4))
    with pytest.raises(ValueError):
        apply_wire_permutation(p, [0, 0], [0, 1])


# -- ground truth serialization ----------------------------------------------------------


def test_ground_truth_json_round_trip():
    spec = SynthSpec(n=2, d=2, d_mem=2, d_env=1)
    _, gt = random_comb(spec, Rng(6))
    text = json.dumps(gt.to_json())
    back = GroundTruth.from_json(json.loads(text))
    assert back.ordering == gt.ordering
    assert back.chi_min_achieved == gt.chi_min_achieved
    assert back.kraus_rank == gt.kraus_rank


# -- factored probes against the dense definition -----------------------------------------


def _dense_probe_values(p, truth, c):
    """probe_values on the dense Choi state: residuals by last_tooth_residual."""
    vals = [chi1(p, {a}, {b}) for a in p.input_labels for b in p.output_labels]
    cur = p
    rev = list(reversed(truth.steps))
    for idx, (pk, qk) in enumerate(rev):
        for cand_p, cand_q in last_tooth_candidates(cur.input_labels, cur.output_labels, c):
            vals.append(last_tooth_residual(cur, cand_p, cand_q))
            if set(cand_p) == set(pk) and set(cand_q) == set(qk):
                break
        if idx < len(rev) - 1:
            cur = reduce_channel(cur, pk, qk)
    return vals


def _dense_total_order_probes(p, n):
    return [chi1(p, {f"A{i}"}, {f"B{j}"}) for i in range(1, n + 1) for j in range(i, n + 1)]


def _dense_random_comb(spec, rng):
    """random_comb with every probe and the rank taken on the dense Choi state."""
    for attempt in range(MAX_REJECTIONS):
        comb = synth._BUILDERS[spec.family](spec, rng.child(attempt).generator())
        p = _dense(comb)
        truth = comb.ground_truth()
        if spec.family == "total_order_chain":
            vals = _dense_total_order_probes(p, spec.n)
            ok = all(v >= spec.chi_min_target for v in vals)
        else:
            vals = _dense_probe_values(p, truth, synth._PROBE_C[spec.family])
            ok = synth._signal_is_clean(vals, spec.chi_min_target)
        if ok:
            return comb, attempt, synth._achieved(vals), kraus_rank(p)
    raise GenerationError(spec.family)


def _factor(comb):
    return kraus_factor(comb_kraus(comb), comb.input_wires, comb.output_wires)


def _dense(comb):
    """The comb's process without its Kraus factor, so every probe runs densely."""
    p = compose_comb(comb)
    return ProcessMatrix(p.choi, p.inputs, p.outputs)


DIFFERENTIAL_SPECS = (
    [SynthSpec(n=n, d_env=d_env, seed=seed) for n in (2, 3, 4) for d_env in (1, 2) for seed in (0, 1)]
    + [SynthSpec(n=5, d_env=d_env) for d_env in (1, 2)]
    + [SynthSpec(n=2, d_env=d_env, family="entangling_c2", seed=s) for d_env in (1, 2) for s in (0, 1)]
    + [SynthSpec(n=n, d_mem=2, d_env=2, family="total_order_chain") for n in (2, 3, 4)]
)


def test_factored_probes_match_dense_residuals(monkeypatch):
    """Every probe value, residual by residual, and the rank, on one draw per spec."""
    combs = [synth._BUILDERS[s.family](s, Rng(s.seed).generator()) for s in DIFFERENTIAL_SPECS]
    qr_calls = []
    real_qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qr_calls.append(1) or real_qr(*a, **k))
    residuals = 0
    for spec, comb in zip(DIFFERENTIAL_SPECS, combs):
        p, f, truth = _dense(comb), _factor(comb), comb.ground_truth()
        c = synth._PROBE_C[spec.family]
        want, got = _dense_probe_values(p, truth, c), probe_values(f, truth, c)
        assert len(got) == len(want)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, spec
        residuals += len(got) - len(p.inputs) * len(p.outputs)
        if spec.family == "total_order_chain":
            got_pairs = synth._total_order_probes(f, spec.n)
            want_pairs = _dense_total_order_probes(p, spec.n)
            assert np.max(np.abs(np.subtract(got_pairs, want_pairs))) <= 1e-12, spec
        assert f.rank() == kraus_rank(p), spec
    # Both branches of difference_trace_norm ran: QR for the tall
    # residuals, the dense difference for the rest.
    assert 0 < len(qr_calls) < residuals


IDENTITY_SPECS = {
    "chain-n3": SynthSpec(n=3, d_env=1),
    "total-order-n3": SynthSpec(n=3, d_mem=2, d_env=2, family="total_order_chain"),
    "entangling-c2": SynthSpec(n=2, d_env=2, family="entangling_c2"),
}


def _assert_matches_dense_reference(spec, seed):
    """random_comb against _dense_random_comb; returns the accepted attempt."""
    comb, gt = random_comb(spec, Rng(seed))
    ref_comb, ref_attempt, ref_achieved, ref_rank = _dense_random_comb(spec, Rng(seed))
    for tooth, ref_tooth in zip(comb.teeth, ref_comb.teeth, strict=True):
        assert all(np.array_equal(k, r) for k, r in zip(tooth.kraus, ref_tooth.kraus, strict=True))
    assert gt.chi_min_achieved == pytest.approx(ref_achieved, abs=1e-12)
    assert gt.kraus_rank == ref_rank
    return ref_attempt


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", IDENTITY_SPECS)
def test_random_comb_matches_dense_probe_reference(name, seed):
    _assert_matches_dense_reference(IDENTITY_SPECS[name], seed)


def test_rejected_draws_match_dense_probe_reference():
    # n=4 chains into a qubit environment often miss the floor, so the
    # accepted attempt index is compared as well.
    spec = SynthSpec(n=4, d_env=2)
    attempts = [_assert_matches_dense_reference(spec, seed) for seed in range(3)]
    assert max(attempts) > 0
