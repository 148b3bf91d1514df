"""Choi processes, combs, chi_1, and the exact structure oracles."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcomb import channels
from qcomb.channels import (
    Comb,
    ProcessMatrix,
    Tooth,
    Unravelling,
    apply_channel,
    chi1,
    choi_from_kraus,
    comb_kraus,
    comb_membership,
    compose_comb,
    factored_last_tooth_residual,
    is_last_tooth_exact,
    kraus_factor,
    kraus_from_choi,
    kraus_rank,
    last_tooth_candidates,
    last_tooth_factors,
    last_tooth_marginals,
    last_tooth_residual,
    membership_residuals,
    reduce_channel,
    standardize,
    validate_channel,
    validate_factor,
    _swap_matrix,
)
from qcomb.sampling import Rng
from qcomb.synth import SynthSpec, random_comb
from qcomb.tensors import Direction, LabelledMatrix, WireSystem, hs_norm, overlap, trace_norm

PHI_PLUS = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1.0, -1.0]).astype(complex),
}


def win(label, dim=2):
    return WireSystem(label, dim, Direction.INPUT)


def wout(label, dim=2):
    return WireSystem(label, dim, Direction.OUTPUT)


def identity_channel():
    return choi_from_kraus([np.eye(2)], (win("A1"),), (wout("B1"),))


def cnot_process():
    return choi_from_kraus([CNOT], (win("A1"), win("A2")), (wout("B1"), wout("B2")))


def product_identity_pair():
    t1 = Tooth((np.eye(2),), (win("A1"),), (wout("B1"),), 1, 1)
    t2 = Tooth((np.eye(2),), (win("A2"),), (wout("B2"),), 1, 1)
    return compose_comb(Comb((t1, t2)))


def swap_across_teeth():
    """Tooth 1 copies A1 into (B1, memory) in the computational basis; tooth 2
    swaps A2 with the memory so B2 releases A1's content while A2 is discarded."""
    v1 = np.zeros((4, 2), dtype=complex)
    v1[0, 0] = 1.0
    v1[3, 1] = 1.0
    t1 = Tooth((v1,), (win("A1"),), (wout("B1"),), 1, 2)
    t2 = Tooth((_swap_matrix(2, 2),), (win("A2"),), (wout("B2"),), 2, 2)
    return compose_comb(Comb((t1, t2)))


def dense(p):
    """The same process without its Kraus factor: the dense reference path."""
    return ProcessMatrix(p.choi, p.inputs, p.outputs)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_qubit_channel(rng, env=2):
    """Haar isometry 2 -> 2*env, environment traced: a generic CPTP map."""
    g = rng.normal(size=(2 * env, 2)) + 1j * rng.normal(size=(2 * env, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    kraus = [q.reshape(2, env, 2)[:, e, :] for e in range(env)]
    return choi_from_kraus(kraus, (win("A1"),), (wout("B1"),))


class TestChoiFromKraus:
    def test_identity_channel(self):
        np.testing.assert_allclose(identity_channel().choi.entries, PHI_PLUS, atol=1e-15)

    def test_dephasing(self):
        p = choi_from_kraus(
            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], (win("A1"),), (wout("B1"),)
        )
        np.testing.assert_allclose(
            p.choi.entries, np.diag([0.5, 0, 0, 0.5]), atol=1e-15
        )

    def test_full_depolarizing(self):
        kraus = [0.5 * np.eye(2), 0.5 * PAULI["x"], 0.5 * PAULI["y"], 0.5 * PAULI["z"]]
        p = choi_from_kraus(kraus, (win("A1"),), (wout("B1"),))
        np.testing.assert_allclose(p.choi.entries, np.eye(4) / 4, atol=1e-15)

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(ValueError):
            choi_from_kraus([0.5 * np.eye(2)], (win("A1"),), (wout("B1"),))

    def test_kraus_round_trip(self):
        rng = np.random.default_rng(3)
        p = random_qubit_channel(rng)
        back = choi_from_kraus(kraus_from_choi(p), p.inputs, p.outputs)
        np.testing.assert_allclose(back.choi.entries, p.choi.entries, atol=1e-12)

    def test_json_round_trip_both_reprs(self):
        p = cnot_process()
        again = ProcessMatrix.from_json(p.to_json())
        np.testing.assert_allclose(again.choi.entries, p.choi.entries, atol=0)
        kraus_obj = {
            "inputs": [w.to_json() for w in p.inputs],
            "outputs": [w.to_json() for w in p.outputs],
            "repr": "kraus",
            "kraus": [{"re": CNOT.real.tolist(), "im": CNOT.imag.tolist()}],
        }
        np.testing.assert_allclose(
            ProcessMatrix.from_json(kraus_obj).choi.entries, p.choi.entries, atol=1e-15
        )


class TestProcessMatrixValidation:
    def test_trace_enforced(self):
        bad = 2 * PHI_PLUS
        with pytest.raises(ValueError):
            ProcessMatrix(
                LabelledMatrix(bad, (win("A1"), wout("B1"))), (win("A1"),), (wout("B1"),)
            )

    def test_trace_preservation_enforced(self):
        # |0><0| x |0><0| has unit trace and is PSD but is not a channel Choi.
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 0] = 1.0
        with pytest.raises(ValueError):
            ProcessMatrix(
                LabelledMatrix(bad, (win("A1"), wout("B1"))), (win("A1"),), (wout("B1"),)
            )

    def test_direction_enforced(self):
        with pytest.raises(ValueError):
            ProcessMatrix(
                LabelledMatrix(PHI_PLUS, (win("A1"), win("B1"))),
                (win("A1"),),
                (win("B1"),),
            )


class TestApplyChannel:
    def test_identity(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(apply_channel(identity_channel(), rho), rho, atol=1e-12)

    def test_cnot_on_basis(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0  # |10><10|
        out = apply_channel(cnot_process(), rho)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0  # |11><11|
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestCompose:
    def test_two_identity_teeth(self):
        p = product_identity_pair()
        assert kraus_rank(p) == 1
        # Oracle: Phi+ x Phi+ on (A1,B1,A2,B2), re-laid-out to (A1,A2,B1,B2).
        big = np.kron(PHI_PLUS, PHI_PLUS).reshape([2] * 8)
        big = big.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
        np.testing.assert_allclose(p.choi.entries, big, atol=1e-14)

    def test_cnot_single_tooth(self):
        tooth = Tooth((CNOT,), (win("A1"), win("A2")), (wout("B1"), wout("B2")), 1, 1)
        p = compose_comb(Comb((tooth,)))
        np.testing.assert_allclose(
            p.choi.entries, cnot_process().choi.entries, atol=1e-14
        )
        assert kraus_rank(p) == 1

    def test_memory_mismatch_rejected(self):
        t1 = Tooth((np.eye(2),), (win("A1"),), (wout("B1"),), 1, 1)
        v = np.zeros((4, 4), dtype=complex)
        with pytest.raises(ValueError):
            Comb((t1, Tooth((np.eye(4),), (win("A2"),), (wout("B2"),), 2, 2)))

    def test_comb_json_round_trip(self):
        v1 = np.zeros((4, 2), dtype=complex)
        v1[0, 0] = 1.0
        v1[3, 1] = 1.0
        comb = Comb(
            (
                Tooth((v1,), (win("A1"),), (wout("B1"),), 1, 2),
                Tooth((_swap_matrix(2, 2),), (win("A2"),), (wout("B2"),), 2, 2),
            )
        )
        back = Comb.from_json(comb.to_json())
        np.testing.assert_allclose(
            compose_comb(back).choi.entries, compose_comb(comb).choi.entries, atol=0
        )


class TestChi1:
    def test_product_factorizes(self):
        assert chi1(product_identity_pair(), {"A1", "B1"}, {"A2", "B2"}) < 1e-12

    def test_identity_channel_value(self):
        assert chi1(identity_channel(), {"A1"}, {"B1"}) == pytest.approx(1.5, abs=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            chi1(identity_channel(), {"A1"}, set())

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            chi1(product_identity_pair(), {"A1"}, {"A1", "B1"})

    def test_symmetry(self):
        p = swap_across_teeth()
        a = chi1(p, {"A1"}, {"B1", "B2"})
        b = chi1(p, {"B1", "B2"}, {"A1"})
        assert a == pytest.approx(b, abs=1e-10)

    def test_hs_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rho = random_density(rng, 6)
            sigma = random_density(rng, 6)
            lhs = hs_norm(LabelledMatrix(rho - sigma, (win("X", 6),))) ** 2
            rhs = (
                np.trace(rho @ rho) + np.trace(sigma @ sigma) - 2 * np.trace(rho @ sigma)
            ).real
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestLastTooth:
    def test_product_pairs(self):
        p = product_identity_pair()
        assert is_last_tooth_exact(p, {"A1"}, {"B1"})
        assert not is_last_tooth_exact(p, {"A1"}, {"B2"})

    def test_cnot_obstruction(self):
        p = cnot_process()
        assert not is_last_tooth_exact(p, {"A2"}, {"B2"})
        assert last_tooth_residual(p, {"A2"}, {"B2"}) == pytest.approx(1.0, abs=1e-10)

    def test_trivial_partition_always_true(self):
        assert is_last_tooth_exact(cnot_process(), {"A1", "A2"}, {"B1", "B2"})

    def test_swap_comb_asymmetry(self):
        # Frozen from the exact factorization check on the 16x16 Choi.
        p = swap_across_teeth()
        assert last_tooth_residual(p, {"A2"}, {"B1"}) == pytest.approx(0.0, abs=1e-10)
        assert last_tooth_residual(p, {"A1"}, {"B2"}) == pytest.approx(1.0, abs=1e-10)

    def test_label_validation(self):
        with pytest.raises(KeyError):
            is_last_tooth_exact(identity_channel(), {"B1"}, {"B1"})

    def test_factored_residual_on_cnot(self):
        f = kraus_factor([CNOT], (win("A1"), win("A2")), (wout("B1"), wout("B2")))
        p = dense(cnot_process())
        for P, Q in [({"A2"}, {"B2"}), ({"A1"}, {"B2"}), ({"A1", "A2"}, {"B1", "B2"})]:
            assert factored_last_tooth_residual(f, P, Q) == pytest.approx(
                last_tooth_residual(p, P, Q), abs=1e-12
            )
        assert factored_last_tooth_residual(f, {"A2"}, {"B2"}) == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(KeyError):
            factored_last_tooth_residual(f, {"B1"}, {"B1"})

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_screened_verdict_matches_residual(self, n, monkeypatch):
        # The Hilbert-Schmidt screen must give last_tooth_residual's verdict
        # for every candidate, with tol drawn around each candidate's own
        # ||X||_2 and ||X||_1 so that the reject, accept and trace-norm
        # branches all run.
        import qcomb.channels as channels

        band_calls = []
        monkeypatch.setattr(
            channels, "trace_norm", lambda m: band_calls.append(1) or trace_norm(m)
        )
        # Both the Kraus-factor process and its dense reference are screened.
        branches = {"factor": set(), "dense": set()}
        for seed in (3, 4):
            comb, _ = random_comb(SynthSpec(n=n, d=2, d_mem=2, d_env=seed - 2), Rng(seed))
            factored = compose_comb(comb)
            c = 2 if n < 4 else 1
            for backend, p in (("factor", factored), ("dense", dense(factored))):
                for P, Q in last_tooth_candidates(p.input_labels, p.output_labels, c):
                    c1, c2 = last_tooth_marginals(p, P, Q)
                    x = LabelledMatrix(c1.entries - c2.entries, c1.row_wires)
                    hs, tn, root_d = hs_norm(x), trace_norm(x), np.sqrt(c1.entries.shape[0])
                    residual = last_tooth_residual(p, P, Q)
                    for tol in (0.0, 1e-8, 0.5 * hs, hs, 0.5 * (hs + tn), tn,
                                1.001 * tn, root_d * hs, 1.001 * root_d * hs, 2.0 * root_d * hs):
                        band_calls.clear()
                        verdict = is_last_tooth_exact(p, P, Q, tol)
                        assert verdict == (residual <= tol), (backend, P, Q, tol, hs, tn)
                        branches[backend].add("trace norm" if band_calls else f"screen {verdict}")
        for seen in branches.values():
            assert seen == {"trace norm", "screen True", "screen False"}


class TestReduceChannel:
    def test_product_reduce(self):
        p = reduce_channel(product_identity_pair(), {"A2"}, {"B2"})
        np.testing.assert_allclose(p.choi.entries, PHI_PLUS, atol=1e-14)
        assert p.input_labels == ("A1",)

    def test_reduce_to_scalar(self):
        p = reduce_channel(identity_channel(), {"A1"}, {"B1"})
        assert p.choi.entries.shape == (1, 1)
        assert p.choi.entries[0, 0] == pytest.approx(1.0)

    def test_cnot_reduce_is_dephasing(self):
        p = reduce_channel(cnot_process(), {"A2"}, {"B2"})
        np.testing.assert_allclose(
            p.choi.entries, np.diag([0.5, 0, 0, 0.5]), atol=1e-12
        )


class TestMembership:
    def test_product_both_orders(self):
        p = product_identity_pair()
        u1 = Unravelling(((("A1",), ("B1",)), (("A2",), ("B2",))))
        u2 = Unravelling(((("A2",), ("B2",)), (("A1",), ("B1",))))
        assert comb_membership(p, u1) and comb_membership(p, u2)

    def test_swap_comb_orders(self):
        # Frozen from the exact recursive factorization: the memory-relay comb
        # accepts (A2,B2)-last and (A2,B1)-last but no ordering ending in A1.
        p = swap_across_teeth()
        ok = Unravelling(((("A1",), ("B1",)), (("A2",), ("B2",))))
        cross = Unravelling(((("A1",), ("B2",)), (("A2",), ("B1",))))
        wrong = Unravelling(((("A2",), ("B2",)), (("A1",), ("B1",))))
        assert comb_membership(p, ok)
        assert comb_membership(p, cross)
        assert not comb_membership(p, wrong)

    def test_trivial_partition(self):
        u = Unravelling(((("A1", "A2"), ("B1", "B2")),))
        assert comb_membership(cnot_process(), u)
        assert membership_residuals(cnot_process(), u) == []

    def test_malformed_partition_rejected(self):
        p = product_identity_pair()
        with pytest.raises(ValueError):
            comb_membership(p, Unravelling(((("A1",), ("B1", "B2")),)))

    def test_residuals_reported_last_first(self):
        p = swap_across_teeth()
        res = membership_residuals(
            p, Unravelling(((("A2",), ("B2",)), (("A1",), ("B1",))))
        )
        assert len(res) == 1 and res[0] == pytest.approx(1.0, abs=1e-10)


class TestKrausRank:
    def test_identity(self):
        assert kraus_rank(identity_channel()) == 1

    def test_depolarizing(self):
        kraus = [0.5 * np.eye(2), 0.5 * PAULI["x"], 0.5 * PAULI["y"], 0.5 * PAULI["z"]]
        assert kraus_rank(choi_from_kraus(kraus, (win("A1"),), (wout("B1"),))) == 4

    def test_dephasing(self):
        p = choi_from_kraus(
            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], (win("A1"),), (wout("B1"),)
        )
        assert kraus_rank(p) == 2


class TestStandardize:
    def test_uniform_dims_passthrough(self):
        p = cnot_process()
        assert standardize(p) is p

    def test_mixed_dims_padded(self):
        # Qubit-to-qutrit embedding channel: isometry |0>,|1> -> |0>,|1> in C^3.
        j = np.zeros((3, 2), dtype=complex)
        j[0, 0] = 1.0
        j[1, 1] = 1.0
        p = choi_from_kraus([j], (win("A1", 2),), (wout("B1", 3),))
        std = standardize(p)
        assert all(w.dim == 3 for w in std.inputs + std.outputs)
        # On the embedded subspace the padded channel acts like the original.
        rho = np.zeros((3, 3), dtype=complex)
        rho[:2, :2] = np.array([[0.25, 0.25], [0.25, 0.75]])
        out_std = apply_channel(std, rho)
        out_orig = apply_channel(p, rho[:2, :2])
        np.testing.assert_allclose(out_std, out_orig, atol=1e-10)

    def test_padding_changes_kraus_count(self):
        j = np.zeros((3, 2), dtype=complex)
        j[0, 0] = 1.0
        j[1, 1] = 1.0
        p = choi_from_kraus([j], (win("A1", 2),), (wout("B1", 3),))
        assert kraus_rank(p) == 1
        assert kraus_rank(standardize(p)) > 1


# -- the Kraus factor carried by Kraus-built processes ------------------------------


def _validation_message(check, *args):
    """The ValueError a validation raises, numbers masked, or None when it passes.

    The two paths sum the trace in different orders, so a printed digit may
    differ in the last place.
    """
    try:
        check(*args)
    except ValueError as exc:
        return re.sub(r"\d+\.\d+", "#", str(exc))
    return None


def _seeded_chain(n, d_env, family="isometric_chain"):
    """The first draw of a seeded comb, with no floor on its causal signal."""
    spec = SynthSpec(n=n, d=2, d_mem=2, d_env=d_env, family=family, chi_min_target=0.0)
    comb, truth = random_comb(spec, Rng(n + d_env))
    return compose_comb(comb), truth.ordering


CHAIN_CASES = [(n, d_env, "isometric_chain") for n in (2, 3, 4, 5) for d_env in (1, 2)] + [
    (2, d_env, "entangling_c2") for d_env in (1, 2)
]


class TestKrausFactor:
    def test_factor_present_exactly_for_kraus_built_processes(self):
        p = cnot_process()
        kraus_obj = {
            "inputs": [w.to_json() for w in p.inputs],
            "outputs": [w.to_json() for w in p.outputs],
            "repr": "kraus",
            "kraus": [{"re": CNOT.real.tolist(), "im": CNOT.imag.tolist()}],
        }
        for q in (p, product_identity_pair(), ProcessMatrix.from_json(kraus_obj)):
            assert q.factor is not None
            assert q.factor.wires == q.choi.row_wires
            np.testing.assert_allclose(q.factor.gram().entries, q.choi.entries, atol=1e-15)
        assert ProcessMatrix.from_json(p.to_json()).factor is None
        assert reduce_channel(dense(p), {"A2"}, {"B2"}).factor is None

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        env=st.integers(1, 3),
        scale=st.sampled_from([0.0, 1e-12, -1e-11, 1e-6, -1e-3, 0.2]),
        tilt=st.sampled_from([0.0, 1e-12, -1e-6, 0.1]),
    )
    def test_factor_check_matches_validate_channel(self, seed, env, scale, tilt):
        # (1+scale) moves the trace away from 1, the tilt breaks trace
        # preservation at unit trace; both act beyond CHANNEL_ATOL or well
        # inside it.
        channel = random_qubit_channel(np.random.default_rng(seed), env)
        tilted = np.diag([np.sqrt(1.0 + tilt), np.sqrt(1.0 - tilt)])
        kraus = [(1.0 + scale) * k @ tilted for k in kraus_from_choi(channel)]
        ins, outs = (win("A1"),), (wout("B1"),)
        f = kraus_factor(kraus, ins, outs)
        c = f.gram()
        want = _validation_message(validate_channel, c, ins, outs)
        assert _validation_message(validate_factor, f, ins, outs) == want
        assert _validation_message(ProcessMatrix, c, ins, outs, f) == want
        assert (want is None) == (scale in (0.0, 1e-12, -1e-11) and tilt in (0.0, 1e-12))

    def test_non_finite_factor_refused(self):
        p = cnot_process()
        bad = CNOT.copy()
        bad[0, 0] = np.nan
        f = kraus_factor([bad], p.inputs, p.outputs)
        with pytest.raises(ValueError, match="non-finite"):
            validate_factor(f, p.inputs, p.outputs)
        with pytest.raises(ValueError):
            validate_channel(f.gram(), p.inputs, p.outputs)
        with pytest.raises(ValueError, match="non-finite"):
            ProcessMatrix(p.choi, p.inputs, p.outputs, f)

    def test_factor_of_another_process_refused(self):
        p = random_qubit_channel(np.random.default_rng(1))
        other = random_qubit_channel(np.random.default_rng(2))
        with pytest.raises(ValueError, match="Choi diagonal"):
            ProcessMatrix(p.choi, p.inputs, p.outputs, other.factor)
        q = cnot_process()
        with pytest.raises(ValueError, match="wires differ"):
            ProcessMatrix(q.choi, q.inputs, q.outputs, q.factor.permute_wires(["A2", "A1", "B1", "B2"]))

    @pytest.mark.parametrize("n,d_env,family", CHAIN_CASES)
    def test_reduced_factor_matches_dense_reduction(self, n, d_env, family):
        p, truth = _seeded_chain(n, d_env, family=family)
        ref = dense(p)
        for pk, qk in reversed(truth.steps[1:]):
            p, ref = reduce_channel(p, pk, qk), reduce_channel(ref, pk, qk)
            assert ref.factor is None
            assert np.array_equal(p.choi.entries, ref.choi.entries)
            assert np.abs(p.factor.gram().entries - p.choi.entries).max() <= 1e-14

    @pytest.mark.parametrize("n,d_env,family", CHAIN_CASES)
    def test_membership_residuals_on_factor_match_dense(self, n, d_env, family):
        p, truth = _seeded_chain(n, d_env, family=family)
        # The true ordering gives zero residuals.  Its reverse gives nonzero
        # ones once the teeth share memory, which needs d_env > 1.
        for u in (truth, Unravelling(tuple(reversed(truth.steps)))):
            got, want = membership_residuals(p, u), membership_residuals(dense(p), u)
            assert len(got) == len(want) == len(u) - 1
            assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= 1e-12
        if d_env > 1:
            assert max(membership_residuals(p, Unravelling(tuple(reversed(truth.steps))))) > 1e-3


def _count_calls(monkeypatch, name):
    """Replace channels.<name> by a wrapper that counts its calls; returns the count list."""
    calls = []
    real = getattr(channels, name)
    monkeypatch.setattr(channels, name, lambda *a: calls.append(1) or real(*a))
    return calls


def _never_built():
    raise AssertionError("the dense Choi matrix was built")


class TestLazyChoi:
    @pytest.mark.parametrize("n,d_env,family", CHAIN_CASES)
    def test_lazy_choi_is_the_eager_assembly_built_once(self, n, d_env, family, monkeypatch):
        spec = SynthSpec(n=n, d=2, d_mem=2, d_env=d_env, family=family, chi_min_target=0.0)
        comb, truth = random_comb(spec, Rng(n + d_env))
        steps = list(reversed(truth.ordering.steps[1:]))
        refs = [dense(compose_comb(comb))]
        for pk, qk in steps:
            refs.append(reduce_channel(refs[-1], pk, qk))
        assemblies = _count_calls(monkeypatch, "_assemble_choi")
        reductions = _count_calls(monkeypatch, "trace_out")
        lazy = [compose_comb(comb)]
        for pk, qk in steps:
            lazy.append(reduce_channel(lazy[-1], pk, qk))
        assert assemblies == [] and reductions == []
        # The eager loop of choi_from_kraus, run here as the reference.
        want = np.zeros_like(refs[0].choi.entries)
        for k in comb_kraus(comb):
            v = k.T.reshape(-1)
            want += np.outer(v, v.conj())
        want /= lazy[0].d_in
        assert np.array_equal(refs[0].choi.entries, want)
        for q, ref in zip(lazy, refs, strict=True):
            assert np.array_equal(q.choi.entries, ref.choi.entries)
            assert q.choi is q.choi
        assert len(assemblies) == 1 and len(reductions) == len(steps)

    def test_lazy_process_validates_its_factor_without_building(self):
        q = cnot_process()
        ins, outs = q.inputs, q.outputs
        assert ProcessMatrix(_never_built, ins, outs, q.factor).factor is q.factor
        with pytest.raises(ValueError, match="wires differ"):
            ProcessMatrix(_never_built, ins, outs, q.factor.permute_wires(["A2", "A1", "B1", "B2"]))
        bad = CNOT.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ProcessMatrix(_never_built, ins, outs, kraus_factor([bad], ins, outs))
        with pytest.raises(ValueError, match="Choi trace"):
            ProcessMatrix(_never_built, ins, outs, kraus_factor([CNOT, CNOT], ins, outs))
        with pytest.raises(ValueError, match="needs a Kraus factor"):
            ProcessMatrix(_never_built, ins, outs)

    def test_process_is_immutable(self):
        p = cnot_process()
        with pytest.raises(AttributeError):
            p.factor = None
        with pytest.raises(AttributeError):
            p.choi = dense(p).choi

    @pytest.mark.parametrize("n,d_env,family", CHAIN_CASES)
    def test_factor_overlaps_match_dense(self, n, d_env, family):
        p, truth = _seeded_chain(n, d_env, family=family)
        ref = dense(p)
        c = 2 if family == "entangling_c2" else 1
        branches = set()
        for pk, qk in reversed(truth.steps):
            for P, Q in last_tooth_candidates(p.input_labels, p.output_labels, c):
                f1, f2 = last_tooth_factors(p.factor, P, Q)
                c1, c2 = last_tooth_marginals(ref, P, Q)
                for fa, fb, ca, cb in ((f1, f1, c1, c1), (f2, f2, c2, c2), (f1, f2, c1, c2)):
                    assert abs(overlap(fa, fb) - overlap(ca, cb)) <= 1e-12
                    branches.add(fa.entries.shape[1] * fb.entries.shape[1] > fa.entries.shape[0] ** 2)
            if len(p.inputs) > 1:
                p, ref = reduce_channel(p, pk, qk), reduce_channel(ref, pk, qk)
        assert branches == {False, True}
