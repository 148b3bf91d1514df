"""Wire-labelled linear algebra: frozen oracle values and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcomb.tensors import (
    EIG_FLOOR,
    HERMITIAN_ATOL,
    Direction,
    LabelCollisionError,
    LabelledFactor,
    LabelledMatrix,
    NotPSDError,
    WireSystem,
    aligned,
    compressed_difference,
    difference_trace_norm,
    hs_norm,
    identity,
    matrix_rank,
    maximally_mixed,
    overlap,
    partial_trace,
    permute_wires,
    rank_eta,
    require_psd,
    tensor_product,
    total_dim,
    trace_norm,
    trace_out,
    truncation_error,
    _psd_eigenvalues,
)


def w(label, dim=2, direction=Direction.INPUT):
    return WireSystem(label, dim, direction)


def lm(entries, *wires):
    return LabelledMatrix(np.asarray(entries, dtype=complex), tuple(wires))


# |Phi+><Phi+| for a pair of qubits.
PHI_PLUS = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


class TestWireSystem:
    def test_dim_validation(self):
        with pytest.raises(ValueError):
            WireSystem("A1", 0, Direction.INPUT)

    def test_dummy_wire_allowed(self):
        assert WireSystem("pad", 1, Direction.OUTPUT).dim == 1

    def test_json_round_trip(self):
        wire = w("B2", 3, Direction.OUTPUT)
        assert WireSystem.from_json(wire.to_json()) == wire


class TestLabelledMatrix:
    def test_shape_must_match_wires(self):
        with pytest.raises(ValueError):
            lm(np.eye(3), w("A1"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LabelCollisionError):
            lm(np.eye(4), w("A1"), w("A1"))

    def test_json_round_trip_square(self):
        rng = np.random.default_rng(7)
        m = lm(random_hermitian(rng, 4), w("A1"), w("B1", direction=Direction.OUTPUT))
        back = LabelledMatrix.loads(m.dumps())
        assert back.row_wires == m.row_wires
        assert back.col_wires == m.col_wires
        np.testing.assert_array_equal(back.entries, m.entries)

    def test_json_round_trip_rectangular(self):
        k = LabelledMatrix(
            np.arange(8, dtype=complex).reshape(4, 2),
            (w("B1", direction=Direction.OUTPUT), w("m", 2, Direction.OUTPUT)),
            (w("A1"),),
        )
        back = LabelledMatrix.loads(k.dumps())
        np.testing.assert_array_equal(back.entries, k.entries)
        assert back.row_wires != back.col_wires


class TestTensorProduct:
    def test_identity_times_identity(self):
        prod = tensor_product(identity([w("A1")]), identity([w("A2")]))
        np.testing.assert_array_equal(prod.entries, np.eye(4))
        assert prod.labels == ("A1", "A2")

    def test_basis_projectors(self):
        p0 = lm([[1, 0], [0, 0]], w("A1"))
        p1 = lm([[0, 0], [0, 1]], w("A2"))
        np.testing.assert_array_equal(
            tensor_product(p0, p1).entries, np.diag([0, 1, 0, 0])
        )

    def test_sigma_x_pair_flips_00_to_11(self):
        # Oracle: direct 4x4 matrix-vector product.
        xx = tensor_product(lm(SIGMA_X, w("A1")), lm(SIGMA_X, w("A2")))
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        expected = np.kron(SIGMA_X, SIGMA_X) @ ket00
        np.testing.assert_allclose(xx.entries @ ket00, expected, atol=0)
        np.testing.assert_array_equal(xx.entries @ ket00, np.array([0, 0, 0, 1]))

    def test_label_collision(self):
        with pytest.raises(LabelCollisionError):
            tensor_product(identity([w("A1")]), identity([w("A1")]))


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        phi = lm(PHI_PLUS, w("A1"), w("B1", direction=Direction.OUTPUT))
        out = partial_trace(phi, ["A1"])
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-15)
        assert out.labels == ("A1",)

    def test_empty_complement_is_identity_op(self):
        phi = lm(PHI_PLUS, w("A1"), w("B1", direction=Direction.OUTPUT))
        same = partial_trace(phi, ["A1", "B1"])
        np.testing.assert_array_equal(same.entries, phi.entries)

    def test_explicit_contraction_oracle(self):
        # Tr_{A2}[ Phi+_{A1 B1} x |0><0|_{A2} ]: oracle is a raw reshape-sum
        # on the 8x8 array, independent of the library's trace loop.
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        big = np.kron(PHI_PLUS, p0)
        t = big.reshape(2, 2, 2, 2, 2, 2)  # (a1, b1, a2) x (a1', b1', a2')
        expected = np.einsum("abkcdk->abcd", t).reshape(4, 4)
        m = lm(
            big,
            w("A1"),
            w("B1", direction=Direction.OUTPUT),
            w("A2"),
        )
        out = partial_trace(m, ["A1", "B1"])
        np.testing.assert_allclose(out.entries, expected, atol=1e-15)
        np.testing.assert_allclose(out.entries, PHI_PLUS, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        m = lm(random_hermitian(rng, 8), w("A1"), w("A2"), w("B1", 2, Direction.OUTPUT))
        for keep in (["A1"], ["A2", "B1"], []):
            reduced = partial_trace(m, keep)
            assert abs(np.trace(reduced.entries) - np.trace(m.entries)) < 1e-12

    def test_trace_out_complement_form(self):
        rng = np.random.default_rng(12)
        m = lm(random_hermitian(rng, 4), w("A1"), w("A2"))
        np.testing.assert_array_equal(
            trace_out(m, ["A2"]).entries, partial_trace(m, ["A1"]).entries
        )

    def test_unknown_label(self):
        phi = lm(PHI_PLUS, w("A1"), w("B1", direction=Direction.OUTPUT))
        with pytest.raises(KeyError):
            partial_trace(phi, ["A1", "nope"])


class TestPermuteWires:
    def test_identity_order(self):
        phi = lm(PHI_PLUS, w("A1"), w("B1", direction=Direction.OUTPUT))
        np.testing.assert_array_equal(
            permute_wires(phi, ["A1", "B1"]).entries, phi.entries
        )

    def test_swap_basis_state(self):
        m = lm(np.diag([0, 1, 0, 0]), w("A1"), w("A2"))  # |01><01|
        out = permute_wires(m, ["A2", "A1"])
        np.testing.assert_array_equal(out.entries, np.diag([0, 0, 1, 0]))  # |10><10|
        assert out.labels == ("A2", "A1")

    @settings(deadline=None, max_examples=25)
    @given(order=st.permutations(["A1", "A2", "B1"]))
    def test_round_trip_exact(self, order):
        rng = np.random.default_rng(5)
        m = lm(
            random_hermitian(rng, 12),
            w("A1", 2),
            w("A2", 3),
            w("B1", 2, Direction.OUTPUT),
        )
        there = permute_wires(m, order)
        back = permute_wires(there, ["A1", "A2", "B1"])
        np.testing.assert_array_equal(back.entries, m.entries)

    def test_eigenvalues_preserved(self):
        rng = np.random.default_rng(6)
        m = lm(random_hermitian(rng, 8), w("A1"), w("A2"), w("A3"))
        out = permute_wires(m, ["A3", "A1", "A2"])
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.entries), np.linalg.eigvalsh(m.entries), atol=1e-12
        )

    def test_non_bijection_rejected(self):
        m = lm(np.eye(4), w("A1"), w("A2"))
        with pytest.raises(ValueError):
            permute_wires(m, ["A1", "A1"])

    def test_aligned_matches_reference_order(self):
        rng = np.random.default_rng(13)
        m = lm(random_hermitian(rng, 4), w("A1"), w("B1", direction=Direction.OUTPUT))
        ref = lm(np.eye(4), w("B1", direction=Direction.OUTPUT), w("A1"))
        assert aligned(m, ref).labels == ("B1", "A1")


class TestNorms:
    def test_trace_norm_density(self):
        assert trace_norm(lm(np.eye(4) / 4, w("A1"), w("A2"))) == pytest.approx(1.0)

    def test_trace_norm_orthogonal_difference(self):
        m = lm(np.diag([1.0, -1.0]), w("A1"))
        assert trace_norm(m) == pytest.approx(2.0)

    def test_trace_norm_phi_plus_vs_mixed(self):
        # Eigenvalues of Phi+ - I/4 are {3/4, -1/4, -1/4, -1/4}: norm 3/2.
        m = lm(PHI_PLUS - np.eye(4) / 4, w("A1"), w("B1", direction=Direction.OUTPUT))
        assert trace_norm(m) == pytest.approx(1.5, abs=1e-12)

    def test_trace_norm_non_square(self):
        k = LabelledMatrix(np.ones((4, 2)), (w("B1"), w("m")), (w("A1"),))
        with pytest.raises(ValueError):
            trace_norm(k)

    def test_trace_norm_non_hermitian(self):
        # Singular values of [[0,1],[0,0]] are {1, 0}.
        m = lm([[0, 1], [0, 0]], w("A1"))
        assert trace_norm(m) == pytest.approx(1.0)

    def test_hs_norm_identity(self):
        assert hs_norm(identity([w("A1")])) == pytest.approx(np.sqrt(2))

    def test_hs_norm_phi_plus_vs_mixed(self):
        m = lm(PHI_PLUS - np.eye(4) / 4, w("A1"), w("B1", direction=Direction.OUTPUT))
        assert hs_norm(m) == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_tensor_multiplicativity(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = lm(random_hermitian(rng, 2), w("A1"))
            b = lm(random_hermitian(rng, 3), w("A2", 3))
            lhs = trace_norm(tensor_product(a, b))
            rhs = trace_norm(a) * trace_norm(b)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestRanks:
    def test_rank_mixed(self):
        assert matrix_rank(lm(np.eye(4) / 4, w("A1"), w("A2"))) == 4

    def test_rank_pure(self):
        assert matrix_rank(lm(PHI_PLUS, w("A1"), w("B1"))) == 1

    def test_rank_diagonal(self):
        m = lm(np.diag([0.7, 0.2, 0.1, 0.0]), w("A1"), w("A2"))
        assert matrix_rank(m, rel_tol=1e-9) == 3

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSDError):
            matrix_rank(lm(np.diag([1.0, -1.0]), w("A1")))

    def test_floor_tolerates_noise(self):
        m = lm(np.diag([1.0, -1e-10]), w("A1"))
        assert matrix_rank(m) == 1

    def test_rank_eta_zero_matches_rank(self):
        m = lm(np.diag([0.7, 0.2, 0.1, 0.0]), w("A1"), w("A2"))
        assert rank_eta(m, 0.0) == matrix_rank(m)

    def test_rank_eta_tail_enumeration(self):
        # tail at r=2 is 0.1 <= 0.12; tail at r=1 is sqrt(0.05) ~ 0.224 > 0.12.
        m = lm(np.diag([0.7, 0.2, 0.1, 0.0]), w("A1"), w("A2"))
        assert rank_eta(m, 0.12) == 2

    def test_rank_eta_floor_at_one(self):
        # The eta-ball around I/4 contains 0, but rank 0 is forbidden.
        m = lm(np.eye(4) / 4, w("A1"), w("A2"))
        assert np.sqrt(3 * 0.0625) <= 0.6
        assert rank_eta(m, 0.6) == 1

    def test_rank_eta_zero_matrix(self):
        m = lm(np.zeros((2, 2)), w("A1"))
        assert rank_eta(m, 0.5) == 0

    def test_rank_eta_negative_eta(self):
        with pytest.raises(ValueError):
            rank_eta(lm(np.eye(2), w("A1")), -0.1)

    @settings(deadline=None, max_examples=40)
    @given(
        e1=st.floats(min_value=0.0, max_value=1.0),
        e2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_rank_eta_monotone(self, e1, e2):
        lo, hi = sorted([e1, e2])
        rng = np.random.default_rng(31)
        m = lm(random_density(rng, 8), w("A1"), w("A2"), w("A3"))
        assert rank_eta(m, hi) <= rank_eta(m, lo)

    def test_truncation_error_consistency(self):
        rng = np.random.default_rng(32)
        m = lm(random_density(rng, 8), w("A1"), w("A2"), w("A3"))
        for r in range(1, 9):
            eta = truncation_error(m, r)
            assert rank_eta(m, eta if eta > 0 else 0.0) <= r


class TestRequirePsd:
    @pytest.mark.parametrize(
        "entries",
        [PHI_PLUS, np.diag([0.7, 0.3, 0.0, 0.0]), np.zeros((4, 4)), np.diag([1.0, -5e-10, 0.0, 0.0])],
        ids=["rank-1", "zero-eigenvalues", "zero", "inside-floor"],
    )
    def test_accepts_psd_within_floor(self, entries):
        require_psd(lm(entries, w("A1"), w("A2")))

    def test_rejects_below_floor_naming_the_eigenvalue(self):
        with pytest.raises(NotPSDError, match=r"eigenvalue -2\.000e-09 below the PSD floor"):
            require_psd(lm(np.diag([1.0, -2e-9]), w("A1")))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPSDError, match="not Hermitian"):
            require_psd(lm([[0.5, 0.5], [0.0, 0.5]], w("A1")))

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lowest=st.one_of(
            st.floats(min_value=-1e-3, max_value=1.5 * EIG_FLOOR),
            st.floats(min_value=0.5 * EIG_FLOOR, max_value=1e-3),
        ),
    )
    def test_verdict_matches_spectrum(self, seed, lowest):
        # Random 16x16 Hermitian with its smallest eigenvalue set to `lowest`,
        # kept at least half the floor away from the floor itself.
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        spectrum = np.concatenate([[lowest], rng.uniform(0.0, 0.2, size=15)])
        m = lm((q * spectrum) @ q.conj().T, w("A1", 4), w("A2", 4))
        try:
            _psd_eigenvalues(m)
            expected = None
        except NotPSDError as exc:
            expected = str(exc)
        try:
            require_psd(m)
            got = None
        except NotPSDError as exc:
            got = str(exc)
        assert got == expected


class TestNormInequalities:
    def test_difference_sandwich(self):
        # On differences of states: 2*hs^2 <= tr^2 <= 4*rank*hs^2.  The rank
        # oracle here is numpy's, since the difference is not PSD.
        rng = np.random.default_rng(41)
        for _ in range(200):
            d = int(rng.choice([2, 4, 8]))
            diff = random_density(rng, d) - random_density(rng, d)
            m = lm(diff, w("X", d))
            tr2 = trace_norm(m) ** 2
            hs2 = hs_norm(m) ** 2
            r = np.linalg.matrix_rank(diff, tol=1e-10, hermitian=True)
            assert 2 * hs2 - tr2 <= 1e-9
            assert tr2 - 4 * r * hs2 <= 1e-9

    def test_empty_wire_scalar(self):
        m = LabelledMatrix(np.array([[2.0 + 0j]]), ())
        assert total_dim(m.row_wires) == 1
        assert trace_norm(m) == pytest.approx(2.0)


class TestIsHermitian:
    @settings(deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        scale=st.sampled_from([0.0, 0.3, 0.5, 0.99, 1.0, 1.01, 2.0, 1e6]),
    )
    def test_matches_allclose(self, seed, d, scale):
        # Hermitian matrices perturbed by a random matrix of max-abs entry
        # scale * HERMITIAN_ATOL, so verdicts fall on both sides of the edge.
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, d)
        e = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = a + scale * HERMITIAN_ATOL * e / np.abs(e).max()
        expected = bool(np.allclose(a, a.conj().T, atol=HERMITIAN_ATOL, rtol=0.0))
        assert lm(a, w("X", d)).is_hermitian() == expected

    def test_rejects_nan_and_non_square(self):
        a = np.eye(2, dtype=complex)
        a[0, 0] = np.nan
        assert not lm(a, w("A1")).is_hermitian()
        rect = LabelledMatrix(np.zeros((2, 4)), (w("A1"),), (w("A1"), w("A2")))
        assert not rect.is_hermitian()


def random_factor(rng, wires, k):
    d = total_dim(wires)
    return LabelledFactor(rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)), wires)


FACTOR_WIRES = (w("A1"), w("A2", 3), w("B1", 2, Direction.OUTPUT), w("B2", 2, Direction.OUTPUT))


class TestLabelledFactor:
    def test_rows_must_match_wires(self):
        with pytest.raises(ValueError):
            LabelledFactor(np.zeros((5, 2)), (w("A1"), w("A2")))
        with pytest.raises(LabelCollisionError):
            LabelledFactor(np.zeros((4, 1)), (w("A1"), w("A1")))

    @pytest.mark.parametrize("drop", [(), ("A2",), ("A1", "B2"), ("A1", "A2", "B1", "B2")])
    def test_trace_out_matches_dense(self, drop):
        f = random_factor(np.random.default_rng(1), FACTOR_WIRES, 3)
        got = f.trace_out(drop).gram()
        want = trace_out(f.gram(), drop)
        assert got.row_wires == want.row_wires
        assert np.allclose(got.entries, want.entries, atol=1e-12)

    def test_trace_out_unknown_label(self):
        with pytest.raises(KeyError):
            random_factor(np.random.default_rng(1), FACTOR_WIRES, 1).trace_out({"C9"})

    def test_maximally_mixed_and_permutation_match_dense(self):
        f = random_factor(np.random.default_rng(2), FACTOR_WIRES[2:], 2)
        mixed = (w("A1"), w("A2", 3))
        order = ["B2", "A2", "B1", "A1"]
        got = f.tensor_maximally_mixed(mixed).permute_wires(order).gram()
        want = permute_wires(tensor_product(f.gram(), maximally_mixed(mixed)), order)
        assert got.row_wires == want.row_wires
        assert np.allclose(got.entries, want.entries, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5, 30])
    def test_rank_matches_dense_rank(self, k):
        rng = np.random.default_rng(k)
        f = random_factor(rng, FACTOR_WIRES, k)
        # Appended combinations of the columns must not raise the rank.
        doubled = LabelledFactor(np.hstack([f.entries, f.entries @ rng.normal(size=(k, k))]), f.wires)
        assert doubled.rank() == matrix_rank(doubled.gram()) == min(k, total_dim(f.wires))

    @pytest.mark.parametrize("k_plus,k_minus", [(1, 1), (2, 8), (0, 3), (12, 12), (30, 2)])
    def test_difference_trace_norm_matches_dense(self, k_plus, k_minus):
        # 24 rows: the first three cases take the QR branch, the last two
        # the dense one.
        rng = np.random.default_rng(10 * k_plus + k_minus)
        plus = random_factor(rng, FACTOR_WIRES, k_plus)
        minus = random_factor(rng, FACTOR_WIRES, k_minus)
        dense = trace_norm(lm(plus.gram().entries - minus.gram().entries, *FACTOR_WIRES))
        assert difference_trace_norm(plus, minus) == pytest.approx(dense, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5, 24, 30])
    def test_spectrum_matches_dense_eigenvalues(self, k):
        f = random_factor(np.random.default_rng(k), FACTOR_WIRES, k)
        got = np.sort(f.spectrum())
        assert got.shape == (total_dim(FACTOR_WIRES),)
        np.testing.assert_allclose(got, _psd_eigenvalues(f.gram()), rtol=0, atol=1e-12 * got[-1])

    @pytest.mark.parametrize("k_plus,k_minus", [(1, 1), (2, 8), (0, 3), (12, 12), (30, 2)])
    def test_compressed_difference_keeps_norms(self, k_plus, k_minus):
        rng = np.random.default_rng(k_plus + 100 * k_minus)
        plus = random_factor(rng, FACTOR_WIRES, k_plus)
        minus = random_factor(rng, FACTOR_WIRES, k_minus)
        dense = lm(plus.gram().entries - minus.gram().entries, *FACTOR_WIRES)
        small = compressed_difference(plus, minus)
        # Its side bounds the difference's rank, as the HS screen requires.
        assert small.entries.shape[0] == min(k_plus + k_minus, total_dim(FACTOR_WIRES))
        assert hs_norm(small) == pytest.approx(hs_norm(dense), rel=1e-12)
        assert trace_norm(small) == pytest.approx(trace_norm(dense), rel=1e-12)

    def test_difference_trace_norm_needs_equal_wires(self):
        f = random_factor(np.random.default_rng(3), FACTOR_WIRES, 1)
        with pytest.raises(ValueError):
            difference_trace_norm(f, f.permute_wires(["A2", "A1", "B1", "B2"]))

    @pytest.mark.parametrize("k_a,k_b", [(1, 1), (0, 3), (3, 30), (24, 24), (24, 25), (30, 30)])
    def test_overlap_matches_dense(self, k_a, k_b):
        # 24 rows: products of column counts above 576 take the Gram branch.
        rng = np.random.default_rng(k_a + 100 * k_b)
        a = random_factor(rng, FACTOR_WIRES, k_a)
        b = random_factor(rng, FACTOR_WIRES, k_b)
        for x, y in ((a, b), (b, a), (a, a)):
            want = float(np.trace(x.gram().entries @ y.gram().entries).real)
            assert overlap(x, y) == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert overlap(x.gram(), y.gram()) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_overlap_needs_a_matching_pair(self):
        f = random_factor(np.random.default_rng(4), FACTOR_WIRES, 2)
        with pytest.raises(TypeError):
            overlap(f, f.gram())
