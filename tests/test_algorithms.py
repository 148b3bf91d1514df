import numpy as np
import pytest

from qcomb.algorithms import (
    CERT_ETA_SNAP,
    IndMatrix,
    QueryMeter,
    RankCertificate,
    UnravelParams,
    UnravelResult,
    check_last,
    certify,
    chi1_sample_count,
    error_bound_approximate,
    estimate_chi1,
    estimate_chi1_from_frequencies,
    independence_matrix,
    memoryless_comparison,
    sampled_last_tooth_statistic,
    unravel_general_c,
    unravel_memoryless,
    unravel_recursive,
    unravel_total_order,
    xi_constant,
)
from qcomb.channels import (
    Comb,
    ProcessMatrix,
    Tooth,
    chi1,
    choi_from_kraus,
    comb_membership,
    compose_comb,
    marginal,
    membership_residuals,
    reduce_channel,
)
from qcomb.sampling import (
    Rng,
    build_sic_povm_qubit,
    exact_cell_probabilities,
    sample_outcome_matrix,
    swaptest_draw_count,
)
from qcomb.synth import SynthSpec, random_comb, random_memoryless, total_order_chain
from qcomb.tensors import (
    Direction,
    WireSystem,
    aligned,
    LabelledFactor,
    LabelledMatrix,
    rank_eta,
    trace_norm,
    trace_out,
    truncation_error,
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def win(label, dim=2):
    return WireSystem(label, dim, Direction.INPUT)


def wout(label, dim=2):
    return WireSystem(label, dim, Direction.OUTPUT)


def identity_channel():
    return choi_from_kraus([np.eye(2)], (win("A1"),), (wout("B1"),))


def depolarizing_channel():
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]
    return choi_from_kraus(
        [p / 2.0 for p in paulis], (win("A1"),), (wout("B1"),)
    )


def cnot_process():
    return choi_from_kraus([CNOT], (win("A1"), win("A2")), (wout("B1"), wout("B2")))


def product_identity_pair():
    t1 = Tooth((np.eye(2),), (win("A1"),), (wout("B1"),), 1, 1)
    t2 = Tooth((np.eye(2),), (win("A2"),), (wout("B2"),), 1, 1)
    return compose_comb(Comb((t1, t2)))


# -- parameter plumbing ------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        UnravelParams(chi_min=0.0)
    with pytest.raises(ValueError):
        UnravelParams(kappa0=1.0)
    with pytest.raises(ValueError):
        UnravelParams(mode="analytic")
    with pytest.raises(ValueError):
        UnravelParams(c=0)
    with pytest.raises(ValueError):
        UnravelParams(rank_bound=0)
    with pytest.raises(ValueError):
        UnravelParams(eta_max=-1e-3)
    with pytest.raises(ValueError):
        UnravelParams(delta=0.0)
    with pytest.raises(ValueError):
        UnravelParams(eps=-0.1)


def test_derived_thresholds_with_rank_bound():
    # delta = chi_min^2 / (8 d_A r), eps = delta / 5, kappa = kappa0 / (3 n^3)
    p = UnravelParams(chi_min=0.5, rank_bound=1)
    delta, eps, _ = p.derived(2, 2)
    assert delta == pytest.approx(0.015625, abs=0)
    assert eps == pytest.approx(0.003125, abs=0)

    p = UnravelParams(chi_min=0.3, kappa0=0.1, rank_bound=1)
    delta, eps, kappa = p.derived(2, 2)
    assert delta == pytest.approx(0.005625, abs=0)
    assert eps == pytest.approx(0.001125, abs=0)
    assert kappa == pytest.approx(0.1 / 24, rel=1e-15)
    assert swaptest_draw_count(eps, kappa) == 9_756_107


def test_derived_thresholds_without_rank_bound():
    # falls back to the approximate-rank recipe: delta = 2 eta_max^2, eps = delta/4
    delta, eps, _ = UnravelParams(eta_max=1e-2).derived(3, 2)
    assert delta == pytest.approx(2e-4, abs=0)
    assert eps == pytest.approx(5e-5, abs=0)


def test_derived_overrides_pass_through():
    delta, eps, _ = UnravelParams(delta=0.1, eps=0.02, rank_bound=3).derived(2, 2)
    assert (delta, eps) == (0.1, 0.02)


def test_query_meter_refuses_negative():
    m = QueryMeter()
    m.add(5)
    assert m.count == 5
    with pytest.raises(ValueError):
        m.add(-1)


# -- last-tooth checks -------------------------------------------------------------


def test_check_last_exact_on_products_and_cnot():
    pair = product_identity_pair()
    exact = UnravelParams(mode="exact")
    assert check_last(pair, {"A1"}, {"B1"}, exact)
    assert check_last(pair, {"A2"}, {"B2"}, exact)
    assert not check_last(pair, {"A1"}, {"B2"}, exact)

    cnot = cnot_process()
    assert not check_last(cnot, {"A2"}, {"B2"}, exact)
    assert check_last(
        cnot, {"A1", "A2"}, {"B1", "B2"}, UnravelParams(mode="exact", c=2)
    )


def test_check_last_enforces_block_cap():
    with pytest.raises(ValueError):
        check_last(cnot_process(), {"A1", "A2"}, {"B1", "B2"}, UnravelParams(c=1))


def test_sampled_statistic_matches_hs_distance():
    # For two independent identity teeth the cross-pair marginals differ by
    # HS^2 = 1/2 + 1/8 - 2/8 = 0.375; the matched pair is exactly factorized.
    pair = product_identity_pair()
    meter = QueryMeter()
    stat, (p1, p2, p3) = sampled_last_tooth_statistic(
        pair, {"A1"}, {"B2"}, 0.001125, 0.1 / 24, Rng(5), meter
    )
    n = swaptest_draw_count(0.001125, 0.1 / 24)
    assert meter.count == 6 * n
    assert stat == pytest.approx(0.375, abs=0.01)
    assert 0.0 <= min(p1, p2, p3) and max(p1, p2, p3) <= 1.0

    stat0, _ = sampled_last_tooth_statistic(
        pair, {"A1"}, {"B1"}, 0.001125, 0.1 / 24, Rng(5)
    )
    assert abs(stat0) < 0.01


def test_sampled_statistic_deterministic():
    pair = product_identity_pair()
    a = sampled_last_tooth_statistic(pair, {"A1"}, {"B2"}, 0.01, 0.01, Rng(9))
    b = sampled_last_tooth_statistic(pair, {"A1"}, {"B2"}, 0.01, 0.01, Rng(9))
    assert a == b


def test_check_last_sampled_accepts_true_pair_rejects_cross():
    pair = product_identity_pair()
    params = UnravelParams(chi_min=0.3, kappa0=0.1, mode="sampled", rank_bound=1)
    assert check_last(pair, {"A1"}, {"B1"}, params, Rng(21))
    assert not check_last(pair, {"A1"}, {"B2"}, params, Rng(22))


# -- the recursion, exact mode -------------------------------------------------------


def test_recursive_exact_on_chain_is_member_and_free():
    comb, gt = random_comb(SynthSpec(n=3, d=2, d_mem=2, d_env=1), Rng(4))
    p = compose_comb(comb)
    res = unravel_recursive(p, UnravelParams(mode="exact"), Rng(0))
    assert res.mode == "exact"
    assert res.queries == 0
    assert len(res.unravelling.steps) == 3
    assert comb_membership(p, res.unravelling)
    assert res.certificate is not None and res.certificate.eta_max == 0.0
    assert res.error_bound == 0.0


def test_recursive_requires_single_pair_cap():
    with pytest.raises(ValueError):
        unravel_recursive(product_identity_pair(), UnravelParams(c=2), Rng(0))


def test_cnot_collapses_to_trivial_step_at_c1():
    res = unravel_recursive(cnot_process(), UnravelParams(mode="exact"), Rng(0))
    assert res.unravelling.steps == ((("A1", "A2"), ("B1", "B2")),)


def test_cnot_single_two_by_two_step_at_c2():
    res = unravel_general_c(cnot_process(), UnravelParams(mode="exact", c=2), Rng(0))
    assert res.unravelling.steps == ((("A1", "A2"), ("B1", "B2")),)
    assert comb_membership(cnot_process(), res.unravelling)


def test_entangled_block_recovered_at_c2():
    spec = SynthSpec(n=2, d=2, d_mem=2, d_env=1, chi_min_target=0.1,
                     family="entangling_c2")
    comb, gt = random_comb(spec, Rng(8))
    p = compose_comb(comb)
    res = unravel_general_c(p, UnravelParams(mode="exact", c=2), Rng(0))
    assert res.unravelling.steps == ((("A1", "A2"), ("B1", "B2")), (("A3",), ("B3",)))
    assert res.unravelling.steps == gt.ordering.steps
    assert comb_membership(p, res.unravelling)


def test_exact_runs_are_deterministic():
    comb, _ = random_comb(SynthSpec(n=3, d=2, d_mem=2, d_env=1), Rng(13))
    p = compose_comb(comb)
    r1 = unravel_recursive(p, UnravelParams(mode="exact"), Rng(1))
    r2 = unravel_recursive(p, UnravelParams(mode="exact"), Rng(1))
    assert r1.to_json() == r2.to_json()


# -- the recursion, sampled mode ------------------------------------------------------


def test_sampled_recursion_recovers_product_within_budget():
    comb, _ = random_comb(
        SynthSpec(n=2, d=2, d_mem=2, d_env=1, chi_min_target=0.3), Rng(77)
    )
    p = compose_comb(comb)
    params = UnravelParams(chi_min=0.3, kappa0=0.1, mode="sampled", rank_bound=1)
    res = unravel_recursive(p, params, Rng(123))
    n = swaptest_draw_count(*params.derived(2, 2)[1:])
    # first scanned candidate passes at each stage, so exactly one paid check
    assert res.queries == 6 * n
    assert res.queries <= 3 * 2**3 * n
    assert len(res.unravelling.steps) == 2
    assert all(len(pk) == 1 and len(qk) == 1 for pk, qk in res.unravelling.steps)
    assert comb_membership(p, res.unravelling)
    assert max(membership_residuals(p, res.unravelling)) < 1e-9


def test_sampled_budget_overrun_raises(monkeypatch):
    # An explicit error, not an assert that `python -O` would strip.
    import qcomb.algorithms as algorithms

    monkeypatch.setattr(algorithms, "query_budget", lambda n, n_swap: 0)
    params = UnravelParams(chi_min=0.3, kappa0=0.1, mode="sampled", rank_bound=1)
    with pytest.raises(RuntimeError, match="over its budget 0"):
        unravel_recursive(product_identity_pair(), params, Rng(2))


def test_sampled_runs_are_deterministic():
    p = product_identity_pair()
    params = UnravelParams(chi_min=0.3, kappa0=0.1, mode="sampled", rank_bound=1)
    r1 = unravel_recursive(p, params, Rng(2))
    r2 = unravel_recursive(p, params, Rng(2))
    assert r1.to_json() == r2.to_json()


def test_certificate_marginal_ranks_recorded():
    # Tracing a step's outputs from a rank-1 product comb leaves I/d x C2,
    # whose rank is d: the certificate must report the marginal rank, not the
    # full-process rank bound.
    comb, _ = random_comb(SynthSpec(n=2, d=2, d_mem=2, d_env=1), Rng(77))
    p = compose_comb(comb)
    res = unravel_recursive(p, UnravelParams(mode="exact", rank_bound=1), Rng(0))
    assert [r for _, _, r in res.certificate.records] == [2, 2]
    assert res.certificate.eta_max == 0.0
    assert res.error_bound == 0.0


# -- certificates and the error bound ---------------------------------------------------


def _certify_three_spectra(marg, eta_max):
    """The certificate entry as computed from three separate eigensolves."""
    eta = truncation_error(marg, rank_eta(marg, eta_max))
    if eta < CERT_ETA_SNAP:
        eta = 0.0
    return eta, rank_eta(marg, eta)


@pytest.mark.parametrize("d_env", [1, 2])
def test_single_spectrum_certify_is_bit_identical(d_env):
    comb, truth = random_comb(SynthSpec(n=3, d=2, d_mem=2, d_env=d_env), Rng(11))
    p = compose_comb(comb)
    etas = set()
    for pk, qk in reversed(truth.ordering.steps):
        marg = trace_out(p.choi, qk)
        for eta_max in (0.0, 1e-2, 0.15, 0.3, 1.0):
            got = certify(marg, eta_max)
            assert got == _certify_three_spectra(marg, eta_max)
            etas.add(got[0])
        if len(p.inputs) > 1:
            p = reduce_channel(p, pk, qk)
    assert len(etas) > 2  # nonzero truncation errors were compared too


FACTOR_CASES = [(n, d_env, "isometric_chain") for n in (2, 3, 4, 5) for d_env in (1, 2)] + [
    (2, d_env, "entangling_c2") for d_env in (1, 2)
]


def _seeded_chain(n, d_env, family):
    """A seeded comb's process (with its Kraus factor), its dense reference and its truth."""
    spec = SynthSpec(n=n, d=2, d_mem=2, d_env=d_env, family=family, chi_min_target=0.0)
    comb, truth = random_comb(spec, Rng(n + d_env))
    p = compose_comb(comb)
    return p, ProcessMatrix(p.choi, p.inputs, p.outputs), truth.ordering


@pytest.mark.parametrize("n,d_env,family", FACTOR_CASES)
def test_certify_on_factor_matches_dense(n, d_env, family):
    p, ref, truth = _seeded_chain(n, d_env, family)
    etas = set()
    for pk, qk in reversed(truth.steps):
        got_marg, want_marg = marginal(p, qk), marginal(ref, qk)
        assert isinstance(got_marg, LabelledFactor) and isinstance(want_marg, LabelledMatrix)
        for eta_max in (0.0, 1e-2, 0.15, 0.3, 1.0):
            (eta, r), (want_eta, want_r) = certify(got_marg, eta_max), certify(want_marg, eta_max)
            assert abs(eta - want_eta) <= 1e-12 and r == want_r, (pk, qk, eta_max)
            etas.add(want_eta)
        if len(p.inputs) > 1:
            p, ref = reduce_channel(p, pk, qk), reduce_channel(ref, pk, qk)
    assert len(etas) > 1  # nonzero truncation errors were compared too


@pytest.mark.parametrize("n,d_env,family", FACTOR_CASES)
def test_unravel_on_factor_matches_dense(n, d_env, family):
    p, ref, truth = _seeded_chain(n, d_env, family)
    params = UnravelParams(mode="exact", c=2 if family == "entangling_c2" else 1, eta_max=0.3)
    got, want = unravel_general_c(p, params, Rng(0)), unravel_general_c(ref, params, Rng(0))
    assert got.unravelling == want.unravelling
    assert comb_membership(ref, got.unravelling)
    pairs = zip(got.certificate.records, want.certificate.records, strict=True)
    for (k, eta, r), (want_k, want_eta, want_r) in pairs:
        assert k == want_k and r == want_r and abs(eta - want_eta) <= 1e-12
    assert got.error_bound == pytest.approx(want.error_bound, rel=1e-9, abs=1e-12)


def test_rank_certificate_properties_and_json():
    cert = RankCertificate(((1, 0.01, 1), (2, 0.0, 3)))
    assert cert.eta_max == 0.01
    assert cert.r_max == 3
    assert RankCertificate.from_json(cert.to_json()) == cert
    empty = RankCertificate(())
    assert empty.eta_max == 0.0
    assert empty.r_max == 1


def test_error_bound_frozen_value_and_monotonicity():
    # 8 sqrt(2) * 3 * 1^(1/4) * 0.01^(1/2)
    cert = RankCertificate(((1, 0.01, 1),))
    assert error_bound_approximate(cert, 3) == pytest.approx(
        3.3941125496954285, rel=1e-15
    )
    assert error_bound_approximate(cert, 0) == 0.0
    bigger_rank = RankCertificate(((1, 0.01, 5),))
    bigger_eta = RankCertificate(((1, 0.04, 1),))
    base = error_bound_approximate(cert, 3)
    assert error_bound_approximate(bigger_rank, 3) > base
    assert error_bound_approximate(bigger_eta, 3) > base
    with pytest.raises(ValueError):
        error_bound_approximate(cert, -1)


def test_unravel_result_json_round_trip():
    comb, _ = random_comb(SynthSpec(n=2, d=2, d_mem=2, d_env=1), Rng(1))
    p = compose_comb(comb)
    res = unravel_recursive(p, UnravelParams(mode="exact"), Rng(0))
    back = UnravelResult.from_json(res.to_json())
    assert back.unravelling.steps == res.unravelling.steps
    assert back.mode == res.mode
    assert back.queries == res.queries
    assert back.certificate == res.certificate
    assert back.error_bound == res.error_bound
    assert back.ind is None


# -- chi1 estimation -------------------------------------------------------------------


def test_xi_constant_frozen_qubit_value():
    assert xi_constant(2, 2, 1 / 6, 1 / 6) == pytest.approx(
        0.006014065304058602, rel=1e-15
    )
    with pytest.raises(ValueError):
        xi_constant(2, 2, 0.0, 1 / 6)


def test_chi1_sample_count_frozen_value():
    assert chi1_sample_count(0.3, 0.05, 2, 2, 1 / 6, 1 / 6) == 1_054_761
    with pytest.raises(ValueError):
        chi1_sample_count(0.0, 0.05, 2, 2, 1 / 6, 1 / 6)
    with pytest.raises(ValueError):
        chi1_sample_count(0.3, 1.5, 2, 2, 1 / 6, 1 / 6)


def test_estimate_chi1_exact_limit_identity():
    # identity channel: chi1 = 3/2 exactly, and exact cell probabilities must
    # reproduce it through the linear-inversion estimator
    p = identity_channel()
    pa = build_sic_povm_qubit()
    pb = build_sic_povm_qubit()
    freq = exact_cell_probabilities(p, [pa], [pb])
    est = estimate_chi1_from_frequencies(freq, pa, pb)
    assert est == pytest.approx(1.5, abs=1e-9)
    assert est == pytest.approx(chi1(p, {"A1"}, {"B1"}), abs=1e-9)


def test_estimate_chi1_exact_limit_product():
    p = depolarizing_channel()
    pa = build_sic_povm_qubit()
    pb = build_sic_povm_qubit()
    freq = exact_cell_probabilities(p, [pa], [pb])
    assert estimate_chi1_from_frequencies(freq, pa, pb) <= 1e-10


def test_estimate_chi1_from_sampled_columns():
    p = identity_channel()
    pa = build_sic_povm_qubit()
    pb = build_sic_povm_qubit()
    om = sample_outcome_matrix(p, [pa], [pb], 400_000, Rng(6))
    est = estimate_chi1(om.rows[:, 0], om.rows[:, 1], pa, pb)
    assert est == pytest.approx(1.5, abs=0.1)
    with pytest.raises(ValueError):
        estimate_chi1(om.rows[:10, 0], om.rows[:9, 1], pa, pb)


# -- pairwise independence ---------------------------------------------------------------


def test_ind_matrix_invariant_enforced():
    chi_hat = np.array([[0.0, 0.5], [0.5, 0.0]])
    good = tuple(tuple(bool(v <= 0.05) for v in row) for row in chi_hat)
    IndMatrix(good, chi_hat, 0.05, ("A1", "A2"), ("B1", "B2"))
    bad = ((True, True), (False, True))
    with pytest.raises(ValueError):
        IndMatrix(bad, chi_hat, 0.05, ("A1", "A2"), ("B1", "B2"))


def test_independence_matrix_exact_finds_permutation():
    p, perm = random_memoryless(3, 2, Rng(5), chi_min_target=0.1)
    meter = QueryMeter()
    ind = independence_matrix(p, None, 0.05, Rng(1), meter)
    assert meter.count == 0
    for i in range(3):
        for j in range(3):
            assert ind.ind[i][j] == (j != perm[i])
            if j == perm[i]:
                assert ind.chi_hat[i][j] >= 0.1 - 1e-9


def test_independence_matrix_sampled_counts_rows():
    p, _ = random_memoryless(2, 2, Rng(5))
    meter = QueryMeter()
    ind = independence_matrix(p, 2000, 0.05, Rng(1), meter)
    assert meter.count == 2000
    assert ind.chi_hat.shape == (2, 2)
    with pytest.raises(ValueError):
        independence_matrix(p, 0, 0.05, Rng(1))


# -- total-order and memoryless specializations ----------------------------------------------


def test_total_order_exact_recovery():
    comb, gt = total_order_chain(3, 2, Rng(11))
    p = compose_comb(comb)
    res = unravel_total_order(p, None, 0.1, Rng(2))
    assert res.unravelling.steps == gt.ordering.steps
    assert res.warnings == ()
    assert res.mode == "exact"
    assert res.queries == 0
    assert res.ind is not None


def test_total_order_tie_reported():
    # two independent teeth tie on dependence counts: premise violated
    p, _ = random_memoryless(2, 2, Rng(3))
    res = unravel_total_order(p, None, 0.1, Rng(2))
    assert any("tie" in w for w in res.warnings)


def test_total_order_needs_square_process():
    iso = np.eye(4)[:, :2]
    p = choi_from_kraus([iso], (win("A1"),), (wout("B1"), wout("B2")))
    with pytest.raises(ValueError):
        unravel_total_order(p, None, 0.1, Rng(0))


def test_total_order_sampled_is_deterministic():
    comb, _ = total_order_chain(2, 2, Rng(1))
    p = compose_comb(comb)
    r1 = unravel_total_order(p, 3000, 0.1, Rng(2))
    r2 = unravel_total_order(p, 3000, 0.1, Rng(2))
    assert r1.to_json() == r2.to_json()
    assert r1.mode == "sampled"
    assert r1.queries == 3000


def test_memoryless_exact_matches_permutation():
    p, perm = random_memoryless(3, 2, Rng(9), constant=(1,))
    res = unravel_memoryless(p, None, 0.05, Rng(2))
    expect = tuple(((f"A{i+1}",), (f"B{perm[i]+1}",)) for i in range(3))
    assert res.unravelling.steps == expect
    assert len(res.warnings) == 1 and "A2" in res.warnings[0]
    assert comb_membership(p, res.unravelling)


def test_memoryless_no_constants_no_warnings():
    p, perm = random_memoryless(3, 2, Rng(5))
    res = unravel_memoryless(p, None, 0.05, Rng(2))
    assert res.warnings == ()
    assert comb_membership(p, res.unravelling)


def test_memoryless_comparison_reproduces_product():
    # with exact estimates the comparison process D equals C: correlated pairs
    # keep their true marginal channel and the constant pair factorizes anyway
    p, _ = random_memoryless(3, 2, Rng(9), constant=(1,))
    res = unravel_memoryless(p, None, 0.05, Rng(2))
    d = memoryless_comparison(p, res.unravelling, res.ind)
    diff = p.choi.entries - aligned(d.choi, p.choi).entries
    assert trace_norm(LabelledMatrix(diff, p.choi.row_wires)) <= 1e-9


def test_memoryless_comparison_rejects_blocks():
    p = cnot_process()
    res = unravel_general_c(p, UnravelParams(mode="exact", c=2), Rng(0))
    ind = independence_matrix(p, None, 0.05, Rng(1))
    with pytest.raises(ValueError):
        memoryless_comparison(p, res.unravelling, ind)


SAMPLED_CASES = [(3, 1, "isometric_chain"), (4, 2, "isometric_chain"), (2, 2, "entangling_c2")]


@pytest.mark.parametrize("n,d_env,family", SAMPLED_CASES)
@pytest.mark.parametrize("c", [1, 2])
def test_sampled_unravel_on_factor_matches_dense(n, d_env, family, c):
    p, ref, truth = _seeded_chain(n, d_env, family)
    params = UnravelParams(mode="sampled", c=c, eta_max=0.3)
    for seed in range(10):
        got, want = unravel_general_c(p, params, Rng(seed)), unravel_general_c(ref, params, Rng(seed))
        assert got.unravelling == want.unravelling
        assert got.queries == want.queries > 0
        pairs = zip(got.certificate.records, want.certificate.records, strict=True)
        for (k, eta, r), (want_k, want_eta, want_r) in pairs:
            assert k == want_k and r == want_r and abs(eta - want_eta) <= 1e-12
        assert got.error_bound == pytest.approx(want.error_bound, rel=1e-9, abs=1e-12)
