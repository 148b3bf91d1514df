"""Unravelling procedures over exact process access or simulated measurement.

Two access models share one code path:

* exact mode evaluates factorization residuals on the Choi matrix directly
  and spends no queries;
* sampled mode touches the process only through SWAP-test overlap estimates
  of marginal Choi states (each prepared state costs one query) or through a
  single reusable POVM outcome matrix (each row costs one query).

The recursion scans last-tooth candidates smallest blocks first and in
lexicographic order within a block size, so outputs are deterministic given
the seed; any candidate it accepts is a valid last step, and when nothing
passes it degrades to one trivial step instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .channels import (
    DEFAULT_EXACT_TOL,
    ProcessMatrix,
    Unravelling,
    is_last_tooth_exact,
    last_tooth_candidates,
    last_tooth_marginals,
    reduce_channel,
)
from .sampling import (
    Povm,
    Rng,
    empirical_cell_frequencies,
    exact_cell_probabilities,
    reconstruct_from_frequencies,
    sample_outcome_matrix,
    swaptest_draw_count,
    swaptest_estimate,
    wire_povms,
)
from .tensors import (
    DEFAULT_RANK_RTOL,
    LabelledMatrix,
    _psd_eigenvalues,
    _rank_eta_of_spectrum,
    _truncation_error_of_spectrum,
    maximally_mixed,
    permute_wires,
    rank_eta,
    tensor_product,
    trace_out,
)

# Achieved truncation errors below this are floating-point dust from an
# exactly low-rank marginal; snap them to zero so exact combs certify a zero
# error bound.
CERT_ETA_SNAP = 1e-12

MODES = ("exact", "sampled")


class QueryMeter:
    """Counts process queries: one per prepared marginal state or outcome row."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, k: int) -> None:
        if k < 0:
            raise ValueError("cannot uncount queries")
        self.count += k


@dataclass(frozen=True)
class UnravelParams:
    """Thresholds and confidence splits for one unravelling run.

    ``delta`` (squared-HS acceptance threshold) and ``eps`` (per-overlap
    accuracy) are derived unless overridden: with a rank bound r the pair is
    (chi_min^2 / (8 d_A r), delta/5); without one the approximate-rank recipe
    (2 eta_max^2, delta/4) applies.  The per-test confidence is
    kappa0 / (3 n^3), sized for the worst-case number of tests.  ``tol`` is
    the exact-mode residual threshold.
    """

    chi_min: float = 0.1
    kappa0: float = 0.05
    mode: str = "exact"
    c: int = 1
    delta: float | None = None
    eps: float | None = None
    rank_bound: int | None = None
    eta_max: float = 1e-2
    seed: int = 0
    tol: float = DEFAULT_EXACT_TOL

    def __post_init__(self) -> None:
        if self.chi_min <= 0:
            raise ValueError("chi_min must be > 0")
        if not (0 < self.kappa0 < 1):
            raise ValueError("kappa0 must lie in (0, 1)")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.c < 1:
            raise ValueError("partition-size cap c must be >= 1")
        if self.rank_bound is not None and self.rank_bound < 1:
            raise ValueError("rank_bound must be >= 1 when given")
        if self.eta_max < 0:
            raise ValueError("eta_max must be >= 0")
        for name in ("delta", "eps"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} override must be > 0")

    def derived(self, n: int, d_a: int) -> tuple[float, float, float]:
        """(delta, eps, kappa) for a process with n teeth and max input dim d_a."""
        kappa = self.kappa0 / (3 * n**3)
        if self.delta is not None:
            delta = self.delta
        elif self.rank_bound is not None:
            delta = self.chi_min**2 / (8 * d_a * self.rank_bound)
        else:
            delta = 2 * self.eta_max**2
        if self.eps is not None:
            eps = self.eps
        else:
            eps = delta / 5 if self.rank_bound is not None else delta / 4
        return delta, eps, kappa


@dataclass(frozen=True)
class RankCertificate:
    """Per-step (k, eta_k, r_k) for the accepted steps' kept-input marginals."""

    records: tuple[tuple[int, float, int], ...]

    @property
    def eta_max(self) -> float:
        return max((eta for _, eta, _ in self.records), default=0.0)

    @property
    def r_max(self) -> int:
        return max((r for _, _, r in self.records), default=1)

    def to_json(self) -> list[dict]:
        return [{"k": k, "eta": eta, "r": r} for k, eta, r in self.records]

    @staticmethod
    def from_json(obj: list[dict]) -> "RankCertificate":
        return RankCertificate(
            tuple((int(e["k"]), float(e["eta"]), int(e["r"])) for e in obj)
        )


def check_rank_certificate(
    marginal: LabelledMatrix, eta_max: float, r_max: int
) -> bool:
    """True iff the marginal is within eta_max of a rank <= r_max matrix."""
    return rank_eta(marginal, eta_max) <= r_max


def query_budget(n: int, n_swap: int) -> int:
    """Worst-case queries of a c=1 sampled run: 3 n^3 tests of n_swap shots."""
    return 3 * n**3 * n_swap


def error_bound_approximate(cert: RankCertificate, m: int) -> float:
    """Trace-norm error bound 8 sqrt(2) m r_max^(1/4) eta_max^(1/2)."""
    if m < 0:
        raise ValueError("step count must be >= 0")
    return 8.0 * math.sqrt(2.0) * m * cert.r_max**0.25 * cert.eta_max**0.5


@dataclass(frozen=True, eq=False)
class UnravelResult:
    """An unravelling plus how it was obtained; `ind` is runtime-only."""

    unravelling: Unravelling
    mode: str
    queries: int
    warnings: tuple[str, ...] = ()
    certificate: RankCertificate | None = None
    error_bound: float | None = None
    ind: "IndMatrix | None" = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "steps": self.unravelling.to_json()["steps"],
            "mode": self.mode,
            "queries": self.queries,
            "warnings": list(self.warnings),
            "certificate": self.certificate.to_json() if self.certificate else [],
            "error_bound": self.error_bound,
        }

    @staticmethod
    def from_json(obj: dict) -> "UnravelResult":
        cert = RankCertificate.from_json(obj["certificate"]) if obj["certificate"] else None
        return UnravelResult(
            Unravelling.from_json({"steps": obj["steps"]}),
            obj["mode"],
            int(obj["queries"]),
            tuple(obj["warnings"]),
            cert,
            obj["error_bound"],
        )


# -- last-tooth checking --------------------------------------------------------


def sampled_last_tooth_statistic(
    p: ProcessMatrix,
    P: Iterable[str],
    Q: Iterable[str],
    eps: float,
    kappa: float,
    rng: Rng,
    meter: QueryMeter | None = None,
) -> tuple[float, tuple[float, float, float]]:
    """SWAP-test estimate of the squared HS distance between the two marginals.

    Three overlap estimates p1 = Tr[C1 C1], p2 = Tr[C2 C2], p3 = Tr[C1 C2],
    each from its own batch of shots; every shot consumes two prepared
    states, i.e. two process queries.
    """
    c1, c2 = last_tooth_marginals(p, P, Q)
    n_shots = swaptest_draw_count(eps, kappa)
    p1 = swaptest_estimate(c1, c1, eps, kappa, rng.child(0))
    p2 = swaptest_estimate(c2, c2, eps, kappa, rng.child(1))
    p3 = swaptest_estimate(c1, c2, eps, kappa, rng.child(2))
    if meter is not None:
        meter.add(6 * n_shots)
    return p1 + p2 - 2.0 * p3, (p1, p2, p3)


def check_last(
    p: ProcessMatrix,
    P: Iterable[str],
    Q: Iterable[str],
    params: UnravelParams,
    rng: Rng | None = None,
    meter: QueryMeter | None = None,
    derived: tuple[float, float, float] | None = None,
) -> bool:
    """Decide whether (P, Q) can be the last step of an unravelling.

    Exact mode compares the factorization residual to ``params.tol``;
    sampled mode thresholds the SWAP-test distance statistic at delta.
    """
    P, Q = set(P), set(Q)
    if max(len(P), len(Q)) > params.c:
        raise ValueError(f"candidate exceeds the block-size cap c={params.c}")
    if params.mode == "exact":
        return is_last_tooth_exact(p, P, Q, params.tol)
    if derived is None:
        derived = params.derived(
            max(len(p.inputs), len(p.outputs)), max(w.dim for w in p.inputs)
        )
    delta, eps, kappa = derived
    if rng is None:
        rng = Rng(params.seed)
    stat, _ = sampled_last_tooth_statistic(p, P, Q, eps, kappa, rng, meter)
    return stat <= delta


# -- the general recursion ---------------------------------------------------------


def certify(marg: LabelledMatrix, eta_max: float) -> tuple[float, int]:
    """Rank certificate entry (eta, r) of one marginal, from a single spectrum.

    eta is the truncation error of the smallest rank within eta_max of the
    marginal, snapped to zero below CERT_ETA_SNAP; r is the rank at eta.
    """
    w = _psd_eigenvalues(marg)
    eta = _truncation_error_of_spectrum(w, _rank_eta_of_spectrum(w, eta_max, DEFAULT_RANK_RTOL))
    if eta < CERT_ETA_SNAP:
        eta = 0.0
    return eta, _rank_eta_of_spectrum(w, eta, DEFAULT_RANK_RTOL)


def unravel_general_c(
    p: ProcessMatrix, params: UnravelParams, rng: Rng | None = None
) -> UnravelResult:
    """Peel last teeth of block size <= c until everything is assigned.

    Candidates are scanned smallest (|P|, |Q|) first, lexicographic within a
    size; the full remaining pair is never tested, it is the fallback.  Each
    emitted step records a rank certificate entry (truncation error within
    eta_max, rank at that error) for the marginal left after tracing out the
    step's outputs.  rank_bound only sharpens the sampled-mode thresholds; it
    is a promise about the full process, not a filter on marginals.
    """
    rng = rng if rng is not None else Rng(params.seed)
    meter = QueryMeter()
    n = max(len(p.inputs), len(p.outputs), 1)
    d_a = max((w.dim for w in p.inputs), default=1)
    derived = params.derived(n, d_a)
    sampled = params.mode == "sampled"
    n_swap = swaptest_draw_count(derived[1], derived[2]) if sampled else 0
    steps_rev: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    cert_rev: list[tuple[float, int]] = []
    cur = p
    check_idx = 0

    while True:
        ins = cur.input_labels
        outs = cur.output_labels
        found = None
        for P, Q in last_tooth_candidates(ins, outs, params.c):
            if len(P) == len(ins) and len(Q) == len(outs):
                continue  # the trivial pair is the fallback, not a candidate
            check_idx += 1
            if check_last(cur, P, Q, params, rng.child(check_idx), derived=derived, meter=meter):
                found = (P, Q)
                break
        if found is None:
            found = (ins, outs)
            if not ins and not outs:
                break
        steps_rev.append((tuple(found[0]), tuple(found[1])))
        cert_rev.append(certify(trace_out(cur.choi, found[1]), params.eta_max))
        if set(found[0]) == set(ins) and set(found[1]) == set(outs):
            break
        cur = reduce_channel(cur, found[0], found[1])

    steps = tuple(reversed(steps_rev))
    cert = RankCertificate(
        tuple(
            (k + 1, eta, r)
            for k, (eta, r) in enumerate(reversed(cert_rev))
        )
    )
    budget = query_budget(n, n_swap)
    if sampled and params.c == 1 and meter.count > budget:
        raise RuntimeError(f"sampled run spent {meter.count} queries, over its budget {budget}")
    bound = error_bound_approximate(cert, len(steps))
    return UnravelResult(Unravelling(steps), params.mode, meter.count, (), cert, bound)


def unravel_recursive(
    p: ProcessMatrix, params: UnravelParams, rng: Rng | None = None
) -> UnravelResult:
    """The single-pair recursion: block size capped at 1."""
    if params.c != 1:
        raise ValueError("unravel_recursive requires c=1; use unravel_general_c")
    return unravel_general_c(p, params, rng)


# -- chi1 estimation from counts ------------------------------------------------------


def xi_constant(d_a: int, d_b: int, min_eig_a: float, min_eig_b: float) -> float:
    """Sensitivity constant of the two-frame chi1 estimator."""
    if min(min_eig_a, min_eig_b) <= 0:
        raise ValueError("frame floors must be positive")
    denom = math.sqrt(d_a**2 * d_b**2 + 4 * d_b**2 + 4 * d_a**2) * d_a * d_b
    return math.sqrt(min_eig_a * min_eig_b) / denom


def chi1_sample_count(
    eps0: float,
    kappa0: float,
    d_a: int,
    d_b: int,
    min_eig_a: float,
    min_eig_b: float,
) -> int:
    """Rows needed so the chi1 estimate errs by more than eps0 with prob < kappa0.

    Inverts kappa(eps) = 2 (d_a^2 d_b^2 + d_a^2 + d_b^2) exp(-2 xi^2 eps^2 N).
    """
    if not (0 < eps0) or not (0 < kappa0 < 1):
        raise ValueError("need eps0 > 0 and kappa0 in (0, 1)")
    xi = xi_constant(d_a, d_b, min_eig_a, min_eig_b)
    terms = d_a**2 * d_b**2 + d_a**2 + d_b**2
    return math.ceil(math.log(2 * terms / kappa0) / (2 * xi**2 * eps0**2))


def estimate_chi1_from_frequencies(
    freq: np.ndarray, povm_a: Povm, povm_b: Povm
) -> float:
    """Linear-inversion chi1: reconstruct the joint, compare to its marginals.

    No positivity projection is applied; the estimate can exceed the true
    value when sampling noise makes the reconstruction non-physical.
    """
    rho = reconstruct_from_frequencies(np.asarray(freq, dtype=float), [povm_a, povm_b])
    da, db = povm_a.dim, povm_b.dim
    t = rho.reshape(da, db, da, db)
    rho_a = np.einsum("ikjk->ij", t)
    rho_b = np.einsum("kikj->ij", t)
    diff = rho - np.kron(rho_a, rho_b)
    return float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)).sum())


def estimate_chi1(
    col_a: np.ndarray, col_b: np.ndarray, povm_a: Povm, povm_b: Povm
) -> float:
    """chi1 estimate from paired outcome columns of one experiment."""
    col_a = np.asarray(col_a, dtype=np.int64)
    col_b = np.asarray(col_b, dtype=np.int64)
    if col_a.shape != col_b.shape or col_a.ndim != 1 or col_a.size == 0:
        raise ValueError("need two equal-length nonempty outcome columns")
    freq = np.zeros((povm_a.n_outcomes, povm_b.n_outcomes), dtype=float)
    np.add.at(freq, (col_a, col_b), 1.0)
    return estimate_chi1_from_frequencies(freq / col_a.size, povm_a, povm_b)


# -- all-pairs independence -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IndMatrix:
    """Pairwise independence verdicts: ind[i][j] iff chi_hat[i][j] <= chi_minus."""

    ind: tuple[tuple[bool, ...], ...]
    chi_hat: np.ndarray
    chi_minus: float
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        expect = tuple(
            tuple(bool(v <= self.chi_minus) for v in row) for row in self.chi_hat
        )
        if expect != self.ind:
            raise ValueError("ind table disagrees with thresholded chi_hat")


def independence_matrix(
    p: ProcessMatrix,
    n_rows: int | None,
    chi_minus: float,
    rng: Rng,
    meter: QueryMeter | None = None,
) -> IndMatrix:
    """Estimate every pairwise correlation from one shared outcome matrix.

    n_rows=None evaluates the analytic outcome distribution instead (zero
    queries); otherwise the N rows are drawn once and reused for all pairs.
    """
    in_povms, out_povms = wire_povms(p, rng)
    if n_rows is None:
        freq = exact_cell_probabilities(p, in_povms, out_povms)
    else:
        if n_rows < 1:
            raise ValueError("need at least one row")
        om = sample_outcome_matrix(p, in_povms, out_povms, n_rows, rng.child(2))
        if meter is not None:
            meter.add(n_rows)
        freq = empirical_cell_frequencies(om)
    n_in, n_out = len(p.inputs), len(p.outputs)
    chi_hat = np.zeros((n_in, n_out))
    for i in range(n_in):
        for j in range(n_out):
            axes = tuple(k for k in range(n_in + n_out) if k not in (i, n_in + j))
            pair = freq.sum(axis=axes)
            chi_hat[i, j] = estimate_chi1_from_frequencies(
                pair, in_povms[i], out_povms[j]
            )
    ind = tuple(
        tuple(bool(chi_hat[i, j] <= chi_minus) for j in range(n_out))
        for i in range(n_in)
    )
    return IndMatrix(
        ind, chi_hat, chi_minus, tuple(p.input_labels), tuple(p.output_labels)
    )


# -- total-order specialization -----------------------------------------------------------


def unravel_total_order(
    p: ProcessMatrix, n_rows: int | None, chi_min: float, rng: Rng
) -> UnravelResult:
    """Order wires by how many partners they correlate with.

    An input consumed earlier signals to more outputs; an output produced
    earlier hears from fewer inputs.  Sorting dependence counts (inputs
    descending, outputs ascending) therefore recovers a total order, pairing
    by position.  Equal counts violate the total-order premise; they are
    broken by wire index and reported as warnings.
    """
    if len(p.inputs) != len(p.outputs):
        raise ValueError("total-order pairing needs equally many inputs and outputs")
    meter = QueryMeter()
    ind = independence_matrix(p, n_rows, chi_min / 2.0, rng, meter)
    n = len(p.inputs)
    c_a = [sum(1 for j in range(n) if not ind.ind[i][j]) for i in range(n)]
    c_b = [sum(1 for i in range(n) if not ind.ind[i][j]) for j in range(n)]
    warnings = []
    if len(set(c_a)) < n:
        warnings.append(
            f"tie in input dependence counts {c_a}: total-order premise violated, "
            "breaking ties by wire index"
        )
    if len(set(c_b)) < n:
        warnings.append(
            f"tie in output dependence counts {c_b}: total-order premise violated, "
            "breaking ties by wire index"
        )
    order_in = sorted(range(n), key=lambda i: (-c_a[i], i))
    order_out = sorted(range(n), key=lambda j: (c_b[j], j))
    steps = tuple(
        ((ind.input_labels[order_in[k]],), (ind.output_labels[order_out[k]],))
        for k in range(n)
    )
    return UnravelResult(
        Unravelling(steps),
        "exact" if n_rows is None else "sampled",
        meter.count,
        tuple(warnings),
        None,
        None,
        ind=ind,
    )


# -- memoryless specialization ---------------------------------------------------------------


def unravel_memoryless(
    p: ProcessMatrix, n_rows: int | None, chi_minus: float, rng: Rng
) -> UnravelResult:
    """Match each input to the first output it correlates with.

    Claimed outputs are skipped; inputs with no correlated free output are
    paired with the leftover outputs in index order (with a warning), which
    is harmless exactly when those pairs are uncorrelated both ways.
    """
    if len(p.inputs) != len(p.outputs):
        raise ValueError("memoryless pairing needs equally many inputs and outputs")
    meter = QueryMeter()
    ind = independence_matrix(p, n_rows, chi_minus, rng, meter)
    n = len(p.inputs)
    matched: dict[int, int] = {}
    used: set[int] = set()
    for i in range(n):
        for j in range(n):
            if j not in used and not ind.ind[i][j]:
                matched[i] = j
                used.add(j)
                break
    leftovers = [j for j in range(n) if j not in used]
    warnings = []
    for i in range(n):
        if i not in matched:
            matched[i] = leftovers.pop(0)
            warnings.append(
                f"input {ind.input_labels[i]} uncorrelated with every free output; "
                f"matched to {ind.output_labels[matched[i]]} by index order"
            )
    steps = tuple(
        ((ind.input_labels[i],), (ind.output_labels[matched[i]],)) for i in range(n)
    )
    return UnravelResult(
        Unravelling(steps),
        "exact" if n_rows is None else "sampled",
        meter.count,
        tuple(warnings),
        None,
        None,
        ind=ind,
    )


def memoryless_comparison(
    p: ProcessMatrix, u: Unravelling, ind: IndMatrix
) -> ProcessMatrix:
    """The product process the memoryless guarantee compares against.

    Pairs the matching deemed correlated keep their exact marginal channel;
    pairs matched by fallback are replaced by the constant channel emitting
    the output's marginal state.
    """
    pieces = []
    for pk, qk in u.steps:
        if len(pk) != 1 or len(qk) != 1:
            raise ValueError("comparison process is defined for single-pair steps")
        a, b = pk[0], qk[0]
        i = ind.input_labels.index(a)
        j = ind.output_labels.index(b)
        joint = trace_out(p.choi, set(p.choi.labels) - {a, b})
        if ind.ind[i][j]:
            in_w = next(w for w in p.inputs if w.label == a)
            joint = tensor_product(maximally_mixed((in_w,)), trace_out(joint, {a}))
        pieces.append(permute_wires(joint, [a, b]))
    full = pieces[0]
    for piece in pieces[1:]:
        full = tensor_product(full, piece)
    order = [w.label for w in p.inputs + p.outputs]
    return ProcessMatrix(permute_wires(full, order), p.inputs, p.outputs)
