"""Simulated measurement layer.

SWAP tests are drawn from their analytic Bernoulli law, (1 + Tr[rho sigma])/2
per shot; the controlled-SWAP circuit behind that law is documented but never
simulated gate by gate.  The N shots of one estimate are aggregated into a
single binomial draw, which has exactly the distribution of N independent
shots.

POVM outcome data is generated from the joint cell law
Pr(alpha, beta) = Tr[(P_alpha x Q_beta) C]: preparing the conjugate states
P_alpha^T / Tr[P_alpha] with probability Tr[P_alpha]/d and measuring the
channel output reproduces this distribution cell for cell, so sampling the
joint law is faithful to the operational protocol while letting all rows be
drawn at once.
"""

from __future__ import annotations

import csv
import json
import math
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .channels import CHANNEL_ATOL, ProcessMatrix
from .tensors import (
    Direction,
    LabelledMatrix,
    WireSystem,
    wire_dims,
)

# Minimum acceptable frame floor for randomized IC constructions.
IC_FRAME_FLOOR = 1e-4


class SanityError(ValueError):
    """A quantity left the range permitted by exact arithmetic plus noise."""


class GenerationError(RuntimeError):
    pass


# -- deterministic randomness -------------------------------------------------


@dataclass(frozen=True)
class Rng:
    """Counter-based random stream with deterministic substreams.

    ``child(i, j, ...)`` derives an independent stream addressed by the index
    path; identical (seed, path) always reproduces the same draws, so trial
    results never depend on evaluation order or thread count.
    """

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *indices: int) -> "Rng":
        return Rng(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


# -- SWAP tests ---------------------------------------------------------------


def _overlap(rho: LabelledMatrix, sigma: LabelledMatrix) -> float:
    if rho.entries.shape != sigma.entries.shape:
        raise ValueError("SWAP test needs states of equal dimension")
    val = float(np.trace(rho.entries @ sigma.entries).real)
    if val < -1e-9 or val > 1 + 1e-9:
        raise SanityError(f"Tr[rho sigma] = {val} outside [0, 1] beyond tolerance")
    return min(max(val, 0.0), 1.0)


def swap_test_probability(rho: LabelledMatrix, sigma: LabelledMatrix) -> float:
    return (1.0 + _overlap(rho, sigma)) / 2.0


def swap_test_sample(rho: LabelledMatrix, sigma: LabelledMatrix, rng: Rng) -> int:
    """One SWAP-test shot: 1 when the control comes out in |+>."""
    p = swap_test_probability(rho, sigma)
    return int(rng.generator().random() < p)


def swaptest_draw_count(eps: float, kappa: float) -> int:
    """Shots needed for |estimate - Tr[rho sigma]| <= eps with confidence 1-kappa.

    The Hoeffding bound 2 exp(-eps^2 N / 2) <= kappa forces the natural log.
    """
    if not (0 < eps < 1) or not (0 < kappa < 1):
        raise ValueError("eps and kappa must lie in (0, 1)")
    return math.ceil(2.0 / eps**2 * math.log(2.0 / kappa))


def swaptest_estimate(
    rho: LabelledMatrix,
    sigma: LabelledMatrix,
    eps: float,
    kappa: float,
    rng: Rng,
) -> float:
    """Estimate Tr[rho sigma] as 2 c_+/N - 1 from N aggregated shots."""
    n = swaptest_draw_count(eps, kappa)
    p = swap_test_probability(rho, sigma)
    c_plus = int(rng.generator().binomial(n, p))
    return 2.0 * c_plus / n - 1.0


# -- POVMs and frames ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Povm:
    """Measurement effects on one wire, validated to be PSD and complete."""

    effects: tuple[LabelledMatrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "effects", tuple(self.effects))
        if not self.effects:
            raise ValueError("a POVM needs at least one effect")
        d = self.effects[0].entries.shape[0]
        total = np.zeros((d, d), dtype=np.complex128)
        for eff in self.effects:
            if eff.entries.shape != (d, d):
                raise ValueError("all effects must share one dimension")
            w = np.linalg.eigvalsh(eff.entries)
            if not eff.is_hermitian() or w.min() < -1e-9:
                raise ValueError("effect is not PSD")
            total += eff.entries
        if not np.allclose(total, np.eye(d), atol=CHANNEL_ATOL, rtol=0.0):
            raise ValueError("effects do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.effects[0].entries.shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    def stack(self) -> np.ndarray:
        """Effects as one (m, d, d) array."""
        return np.stack([e.entries for e in self.effects])

    def is_informationally_complete(self) -> bool:
        return (
            self.n_outcomes >= self.dim**2
            and frame_diagnostics(self).min_eig > 0
        )

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "effects": [
                {"re": e.entries.real.tolist(), "im": e.entries.imag.tolist()}
                for e in self.effects
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "Povm":
        d = int(obj["dim"])
        wire = (WireSystem("q", d, Direction.INPUT),)
        effects = tuple(
            LabelledMatrix(
                np.asarray(e["re"], dtype=float) + 1j * np.asarray(e["im"], dtype=float),
                wire,
            )
            for e in obj["effects"]
        )
        return Povm(effects)


@dataclass(frozen=True, eq=False)
class FrameDiagnostics:
    frame_operator: LabelledMatrix
    min_eig: float
    max_eig: float


def _vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorization: |X>> = sum_ij X_ij |i>|j>."""
    return m.reshape(-1)


def frame_diagnostics(povm: Povm) -> FrameDiagnostics:
    """Frame operator F = sum_a |P_a>><<P_a| and its eigenvalue extremes."""
    d = povm.dim
    f = np.zeros((d * d, d * d), dtype=np.complex128)
    for eff in povm.effects:
        v = _vec(eff.entries)
        f += np.outer(v, v.conj())
    wires = (
        WireSystem("row", d, Direction.INPUT),
        WireSystem("col", d, Direction.INPUT),
    )
    eigs = np.linalg.eigvalsh(f)
    return FrameDiagnostics(
        LabelledMatrix(f, wires), float(max(eigs.min(), 0.0)), float(eigs.max())
    )


def dual_frame(povm: Povm) -> np.ndarray:
    """Operators D_a with sum_a Tr[P_a X] D_a = X: vec(D_a) = F^-1 vec(P_a).

    Raises when the POVM is not informationally complete (singular frame).
    """
    diag = frame_diagnostics(povm)
    if diag.min_eig <= 1e-12 * max(diag.max_eig, 1.0):
        raise ValueError("frame operator is singular: POVM is not informationally complete")
    d = povm.dim
    f_inv = np.linalg.inv(diag.frame_operator.entries)
    return np.stack([(f_inv @ _vec(e.entries)).reshape(d, d) for e in povm.effects])


def build_sic_povm_qubit() -> Povm:
    """Tetrahedral qubit SIC: effects |psi_k><psi_k| / 2."""
    bloch = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / np.sqrt(3)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    wire = (WireSystem("q", 2, Direction.INPUT),)
    effects = tuple(
        LabelledMatrix((np.eye(2) + b[0] * sx + b[1] * sy + b[2] * sz) / 4.0, wire)
        for b in bloch
    )
    return Povm(effects)


def build_ic_povm(d: int, rng: Rng, max_attempts: int = 100) -> Povm:
    """Randomized IC-POVM: d^2 identity-softened rank-1 projectors, renormalized.

    Rejection keeps drawing until the frame floor clears IC_FRAME_FLOOR.
    """
    if d < 2:
        raise ValueError("IC construction needs d >= 2")
    wire = (WireSystem("q", d, Direction.INPUT),)
    for attempt in range(max_attempts):
        gen = rng.child(attempt).generator()
        raws = []
        for _ in range(d * d):
            v = gen.normal(size=d) + 1j * gen.normal(size=d)
            v /= np.linalg.norm(v)
            raws.append(np.outer(v, v.conj()) + 0.1 * np.eye(d) / d)
        total = sum(raws)
        w, u = np.linalg.eigh(total)
        inv_half = u @ np.diag(1.0 / np.sqrt(w)) @ u.conj().T
        effects = tuple(
            LabelledMatrix(inv_half @ raw @ inv_half, wire) for raw in raws
        )
        povm = Povm(effects)
        if frame_diagnostics(povm).min_eig > IC_FRAME_FLOOR:
            return povm
    raise GenerationError(
        f"no IC-POVM with frame floor > {IC_FRAME_FLOOR} in {max_attempts} attempts (d={d})"
    )


def povm_for_wire(wire: WireSystem, rng: Rng) -> Povm:
    """The default per-wire IC-POVM: the qubit SIC, or a randomized IC frame."""
    if wire.dim == 2:
        return build_sic_povm_qubit()
    return build_ic_povm(wire.dim, rng)


# -- outcome matrices ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OutcomeMatrix:
    """N rows of 0-based outcome indices, one column per wire (inputs first)."""

    rows: np.ndarray
    wire_labels: tuple[str, ...]
    povms: tuple[Povm, ...]

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.int64)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "wire_labels", tuple(self.wire_labels))
        object.__setattr__(self, "povms", tuple(self.povms))
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("outcome matrix needs at least one row")
        if rows.shape[1] != len(self.wire_labels) or len(self.povms) != rows.shape[1]:
            raise ValueError("column metadata does not match row width")
        for j, povm in enumerate(self.povms):
            col = rows[:, j]
            if col.min() < 0 or col.max() >= povm.n_outcomes:
                raise ValueError(f"column {j} has outcome indices outside the POVM range")

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    def column(self, label: str) -> np.ndarray:
        return self.rows[:, self.wire_labels.index(label)]

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", *self.wire_labels])
            for t, row in enumerate(self.rows, start=1):
                writer.writerow([t, *(int(x) + 1 for x in row)])
        sidecar = {
            "columns": [
                {"wire": lab, "povm": povm.to_json()}
                for lab, povm in zip(self.wire_labels, self.povms)
            ]
        }
        path.with_suffix(path.suffix + ".povm.json").write_text(
            json.dumps(sidecar, indent=2)
        )

    @staticmethod
    def read_csv(path: str | Path) -> "OutcomeMatrix":
        path = Path(path)
        sidecar = json.loads(path.with_suffix(path.suffix + ".povm.json").read_text())
        labels = tuple(c["wire"] for c in sidecar["columns"])
        povms = tuple(Povm.from_json(c["povm"]) for c in sidecar["columns"])
        with path.open() as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header[1:]) != labels:
                raise ValueError("CSV header does not match POVM sidecar")
            rows = np.array([[int(x) - 1 for x in line[1:]] for line in reader])
        return OutcomeMatrix(rows, labels, povms)


def exact_cell_probabilities(
    p: ProcessMatrix, in_povms: Sequence[Povm], out_povms: Sequence[Povm]
) -> np.ndarray:
    """Joint law Pr(alpha_1..alpha_n, beta_1..beta_n) = Tr[(x P x Q) C].

    Returns an array with one outcome axis per wire in choi order (inputs
    first).  Negative round-off is clipped; the cells sum to 1.
    """
    wires = p.inputs + p.outputs
    povms = tuple(in_povms) + tuple(out_povms)
    if len(in_povms) != len(p.inputs) or len(out_povms) != len(p.outputs):
        raise ValueError("need exactly one POVM per wire")
    for wire, povm in zip(wires, povms):
        if povm.dim != wire.dim:
            raise ValueError(f"POVM dim {povm.dim} does not match wire {wire.label}")
    k = len(wires)
    if 3 * k > len(string.ascii_letters):
        raise ValueError("too many wires for the einsum contraction")
    row = string.ascii_letters[:k]
    col = string.ascii_letters[k : 2 * k]
    out = string.ascii_letters[2 * k : 3 * k]
    dims = wire_dims(wires)
    t = p.choi.entries.reshape(dims + dims)
    # Tr[(x_w P_w) C] = sum P_w[i_w, j_w] ... C[(j...), (i...)]: the choi
    # tensor's leading axes are the matrix-row block, so they carry j.
    operands: list[np.ndarray] = [t]
    subs = [row + col]
    for w, povm in enumerate(povms):
        operands.append(povm.stack())
        subs.append(out[w] + col[w] + row[w])
    cell = np.einsum(",".join(subs) + "->" + out, *operands, optimize="greedy").real
    total = float(cell.sum())
    if abs(total - 1.0) > 1e-7:
        raise SanityError(f"cell probabilities sum to {total}, not 1")
    return np.maximum(cell, 0.0)


def sample_outcome_matrix(
    p: ProcessMatrix,
    in_povms: Sequence[Povm],
    out_povms: Sequence[Povm],
    n_rows: int,
    rng: Rng,
) -> OutcomeMatrix:
    """Draw n_rows joint outcomes of the prepare-measure experiment."""
    if n_rows < 1:
        raise ValueError("need at least one row")
    cell = exact_cell_probabilities(p, in_povms, out_povms)
    flat = cell.reshape(-1)
    flat = flat / flat.sum()
    draws = rng.generator().choice(flat.size, size=n_rows, p=flat)
    idx = np.column_stack(np.unravel_index(draws, cell.shape))
    labels = tuple(w.label for w in p.inputs + p.outputs)
    return OutcomeMatrix(idx, labels, tuple(in_povms) + tuple(out_povms))


def empirical_cell_frequencies(om: OutcomeMatrix) -> np.ndarray:
    """Relative frequency of each joint outcome cell, same axis order as rows."""
    shape = tuple(povm.n_outcomes for povm in om.povms)
    counts = np.zeros(shape, dtype=float)
    np.add.at(counts, tuple(om.rows[:, j] for j in range(om.rows.shape[1])), 1.0)
    return counts / om.n_rows


def reconstruct_from_frequencies(
    freq: np.ndarray, povms: Sequence[Povm]
) -> np.ndarray:
    """Linear inversion: rho_hat = sum_cells freq[cells] x_w D_w[alpha_w].

    Uses each POVM's dual frame; no positivity projection is applied, so the
    output is Hermitian but may have small negative eigenvalues at finite N.
    """
    povms = tuple(povms)
    if freq.ndim != len(povms):
        raise ValueError("frequency tensor rank must equal the POVM count")
    k = len(povms)
    if 3 * k > len(string.ascii_letters):
        raise ValueError("too many wires for the einsum contraction")
    out = string.ascii_letters[:k]
    row = string.ascii_letters[k : 2 * k]
    col = string.ascii_letters[2 * k : 3 * k]
    operands: list[np.ndarray] = [freq.astype(float)]
    subs = [out]
    for w, povm in enumerate(povms):
        operands.append(dual_frame(povm))
        subs.append(out[w] + row[w] + col[w])
    t = np.einsum(",".join(subs) + "->" + row + col, *operands)
    d = int(np.prod([p.dim for p in povms]))
    return t.reshape(d, d)
