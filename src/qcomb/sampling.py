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
import functools
import itertools
import json
import math
import string
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .channels import CHANNEL_ATOL, ProcessMatrix
from .fileio import overwrite
from .tensors import (
    Direction,
    LabelledFactor,
    LabelledMatrix,
    WireSystem,
    overlap,
    wire_dims,
)

# Minimum acceptable frame floor for randomized IC constructions.
IC_FRAME_FLOOR = 1e-4
# Rows per write in OutcomeMatrix.write_csv; bounds the writer's buffer.
CSV_BLOCK_ROWS = 1024
# Most cells in the joint outcome space of one OutcomeMatrix.write_csv column run.
CSV_RUN_CELLS = 1024


# A state given to a SWAP test: its density matrix, or a factor F of it (rho = F F+).
State = LabelledMatrix | LabelledFactor


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


def _overlap(rho: State, sigma: State) -> float:
    if rho.entries.shape[0] != sigma.entries.shape[0]:
        raise ValueError("SWAP test needs states of equal dimension")
    val = overlap(rho, sigma)
    if val < -1e-9 or val > 1 + 1e-9:
        raise SanityError(f"Tr[rho sigma] = {val} outside [0, 1] beyond tolerance")
    return min(max(val, 0.0), 1.0)


def swap_test_probability(rho: State, sigma: State) -> float:
    return (1.0 + _overlap(rho, sigma)) / 2.0


def swaptest_draw_count(eps: float, kappa: float) -> int:
    """Shots needed for |estimate - Tr[rho sigma]| <= eps with confidence 1-kappa.

    The Hoeffding bound 2 exp(-eps^2 N / 2) <= kappa forces the natural log.
    """
    if not (0 < eps < 1) or not (0 < kappa < 1):
        raise ValueError("eps and kappa must lie in (0, 1)")
    return math.ceil(2.0 / eps**2 * math.log(2.0 / kappa))


def swaptest_estimate(
    rho: State,
    sigma: State,
    eps: float,
    kappa: float,
    rng: Rng,
) -> float:
    """Estimate Tr[rho sigma] as 2 c_+/N - 1 from N aggregated shots.

    Both states are dense or both are factors; the law is the same.
    """
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
        return self.n_outcomes >= self.dim**2 and self.frame.min_eig > 0

    @functools.cached_property
    def frame(self) -> "FrameDiagnostics":
        """Frame operator F = sum_a |P_a>><<P_a| and its eigenvalue extremes."""
        d = self.dim
        f = np.zeros((d * d, d * d), dtype=np.complex128)
        for eff in self.effects:
            v = _vec(eff.entries)
            f += np.outer(v, v.conj())
        f.flags.writeable = False
        wires = (
            WireSystem("row", d, Direction.INPUT),
            WireSystem("col", d, Direction.INPUT),
        )
        eigs = np.linalg.eigvalsh(f)
        return FrameDiagnostics(
            LabelledMatrix(f, wires), float(max(eigs.min(), 0.0)), float(eigs.max())
        )

    @functools.cached_property
    def dual(self) -> np.ndarray:
        """Read-only dual frame D_a, one (d, d) slice per effect; see dual_frame."""
        diag = self.frame
        if diag.min_eig <= 1e-12 * max(diag.max_eig, 1.0):
            raise ValueError("frame operator is singular: POVM is not informationally complete")
        d = self.dim
        f_inv = np.linalg.inv(diag.frame_operator.entries)
        duals = np.stack([(f_inv @ _vec(e.entries)).reshape(d, d) for e in self.effects])
        duals.flags.writeable = False
        return duals

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
    """Frame operator F = sum_a |P_a>><<P_a| and its eigenvalue extremes.

    Computed once per POVM (``Povm.frame``).
    """
    return povm.frame


def dual_frame(povm: Povm) -> np.ndarray:
    """Operators D_a with sum_a Tr[P_a X] D_a = X: vec(D_a) = F^-1 vec(P_a).

    Raises when the POVM is not informationally complete (singular frame).
    Computed once per POVM (``Povm.dual``) and returned read-only.
    """
    return povm.dual


@functools.lru_cache(maxsize=None)
def build_sic_povm_qubit() -> Povm:
    """Tetrahedral qubit SIC: effects |psi_k><psi_k| / 2.

    Built once and shared, so its effect arrays are read-only.
    """
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
    for eff in effects:
        eff.entries.flags.writeable = False
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
        if povm.frame.min_eig > IC_FRAME_FLOOR:
            return povm
    raise GenerationError(
        f"no IC-POVM with frame floor > {IC_FRAME_FLOOR} in {max_attempts} attempts (d={d})"
    )


def povm_for_wire(wire: WireSystem, rng: Rng) -> Povm:
    """The default per-wire IC-POVM: the qubit SIC, or a randomized IC frame."""
    if wire.dim == 2:
        return build_sic_povm_qubit()
    return build_ic_povm(wire.dim, rng)


def wire_povms(p: ProcessMatrix, rng: Rng) -> tuple[tuple[Povm, ...], tuple[Povm, ...]]:
    """One default POVM per wire: input i draws from rng.child(0, i), output j
    from rng.child(1, j)."""
    in_povms = tuple(povm_for_wire(w, rng.child(0, i)) for i, w in enumerate(p.inputs))
    out_povms = tuple(povm_for_wire(w, rng.child(1, j)) for j, w in enumerate(p.outputs))
    return in_povms, out_povms


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
        """Write ``trial,<labels>`` then one row per trial with 1-based
        outcome indices (excel dialect, ``\\r\\n``), plus the POVM sidecar.

        The body goes out CSV_BLOCK_ROWS rows at a time.  Each row is its
        trial number followed by one precomputed text ``,a,b,...`` per run
        of columns (see _csv_column_runs); the bytes are those
        ``csv.writer.writerow`` gives.
        """
        path = Path(path)
        runs = _csv_column_runs(tuple(povm.n_outcomes for povm in self.povms))
        with overwrite(path, newline="") as fh:
            csv.writer(fh).writerow(["trial", *self.wire_labels])
            for start in range(0, self.n_rows, CSV_BLOCK_ROWS):
                block = self.rows[start : start + CSV_BLOCK_ROWS]
                trials = range(start + 1, start + len(block) + 1)
                lines = np.array([str(t) for t in trials], dtype=object)
                for cols, shape, text in runs:
                    lines += text[np.ravel_multi_index(block[:, cols].T, shape)]
                fh.write("\r\n".join(lines.tolist()) + "\r\n")
        sidecar = {
            "columns": [
                {"wire": lab, "povm": povm.to_json()}
                for lab, povm in zip(self.wire_labels, self.povms)
            ]
        }
        with overwrite(path.with_suffix(path.suffix + ".povm.json")) as fh:
            fh.write(json.dumps(sidecar, indent=2))

    @staticmethod
    def read_csv(path: str | Path) -> "OutcomeMatrix":
        """Read a file written by ``write_csv``; the trial column must hold
        integers but its values are ignored.

        Raises ValueError when the header disagrees with the sidecar, or a
        row is ragged or holds a non-integer cell.
        """
        path = Path(path)
        sidecar = json.loads(path.with_suffix(path.suffix + ".povm.json").read_text())
        labels = tuple(c["wire"] for c in sidecar["columns"])
        povms = tuple(Povm.from_json(c["povm"]) for c in sidecar["columns"])
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if tuple(header[1:]) != labels:
                raise ValueError("CSV header does not match POVM sidecar")
            header_lines = reader.line_num
        with warnings.catch_warnings():
            # Older numpy (1.23 on) reads a float cell into an int column with
            # only a DeprecationWarning, truncating it.
            warnings.simplefilter("error", DeprecationWarning)
            try:
                table = np.loadtxt(
                    path,
                    delimiter=",",
                    skiprows=header_lines,
                    dtype=np.int64,
                    ndmin=2,
                    comments=None,
                )
            except DeprecationWarning as exc:
                raise ValueError(f"{path}: outcome CSV holds a non-integer cell") from exc
        return OutcomeMatrix(table[:, 1:] - 1, labels, povms)


def _csv_column_runs(
    n_outcomes: tuple[int, ...],
) -> list[tuple[slice, tuple[int, ...], np.ndarray]]:
    """Split the columns into runs of adjacent columns whose joint outcome
    space has at most CSV_RUN_CELLS cells (a larger column stands alone).

    Each run comes with its outcome counts and, indexed by the run's C-order
    joint cell, an object array of the text ``,a,b,...`` (1-based) of
    every cell, so a CSV row is its trial number plus one entry per run.
    """
    runs, lo, size = [], 0, 1
    for hi, n in enumerate(n_outcomes):
        if hi > lo and size * n > CSV_RUN_CELLS:
            runs.append((lo, hi))
            lo, size = hi, 1
        size *= n
    if n_outcomes:
        runs.append((lo, len(n_outcomes)))
    tables = []
    for lo, hi in runs:
        shape = n_outcomes[lo:hi]
        line = ",%d" * len(shape)
        cells = itertools.product(*(range(1, n + 1) for n in shape))
        tables.append((slice(lo, hi), shape, np.array([line % c for c in cells], dtype=object)))
    return tables


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
