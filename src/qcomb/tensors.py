"""Dense linear algebra over wire-labelled tensor-product spaces.

Operators are stored as dense complex matrices whose rows and columns are
indexed by ordered lists of wires.  The first wire in the list is the most
significant index (row-major composite indexing), so a matrix on wires
``[a, b]`` with dims ``(2, 3)`` has side length 6 and the composite basis
order ``|00>, |01>, |02>, |10>, ...``.

Everything here is a pure function of its inputs; no operation mutates a
``LabelledMatrix``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

# Hermiticity is accepted up to this absolute deviation, and spectra of
# nominally PSD matrices may dip this far below zero before we call them
# non-PSD.  Both are double-precision allowances for <= 1024-dim matrices.
# EIG_FLOOR is also the Cholesky shift of require_psd: m - EIG_FLOOR*I
# factors exactly when no eigenvalue of m lies below the floor.
HERMITIAN_ATOL = 1e-10
EIG_FLOOR = -1e-9

DEFAULT_RANK_RTOL = 1e-9


class Direction(str, Enum):
    INPUT = "input"
    OUTPUT = "output"


class LabelCollisionError(ValueError):
    pass


class NotPSDError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class WireSystem:
    """A single labelled subsystem: name, Hilbert dimension, and direction."""

    label: str
    dim: int
    direction: Direction

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"wire {self.label!r}: dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "direction", Direction(self.direction))

    def to_json(self) -> dict:
        return {"label": self.label, "dim": self.dim, "direction": self.direction.value}

    @staticmethod
    def from_json(obj: dict) -> "WireSystem":
        return WireSystem(obj["label"], int(obj["dim"]), Direction(obj["direction"]))


def wire_dims(wires: Sequence[WireSystem]) -> tuple[int, ...]:
    return tuple(w.dim for w in wires)


def total_dim(wires: Sequence[WireSystem]) -> int:
    return int(np.prod(wire_dims(wires), dtype=np.int64)) if wires else 1


def _check_unique_labels(wires: Sequence[WireSystem]) -> None:
    labels = [w.label for w in wires]
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise LabelCollisionError(f"duplicate wire labels: {dupes}")


@dataclass(frozen=True, eq=False)
class LabelledMatrix:
    """Dense complex matrix with wire-labelled row and column indices."""

    entries: np.ndarray
    row_wires: tuple[WireSystem, ...]
    col_wires: tuple[WireSystem, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.col_wires is None:
            object.__setattr__(self, "col_wires", self.row_wires)
        object.__setattr__(self, "row_wires", tuple(self.row_wires))
        object.__setattr__(self, "col_wires", tuple(self.col_wires))
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValueError(f"entries must be a matrix, got shape {arr.shape}")
        object.__setattr__(self, "entries", arr)
        _check_unique_labels(self.row_wires)
        _check_unique_labels(self.col_wires)
        expected = (total_dim(self.row_wires), total_dim(self.col_wires))
        if arr.shape != expected:
            raise ValueError(
                f"entries shape {arr.shape} does not match wire dims {expected}"
            )

    # -- small accessors -------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(w.label for w in self.row_wires)

    @property
    def is_square(self) -> bool:
        return wire_dims(self.row_wires) == wire_dims(self.col_wires)

    def wire(self, label: str) -> WireSystem:
        for w in self.row_wires:
            if w.label == label:
                return w
        raise KeyError(f"no wire labelled {label!r}")

    def require_operator(self) -> None:
        """Operators must carry the same wires on rows and columns."""
        if self.labels != tuple(w.label for w in self.col_wires) or not self.is_square:
            raise ValueError("operation requires matching row and column wires")

    def is_hermitian(self, atol: float = HERMITIAN_ATOL) -> bool:
        """Every entry within ``atol`` of its adjoint's; NaN is never Hermitian."""
        a = self.entries
        return a.shape[0] == a.shape[1] and bool(
            np.abs(a - a.conj().T).max(initial=0.0) <= atol
        )

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        obj: dict = {}
        if self.row_wires == self.col_wires:
            obj["wires"] = [w.to_json() for w in self.row_wires]
        else:
            obj["row_wires"] = [w.to_json() for w in self.row_wires]
            obj["col_wires"] = [w.to_json() for w in self.col_wires]
        obj["re"] = self.entries.real.tolist()
        obj["im"] = self.entries.imag.tolist()
        return obj

    @staticmethod
    def from_json(obj: dict) -> "LabelledMatrix":
        if "wires" in obj:
            rows = tuple(WireSystem.from_json(w) for w in obj["wires"])
            cols = rows
        else:
            rows = tuple(WireSystem.from_json(w) for w in obj["row_wires"])
            cols = tuple(WireSystem.from_json(w) for w in obj["col_wires"])
        entries = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        return LabelledMatrix(entries, rows, cols)

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @staticmethod
    def loads(text: str) -> "LabelledMatrix":
        return LabelledMatrix.from_json(json.loads(text))


@dataclass(frozen=True, eq=False)
class LabelledFactor:
    """Factor F of the PSD operator F F+, with wire-labelled rows.

    Rows follow the wire conventions of :class:`LabelledMatrix`; columns
    carry no labels.  Partial traces, products with maximally mixed states
    and wire reorderings of F F+ all act on F alone, so a low-rank state
    is never formed densely.
    """

    entries: np.ndarray
    wires: tuple[WireSystem, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(self.wires))
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValueError(f"entries must be a matrix, got shape {arr.shape}")
        object.__setattr__(self, "entries", arr)
        _check_unique_labels(self.wires)
        if arr.shape[0] != total_dim(self.wires):
            raise ValueError(
                f"{arr.shape[0]} factor rows do not match wire dim {total_dim(self.wires)}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(w.label for w in self.wires)

    def _tensor_view(self) -> np.ndarray:
        return self.entries.reshape(wire_dims(self.wires) + (self.entries.shape[1],))

    def trace_out(self, drop: Iterable[str]) -> "LabelledFactor":
        """Factor of the partial trace over ``drop``: those wire axes join the columns."""
        drop_set = set(drop)
        unknown = drop_set - set(self.labels)
        if unknown:
            raise KeyError(f"unknown wire labels: {sorted(unknown)}")
        keep = [i for i, w in enumerate(self.wires) if w.label not in drop_set]
        gone = [i for i, w in enumerate(self.wires) if w.label in drop_set]
        t = self._tensor_view().transpose(keep + gone + [len(self.wires)])
        wires = tuple(self.wires[i] for i in keep)
        return LabelledFactor(t.reshape(total_dim(wires), -1), wires)

    def tensor_maximally_mixed(self, wires: Sequence[WireSystem]) -> "LabelledFactor":
        """Factor of F F+ x I/d on ``wires``, which are appended last."""
        d = total_dim(wires)
        return LabelledFactor(
            np.kron(self.entries, np.eye(d) / np.sqrt(d)), self.wires + tuple(wires)
        )

    def permute_wires(self, order: Sequence[str]) -> "LabelledFactor":
        """Reorder the row wires to the given label sequence."""
        if sorted(order) != sorted(self.labels):
            raise ValueError(
                f"order {list(order)} is not a permutation of labels {list(self.labels)}"
            )
        if tuple(order) == self.labels:
            return self
        pos = {lab: i for i, lab in enumerate(self.labels)}
        perm = [pos[lab] for lab in order]
        t = self._tensor_view().transpose(perm + [len(perm)])
        wires = tuple(self.wires[p] for p in perm)
        return LabelledFactor(t.reshape(self.entries.shape), wires)

    def gram(self) -> LabelledMatrix:
        """The dense operator F F+; meant for marginals on few wires."""
        f = self.entries
        return LabelledMatrix(f @ f.conj().T, self.wires)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of F F+: the squared singular values of F, zero-padded to its side."""
        w = np.zeros(self.entries.shape[0])
        s = np.linalg.svd(self.entries, compute_uv=False)
        w[: len(s)] = s**2
        return w

    def rank(self, rel_tol: float = DEFAULT_RANK_RTOL) -> int:
        """:func:`matrix_rank` of F F+, from the squared singular values of F."""
        return _rank_of_spectrum(self.spectrum(), rel_tol)


def compressed_difference(plus: LabelledFactor, minus: LabelledFactor) -> LabelledMatrix:
    """F+ F+^+ - F- F-^+ for two factors on the same wires, on no more dimensions than needed.

    With fewer columns k than rows, a thin QR [F+ F-] = QR confines the
    difference to the range of Q: it is Q R J R+ Q+ with J = diag(I, -I).
    The k x k matrix R J R+ then stands in for it, on one wire labelled
    ``range``: it has the same nonzero eigenvalues, so the same trace and
    Hilbert-Schmidt norms, and its side bounds the difference's rank.
    Otherwise that matrix would be no smaller than the dense difference,
    which is returned on the factors' wires.
    """
    if plus.wires != minus.wires:
        raise ValueError("factors must carry the same wires in the same order")
    both = np.hstack([plus.entries, minus.entries])
    if both.shape[1] >= both.shape[0]:
        return LabelledMatrix(plus.gram().entries - minus.gram().entries, plus.wires)
    r = np.linalg.qr(both, mode="r")
    r_plus, r_minus = r[:, : plus.entries.shape[1]], r[:, plus.entries.shape[1] :]
    diff = r_plus @ r_plus.conj().T - r_minus @ r_minus.conj().T
    return LabelledMatrix(diff, (WireSystem("range", diff.shape[0], Direction.OUTPUT),))


def difference_trace_norm(plus: LabelledFactor, minus: LabelledFactor) -> float:
    """||F+ F+^+ - F- F-^+||_1 for two factors on the same wires."""
    return trace_norm(compressed_difference(plus, minus))


# -- constructors ---------------------------------------------------------


def identity(wires: Sequence[WireSystem]) -> LabelledMatrix:
    d = total_dim(wires)
    return LabelledMatrix(np.eye(d, dtype=np.complex128), tuple(wires))


def maximally_mixed(wires: Sequence[WireSystem]) -> LabelledMatrix:
    d = total_dim(wires)
    return LabelledMatrix(np.eye(d, dtype=np.complex128) / d, tuple(wires))


# -- wire algebra ----------------------------------------------------------


def tensor_product(a: LabelledMatrix, b: LabelledMatrix) -> LabelledMatrix:
    """Kronecker product; wire lists concatenate, labels must stay unique."""
    rows = a.row_wires + b.row_wires
    cols = a.col_wires + b.col_wires
    _check_unique_labels(rows)
    _check_unique_labels(cols)
    return LabelledMatrix(np.kron(a.entries, b.entries), rows, cols)


def _tensor_view(m: LabelledMatrix) -> np.ndarray:
    dims = wire_dims(m.row_wires)
    return m.entries.reshape(dims + dims)


def partial_trace(m: LabelledMatrix, keep: Iterable[str]) -> LabelledMatrix:
    """Trace out every wire not named in ``keep``.

    The kept wires retain their relative order.  Tracing everything leaves a
    1x1 matrix on an empty wire list holding Tr[m].
    """
    m.require_operator()
    keep_set = set(keep)
    unknown = keep_set - set(m.labels)
    if unknown:
        raise KeyError(f"unknown wire labels: {sorted(unknown)}")
    if keep_set == set(m.labels):
        return m

    k = len(m.row_wires)
    t = _tensor_view(m)
    wires = list(m.row_wires)
    while True:
        try:
            idx = next(i for i, w in enumerate(wires) if w.label not in keep_set)
        except StopIteration:
            break
        t = np.trace(t, axis1=idx, axis2=len(wires) + idx)
        del wires[idx]
    d = total_dim(wires)
    return LabelledMatrix(t.reshape(d, d), tuple(wires))


def trace_out(m: LabelledMatrix, drop: Iterable[str]) -> LabelledMatrix:
    """Complement form of :func:`partial_trace`: trace the named wires away."""
    drop_set = set(drop)
    unknown = drop_set - set(m.labels)
    if unknown:
        raise KeyError(f"unknown wire labels: {sorted(unknown)}")
    return partial_trace(m, [l for l in m.labels if l not in drop_set])


def permute_wires(m: LabelledMatrix, order: Sequence[str]) -> LabelledMatrix:
    """Reorder the wires of an operator to the given label sequence."""
    m.require_operator()
    if sorted(order) != sorted(m.labels):
        raise ValueError(
            f"order {list(order)} is not a permutation of labels {list(m.labels)}"
        )
    if tuple(order) == m.labels:
        return m
    pos = {lab: i for i, lab in enumerate(m.labels)}
    perm = [pos[lab] for lab in order]
    k = len(perm)
    t = _tensor_view(m).transpose(perm + [k + p for p in perm])
    wires = tuple(m.row_wires[p] for p in perm)
    d = total_dim(wires)
    return LabelledMatrix(np.ascontiguousarray(t).reshape(d, d), wires)


def aligned(m: LabelledMatrix, like: LabelledMatrix) -> LabelledMatrix:
    """Permute ``m`` so its wire order matches ``like``'s labels."""
    return permute_wires(m, like.labels)


# -- norms and ranks --------------------------------------------------------


def trace_norm(m: LabelledMatrix) -> float:
    """Sum of singular values (sum of |eigenvalues| for Hermitian input)."""
    a = m.entries
    if a.shape[0] != a.shape[1]:
        raise ValueError("trace norm requires a square matrix")
    if m.is_hermitian():
        return float(np.abs(np.linalg.eigvalsh(a)).sum())
    return float(np.linalg.svd(a, compute_uv=False).sum())


def hs_norm(m: LabelledMatrix) -> float:
    return float(np.linalg.norm(m.entries))


def _psd_eigenvalues(m: LabelledMatrix) -> np.ndarray:
    if not m.is_hermitian():
        raise NotPSDError("matrix is not Hermitian within 1e-10")
    w = np.linalg.eigvalsh(m.entries)
    if w.min(initial=0.0) < EIG_FLOOR:
        raise NotPSDError(f"matrix has eigenvalue {w.min():.3e} below the PSD floor")
    return w


def psd_spectrum(m: LabelledMatrix | LabelledFactor) -> np.ndarray:
    """Eigenvalues of a PSD operator, held densely (and checked PSD) or as a factor."""
    if isinstance(m, LabelledFactor):
        return m.spectrum()
    return _psd_eigenvalues(m)


def overlap(a: LabelledMatrix | LabelledFactor, b: LabelledMatrix | LabelledFactor) -> float:
    """Tr[A B] of two Hermitian operators on the same wires, both dense or both factors.

    Dense, it is the entrywise inner product <B, A>.  For factors it is
    ||F_a+ F_b||_F^2; when that k_a x k_b product would outgrow the d x d
    Gram matrices, it is <F_b F_b+, F_a F_a+> instead, so nothing larger
    than the dense operators is ever formed.
    """
    if isinstance(a, LabelledFactor) and isinstance(b, LabelledFactor):
        fa, fb = a.entries, b.entries
        if fa.shape[1] * fb.shape[1] > fa.shape[0] ** 2:
            return float(np.vdot(fb @ fb.conj().T, fa @ fa.conj().T).real)
        m = fa.conj().T @ fb
        return float(np.vdot(m, m).real)
    if isinstance(a, LabelledMatrix) and isinstance(b, LabelledMatrix):
        return float(np.vdot(b.entries, a.entries).real)
    raise TypeError("overlap needs two dense operators or two factors")


def require_psd(m: LabelledMatrix) -> None:
    """Raise NotPSDError unless ``m`` is Hermitian with no eigenvalue below EIG_FLOOR.

    A Cholesky factorization of ``m - EIG_FLOOR*I`` settles the common case
    without a spectrum; only when it fails is the spectrum computed, to
    accept a matrix that sits on the floor or to name the offending
    eigenvalue.
    """
    if not m.is_hermitian():
        raise NotPSDError("matrix is not Hermitian within 1e-10")
    shifted = m.entries.copy()
    shifted.flat[:: shifted.shape[0] + 1] -= EIG_FLOOR
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        _psd_eigenvalues(m)


def _sorted_magnitudes(w: np.ndarray) -> np.ndarray:
    return np.sort(np.abs(w))[::-1]


def _rank_of_spectrum(w: np.ndarray, rel_tol: float) -> int:
    top = w.max(initial=0.0)
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(w > rel_tol * top))


def _tail_norms(w: np.ndarray) -> np.ndarray:
    """tails[r], r = 0..len(w): root-sum-square of all but the r largest magnitudes.

    Rank selection and truncation error both read this one array, so the
    error of the rank chosen for eta selects that same rank again.
    """
    w = _sorted_magnitudes(w)
    return np.sqrt(np.concatenate([np.cumsum(w[::-1] ** 2)[::-1], [0.0]]))


def _rank_eta_of_spectrum(w: np.ndarray, eta: float, rel_tol: float) -> int:
    if eta == 0:
        return _rank_of_spectrum(w, rel_tol)
    if np.abs(w).max(initial=0.0) == 0.0:
        return 0
    tails = _tail_norms(w)
    for r in range(1, len(w) + 1):
        if tails[r] <= eta:
            return r
    return len(w)


def _truncation_error_of_spectrum(w: np.ndarray, r: int) -> float:
    if r >= len(w):
        return 0.0
    return float(_tail_norms(w)[r])


def matrix_rank(m: LabelledMatrix, rel_tol: float = DEFAULT_RANK_RTOL) -> int:
    """Count of eigenvalues above ``rel_tol`` times the largest (PSD input)."""
    return _rank_of_spectrum(_psd_eigenvalues(m), rel_tol)


def rank_eta(m: LabelledMatrix, eta: float, rel_tol: float = DEFAULT_RANK_RTOL) -> int:
    """Smallest rank reachable within Hilbert-Schmidt distance ``eta``.

    Computed by eigenvalue-tail truncation (the Frobenius-optimal Hermitian
    approximant keeps the largest-magnitude eigenvalues): the result is the
    smallest r with root-sum-square of the d-r smallest eigenvalues <= eta.
    Never returns 0 for a nonzero matrix, even when the eta-ball contains 0.
    """
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    return _rank_eta_of_spectrum(_psd_eigenvalues(m), eta, rel_tol)


def truncation_error(m: LabelledMatrix, r: int) -> float:
    """Root-sum-square of the eigenvalues dropped by a rank-``r`` truncation."""
    return _truncation_error_of_spectrum(_psd_eigenvalues(m), r)
