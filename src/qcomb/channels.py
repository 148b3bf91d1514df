"""Channels as Choi density matrices, sequential combs, and causal structure.

Conventions used throughout:

* A process with input wires ``A = (A_1, ..)`` and output wires ``B`` is
  carried by its Choi state ``C`` on ``A + B`` (inputs first), normalized to
  unit trace.  Entrywise ``C[(i,m),(j,n)] = <m|C(|i><j|)|n> / d_in``, so
  trace preservation reads ``Tr_B[C] = I_A / d_in``.
* A tooth's Kraus operators map ``(tooth inputs) x (memory in)`` to
  ``(tooth outputs) x (memory out)`` with the memory factor last on both
  sides.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .tensors import (
    Direction,
    LabelledFactor,
    LabelledMatrix,
    WireSystem,
    aligned,
    compressed_difference,
    difference_trace_norm,
    hs_norm,
    identity,
    matrix_rank,
    maximally_mixed,
    partial_trace,
    require_psd,
    tensor_product,
    total_dim,
    trace_norm,
    trace_out,
)

CHANNEL_ATOL = 1e-9
# Factorization threshold for exact-mode structure checks; composition noise
# for <= 10-qubit Choi matrices stays a couple of orders below this.
DEFAULT_EXACT_TOL = 1e-8
# Relative margin kept by the Hilbert-Schmidt screen in is_last_tooth_exact.
HS_SCREEN_SLACK = 1e-9


class ProcessMatrix:
    """A channel ``inputs -> outputs`` held as its unit-trace Choi state.

    ``factor`` is present exactly when the process was built from Kraus
    operators (:func:`choi_from_kraus`, and reductions of such a process);
    it is the Kraus factor F with F F+ = ``choi``.  Validation, certificates,
    residuals and SWAP-test overlaps then run on F instead of on dense
    matrices.  A process read from a Choi matrix has no factor and is
    validated densely.

    ``choi`` is a :class:`LabelledMatrix` or, when F is given, a zero-argument
    function that builds it.  Such a dense Choi matrix is built on first read
    of ``choi`` and cached, so exact and sampled unravelling and
    verification of a Kraus-built process never form it.  The readers that
    still build it are the POVM cell law (``sampling.exact_cell_probabilities``),
    :func:`chi1`, ``algorithms.memoryless_comparison``, :meth:`to_json`,
    :func:`kraus_rank` and :func:`apply_channel`; also :func:`kraus_from_choi`
    (and so :func:`standardize`) and the dense builders of ``synth``
    (``random_memoryless``, ``apply_wire_permutation``).
    """

    def __init__(
        self,
        choi: LabelledMatrix | Callable[[], LabelledMatrix],
        inputs: Iterable[WireSystem],
        outputs: Iterable[WireSystem],
        factor: LabelledFactor | None = None,
    ) -> None:
        state = vars(self)
        state.update(inputs=tuple(inputs), outputs=tuple(outputs), factor=factor)
        if any(w.direction is not Direction.INPUT for w in self.inputs):
            raise ValueError("all input wires must have direction 'input'")
        if any(w.direction is not Direction.OUTPUT for w in self.outputs):
            raise ValueError("all output wires must have direction 'output'")
        wires = self.inputs + self.outputs
        if isinstance(choi, LabelledMatrix):
            if choi.row_wires != wires:
                raise ValueError("choi wires must be inputs followed by outputs")
            state["choi"] = choi
        elif factor is None:
            raise ValueError("a deferred Choi matrix needs a Kraus factor")
        else:
            state["_build_choi"] = choi
        if factor is None:
            validate_channel(choi, self.inputs, self.outputs)
            return
        if factor.wires != wires:
            raise ValueError("Kraus factor wires differ from the Choi wires")
        validate_factor(factor, self.inputs, self.outputs)
        if "choi" in state:
            row_norms = np.sum(np.abs(factor.entries) ** 2, axis=1)
            if not np.allclose(np.diagonal(choi.entries), row_norms, atol=CHANNEL_ATOL, rtol=0.0):
                raise ValueError("Kraus factor does not match the Choi diagonal")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ProcessMatrix is immutable: cannot set {name!r}")

    @functools.cached_property
    def choi(self) -> LabelledMatrix:
        """The dense Choi matrix; a deferred one is built here, once."""
        c = self._build_choi()
        del vars(self)["_build_choi"]
        return c

    @property
    def d_in(self) -> int:
        return total_dim(self.inputs)

    @property
    def d_out(self) -> int:
        return total_dim(self.outputs)

    @property
    def input_labels(self) -> tuple[str, ...]:
        return tuple(w.label for w in self.inputs)

    @property
    def output_labels(self) -> tuple[str, ...]:
        return tuple(w.label for w in self.outputs)

    def input_wire(self, label: str) -> WireSystem:
        for wire in self.inputs:
            if wire.label == label:
                return wire
        raise KeyError(f"no input wire {label!r}")

    def output_wire(self, label: str) -> WireSystem:
        for wire in self.outputs:
            if wire.label == label:
                return wire
        raise KeyError(f"no output wire {label!r}")

    def to_json(self) -> dict:
        return {
            "inputs": [w.to_json() for w in self.inputs],
            "outputs": [w.to_json() for w in self.outputs],
            "repr": "choi",
            "choi": self.choi.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "ProcessMatrix":
        inputs = tuple(WireSystem.from_json(w) for w in obj["inputs"])
        outputs = tuple(WireSystem.from_json(w) for w in obj["outputs"])
        if obj["repr"] == "choi":
            return ProcessMatrix(LabelledMatrix.from_json(obj["choi"]), inputs, outputs)
        if obj["repr"] == "kraus":
            kraus = [_matrix_from_json(k) for k in obj["kraus"]]
            return choi_from_kraus(kraus, inputs, outputs)
        raise ValueError(f"unknown process repr {obj['repr']!r}")


def _matrix_to_json(k: np.ndarray) -> dict:
    return {"re": k.real.tolist(), "im": k.imag.tolist()}


def _matrix_from_json(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def validate_channel(
    choi: LabelledMatrix,
    inputs: Sequence[WireSystem],
    outputs: Sequence[WireSystem],
    atol: float = CHANNEL_ATOL,
) -> None:
    """Check PSD, unit trace, and trace preservation of a Choi state."""
    require_psd(choi)
    marginal = partial_trace(choi, [w.label for w in inputs])
    _require_normalised(np.trace(choi.entries), marginal, atol)


def validate_factor(
    f: LabelledFactor,
    inputs: Sequence[WireSystem],
    outputs: Sequence[WireSystem],
    atol: float = CHANNEL_ATOL,
) -> None:
    """:func:`validate_channel` of the Choi state F F+, checked on F.

    F F+ is PSD by its form; unit trace and trace preservation are read
    from the d_in x d_in input marginal, the Gram matrix of F with the
    output wires traced out.
    """
    if not np.isfinite(f.entries).all():
        raise ValueError("Kraus factor has non-finite entries")
    marginal = f.trace_out(w.label for w in outputs).gram()
    _require_normalised(np.trace(marginal.entries), marginal, atol)


def _require_normalised(tr: complex, marginal: LabelledMatrix, atol: float) -> None:
    """Unit Choi trace ``tr`` and trace preservation, Tr_out[C] = I/d_in, on the input marginal."""
    if abs(tr - 1.0) > atol:
        raise ValueError(f"Choi trace {tr.real:.12f} differs from 1 beyond {atol}")
    d_in = marginal.entries.shape[0]
    if not np.allclose(marginal.entries, np.eye(d_in) / d_in, atol=atol, rtol=0.0):
        raise ValueError("channel is not trace-preserving: Tr_out[C] != I/d_in")


def choi_from_kraus(
    kraus: Sequence[np.ndarray],
    inputs: Sequence[WireSystem],
    outputs: Sequence[WireSystem],
    atol: float = CHANNEL_ATOL,
) -> ProcessMatrix:
    """The unit-trace Choi state of ``rho -> sum_K K rho K+``, with its Kraus factor.

    The dense Choi matrix is assembled only when ``choi`` is first read.
    """
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    d_in = total_dim(inputs)
    d_out = total_dim(outputs)
    kraus = [np.array(k, dtype=np.complex128) for k in kraus]  # copies: assembly may run later
    if not kraus:
        raise ValueError("empty Kraus set")
    for k in kraus:
        if k.shape != (d_out, d_in):
            raise ValueError(f"Kraus shape {k.shape} does not map dim {d_in} to {d_out}")
    total = sum(k.conj().T @ k for k in kraus)
    if not np.allclose(total, np.eye(d_in), atol=atol, rtol=0.0):
        raise ValueError("Kraus set is not trace-preserving (sum K+K != I)")

    def assemble() -> LabelledMatrix:
        return _assemble_choi(kraus, inputs + outputs, d_in)

    return ProcessMatrix(assemble, inputs, outputs, kraus_factor(kraus, inputs, outputs))


def _assemble_choi(
    kraus: Sequence[np.ndarray], wires: tuple[WireSystem, ...], d_in: int
) -> LabelledMatrix:
    """The dense Choi state sum_K |K>><<K| / d_in of a checked Kraus set."""
    d = total_dim(wires)
    c = np.zeros((d, d), dtype=np.complex128)
    for k in kraus:
        v = k.T.reshape(-1)  # index (input, output), row-major
        c += np.outer(v, v.conj())
    c /= d_in
    return LabelledMatrix(c, wires)


def kraus_factor(
    kraus: Sequence[np.ndarray],
    inputs: Sequence[WireSystem],
    outputs: Sequence[WireSystem],
) -> LabelledFactor:
    """Factor F with F F+ the Choi state :func:`choi_from_kraus` assembles.

    Column j is Kraus operator j in the same (input, output) index order,
    scaled by 1/sqrt(d_in).  The Kraus set is not re-validated.
    """
    inputs = tuple(inputs)
    cols = [np.asarray(k, dtype=np.complex128).T.reshape(-1) for k in kraus]
    return LabelledFactor(
        np.stack(cols, axis=1) / math.sqrt(total_dim(inputs)), inputs + tuple(outputs)
    )


def kraus_from_choi(p: ProcessMatrix, rel_tol: float = 1e-12) -> list[np.ndarray]:
    """Extract a minimal Kraus set from the Choi spectrum."""
    w, v = np.linalg.eigh(p.choi.entries)
    top = w.max(initial=0.0)
    ops = []
    for lam, vec in zip(w, v.T):
        if lam > rel_tol * top:
            k = np.sqrt(p.d_in * lam) * vec.reshape(p.d_in, p.d_out).T
            ops.append(k)
    return ops


def apply_channel(p: ProcessMatrix, rho: np.ndarray) -> np.ndarray:
    """Act on an input state via Choi contraction: d_in Tr_in[(rho^T x I) C]."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (p.d_in, p.d_in):
        raise ValueError(f"state shape {rho.shape} does not match input dim {p.d_in}")
    c = p.choi.entries.reshape(p.d_in, p.d_out, p.d_in, p.d_out)
    return p.d_in * np.einsum("ij,ikjl->kl", rho, c)


def kraus_rank(p: ProcessMatrix, rel_tol: float = 1e-9) -> int:
    return matrix_rank(p.choi, rel_tol)


# -- teeth and combs --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Tooth:
    """One comb interaction: CPTP from (inputs x mem_in) to (outputs x mem_out)."""

    kraus: tuple[np.ndarray, ...]
    in_wires: tuple[WireSystem, ...]
    out_wires: tuple[WireSystem, ...]
    mem_in_dim: int
    mem_out_dim: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "kraus", tuple(np.asarray(k, dtype=np.complex128) for k in self.kraus)
        )
        object.__setattr__(self, "in_wires", tuple(self.in_wires))
        object.__setattr__(self, "out_wires", tuple(self.out_wires))
        if self.mem_in_dim < 1 or self.mem_out_dim < 1:
            raise ValueError("memory dimensions must be >= 1")
        din = total_dim(self.in_wires) * self.mem_in_dim
        dout = total_dim(self.out_wires) * self.mem_out_dim
        for k in self.kraus:
            if k.shape != (dout, din):
                raise ValueError(f"tooth Kraus shape {k.shape}, expected {(dout, din)}")
        total = sum(k.conj().T @ k for k in self.kraus)
        if not np.allclose(total, np.eye(din), atol=CHANNEL_ATOL, rtol=0.0):
            raise ValueError("tooth Kraus set is not trace-preserving")

    def to_json(self) -> dict:
        return {
            "kraus": [_matrix_to_json(k) for k in self.kraus],
            "in_wires": [w.to_json() for w in self.in_wires],
            "out_wires": [w.to_json() for w in self.out_wires],
            "mem_in": self.mem_in_dim,
            "mem_out": self.mem_out_dim,
        }

    @staticmethod
    def from_json(obj: dict) -> "Tooth":
        return Tooth(
            tuple(_matrix_from_json(k) for k in obj["kraus"]),
            tuple(WireSystem.from_json(w) for w in obj["in_wires"]),
            tuple(WireSystem.from_json(w) for w in obj["out_wires"]),
            int(obj["mem_in"]),
            int(obj["mem_out"]),
        )


@dataclass(frozen=True, eq=False)
class Comb:
    """Teeth chained through memory; the final memory is a discarded environment."""

    teeth: tuple[Tooth, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "teeth", tuple(self.teeth))
        if not self.teeth:
            raise ValueError("a comb needs at least one tooth")
        if self.teeth[0].mem_in_dim != 1:
            raise ValueError("first tooth must start with trivial memory")
        for a, b in itertools.pairwise(self.teeth):
            if a.mem_out_dim != b.mem_in_dim:
                raise ValueError(
                    f"memory dimension mismatch between teeth: {a.mem_out_dim} -> {b.mem_in_dim}"
                )

    @property
    def d_env(self) -> int:
        return self.teeth[-1].mem_out_dim

    @property
    def input_wires(self) -> tuple[WireSystem, ...]:
        return tuple(w for t in self.teeth for w in t.in_wires)

    @property
    def output_wires(self) -> tuple[WireSystem, ...]:
        return tuple(w for t in self.teeth for w in t.out_wires)

    def ground_truth(self) -> "Unravelling":
        return Unravelling(
            tuple(
                (tuple(w.label for w in t.in_wires), tuple(w.label for w in t.out_wires))
                for t in self.teeth
            )
        )

    def to_json(self) -> dict:
        return {"teeth": [t.to_json() for t in self.teeth], "d_env": self.d_env}

    @staticmethod
    def from_json(obj: dict) -> "Comb":
        comb = Comb(tuple(Tooth.from_json(t) for t in obj["teeth"]))
        if comb.d_env != int(obj["d_env"]):
            raise ValueError("d_env field disagrees with the last tooth")
        return comb


def _swap_matrix(d1: int, d2: int) -> np.ndarray:
    """Unitary reordering H1 x H2 -> H2 x H1."""
    s = np.zeros((d1 * d2, d1 * d2))
    for i in range(d1):
        for j in range(d2):
            s[j * d1 + i, i * d2 + j] = 1.0
    return s


def comb_kraus(comb: Comb) -> list[np.ndarray]:
    """Composite Kraus operators of the full comb, inputs -> outputs.

    Operators are built tooth by tooth by sequential composition over
    memory; the final memory (the environment) is traced by splitting each
    composite operator along an environment basis.
    """
    ops = [np.eye(1, dtype=np.complex128)]  # map: consumed inputs -> produced x mem
    d_b = 1  # produced output dim so far
    mem = 1
    for tooth in comb.teeth:
        d_a = total_dim(tooth.in_wires)
        lift = _swap_matrix(mem, d_a)  # reorder (mem x A) -> (A x mem)
        step = [np.kron(np.eye(d_b), k @ lift) for k in tooth.kraus]
        ops = [s @ np.kron(v, np.eye(d_a)) for v in ops for s in step]
        d_b *= total_dim(tooth.out_wires)
        mem = tooth.mem_out_dim
    d_env = comb.d_env
    d_in = total_dim(comb.input_wires)
    final = []
    for v in ops:
        blocks = v.reshape(d_b, d_env, d_in)
        final.extend(blocks[:, e, :] for e in range(d_env))
    return final


def compose_comb(comb: Comb) -> ProcessMatrix:
    """Choi state of the full comb, from its composite Kraus operators."""
    return choi_from_kraus(comb_kraus(comb), comb.input_wires, comb.output_wires)


# -- causal-structure measures and checks -----------------------------------


def chi1(p: ProcessMatrix, s: Iterable[str], t: Iterable[str]) -> float:
    """Trace-norm distance between a joint marginal and the product of its parts.

    Zero exactly when the wire sets are independent in the Choi state.
    """
    s = set(s)
    t = set(t)
    if not s or not t:
        raise ValueError("both wire sets must be nonempty")
    if s & t:
        raise ValueError(f"wire sets overlap: {sorted(s & t)}")
    all_labels = set(p.choi.labels)
    unknown = (s | t) - all_labels
    if unknown:
        raise KeyError(f"unknown wire labels: {sorted(unknown)}")
    return chi1_of_joint(partial_trace(p.choi, s | t), s, t)


def chi1_of_joint(joint: LabelledMatrix, s: Iterable[str], t: Iterable[str]) -> float:
    """:func:`chi1` of a joint marginal whose wires are exactly ``s`` and ``t``."""
    prod = tensor_product(partial_trace(joint, s), partial_trace(joint, t))
    diff = joint.entries - aligned(prod, joint).entries
    return trace_norm(LabelledMatrix(diff, joint.row_wires))


def is_last_tooth_exact(
    p: ProcessMatrix,
    P: Iterable[str],
    Q: Iterable[str],
    tol: float = DEFAULT_EXACT_TOL,
) -> bool:
    """``last_tooth_residual(p, P, Q) <= tol``, taking the trace norm only if needed.

    The residual difference X on d dimensions obeys the norm sandwich
    ||X||_2 <= ||X||_1 <= sqrt(d) ||X||_2, so its Hilbert-Schmidt norm alone
    decides unless tol lies inside that band.  The screen keeps a relative
    slack of HS_SCREEN_SLACK on both sides, far above the rounding of either
    norm, so a candidate within rounding of a band edge still gets the
    trace norm and the verdict always matches the residual's.
    """
    diff = _last_tooth_difference(p, P, Q)
    hs = hs_norm(diff)
    if hs > tol * (1.0 + HS_SCREEN_SLACK):
        return False
    if math.sqrt(diff.entries.shape[0]) * hs <= tol * (1.0 - HS_SCREEN_SLACK):
        return True
    return trace_norm(diff) <= tol


def last_tooth_residual(p: ProcessMatrix, P: Iterable[str], Q: Iterable[str]) -> float:
    """Trace-norm defect of the last-tooth factorization for candidate (P, Q).

    Measures || Tr_Q[C] - Tr_{P u Q}[C] x I_P/d_P ||_1; the candidate is a
    valid last tooth exactly when this vanishes.  Computed on the Kraus
    factor when the process has one.
    """
    return trace_norm(_last_tooth_difference(p, P, Q))


def last_tooth_marginals(
    p: ProcessMatrix, P: Iterable[str], Q: Iterable[str]
) -> tuple[LabelledMatrix, LabelledMatrix]:
    """The two states whose equality certifies (P, Q) as a last tooth.

    Returns Tr_Q[C] and Tr_{P u Q}[C] x I_P/d_P, the second in the first's
    wire order.
    """
    P = set(P)
    Q = set(Q)
    _require_subsets(p.input_labels, p.output_labels, P, Q)
    c1 = trace_out(p.choi, Q)
    rest = trace_out(p.choi, P | Q)
    p_wires = tuple(w for w in p.inputs if w.label in P)
    c2 = rest if not P else tensor_product(rest, maximally_mixed(p_wires))
    return c1, aligned(c2, c1)


def _labels(f: LabelledFactor, direction: Direction) -> tuple[str, ...]:
    """Labels of the factor's wires that point in ``direction``."""
    return tuple(w.label for w in f.wires if w.direction is direction)


def last_tooth_factors(
    f: LabelledFactor, P: Iterable[str], Q: Iterable[str]
) -> tuple[LabelledFactor, LabelledFactor]:
    """:func:`last_tooth_marginals` of the Choi state F F+, as factors.

    ``f`` carries a process's wires; their directions tell inputs from outputs.
    """
    P = set(P)
    Q = set(Q)
    _require_subsets(_labels(f, Direction.INPUT), _labels(f, Direction.OUTPUT), P, Q)
    c1 = f.trace_out(Q)
    rest = f.trace_out(P | Q)
    p_wires = tuple(w for w in f.wires if w.label in P)
    c2 = rest if not P else rest.tensor_maximally_mixed(p_wires)
    return c1, c2.permute_wires(c1.labels)


def factored_last_tooth_residual(f: LabelledFactor, P: Iterable[str], Q: Iterable[str]) -> float:
    """:func:`last_tooth_residual` of the Choi state F F+, computed on its factor."""
    return difference_trace_norm(*last_tooth_factors(f, P, Q))


def _last_tooth_difference(
    p: ProcessMatrix, P: Iterable[str], Q: Iterable[str]
) -> LabelledMatrix:
    """The residual's difference operator; compressed to its range when there is a Kraus factor."""
    if p.factor is not None:
        return compressed_difference(*last_tooth_factors(p.factor, P, Q))
    c1, c2 = last_tooth_marginals(p, P, Q)
    return LabelledMatrix(c1.entries - c2.entries, c1.row_wires)


def _require_subsets(
    input_labels: Iterable[str], output_labels: Iterable[str], P: set, Q: set
) -> None:
    bad_p = P - set(input_labels)
    bad_q = Q - set(output_labels)
    if bad_p:
        raise KeyError(f"not input wires: {sorted(bad_p)}")
    if bad_q:
        raise KeyError(f"not output wires: {sorted(bad_q)}")


def reduce_channel(p: ProcessMatrix, P: Iterable[str], Q: Iterable[str]) -> ProcessMatrix:
    """Remove (P, Q): feed maximally mixed states into P and discard Q.

    On Choi states this is exactly the partial trace over P and Q (the
    maximally mixed input is what makes the marginal the reduced channel's
    Choi, with no renormalization needed).  With a Kraus factor the factor
    is traced now and the dense partial trace deferred to the first read.
    """
    P = set(P)
    Q = set(Q)
    _require_subsets(p.input_labels, p.output_labels, P, Q)
    inputs = tuple(w for w in p.inputs if w.label not in P)
    outputs = tuple(w for w in p.outputs if w.label not in Q)
    if p.factor is None:
        return ProcessMatrix(trace_out(p.choi, P | Q), inputs, outputs)

    def reduced() -> LabelledMatrix:
        return trace_out(p.choi, P | Q)

    return ProcessMatrix(reduced, inputs, outputs, p.factor.trace_out(P | Q))


def marginal(p: ProcessMatrix, drop: Iterable[str]) -> LabelledMatrix | LabelledFactor:
    """The marginal Tr_drop[C]: as a factor when the process has a Kraus factor.

    Either form gives its spectrum to :func:`tensors.psd_spectrum`; the
    factor's is the squared singular values of a thin matrix.
    """
    if p.factor is not None:
        return p.factor.trace_out(drop)
    return trace_out(p.choi, drop)


def last_tooth_candidates(
    input_labels: Sequence[str], output_labels: Sequence[str], c: int
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Candidate (P, Q) pairs in deterministic scan order for block size <= c.

    Order: block-size pair (|P|, |Q|) ascending, then subsets lexicographically
    over the sorted labels.  Pairs with Q = all outputs but P a strict subset
    of the inputs are skipped: trace preservation makes their factorization
    test hold identically, so they certify nothing.  The full trivial pair
    (all inputs, all outputs) is kept; it terminates a recursion.
    """
    if c < 1:
        raise ValueError("block size must be >= 1")
    ins = sorted(set(input_labels))
    outs = sorted(set(output_labels))
    cands = []
    for cp in range(1, min(c, len(ins)) + 1):
        for cq in range(1, min(c, len(outs)) + 1):
            for P in itertools.combinations(ins, cp):
                for Q in itertools.combinations(outs, cq):
                    if len(Q) == len(outs) and len(P) < len(ins):
                        continue
                    cands.append((P, Q))
    return cands


# -- unravellings ------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class Unravelling:
    """Ordered steps (P_k, Q_k) partitioning the input and output labels."""

    steps: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        norm = tuple(
            (tuple(sorted(set(pk))), tuple(sorted(set(qk)))) for pk, qk in self.steps
        )
        object.__setattr__(self, "steps", norm)

    def __len__(self) -> int:
        return len(self.steps)

    def max_block(self) -> int:
        return max((max(len(p), len(q)) for p, q in self.steps), default=0)

    def to_json(self) -> dict:
        return {
            "steps": [{"inputs": list(p), "outputs": list(q)} for p, q in self.steps]
        }

    @staticmethod
    def from_json(obj: dict) -> "Unravelling":
        return Unravelling(
            tuple(
                (tuple(s["inputs"]), tuple(s["outputs"])) for s in obj["steps"]
            )
        )


def _check_partition(p: ProcessMatrix, u: Unravelling) -> None:
    ins = [lab for pk, _ in u.steps for lab in pk]
    outs = [lab for _, qk in u.steps for lab in qk]
    if sorted(ins) != sorted(p.input_labels):
        raise ValueError("step input sets do not partition the process inputs")
    if sorted(outs) != sorted(p.output_labels):
        raise ValueError("step output sets do not partition the process outputs")


def membership_residuals(p: ProcessMatrix, u: Unravelling) -> list[float]:
    """Factorization residuals for steps m..2, reducing as we go.

    The first step is never tested: after removing all later teeth it is the
    whole of what remains.
    """
    _check_partition(p, u)
    residuals = []
    cur = p
    for pk, qk in reversed(u.steps[1:]):
        residuals.append(last_tooth_residual(cur, pk, qk))
        cur = reduce_channel(cur, pk, qk)
    return residuals


def comb_membership(p: ProcessMatrix, u: Unravelling, tol: float = DEFAULT_EXACT_TOL) -> bool:
    """True iff every step from the last down to the second is a valid last tooth."""
    return all(res <= tol for res in membership_residuals(p, u))


# -- standard form ------------------------------------------------------------


def standardize(p: ProcessMatrix, pad_dim: int | None = None) -> ProcessMatrix:
    """Embed every wire into a common dimension by zero-padding Kraus operators.

    Inputs gain completion operators that route the complement of the
    embedded subspace to the channel's action on the all-zeros basis state,
    keeping the padded channel trace-preserving.  This changes the Kraus
    count, so the operation is never applied implicitly.
    """
    dims = [w.dim for w in p.inputs + p.outputs]
    d_std = max(dims) if pad_dim is None else pad_dim
    if pad_dim is not None and pad_dim < max(dims):
        raise ValueError(f"pad_dim {pad_dim} is below the largest wire dim {max(dims)}")
    if all(d == d_std for d in dims):
        return p

    def embed(wires: tuple[WireSystem, ...]) -> np.ndarray:
        j = np.eye(1, dtype=np.complex128)
        for wire in wires:
            block = np.zeros((d_std, wire.dim), dtype=np.complex128)
            block[: wire.dim, :] = np.eye(wire.dim)
            j = np.kron(j, block)
        return j

    j_in = embed(p.inputs)
    j_out = embed(p.outputs)
    kraus = kraus_from_choi(p)
    padded = [j_out @ k @ j_in.conj().T for k in kraus]
    # Completion: measure the complement of the embedded input subspace and
    # feed |0...0> to the original channel instead.
    proj = j_in @ j_in.conj().T
    comp = np.eye(proj.shape[0]) - proj
    w_comp, v_comp = np.linalg.eigh(comp)
    zero_state = np.zeros(p.d_in, dtype=np.complex128)
    zero_state[0] = 1.0
    for lam, vec in zip(w_comp, v_comp.T):
        if lam > 0.5:
            padded.extend(np.outer(j_out @ k @ zero_state, vec.conj()) for k in kraus)
    new_inputs = tuple(WireSystem(w.label, d_std, w.direction) for w in p.inputs)
    new_outputs = tuple(WireSystem(w.label, d_std, w.direction) for w in p.outputs)
    return choi_from_kraus(padded, new_inputs, new_outputs)
