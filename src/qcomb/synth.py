"""Ground-truth generators for causal-structure experiments.

Every generator draws from a seeded stream, composes the process exactly, and
rejection-samples until the causal signal is clean: each quantity the exact
recursion would probe along the true ordering is either zero (independent) or
at least the requested floor, so finite-sample tests have a gap to detect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    Comb,
    ProcessMatrix,
    Tooth,
    Unravelling,
    _labels,
    _swap_matrix,
    chi1,
    chi1_of_joint,
    choi_from_kraus,
    comb_kraus,
    factored_last_tooth_residual,
    kraus_factor,
    last_tooth_candidates,
    validate_factor,
)
from .sampling import GenerationError, Rng
from .tensors import (
    Direction,
    LabelledFactor,
    LabelledMatrix,
    WireSystem,
    permute_wires,
    tensor_product,
)

FAMILIES = ("isometric_chain", "memoryless", "total_order_chain", "entangling_c2")
MAX_REJECTIONS = 200
# Below this a probed correlation is treated as structurally zero.
ZERO_CHI = 1e-9


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters: teeth count, wire/memory/environment dims, family."""

    n: int
    d: int = 2
    d_mem: int = 2
    d_env: int = 1
    chi_min_target: float = 0.1
    family: str = "isometric_chain"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one tooth")
        if min(self.d, self.d_mem, self.d_env) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.chi_min_target < 0:
            raise ValueError("chi_min_target must be >= 0")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.family == "isometric_chain" and self.d * self.d_mem < self.d:
            raise ValueError("isometric chain needs output dim >= input dim per tooth")
        if self.family == "entangling_c2" and self.n != 2:
            raise ValueError("entangling_c2 builds exactly two teeth")


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows: the ordering and its verified causal signal."""

    ordering: Unravelling
    chi_min_achieved: float
    kraus_rank: int

    def to_json(self) -> dict:
        return {
            "ordering": self.ordering.to_json()["steps"],
            "chi_min_achieved": self.chi_min_achieved,
            "kraus_rank": self.kraus_rank,
        }

    @staticmethod
    def from_json(obj: dict) -> "GroundTruth":
        return GroundTruth(
            Unravelling.from_json({"steps": obj["ordering"]}),
            float(obj["chi_min_achieved"]),
            int(obj["kraus_rank"]),
        )


# -- Haar sampling -------------------------------------------------------------


def haar_unitary(d: int, gen: np.random.Generator) -> np.ndarray:
    """QR of a complex Gaussian with phase-fixed R diagonal."""
    z = (gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def haar_isometry(d_out: int, d_in: int, gen: np.random.Generator) -> np.ndarray:
    if d_out < d_in:
        raise ValueError("an isometry needs output dim >= input dim")
    return haar_unitary(d_out, gen)[:, :d_in]


# -- wire helpers ---------------------------------------------------------------


def _in_wire(k: int, d: int) -> WireSystem:
    return WireSystem(f"A{k}", d, Direction.INPUT)


def _out_wire(k: int, d: int) -> WireSystem:
    return WireSystem(f"B{k}", d, Direction.OUTPUT)


def _memory_profile(n: int, d_mem: int, d_env: int) -> list[int]:
    """Post-tooth memory dims: capped so every tooth stays an isometry.

    The final memory is the environment (dim d_env); each tooth's output
    dimension must not fall below its input, which caps every intermediate
    memory at min(d_mem, d_env) once the chain must narrow to d_env.
    """
    return [min(d_mem, d_env)] * (n - 1) + [d_env]


# -- per-family builders ---------------------------------------------------------


def _build_isometric_chain(spec: SynthSpec, gen: np.random.Generator) -> Comb:
    teeth = []
    m_prev = 1
    for k, m_k in enumerate(_memory_profile(spec.n, spec.d_mem, spec.d_env), start=1):
        v = haar_isometry(spec.d * m_k, spec.d * m_prev, gen)
        teeth.append(
            Tooth((v,), (_in_wire(k, spec.d),), (_out_wire(k, spec.d),), m_prev, m_k)
        )
        m_prev = m_k
    return Comb(tuple(teeth))


def _partial_swap(d: int, theta: float) -> np.ndarray:
    return np.cos(theta) * np.eye(d * d) + 1j * np.sin(theta) * _swap_matrix(d, d)


def _build_total_order_chain(spec: SynthSpec, gen: np.random.Generator) -> Comb:
    d, n = spec.d, spec.n
    if n == 1:
        u = haar_unitary(d, gen)
        return Comb((Tooth((u,), (_in_wire(1, d),), (_out_wire(1, d),), 1, 1),))
    # Keep both the transmitted and the swapped amplitude well away from 0 so
    # every input leaves a trace in every later output.
    thetas = gen.uniform(0.5, 1.05, size=n)
    embed0 = np.zeros((d * d, d), dtype=np.complex128)
    for a in range(d):
        embed0[a * d, a] = 1.0  # |psi> -> |psi> x |0>
    teeth = [
        Tooth(
            (_partial_swap(d, thetas[0]) @ embed0,),
            (_in_wire(1, d),),
            (_out_wire(1, d),),
            1,
            d,
        )
    ]
    for k in range(2, n + 1):
        teeth.append(
            Tooth(
                (_partial_swap(d, thetas[k - 1]),),
                (_in_wire(k, d),),
                (_out_wire(k, d),),
                d,
                d,
            )
        )
    return Comb(tuple(teeth))


def _build_entangling_c2(spec: SynthSpec, gen: np.random.Generator) -> Comb:
    d = spec.d
    m1 = min(spec.d_mem, spec.d_env)
    first = Tooth(
        (haar_isometry(d * d * m1, d * d, gen),),
        (_in_wire(1, d), _in_wire(2, d)),
        (_out_wire(1, d), _out_wire(2, d)),
        1,
        m1,
    )
    second = Tooth(
        (haar_isometry(d * spec.d_env, d * m1, gen),),
        (_in_wire(3, d),),
        (_out_wire(3, d),),
        m1,
        spec.d_env,
    )
    return Comb((first, second))


_BUILDERS = {
    "isometric_chain": _build_isometric_chain,
    "total_order_chain": _build_total_order_chain,
    "entangling_c2": _build_entangling_c2,
}

# Probe block size per family: what the matching recursion would scan.
_PROBE_C = {"isometric_chain": 1, "total_order_chain": 1, "entangling_c2": 2}


# -- rejection probes -------------------------------------------------------------


def _pair_chi1(f: LabelledFactor, a: str, b: str) -> float:
    """:func:`chi1` of wires ``a`` and ``b`` in the Choi state F F+."""
    joint = f.trace_out(lab for lab in f.labels if lab not in (a, b)).gram()
    return chi1_of_joint(joint, {a}, {b})


def probe_values(f: LabelledFactor, truth: Unravelling, c: int) -> list[float]:
    """Correlation strengths the exact recursion meets along the true ordering.

    Includes every single-pair chi1 on the full process, plus the last-tooth
    residual of each candidate scanned (in order) up to the true step at each
    recursion stage.  Each residual is itself a chi1 value of a marginal, so
    one floor governs them all.  ``f`` is the Kraus factor of the process's
    Choi state; each stage reduces it by a partial trace.
    """
    vals = [
        _pair_chi1(f, a, b)
        for a in _labels(f, Direction.INPUT)
        for b in _labels(f, Direction.OUTPUT)
    ]
    cur = f
    rev = list(reversed(truth.steps))
    for idx, (pk, qk) in enumerate(rev):
        for cand_p, cand_q in last_tooth_candidates(
            _labels(cur, Direction.INPUT), _labels(cur, Direction.OUTPUT), c
        ):
            vals.append(factored_last_tooth_residual(cur, cand_p, cand_q))
            if set(cand_p) == set(pk) and set(cand_q) == set(qk):
                break
        if idx < len(rev) - 1:
            cur = cur.trace_out(pk + qk)
    return vals


def _signal_is_clean(vals: Sequence[float], target: float) -> bool:
    return all(v <= ZERO_CHI or v >= target for v in vals)


def _achieved(vals: Sequence[float]) -> float:
    return min((v for v in vals if v > ZERO_CHI), default=0.0)


def _total_order_probes(f: LabelledFactor, n: int) -> list[float]:
    """chi1 of every causally connected pair (A_i, B_j), j >= i."""
    return [
        _pair_chi1(f, f"A{i}", f"B{j}")
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    ]


def random_comb(spec: SynthSpec, rng: Rng) -> tuple[Comb, GroundTruth]:
    """Draw a comb of the requested family with a verified causal-signal floor."""
    if spec.family == "memoryless":
        raise ValueError("memoryless generation returns a plain process; use random_memoryless")
    builder = _BUILDERS[spec.family]
    last_vals: list[float] = []
    for attempt in range(MAX_REJECTIONS):
        gen = rng.child(attempt).generator()
        comb = builder(spec, gen)
        f = kraus_factor(comb_kraus(comb), comb.input_wires, comb.output_wires)
        validate_factor(f, comb.input_wires, comb.output_wires)
        truth = comb.ground_truth()
        if spec.family == "total_order_chain":
            vals = _total_order_probes(f, spec.n)
            ok = all(v >= spec.chi_min_target for v in vals)
        else:
            vals = probe_values(f, truth, _PROBE_C[spec.family])
            ok = _signal_is_clean(vals, spec.chi_min_target)
        if ok:
            return comb, GroundTruth(truth, _achieved(vals), f.rank())
        last_vals = vals
    raise GenerationError(
        f"{spec.family}: no draw met the chi floor {spec.chi_min_target} in "
        f"{MAX_REJECTIONS} attempts; last probe values {np.round(last_vals, 4).tolist()}"
    )


def total_order_chain(
    n: int, d: int, rng: Rng, chi_min_target: float = 0.1
) -> tuple[Comb, GroundTruth]:
    if d < 2:
        raise ValueError("total order chain needs d >= 2")
    spec = SynthSpec(n=n, d=d, d_mem=d, d_env=d, chi_min_target=chi_min_target,
                     family="total_order_chain")
    return random_comb(spec, rng)


# -- memoryless products -----------------------------------------------------------


def _constant_channel_kraus(d: int, gen: np.random.Generator) -> list[np.ndarray]:
    """rho -> Tr[rho] sigma for a random pure sigma."""
    v = gen.normal(size=d) + 1j * gen.normal(size=d)
    v /= np.linalg.norm(v)
    return [np.outer(v, e) for e in np.eye(d)]


def _noisy_channel_kraus(d: int, gen: np.random.Generator) -> list[np.ndarray]:
    """Generic 2-Kraus channel: Haar isometry into a qubit environment, traced."""
    v = haar_isometry(2 * d, d, gen)
    blocks = v.reshape(d, 2, d)
    return [blocks[:, e, :] for e in range(2)]


def random_memoryless(
    n: int,
    dims: int | Sequence[int],
    rng: Rng,
    chi_min_target: float = 0.1,
    constant: Sequence[int] = (),
) -> tuple[ProcessMatrix, tuple[int, ...]]:
    """n independent channels A_i -> B_{perm(i)} under a hidden uniform permutation.

    Channels at indices in ``constant`` discard their input (zero correlation);
    all others are rejection-sampled until the matched-pair chi1 clears the
    floor.  Returns the process on canonically ordered wires and the 0-based
    permutation (pair i feeds output slot perm[i]).
    """
    dims = [dims] * n if isinstance(dims, int) else list(dims)
    if len(dims) != n:
        raise ValueError("dims must give one dimension per pair")
    constant = set(constant)
    if not constant <= set(range(n)):
        raise ValueError("constant indices out of range")
    for attempt in range(MAX_REJECTIONS):
        gen = rng.child(attempt).generator()
        perm = tuple(int(x) for x in gen.permutation(n))
        # Output slot perm[i] inherits the dimension of input i.
        out_dims = {perm[i]: dims[i] for i in range(n)}
        pieces = []
        for i in range(n):
            inw = (_in_wire(i + 1, dims[i]),)
            outw = (_out_wire(perm[i] + 1, dims[i]),)
            kraus = (
                _constant_channel_kraus(dims[i], gen)
                if i in constant
                else _noisy_channel_kraus(dims[i], gen)
            )
            pieces.append(choi_from_kraus(kraus, inw, outw))
        joint = pieces[0].choi
        for piece in pieces[1:]:
            joint = tensor_product(joint, piece.choi)
        inputs = tuple(_in_wire(i + 1, dims[i]) for i in range(n))
        outputs = tuple(_out_wire(j + 1, out_dims[j]) for j in range(n))
        order = [w.label for w in inputs + outputs]
        p = ProcessMatrix(permute_wires(joint, order), inputs, outputs)
        matched = [
            chi1(p, {f"A{i + 1}"}, {f"B{perm[i] + 1}"})
            for i in range(n)
            if i not in constant
        ]
        if all(v >= chi_min_target for v in matched):
            return p, perm
    raise GenerationError(
        f"memoryless: no draw reached matched-pair chi1 >= {chi_min_target} "
        f"in {MAX_REJECTIONS} attempts"
    )


# -- wire shuffling -----------------------------------------------------------------


def apply_wire_permutation(
    p: ProcessMatrix, in_perm: Sequence[int], out_perm: Sequence[int]
) -> ProcessMatrix:
    """Move old input wire in_perm[i] to slot i (same for outputs), relabelling
    each slot with the label that originally sat there."""
    in_perm = list(in_perm)
    out_perm = list(out_perm)
    if sorted(in_perm) != list(range(len(p.inputs))):
        raise ValueError("in_perm is not a permutation of the input slots")
    if sorted(out_perm) != list(range(len(p.outputs))):
        raise ValueError("out_perm is not a permutation of the output slots")
    order = [p.inputs[i].label for i in in_perm] + [p.outputs[j].label for j in out_perm]
    permuted = permute_wires(p.choi, order)
    new_inputs = tuple(
        WireSystem(p.inputs[i].label, p.inputs[in_perm[i]].dim, Direction.INPUT)
        for i in range(len(p.inputs))
    )
    new_outputs = tuple(
        WireSystem(p.outputs[j].label, p.outputs[out_perm[j]].dim, Direction.OUTPUT)
        for j in range(len(p.outputs))
    )
    relabelled = LabelledMatrix(permuted.entries, new_inputs + new_outputs)
    return ProcessMatrix(relabelled, new_inputs, new_outputs)


def shuffle_wires(
    p: ProcessMatrix, rng: Rng
) -> tuple[ProcessMatrix, tuple[int, ...], tuple[int, ...]]:
    """Hide the ground truth behind independent random wire permutations."""
    gen = rng.generator()
    sig = tuple(int(x) for x in gen.permutation(len(p.inputs)))
    tau = tuple(int(x) for x in gen.permutation(len(p.outputs)))
    return apply_wire_permutation(p, sig, tau), sig, tau


def unshuffle_wires(
    p: ProcessMatrix, in_perm: Sequence[int], out_perm: Sequence[int]
) -> ProcessMatrix:
    """Invert apply_wire_permutation with the same permutations."""
    inv_in = np.argsort(np.asarray(in_perm))
    inv_out = np.argsort(np.asarray(out_perm))
    return apply_wire_permutation(p, inv_in.tolist(), inv_out.tolist())
