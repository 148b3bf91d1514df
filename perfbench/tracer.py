"""Outside-in tracer for the qcomb benchmark.

The tracer wraps public functions of the qcomb modules from outside the
package; nothing under ``src/`` knows about it.  The package binds many
functions by name (``from .tensors import trace_out`` in ``algorithms``,
``channels`` and ``synth``), so a wrapper replaces every binding of the
original function in every loaded ``qcomb`` module, not only the one in the
defining module.  Two methods (``LabelledMatrix.is_hermitian`` and
``OutcomeMatrix.write_csv``) are wrapped on their classes, and numpy's
``eigvalsh``/``eigh``/``svd`` are wrapped on ``numpy.linalg`` and reported as
the ``tensors.eigensolve`` layer.

Spans stay in memory as tuples and are aggregated or written out when the
run ends.  A span's self time is its duration minus the durations of the
wrapped calls nested directly inside it.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# layer -> public functions wrapped under "<layer>.<function>"
FUNCTIONS = {
    "tensors": ("partial_trace", "permute_wires", "trace_norm", "rank_eta", "truncation_error"),
    "channels": (
        "validate_channel",
        "choi_from_kraus",
        "compose_comb",
        "reduce_channel",
        "last_tooth_residual",
        "chi1",
        "membership_residuals",
    ),
    "sampling": (
        "exact_cell_probabilities",
        "sample_outcome_matrix",
        "empirical_cell_frequencies",
        "reconstruct_from_frequencies",
        "swaptest_estimate",
        "povm_for_wire",
    ),
    "synth": ("random_comb", "random_memoryless", "probe_values"),
    "algorithms": (
        "check_last",
        "sampled_last_tooth_statistic",
        "independence_matrix",
        "estimate_chi1_from_frequencies",
    ),
    "cli": ("main", "load_process"),
}
# The four solvers share one span name: their self time is the solver logic.
SOLVERS = ("unravel_recursive", "unravel_general_c", "unravel_total_order", "unravel_memoryless")
# (layer, class, method)
METHODS = (("tensors", "LabelledMatrix", "is_hermitian"), ("sampling", "OutcomeMatrix", "write_csv"))
EIGENSOLVERS = ("eigvalsh", "eigh", "svd")

EIGENSOLVE = "tensors.eigensolve"
CELL_LAW = "sampling.exact_cell_probabilities"
CHECK_LAST = "algorithms.check_last"
GENERATOR = "synth.random_comb"
COMPOSE = "channels.compose_comb"


def span_names() -> list[str]:
    """Every span name the tracer can record, grouped by layer."""
    names = []
    for layer, fns in FUNCTIONS.items():
        names += [f"{layer}.{fn}" for fn in fns]
        names += [f"{lay}.{meth}" for lay, _, meth in METHODS if lay == layer]
        if layer == "tensors":
            names.append(EIGENSOLVE)
        if layer == "algorithms":
            names.append("algorithms.unravel")
    return names


def _eig_cost(args, _result) -> tuple[int, int]:
    """(computed operation count m*n*min(m, n), largest side) of one matrix."""
    m, n = np.shape(args[0])
    return m * n * min(m, n), max(m, n)


def _cells(_args, result) -> int:
    return int(np.size(result))


def _accepted(_args, result) -> int:
    return int(bool(result))


EXTRAS = {EIGENSOLVE: _eig_cost, CELL_LAW: _cells, CHECK_LAST: _accepted}


class Tracer:
    """Records one span per wrapped call while installed.

    A span is ``(name, parent_index, start, end, trial, extra)``; ``trial``
    is the value of :attr:`trial` when the call began.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.trial = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end, self.trial, None)
            if extra is not None:
                spans[idx] = (name, parent, start, end, self.trial, extra(args, result))
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target, in every qcomb module that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "qcomb"}
        targets = []  # (original function, span name)
        for layer, fns in FUNCTIONS.items():
            defining = mods[f"qcomb.{layer}"]
            targets += [(getattr(defining, fn), f"{layer}.{fn}") for fn in fns]
        targets += [(getattr(mods["qcomb.algorithms"], s), "algorithms.unravel") for s in SOLVERS]
        for original, name in targets:
            wrapper = self._wrap(name, original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[f"qcomb.{layer}"], cls_name)
            self._patch(cls, meth, self._wrap(f"{layer}.{meth}", getattr(cls, meth)))
        for fn in EIGENSOLVERS:
            self._patch(np.linalg, fn, self._wrap(EIGENSOLVE, getattr(np.linalg, fn)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def summary(self, trials: set[int]) -> dict[str, dict]:
        """Every span name: calls, inclusive and self seconds, summed extras.

        Only spans recorded during ``trials`` count.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {
            name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "extra": 0, "max_extra": 0}
            for name in span_names()
        }
        for idx, (name, parent, start, end, trial, extra) in enumerate(spans):
            if trial not in trials:
                continue
            row = out[name]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child[idx]
            if isinstance(extra, tuple):
                row["extra"] += extra[0]
                row["max_extra"] = max(row["max_extra"], extra[1])
            elif extra is not None:
                row["extra"] += extra
        return out

    def generator_composes(self, trials: set[int]) -> int:
        """compose_comb calls made (at any depth) inside a generator span."""
        spans = self.spans
        count = 0
        for name, parent, _, _, trial, _ in spans:
            if name != COMPOSE or trial not in trials:
                continue
            while parent >= 0:
                if spans[parent][0] == GENERATOR:
                    count += 1
                    break
                parent = spans[parent][1]
        return count

    def root_seconds(self, trials: set[int]) -> float:
        """Time covered by outermost spans (the share of trials the trace sees)."""
        return sum(
            end - start
            for _, parent, start, end, trial, _ in self.spans
            if parent < 0 and trial in trials
        )
