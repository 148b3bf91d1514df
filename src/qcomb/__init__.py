"""Recover the causal tooth structure of multi-time quantum processes.

The package splits along the data it touches:

* :mod:`qcomb.tensors` labelled matrices, partial traces, norms, ranks
* :mod:`qcomb.channels` Choi processes, combs, last-tooth tests, membership
* :mod:`qcomb.sampling` seeded RNG streams, SWAP tests, POVM frames, outcome
  matrices
* :mod:`qcomb.synth` random process generators with known ground truth
* :mod:`qcomb.algorithms` the unravelling procedures and their certificates
* :mod:`qcomb.cli` the ``qcomb`` command-line front end
"""

from .tensors import (
    Direction,
    LabelledMatrix,
    WireSystem,
    aligned,
    hs_norm,
    identity,
    matrix_rank,
    maximally_mixed,
    partial_trace,
    permute_wires,
    rank_eta,
    tensor_product,
    trace_norm,
    trace_out,
    truncation_error,
)
from .channels import (
    Comb,
    ProcessMatrix,
    Tooth,
    Unravelling,
    apply_channel,
    chi1,
    choi_from_kraus,
    comb_membership,
    compose_comb,
    is_last_tooth_exact,
    kraus_from_choi,
    kraus_rank,
    last_tooth_candidates,
    last_tooth_residual,
    membership_residuals,
    reduce_channel,
    standardize,
)
from .sampling import (
    OutcomeMatrix,
    Povm,
    Rng,
    build_ic_povm,
    build_sic_povm_qubit,
    dual_frame,
    empirical_cell_frequencies,
    exact_cell_probabilities,
    frame_diagnostics,
    povm_for_wire,
    reconstruct_from_frequencies,
    sample_outcome_matrix,
    swap_test_probability,
    swaptest_draw_count,
    swaptest_estimate,
    wire_povms,
)
from .synth import (
    GroundTruth,
    SynthSpec,
    haar_isometry,
    haar_unitary,
    random_comb,
    random_memoryless,
    shuffle_wires,
    total_order_chain,
    unshuffle_wires,
)
from .algorithms import (
    IndMatrix,
    QueryMeter,
    RankCertificate,
    UnravelParams,
    UnravelResult,
    check_last,
    check_rank_certificate,
    chi1_sample_count,
    error_bound_approximate,
    estimate_chi1,
    estimate_chi1_from_frequencies,
    independence_matrix,
    memoryless_comparison,
    unravel_general_c,
    unravel_memoryless,
    unravel_recursive,
    unravel_total_order,
    xi_constant,
)

__version__ = "0.1.0"
