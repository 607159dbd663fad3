"""zenodisc: an exact laboratory for binary state discrimination under
repeated null-result (detector-silent) measurements.

The package simulates, with full Bayesian branch accounting and no
sampling, the protocol that evolves a candidate state, probes a fixed
transverse direction, keeps only the null outcome, repeats k times, and
then discriminates optimally. It evaluates the matching truncated-series
forms verbatim and adjudicates how the two cost ledgers relate to the
Helstrom baselines.
"""

from .helstrom import (
    DiscriminationInstance,
    guess_only_cost,
    helstrom_cost,
    helstrom_mixed,
    helstrom_pure,
    posterior_update,
)
from .protocol import (
    LeafRecord,
    Mode,
    ProtocolParams,
    ProtocolReport,
    default_direction,
    initial_states,
    price,
    rescale_delta,
    run,
    solve_orthogonality,
    step,
    total_cost_paper_mode,
)
from .qcore import (
    DegenerateBranchError,
    DegenerateVectorError,
    HamiltonianSpec,
    MeasurementDirection,
    MeasurementOutcome,
    PureState,
    ValidationError,
    density,
    evolve,
    inner_product,
    measure_binary,
    normalize,
    propagator,
)
from .series import (
    EXPRESSIONS,
    SUSPECT_FLAGS,
    ScalingFit,
    SeriesPrediction,
    baseline_paper_convention,
    fit_power_law,
    fit_scaling,
    k_step_state,
    one_step_state,
    one_step_survival,
    original_cost,
    overlap_k_paper,
    predict,
    quantity_flag,
    report_residual,
    scaling_residual,
    survival_k_paper,
)

__version__ = "0.1.0"

__all__ = [
    "DiscriminationInstance", "guess_only_cost", "helstrom_cost", "helstrom_mixed",
    "helstrom_pure", "posterior_update",
    "LeafRecord", "Mode", "ProtocolParams", "ProtocolReport", "default_direction",
    "initial_states", "price", "rescale_delta", "run", "solve_orthogonality", "step",
    "total_cost_paper_mode",
    "DegenerateBranchError", "DegenerateVectorError", "HamiltonianSpec",
    "MeasurementDirection", "MeasurementOutcome", "PureState", "ValidationError",
    "density", "evolve", "inner_product", "measure_binary", "normalize", "propagator",
    "EXPRESSIONS", "SUSPECT_FLAGS", "ScalingFit", "SeriesPrediction",
    "baseline_paper_convention", "fit_power_law", "fit_scaling", "k_step_state",
    "one_step_state", "one_step_survival", "original_cost", "overlap_k_paper",
    "predict", "quantity_flag", "report_residual", "scaling_residual", "survival_k_paper",
    "__version__",
]
