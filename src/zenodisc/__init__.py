"""zenodisc: an exact laboratory for binary state discrimination under
repeated null-result (detector-silent) measurements.

The package simulates, with full Bayesian branch accounting and no
sampling, the protocol that evolves a candidate state, probes a fixed
transverse direction, keeps only the null outcome, repeats k times, and
then discriminates optimally. It evaluates the matching truncated-series
forms verbatim and adjudicates how the two cost ledgers relate to the
Helstrom baselines.
"""

from .helstrom import ValidationError, guess_only_cost, helstrom_cost
from .protocol import (
    LeafRecord,
    Mode,
    ProtocolParams,
    ProtocolReport,
    amplitudes,
    run,
    solve_orthogonality,
    total_cost_paper_mode,
)
from .series import (
    EXPRESSIONS,
    SUSPECT_FLAGS,
    ScalingFit,
    baseline_paper_convention,
    k_step_state,
    one_step_state,
    one_step_survival,
    original_cost,
    overlap_k_paper,
    quantity_flag,
    survival_k_paper,
)

__version__ = "0.1.0"

__all__ = [
    "guess_only_cost", "helstrom_cost",
    "LeafRecord", "Mode", "ProtocolParams", "ProtocolReport", "amplitudes",
    "run", "solve_orthogonality", "total_cost_paper_mode",
    "ValidationError",
    "EXPRESSIONS", "SUSPECT_FLAGS", "ScalingFit",
    "baseline_paper_convention", "k_step_state",
    "one_step_state", "one_step_survival", "original_cost", "overlap_k_paper",
    "quantity_flag", "survival_k_paper",
    "__version__",
]
