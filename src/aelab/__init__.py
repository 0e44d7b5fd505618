"""Numerical laboratory for Grover-type amplitude estimation under depolarizing noise."""

from .model import (
    INFINITE,
    Method,
    NoiseModel,
    RoundOutcome,
    Schedule,
    SystemSize,
    breakeven_qubits,
    prob_good,
    prob_terms,
    query_count,
    readout_factor,
)
from .fisher import (
    classical_fisher,
    classical_fisher_envelope,
    envelope_peak,
    quantum_fisher,
)
from .estimator import (
    CrbCurves,
    ExperimentConfig,
    MeasurementRecord,
    RmseRow,
    RmseTable,
    build_eis_schedule,
    crb_curves,
    log_likelihood,
    mle_estimate,
    run_experiment,
    sample_record,
)
from . import refsim

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "Method",
    "NoiseModel",
    "RoundOutcome",
    "Schedule",
    "SystemSize",
    "breakeven_qubits",
    "prob_good",
    "prob_terms",
    "query_count",
    "readout_factor",
    "classical_fisher",
    "classical_fisher_envelope",
    "envelope_peak",
    "quantum_fisher",
    "CrbCurves",
    "ExperimentConfig",
    "MeasurementRecord",
    "RmseRow",
    "RmseTable",
    "build_eis_schedule",
    "crb_curves",
    "log_likelihood",
    "mle_estimate",
    "run_experiment",
    "sample_record",
    "refsim",
    "__version__",
]
