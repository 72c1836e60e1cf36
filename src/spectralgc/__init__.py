"""Frequency-domain Granger connectivity from spectral factorizations.

The package computes total PDC and total DTF — connectivity measures
that fold instantaneous innovation correlation into the classical
PDC/DTF pictures — from any minimum-phase factorization of a spectral
density matrix.  Factors can come from parametric fits (VAR by
Nuttall-Strand, VMA/VARMA by two-step least squares) or nonparametrically
from a Welch cross-spectrum put through Wilson factorization.
"""

from .connectivity import (
    ConnectivityField,
    InnovationStructure,
    coherency,
    directed_coherence,
    gamma_factor,
    gpdc,
    innovation_structure,
    load_field_csv,
    mse_vs_reference,
    partial_coherence,
    pi_factor,
    save_field_csv,
    total_dtf,
    total_pdc,
)
from .errors import (
    ConfigError,
    DegeneratePanelError,
    NonConvergenceError,
    NonPositiveSpectrumError,
    NumericalError,
    SingularFrequencyError,
    UnstableModelError,
)
from .estimators import (
    FitReport,
    fit_var,
    fit_varma,
    fit_vma,
)
from .experiments import ExperimentSpec, analyze_panel, example_model, run_example, run_model
from .models import (
    FrequencyGrid,
    RootReport,
    SpectralFactor,
    SpectralMatrix,
    VarmaModel,
    ar_root_report,
    eval_ar_polynomial,
    eval_ma_polynomial,
    innovation_form,
    ma_root_report,
    theoretical_spectrum,
    transfer_function,
)
from .simulate import TimeSeriesPanel, load_panel_csv, save_panel_csv, simulate
from .welch import welch_cross_spectrum
from .wilson import wilson_factorize

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConnectivityField",
    "DegeneratePanelError",
    "ExperimentSpec",
    "FitReport",
    "FrequencyGrid",
    "InnovationStructure",
    "NonConvergenceError",
    "NonPositiveSpectrumError",
    "NumericalError",
    "RootReport",
    "SingularFrequencyError",
    "SpectralFactor",
    "SpectralMatrix",
    "TimeSeriesPanel",
    "UnstableModelError",
    "VarmaModel",
    "analyze_panel",
    "ar_root_report",
    "coherency",
    "directed_coherence",
    "eval_ar_polynomial",
    "eval_ma_polynomial",
    "example_model",
    "fit_var",
    "fit_varma",
    "fit_vma",
    "gamma_factor",
    "gpdc",
    "innovation_form",
    "innovation_structure",
    "load_field_csv",
    "load_panel_csv",
    "ma_root_report",
    "mse_vs_reference",
    "partial_coherence",
    "pi_factor",
    "run_example",
    "run_model",
    "save_field_csv",
    "save_panel_csv",
    "simulate",
    "theoretical_spectrum",
    "total_dtf",
    "total_pdc",
    "transfer_function",
    "welch_cross_spectrum",
    "wilson_factorize",
]
