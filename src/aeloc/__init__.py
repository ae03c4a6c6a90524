"""Acoustic-emission source location on 1-D waveguides by learned delay-position prototypes."""

from .calibration import (
    BandGrid,
    CalibrationRecord,
    CalibrationResult,
    estimate_velocity,
    fit_line,
    sweep_bands,
)
from .grnn import (
    Estimate,
    PrototypeSet,
    basis_weights,
    compute_sigmas,
    estimate,
    gaussian_kernel,
    load_prototypes,
    save_prototypes,
)
from .pipeline import (
    EvaluationReport,
    LocationEstimate,
    evaluate_dataset,
    learn_prototypes,
    locate_pair,
)
from .signals import (
    BandpassFilter,
    CorrelationFunction,
    DelayEstimate,
    DelayWindowError,
    FilterSpec,
    NoSignalError,
    Waveform,
    apply_filter,
    cross_correlate,
    design_bandpass,
    estimate_delay,
    filtered_delay,
    pair_delay,
    read_waveform_pair,
    write_waveform_pair,
)
from .simulator import (
    ExperimentConfig,
    SourceSpec,
    SpecimenModel,
    default_config,
    default_specimen,
    load_config,
    parse_config,
    propagate,
    run_experiment,
    synth_source,
)

__version__ = "0.1.0"
