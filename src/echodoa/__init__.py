"""Ultrasonic two-element array DoA estimation toolkit.

Simulates array echoes, estimates direction of arrival with MUSIC and
with a trained convolutional regressor, triangulates obstacle positions
with a precision-dilution model, and benchmarks the estimators across
SNR levels and aliased element spacings.
"""

from .datasets import (
    Dataset,
    DatasetRecord,
    SweepSpec,
    generate_dataset,
    ingest_capture,
    load_dataset,
    read_capture,
    record_seed,
    save_dataset,
    split,
    write_capture,
    write_index_text,
)
from .doa_music import (
    CONVERGED,
    FALLBACK,
    DoaEstimate,
    MusicOptions,
    NoiseSubspace,
    Pseudospectrum,
    covariance,
    estimate_doa_music,
    grating_lobe_set,
    noise_subspace,
    pseudospectrum,
)
from .evaluation import (
    DOMAIN_FULL,
    DOMAIN_INSIDE_30,
    DOMAIN_OUTSIDE_30,
    MetricsRow,
    MetricsTable,
    MusicEstimator,
    NeuralEstimator,
    emit_results,
    evaluate,
    load_results,
    run_sweep,
    snr_crossover,
)
from .signal_sim import (
    NOISELESS,
    ArrayGeometry,
    ComplexBaseband,
    EchoWindow,
    RealWaveform,
    SimConfig,
    SourceScenario,
    add_awgn,
    detect_echo_window,
    steering_vector,
    synthesize_echo,
    to_baseband,
    wavelength,
)
from .triangulation import (
    ErrorEllipse,
    PositionFix,
    RangeMeasurement,
    SensorPose,
    dilution_ellipse,
    fuse_doa_with_ranges,
    intersect_two_circles,
    triangulate,
)
from . import errors, neural

__version__ = "0.1.0"
