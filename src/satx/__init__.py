"""Optimal linear transcoding and decoding between spatial audio formats.

Generates an N x M transcoding matrix from any linear input format
(ambisonics scenes, panned speaker beds, audio objects, external
matrices) to any output format or 2D/3D loudspeaker layout by minimizing
a psychoacoustically motivated cost over sampled virtual-source
directions, then evaluates, compares, and applies such matrices.
"""

from .analysis import (
    COHERENT,
    INCOHERENT,
    DirectionMetrics,
    SpeakerMatrix,
    TranscodingMatrix,
    direction_metrics,
    speaker_matrix,
    summarize,
)
from .cost import (
    CostBreakdown,
    CostCoefficients,
    TranscodingProblem,
    cost_terms,
)
from .errors import (
    AudioError,
    ConfigError,
    CoverageError,
    DimensionError,
    GeometryError,
    MatrixFileError,
    SatxError,
)
from .formats import (
    N3D,
    SN3D,
    AmbisonicsSpec,
    DecoderToSpeaker,
    EncodingMatrix,
    ExternalSpec,
    ObjectsSpec,
    VbapSpec,
    ambisonics_encode,
    build_decoder_to_speaker,
    build_encoding_matrix,
    remap_baseline,
    vbap_gains,
    vbip_gains,
)
from .geometry import (
    Direction,
    ExplicitSpec,
    FibonacciSpec,
    HemisphereSpec,
    MergeSpec,
    PointCloud,
    RingSpec,
    SpeakerLayout,
    TDesignSpec,
    detect_symmetry_pairs,
    named_layout,
    sample_cloud,
    to_unit_vector,
    triangulate_hull,
)
from .optimizer import (
    OptimizationConfig,
    OptimizationReport,
    initialize,
    optimize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
