"""Optimal linear transcoding and decoding between spatial audio formats.

Generates an N x M transcoding matrix from any linear input format
(ambisonics scenes, panned speaker beds, audio objects, external
matrices) to any output format or 2D/3D loudspeaker layout by minimizing
a psychoacoustically motivated cost over sampled virtual-source
directions, then evaluates, compares, and applies such matrices.

The package re-exports the building blocks of a hand-assembled problem
and the error classes; everything else is imported from its module
(``satx.runner``, ``satx.presets``, ``satx.geometry``, ...).
"""

from .cost import CostCoefficients, TranscodingProblem
from .errors import (
    AudioError,
    ConfigError,
    CoverageError,
    DimensionError,
    GeometryError,
    MatrixFileError,
    SatxError,
)
from .formats import AmbisonicsSpec, build_encoding_matrix
from .geometry import PointCloud, named_layout
from .optimizer import OptimizationConfig, optimize

__version__ = "0.1.0"

__all__ = [
    "AmbisonicsSpec", "CostCoefficients", "OptimizationConfig",
    "PointCloud", "TranscodingProblem", "build_encoding_matrix",
    "named_layout", "optimize",
    "AudioError", "ConfigError", "CoverageError", "DimensionError",
    "GeometryError", "MatrixFileError", "SatxError",
]
