"""Built-in job presets for the four reference applications.

Each preset is a plain config mapping (the same schema as config files),
so it can be serialized, edited, and rerun.  The serialized forms are
frozen under regression tests.
"""

from __future__ import annotations

import copy

import yaml

from .config import JobConfig, parse_config
from .errors import ConfigError

_UPPER_TDESIGN_28 = {"kind": "tdesign", "points": 56, "hemisphere": True}
_UPPER_TDESIGN_30 = {"kind": "tdesign", "points": 60, "hemisphere": True}

_PRESETS = {
    # 5th-order scene decoding to a regular 7.0.4 layout
    "example1": {
        "name": "example1",
        "mode": "generate",
        "analysis": "incoherent",
        "input": {"format": "ambisonics", "order": 5, "normalization": "SN3D"},
        "output": {"format": "speakers", "layout": "7.0.4"},
        "cloud": {"kind": "tdesign", "points": 56},
        "evaluation_cloud": {"kind": "fibonacci", "points": 312,
                             "hemisphere": True},
        "coefficients": {
            "energy": 5,
            "intensity_radial": 2,
            "intensity_transverse": 1,
            "in_phase_quadratic": 10,
            "symmetry_quadratic": 2,
        },
        "optimizer": {"init": "reference", "seed": 0},
    },
    # 7.0.4 bed transcoding to a 5th-order scene over virtual speakers
    "example2": {
        "name": "example2",
        "mode": "generate",
        "analysis": "coherent",
        "input": {"format": "vbap", "layout": "7.0.4"},
        "output": {
            "format": "ambisonics",
            "order": 5,
            "normalization": "SN3D",
            "virtual_layout": {
                "kind": "merge",
                "parts": [
                    {"weight": 1, "cloud": _UPPER_TDESIGN_30},
                    {"weight": 1, "cloud": {"kind": "ring", "points": 36}},
                ],
            },
        },
        "cloud": {
            "kind": "merge",
            "parts": [
                {"weight": 6, "cloud": _UPPER_TDESIGN_28},
                {"weight": 3, "cloud": {"kind": "ring", "points": 15}},
                {"weight": 1, "cloud": {"kind": "layout", "layout": "7.0.4"}},
            ],
        },
        "evaluation_cloud": {"kind": "fibonacci", "points": 312,
                             "hemisphere": True},
        "coefficients": {
            "pressure": 5,
            "velocity_radial": 2,
            "velocity_transverse": 1,
            "intensity_radial": 0.2,
            "intensity_transverse": 0.1,
        },
        "optimizer": {"init": "remap_plus_noise", "scale": 0.05, "seed": 0},
    },
    # 5.0.2 bed decoding to an irregular four-speaker layout
    "example3": {
        "name": "example3",
        "mode": "generate",
        "analysis": "incoherent",
        "input": {"format": "vbap", "layout": "5.0.2"},
        "output": {"format": "speakers", "layout": "3.0.1"},
        "cloud": {
            "kind": "merge",
            "parts": [
                {"weight": 5, "cloud": _UPPER_TDESIGN_28},
                {"weight": 3, "cloud": {"kind": "ring", "points": 20}},
                {"weight": 1, "cloud": {"kind": "layout", "layout": "5.0.2"}},
                {"weight": 1, "cloud": {"kind": "layout", "layout": "3.0.1"}},
            ],
        },
        "evaluation_cloud": {"kind": "fibonacci", "points": 312,
                             "hemisphere": True},
        "coefficients": {
            "energy": 5,
            "intensity_radial": 2,
            "intensity_transverse": 1,
            "in_phase_quadratic": 1.0e4,
            "sparsity_linear": 1.0e-3,
            "sparsity_quadratic": 1.0e-2,
        },
        "optimizer": {"init": "remap_plus_noise", "scale": 0.05, "seed": 0},
    },
    # per-direction object panning gains for a regular 5.0 ring
    "example4": {
        "name": "example4",
        "mode": "generate",
        "analysis": "incoherent",
        "input": {"format": "objects"},
        "output": {"format": "speakers", "layout": "5.0_regular"},
        "cloud": {"kind": "ring", "points": 72},
        "evaluation_cloud": {"kind": "ring", "points": 72},
        "coefficients": {
            "energy": 5,
            "intensity_radial": 2,
            "intensity_transverse": 1,
            "in_phase_quadratic": 1.0e4,
            "symmetry_quadratic": 2,
        },
        "optimizer": {"init": "remap_plus_noise", "scale": 0.05, "seed": 0},
    },
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_dict(name: str) -> dict:
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return copy.deepcopy(_PRESETS[name])


def preset_yaml(name: str) -> str:
    """Canonical serialized form (frozen under regression test)."""
    return yaml.safe_dump(preset_dict(name), sort_keys=True)


def load_preset(name: str) -> JobConfig:
    return parse_config(preset_dict(name), source=f"preset:{name}")
