"""Job configuration: YAML schema, validation, and domain-object building.

The canonical schema is documented in the README.  Unknown keys are
rejected with their full key path; every error names the offending key.
Sections that map onto a dataclass (``optimizer``, ``coefficients``,
ambisonics formats) are checked by its constructor; the parser only puts
the key path in front of the field the constructor rejects.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Optional

import yaml

from . import geometry
from .cost import CostCoefficients
from .errors import ConfigError, SatxError, check_integer, check_number
from .formats import (
    SN3D,
    AmbisonicsSpec,
    ExternalSpec,
    ObjectsSpec,
    VbapSpec,
)
from .geometry import (
    Direction,
    ExplicitSpec,
    FibonacciSpec,
    HemisphereSpec,
    MergeSpec,
    RingSpec,
    SpeakerLayout,
    TDesignSpec,
)
from .optimizer import OptimizationConfig

MODES = ("generate", "evaluate", "compare", "apply")
ANALYSIS_MODES = ("incoherent", "coherent")

_TOP_KEYS = {
    "mode", "analysis", "name", "input", "output", "cloud",
    "evaluation_cloud", "coefficients", "optimizer", "symmetry",
}
# the keys each input and output format reads
_INPUT_KEYS = {"ambisonics": {"format", "order", "normalization"},
               "vbap": {"format", "layout"}, "objects": {"format"},
               "external": {"format", "matrix"}}
_OUTPUT_KEYS = {"speakers": {"format", "layout"},
                "ambisonics": {"format", "order", "normalization",
                               "virtual_layout"},
                "external": {"format", "matrix", "layout"}}
_OPT_KEYS = {f.name for f in fields(OptimizationConfig)}
_COEFF_KEYS = {f.name for f in fields(CostCoefficients)}
_SYM_KEYS = {"tolerance_deg", "pairs"}

DEFAULT_EVAL_CLOUD = {"kind": "fibonacci", "points": 312, "hemisphere": True}


@dataclass
class JobConfig:
    mode: str
    analysis: str
    name: str
    input_spec: object
    output_spec: object  # None for plain speaker decoding
    output_layout: Optional[SpeakerLayout]
    cloud_spec: object
    eval_cloud_spec: object
    coeffs: CostCoefficients
    optimizer: OptimizationConfig
    explicit_pairs: Optional[tuple] = None  # label pairs
    init_matrix: Optional[str] = None  # matrix file of a given init


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return node


def _check_keys(node, allowed, path, reason="unknown key"):
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: {reason}")


def _format(node, format_keys, path, side):
    """The node's format, once every key is one that format reads."""
    fmt = node.get("format")
    if not isinstance(fmt, str) or fmt not in format_keys:
        raise ConfigError(f"{path}.format: unknown {side} format {fmt!r}")
    _check_keys(node, set().union(*format_keys.values()), path)
    _check_keys(node, format_keys[fmt], path, f"not read by the {fmt} format")
    return fmt


def _checked(make, *args, path=None, **kwargs):
    """``make(*args, **kwargs)``, reporting a rejected setting by key path.

    The error names the setting in ``field``: a full key path for the
    ``check_*`` functions, a field of ``make`` below ``path`` otherwise.
    """
    try:
        return make(*args, **kwargs)
    except SatxError as exc:
        if exc.field is None:
            raise
        key = exc.field if path is None else f"{path}.{exc.field}"
        raise ConfigError(f"{key}: {exc.reason}") from exc


def _number(node, path, minimum=None, exclusive=False):
    return _checked(check_number, node, path, minimum, exclusive)


def parse_layout(node, path, pair_tol=1.0) -> SpeakerLayout:
    """Named layout, inline [[label, az, el], ...], or {file: path}."""
    try:
        if isinstance(node, str):
            return geometry.named_layout(node, pair_tol)
        if isinstance(node, dict):
            _check_keys(node, {"file", "speakers"}, path)
            if "file" in node:
                with open(node["file"], "r") as handle:
                    data = yaml.safe_load(handle)
                data = _require_mapping(data, f"{path}.file:{node['file']}")
                node = data
            if "speakers" not in node:
                raise ConfigError(f"{path}: layout mapping needs 'speakers'")
            node = node["speakers"]
        if not isinstance(node, list) or not node:
            raise ConfigError(f"{path}: expected a layout name or speaker list")
        speakers = []
        for i, row in enumerate(node):
            if not isinstance(row, list) or len(row) != 3:
                raise ConfigError(f"{path}[{i}]: expected [label, az, el]")
            label, az, el = row
            speakers.append((str(label), Direction(
                _number(az, f"{path}[{i}][1]"), _number(el, f"{path}[{i}][2]")
            )))
        return SpeakerLayout(tuple(speakers)).with_detected_pairs(pair_tol)
    except (geometry.GeometryError, OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_cloud(node, path):
    node = _require_mapping(node, path)
    kind = node.get("kind")
    if kind is None:
        raise ConfigError(f"{path}.kind: missing")
    hemisphere = node.get("hemisphere", False)
    if not isinstance(hemisphere, bool):
        raise ConfigError(f"{path}.hemisphere: expected true/false")

    if kind in ("tdesign", "ring", "fibonacci"):
        _check_keys(node, {"kind", "points", "hemisphere"}, path)
        make = {"tdesign": TDesignSpec, "ring": RingSpec,
                "fibonacci": FibonacciSpec}[kind]
        spec = make(_checked(check_integer, node.get("points"),
                             f"{path}.points", 1))
    elif kind == "explicit":
        _check_keys(node, {"kind", "directions", "weights", "hemisphere"}, path)
        rows = node.get("directions")
        if not isinstance(rows, list) or not rows:
            raise ConfigError(f"{path}.directions: expected a nonempty list")
        dirs = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 2:
                raise ConfigError(f"{path}.directions[{i}]: expected [az, el]")
            dirs.append(Direction(
                _number(row[0], f"{path}.directions[{i}][0]"),
                _number(row[1], f"{path}.directions[{i}][1]"),
            ))
        weights = node.get("weights")
        if weights is not None:
            if not isinstance(weights, list) or len(weights) != len(dirs):
                raise ConfigError(f"{path}.weights: one weight per direction")
            weights = tuple(_number(x, f"{path}.weights[{i}]")
                            for i, x in enumerate(weights))
        spec = ExplicitSpec(tuple(dirs), weights)
    elif kind == "layout":
        _check_keys(node, {"kind", "layout", "hemisphere"}, path)
        layout = parse_layout(node.get("layout"), f"{path}.layout")
        spec = ExplicitSpec(layout.directions)
    elif kind == "merge":
        _check_keys(node, {"kind", "parts", "hemisphere"}, path)
        parts = node.get("parts")
        if not isinstance(parts, list) or not parts:
            raise ConfigError(f"{path}.parts: expected a nonempty list")
        built = []
        for i, part in enumerate(parts):
            part = _require_mapping(part, f"{path}.parts[{i}]")
            _check_keys(part, {"weight", "cloud"}, f"{path}.parts[{i}]")
            weight = _number(part.get("weight", 1.0),
                             f"{path}.parts[{i}].weight", 0, exclusive=True)
            sub = parse_cloud(part.get("cloud"), f"{path}.parts[{i}].cloud")
            built.append((sub, weight))
        spec = MergeSpec(tuple(built))
    else:
        raise ConfigError(f"{path}.kind: unknown cloud kind {kind!r}")
    if hemisphere:
        spec = HemisphereSpec(spec)
    return spec


def _ambisonics(node, path) -> AmbisonicsSpec:
    return _checked(AmbisonicsSpec, path=path, order=node.get("order"),
                    normalization=node.get("normalization", SN3D))


def _parse_input(node, path, pair_tol):
    fmt = _format(_require_mapping(node, path), _INPUT_KEYS, path, "input")
    if fmt == "ambisonics":
        return _ambisonics(node, path)
    if fmt == "vbap":
        if "layout" not in node:
            raise ConfigError(f"{path}.layout: required for vbap input")
        return VbapSpec(parse_layout(node["layout"], f"{path}.layout", pair_tol))
    if fmt == "objects":
        return ObjectsSpec()
    if "matrix" not in node:  # external
        raise ConfigError(f"{path}.matrix: required for external input")
    return ExternalSpec(str(node["matrix"]))


def _parse_output(node, path, pair_tol):
    """Returns (output_spec, output_layout)."""
    fmt = _format(_require_mapping(node, path), _OUTPUT_KEYS, path, "output")
    if fmt == "speakers":
        if "layout" not in node:
            raise ConfigError(f"{path}.layout: required for speaker output")
        return None, parse_layout(node["layout"], f"{path}.layout", pair_tol)
    if fmt == "ambisonics":
        spec = _ambisonics(node, path)
        virt = node.get("virtual_layout")
        if virt is None:
            raise ConfigError(
                f"{path}.virtual_layout: required for ambisonics output"
            )
        if isinstance(virt, dict) and "kind" in virt:
            layout = geometry.layout_from_cloud(geometry.sample_cloud(
                parse_cloud(virt, f"{path}.virtual_layout")
            ))
        else:
            layout = parse_layout(virt, f"{path}.virtual_layout", pair_tol)
        return spec, layout
    if "matrix" not in node or "layout" not in node:  # external
        raise ConfigError(
            f"{path}: external output needs 'matrix' and 'layout'"
        )
    layout = parse_layout(node["layout"], f"{path}.layout", pair_tol)
    return ExternalSpec(str(node["matrix"])), layout


def _parse_coeffs(node, path) -> CostCoefficients:
    node = _require_mapping(node, path)
    _check_keys(node, _COEFF_KEYS, path)
    return _checked(CostCoefficients, path=path, **node)


def _parse_optimizer(node, path):
    """(settings, matrix file of a given init)."""
    node = dict(_require_mapping(node, path))
    _check_keys(node, _OPT_KEYS, path)
    matrix = node.pop("matrix", None)
    settings = _checked(OptimizationConfig, path=path, **node)
    if settings.init == "given" and matrix is None:
        raise ConfigError(f"{path}.matrix: required when init is 'given'")
    if settings.init != "given" and matrix is not None:
        raise ConfigError(f"{path}.matrix: only read when init is 'given'")
    return settings, None if matrix is None else str(matrix)


def _parse_name(node, path) -> str:
    if (not isinstance(node, str) or node in ("", ".", "..")
            or {os.sep, os.altsep, "\0"} & set(node)):
        raise ConfigError(f"{path}: expected a file stem: a non-empty "
                          "string, not '.' or '..', without a path separator")
    return node


def parse_config(data: dict, source: str = "config") -> JobConfig:
    data = _require_mapping(data, source)
    _check_keys(data, _TOP_KEYS, source)
    mode = data.get("mode", "generate")
    if mode not in MODES:
        raise ConfigError(f"{source}.mode: unknown mode {mode!r}")
    analysis = data.get("analysis", "incoherent")
    if analysis not in ANALYSIS_MODES:
        raise ConfigError(f"{source}.analysis: unknown analysis {analysis!r}")
    name = _parse_name(data.get("name", "job"), f"{source}.name")

    symmetry = data.get("symmetry", {})
    symmetry = _require_mapping(symmetry, f"{source}.symmetry")
    _check_keys(symmetry, _SYM_KEYS, f"{source}.symmetry")
    pair_tol = _number(symmetry.get("tolerance_deg", 1.0),
                       f"{source}.symmetry.tolerance_deg", 0.0)
    explicit_pairs = None
    if "pairs" in symmetry:
        rows = symmetry["pairs"]
        if not isinstance(rows, list):
            raise ConfigError(f"{source}.symmetry.pairs: expected a list")
        pairs = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 2:
                raise ConfigError(
                    f"{source}.symmetry.pairs[{i}]: expected [label, label]"
                )
            pairs.append((str(row[0]), str(row[1])))
        explicit_pairs = tuple(pairs)

    needs_formats = mode in ("generate", "evaluate", "compare")
    input_spec = output_spec = output_layout = None
    cloud_spec = eval_cloud_spec = None
    if needs_formats:
        if "input" not in data:
            raise ConfigError(f"{source}.input: required for mode {mode}")
        if "output" not in data:
            raise ConfigError(f"{source}.output: required for mode {mode}")
        input_spec = _parse_input(data["input"], f"{source}.input", pair_tol)
        output_spec, output_layout = _parse_output(
            data["output"], f"{source}.output", pair_tol
        )
    if mode == "generate":
        if "cloud" not in data:
            raise ConfigError(f"{source}.cloud: required for mode generate")
        if "coefficients" not in data:
            raise ConfigError(
                f"{source}.coefficients: required for mode generate"
            )
    if "cloud" in data:
        cloud_spec = parse_cloud(data["cloud"], f"{source}.cloud")
    eval_cloud_spec = parse_cloud(
        data.get("evaluation_cloud", DEFAULT_EVAL_CLOUD),
        f"{source}.evaluation_cloud",
    )
    coeffs = _parse_coeffs(data.get("coefficients", {}),
                           f"{source}.coefficients")
    optimizer, init_matrix = _parse_optimizer(data.get("optimizer", {}),
                                              f"{source}.optimizer")

    return JobConfig(
        mode=mode,
        analysis=analysis,
        name=name,
        input_spec=input_spec,
        output_spec=output_spec,
        output_layout=output_layout,
        cloud_spec=cloud_spec,
        eval_cloud_spec=eval_cloud_spec,
        coeffs=coeffs,
        optimizer=optimizer,
        explicit_pairs=explicit_pairs,
        init_matrix=init_matrix,
    )


def load_config(path) -> JobConfig:
    try:
        with open(path, "r") as handle:
            data = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if data is None:
        raise ConfigError(f"config {path} is empty")
    return parse_config(data, source="config")
