"""Job configuration: YAML schema, validation, and domain-object building.

The canonical schema is documented in the README.  Unknown keys are
rejected with their full key path; every error names the offending key.
Sections that map onto a dataclass (``optimizer``, ``coefficients``,
ambisonics formats) are checked by its constructor; the parser only puts
the key path in front of the field the constructor rejects.

Every section present is parsed, whatever the mode; the mode decides only
which sections must be present.  A cloud is checked and sampled in one
pass (``parse_cloud`` returns a ``PointCloud``), so the job holds sampled
clouds and a bad cloud fails at load under its key path.  Layout rows and
explicit cloud rows are checked one by one under their keys
(``config.output.layout[1]``) and then become the azimuth and elevation
arrays of a ``SpeakerLayout`` or ``PointCloud``.  Explicit
``symmetry.pairs`` become the output layout's symmetry pairs.  A matrix
file a config names is read here, once, under its key, so a job holds
no file path.  An objects or external input is evaluated at its own
cloud, the directions of its channels or matrix rows.  The optimizer's
init is matched to the input here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np
import yaml

from . import geometry, matfile
from .cost import CostCoefficients
from .errors import ConfigError, SatxError, check_integer, check_number
from .formats import (
    SN3D,
    AmbisonicsSpec,
    ExternalSpec,
    ObjectsSpec,
    VbapSpec,
)
from .geometry import PointCloud, SpeakerLayout
from .optimizer import INITS, NOISY_INIT, OptimizationConfig

# the sections each mode reads that have no default
_REQUIRED = {"generate": ("input", "output", "cloud", "coefficients"),
             "evaluate": ("input", "output"), "compare": ("input", "output"),
             "apply": ()}
MODES = tuple(_REQUIRED)
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
# the inputs with a channel or matrix row per cloud direction, evaluated there
_CLOUD_INPUTS = {ObjectsSpec: "objects", ExternalSpec: "external"}


@dataclass
class JobConfig:
    analysis: str
    name: str
    input_spec: object
    output_spec: object  # None for plain speaker decoding
    output_layout: Optional[SpeakerLayout]  # carries the symmetry pairs
    cloud: Optional[PointCloud]
    eval_cloud: PointCloud
    coeffs: CostCoefficients
    optimizer: OptimizationConfig


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
    An error without a field is reported under ``path`` itself.
    """
    try:
        return make(*args, **kwargs)
    except SatxError as exc:
        if exc.field is None:
            if path is None:
                raise
            raise ConfigError(f"{path}: {exc}") from exc
        key = exc.field if path is None else f"{path}.{exc.field}"
        raise ConfigError(f"{key}: {exc.reason}") from exc


def _number(node, path, minimum=None, exclusive=False):
    return _checked(check_number, node, path, minimum, exclusive)


def _angle_rows(rows, path, form):
    """(azimuth, elevation) arrays of ``form`` rows ending in [az, el].

    Each row is checked under its key: ``path[i]`` for its form and its
    elevation, ``path[i][k]`` for a bad number.
    """
    k = len(form) - 2
    angles = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(form):
            raise ConfigError(f"{path}[{i}]: expected [{', '.join(form)}]")
        angles.append([_number(row[j], f"{path}[{i}][{j}]")
                       for j in (k, k + 1)])
    az, el = np.array(angles).T
    return _checked(geometry.checked_angles, az, el, path)


def _load_yaml(path, what: str):
    """The YAML document in the file ``path``, read as UTF-8; bytes that
    are not UTF-8 are a ConfigError naming ``what`` and the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return yaml.safe_load(handle)
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{what} {path} is not UTF-8 text: {exc}") from exc


def _matrix_file(node, path) -> matfile.MatrixFile:
    """The matrix file named at the key ``path``, read at load."""
    return _checked(matfile.import_matrix, str(node), path=path)


def parse_layout(node, path, pair_tol=1.0) -> SpeakerLayout:
    """Named layout, inline [[label, az, el], ...], or {file: path}."""
    try:
        if isinstance(node, str):
            return geometry.named_layout(node, pair_tol)
        if isinstance(node, dict):
            _check_keys(node, {"file", "speakers"}, path)
            if "file" in node:
                data = _load_yaml(node["file"], f"{path}.file")
                data = _require_mapping(data, f"{path}.file:{node['file']}")
                node = data
            if "speakers" not in node:
                raise ConfigError(f"{path}: layout mapping needs 'speakers'")
            node = node["speakers"]
        if not isinstance(node, list) or not node:
            raise ConfigError(f"{path}: expected a layout name or speaker list")
        az, el = _angle_rows(node, path, ("label", "az", "el"))
        labels = [str(row[0]) for row in node]
        return geometry.layout_with_pairs(labels, az, el, pair_tol)
    except (geometry.GeometryError, OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# the keys each cloud kind reads besides kind and hemisphere
_CLOUD_KEYS = {"tdesign": {"points"}, "ring": {"points"},
               "fibonacci": {"points"}, "explicit": {"directions", "weights"},
               "layout": {"layout"}, "merge": {"parts"}}
_PART_KEYS = {"weight", "cloud"}  # of each merge part
_GENERATORS = {"tdesign": geometry.tdesign,
               "ring": lambda n: (360.0 * np.arange(n) / n, np.zeros(n)),
               "fibonacci": geometry.fibonacci_sphere}


def parse_cloud(node, path) -> PointCloud:
    """Check a cloud mapping and sample it; weights come out with mean 1."""
    return _checked(PointCloud, *_cloud_arrays(node, path), path=path)


def _cloud_arrays(node, path):
    """Raw (azimuth, elevation, weight) arrays of a cloud mapping.

    Merge parts are scaled by their weight over their own mean weight;
    the one normalization is left to the final ``PointCloud``.
    """
    node = _require_mapping(node, path)
    kind = node.get("kind")
    if not isinstance(kind, str) or kind not in _CLOUD_KEYS:
        raise ConfigError(f"{path}.kind: unknown cloud kind {kind!r}")
    _check_keys(node, _CLOUD_KEYS[kind] | {"kind", "hemisphere"}, path)
    hemisphere = node.get("hemisphere", False)
    if not isinstance(hemisphere, bool):
        raise ConfigError(f"{path}.hemisphere: expected true/false")

    if kind in _GENERATORS:
        points = _checked(check_integer, node.get("points"), f"{path}.points", 1)
        az, el = _checked(_GENERATORS[kind], points, path=f"{path}.points")
        w = np.ones(len(az))
    elif kind == "explicit":
        rows = node.get("directions")
        if not isinstance(rows, list) or not rows:
            raise ConfigError(f"{path}.directions: expected a nonempty list")
        az, el = _angle_rows(rows, f"{path}.directions", ("az", "el"))
        weights = node.get("weights", [1.0] * len(rows))
        if not isinstance(weights, list) or len(weights) != len(rows):
            raise ConfigError(f"{path}.weights: one weight per direction")
        w = np.array([_number(x, f"{path}.weights[{i}]", 0, exclusive=True)
                      for i, x in enumerate(weights)])
    elif kind == "layout":
        layout = parse_layout(node.get("layout"), f"{path}.layout")
        az, el, w = layout.azimuth, layout.elevation, np.ones(len(layout))
    else:  # merge
        parts = node.get("parts")
        if not isinstance(parts, list) or not parts:
            raise ConfigError(f"{path}.parts: expected a nonempty list")
        scaled = []
        for i, part in enumerate(parts):
            where = f"{path}.parts[{i}]"
            part = _require_mapping(part, where)
            _check_keys(part, _PART_KEYS, where)
            rel = _number(part.get("weight", 1.0), f"{where}.weight", 0,
                          exclusive=True)
            sub_az, sub_el, sub_w = _cloud_arrays(part.get("cloud"),
                                                  f"{where}.cloud")
            # Python's sum adds left to right, as the cloud's bits require
            mean = sum(sub_w.tolist()) / len(sub_w)
            scaled.append((sub_az, sub_el, rel * sub_w / mean))
        az, el, w = (np.concatenate(col) for col in zip(*scaled))
    if hemisphere:
        keep = el >= 0.0
        if not keep.any():
            raise ConfigError(f"{path}.hemisphere: no direction has "
                              "elevation >= 0")
        az, el, w = az[keep], el[keep], w[keep]
    return az, el, w


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
    return ExternalSpec(_matrix_file(node["matrix"], f"{path}.matrix"))


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
            layout = geometry.layout_from_cloud(
                parse_cloud(virt, f"{path}.virtual_layout"))
        else:
            layout = parse_layout(virt, f"{path}.virtual_layout", pair_tol)
        return spec, layout
    if "matrix" not in node or "layout" not in node:  # external
        raise ConfigError(
            f"{path}: external output needs 'matrix' and 'layout'"
        )
    layout = parse_layout(node["layout"], f"{path}.layout", pair_tol)
    matrix = _matrix_file(node["matrix"], f"{path}.matrix")
    if matrix.rows != len(layout):
        raise ConfigError(f"{path}.matrix: has {matrix.rows} rows for the "
                          f"{len(layout)} speakers of {path}.layout")
    return ExternalSpec(matrix), layout


def _parse_coeffs(node, path) -> CostCoefficients:
    node = _require_mapping(node, path)
    _check_keys(node, _COEFF_KEYS, path)
    return _checked(CostCoefficients, path=path, **node)


def _parse_optimizer(node, path, directions) -> OptimizationConfig:
    """The settings; an unset init adds noise to the remap on an input
    with ``directions``, else to zeros; a given file is read here."""
    node = dict(_require_mapping(node, path))
    _check_keys(node, _OPT_KEYS, path)
    matrix = node.pop("matrix", None)
    if node.get("init") is None:
        node["init"] = NOISY_INIT["remap" if directions else "zeros"]
    settings = _checked(OptimizationConfig, path=path, **node)
    if (INITS[settings.init][0] == "given") != (matrix is not None):
        verb = "required" if matrix is None else "not read"
        raise ConfigError(f"{path}.matrix: {verb} by the {settings.init} init")
    return settings if matrix is None else replace(
        settings, matrix=_matrix_file(matrix, f"{path}.matrix").values())


def _parse_name(node, path) -> str:
    if (not isinstance(node, str) or node in ("", ".", "..")
            or {os.sep, os.altsep, "\0"} & set(node)):
        raise ConfigError(f"{path}: expected a file stem: a non-empty "
                          "string, not '.' or '..', without a path separator")
    return node


def _with_pairs(layout: SpeakerLayout, rows, path) -> SpeakerLayout:
    """The layout with the label pairs ``rows`` of the section ``path``."""
    if not isinstance(rows, list):
        raise ConfigError(f"{path}.pairs: expected a list")
    index = {label: i for i, label in enumerate(layout.labels)}
    pairs = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 2:
            raise ConfigError(f"{path}.pairs[{i}]: expected [label, label]")
        a, b = map(str, row)
        for label in (a, b):
            if label not in index:
                raise ConfigError(f"{path}.pairs[{i}]: {label} is not a "
                                  f"speaker of the output layout "
                                  f"{layout.labels}")
        pairs.append((index[a], index[b]))
    # SpeakerLayout names a bad pair as its field pairs[i]
    return _checked(SpeakerLayout, layout.labels, layout.azimuth,
                    layout.elevation, pairs, path=path)


def parse_config(data: dict, source: str = "config",
                 mode: Optional[str] = None) -> JobConfig:
    """The job of a config mapping, loaded for ``mode``.

    ``mode`` (the CLI passes its command) overrides the config's ``mode``
    key; it decides which sections are required.  Every section present
    is parsed, and its clouds are sampled.
    """
    data = _require_mapping(data, source)
    _check_keys(data, _TOP_KEYS, source)
    mode = data.get("mode", "generate") if mode is None else mode
    if mode not in MODES:
        raise ConfigError(f"{source}.mode: unknown mode {mode!r}")
    for key in _REQUIRED[mode]:
        if key not in data:
            raise ConfigError(f"{source}.{key}: required for mode {mode}")
    analysis = data.get("analysis", "incoherent")
    if analysis not in ANALYSIS_MODES:
        raise ConfigError(f"{source}.analysis: unknown analysis {analysis!r}")
    name = _parse_name(data.get("name", "job"), f"{source}.name")

    symmetry = data.get("symmetry", {})
    symmetry = _require_mapping(symmetry, f"{source}.symmetry")
    _check_keys(symmetry, _SYM_KEYS, f"{source}.symmetry")
    pair_tol = _number(symmetry.get("tolerance_deg", 1.0),
                       f"{source}.symmetry.tolerance_deg", 0.0)

    input_spec = output_spec = output_layout = cloud = None
    if "input" in data:
        input_spec = _parse_input(data["input"], f"{source}.input", pair_tol)
    if "output" in data:
        output_spec, output_layout = _parse_output(
            data["output"], f"{source}.output", pair_tol
        )
    if "pairs" in symmetry:
        if output_layout is None:
            raise ConfigError(f"{source}.symmetry.pairs: names speakers of "
                              f"{source}.output, which is absent")
        output_layout = _with_pairs(output_layout, symmetry["pairs"],
                                    f"{source}.symmetry")
    at_cloud = _CLOUD_INPUTS.get(type(input_spec))
    if "cloud" in data:
        cloud = parse_cloud(data["cloud"], f"{source}.cloud")
    elif at_cloud:
        raise ConfigError(f"{source}.cloud: required for {at_cloud} input, "
                          "which encodes only the cloud's directions")
    if at_cloud == "external" and len(cloud) != input_spec.matrix.rows:
        raise ConfigError(f"{source}.input.matrix: has "
                          f"{input_spec.matrix.rows} rows for the "
                          f"{len(cloud)} directions of {source}.cloud")
    path = f"{source}.evaluation_cloud"
    eval_cloud = (cloud if at_cloud and "evaluation_cloud" not in data else
                  parse_cloud(data.get("evaluation_cloud", DEFAULT_EVAL_CLOUD),
                              path))
    if at_cloud and not (np.array_equal(eval_cloud.azimuth, cloud.azimuth) and
                         np.array_equal(eval_cloud.elevation, cloud.elevation)):
        raise ConfigError(f"{path}: an {at_cloud} input is evaluated at the "
                          f"directions of {source}.cloud")
    coeffs = _parse_coeffs(data.get("coefficients", {}),
                           f"{source}.coefficients")
    directions = isinstance(input_spec, (VbapSpec, ObjectsSpec))
    optimizer = _parse_optimizer(data.get("optimizer", {}),
                                 f"{source}.optimizer", directions)
    start = INITS[optimizer.init][0]
    if start == "remap" and not directions:
        raise ConfigError(f"{source}.optimizer.init: the {optimizer.init} init "
                          "needs input channel directions (bed or objects)")
    if start == "reference" and at_cloud == "external":
        raise ConfigError(f"{source}.optimizer.init: an external input has "
                          "no reference transcoder to start from")

    return JobConfig(
        analysis=analysis,
        name=name,
        input_spec=input_spec,
        output_spec=output_spec,
        output_layout=output_layout,
        cloud=cloud,
        eval_cloud=eval_cloud,
        coeffs=coeffs,
        optimizer=optimizer,
    )


def load_config(path, mode: Optional[str] = None) -> JobConfig:
    try:
        data = _load_yaml(path, "config")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if data is None:
        raise ConfigError(f"config {path} is empty")
    return parse_config(data, source="config", mode=mode)
