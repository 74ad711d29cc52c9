"""Quasi-Newton minimization of the cost over the transcoding matrix.

BFGS on the flattened transcoder entries with a strong-Wolfe line search
and an Armijo backtracking fallback for the cost function's piecewise
kinks.  Runs are sequential and fully deterministic for a fixed
configuration; a failed line search returns the best iterate seen with
``converged=False`` instead of aborting.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.optimize import line_search
from scipy.optimize._linesearch import LineSearchWarning

from . import formats
from .analysis import TranscodingMatrix
from .cost import CostBreakdown, TranscodingProblem
from .errors import ConfigError, DimensionError

CHANGE_WINDOW = 5  # iterations over which relative cost change is judged

# amplitude of the uniform noise each noisy initialization adds
INIT_SCALE = {"remap_plus_noise": 0.05, "random": 0.5}


@dataclass(frozen=True)
class OptimizationConfig:
    """Optimizer settings.

    ``init`` is remap, remap_plus_noise, random or given; by default it is
    remap_plus_noise where the input has channel directions, else random.
    ``scale`` overrides the noise amplitude from INIT_SCALE and ``matrix``
    is the starting transcoder of a given initialization.
    """

    init: Optional[str] = None
    scale: Optional[float] = None
    matrix: Optional[np.ndarray] = None
    max_iterations: int = 2000
    gradient_tolerance: float = 1e-7
    cost_tolerance: float = 1e-10
    seed: int = 0
    restarts: int = 1
    log_every: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.gradient_tolerance <= 0 or self.cost_tolerance <= 0:
            raise ConfigError("tolerances must be > 0")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")


@dataclass
class OptimizationReport:
    final_matrix: TranscodingMatrix
    initial_breakdown: CostBreakdown
    final_breakdown: CostBreakdown
    iterations: int
    converged: bool
    gradient_norm_final: float
    wall_time_seconds: float
    message: str = ""
    progress_lines: tuple = field(default=())

    @property
    def initial_cost(self) -> float:
        return self.initial_breakdown.total

    @property
    def final_cost(self) -> float:
        return self.final_breakdown.total


def initialize(config: OptimizationConfig, problem: TranscodingProblem) -> np.ndarray:
    """Starting transcoder per the configured strategy."""
    kind = config.init
    if kind is None:
        kind = "remap_plus_noise" if problem.input_channel_directions else "random"
    shape = problem.shape
    if kind == "given":
        if config.matrix is None:
            raise ConfigError("given initialization needs a matrix")
        t0 = np.array(config.matrix, dtype=float)
    elif kind in ("remap", "remap_plus_noise"):
        if not problem.input_channel_directions:
            raise ConfigError(
                "remap initialization needs input channel directions"
            )
        t0 = formats.remap_baseline(
            problem.input_channel_directions, problem.output_spec,
            problem.decoder.layout,
        )
    elif kind == "random":
        t0 = np.zeros(shape)
    else:
        raise ConfigError(f"unknown initialization {kind!r}")
    if t0.shape != shape:
        raise DimensionError(
            f"initial matrix has shape {t0.shape}, expected {shape}"
        )
    if kind in INIT_SCALE:
        scale = INIT_SCALE[kind] if config.scale is None else config.scale
        rng = np.random.default_rng(config.seed)
        t0 = t0 + rng.uniform(-scale, scale, size=shape)
    return t0


class _CachedObjective:
    """Value-and-gradient evaluation with a one-slot cache.

    The line search probes value and slope at the same points; computing
    both at once and caching the last point avoids recomputation.
    """

    def __init__(self, problem: TranscodingProblem):
        self.problem = problem
        self.shape = problem.shape
        self.evaluations = 0
        self._key = None
        self._value = None
        self._grad = None

    def _eval(self, x: np.ndarray):
        key = x.tobytes()
        if key != self._key:
            value, grad = self.problem.cost_and_gradient(x.reshape(self.shape))
            self.evaluations += 1
            self._key = key
            self._value = value
            self._grad = grad.ravel()
        return self._value, self._grad

    def value(self, x: np.ndarray) -> float:
        return self._eval(x)[0]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._eval(x)[1]


def _search_step(obj, x, direction, f, g):
    """Strong-Wolfe line search with Armijo backtracking fallback.

    Returns (alpha, f_new) or (None, None) when no decrease is possible.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LineSearchWarning)
        alpha, _, _, f_new, _, _ = line_search(
            obj.value, obj.gradient, x, direction, gfk=g, old_fval=f,
            c1=1e-4, c2=0.9, maxiter=40,
        )
    if alpha is not None and f_new < f:
        return alpha, f_new
    slope = float(g @ direction)
    if slope >= 0:
        return None, None
    alpha = 1.0
    for _ in range(60):
        f_new = obj.value(x + alpha * direction)
        if f_new <= f + 1e-4 * alpha * slope:
            return alpha, f_new
        alpha *= 0.5
    return None, None


def _run_bfgs(problem, config, t0):
    obj = _CachedObjective(problem)
    x = np.asarray(t0, dtype=float).ravel().copy()
    n = x.size
    f, g = obj._eval(x)
    h = np.eye(n)
    history = [f]
    progress = []
    converged = False
    message = "iteration cap reached"
    iteration = 0
    first_update = True

    for iteration in range(1, config.max_iterations + 1):
        gnorm = float(np.abs(g).max())
        if config.log_every and (iteration - 1) % config.log_every == 0:
            progress.append(f"{iteration - 1} {f:.17g} {gnorm:.6e}")
        if gnorm <= config.gradient_tolerance:
            converged = True
            message = "gradient tolerance reached"
            break
        direction = -(h @ g)
        alpha, f_new = _search_step(obj, x, direction, f, g)
        if alpha is None:
            # kinked or flat landscape: retry once along steepest descent
            h = np.eye(n)
            first_update = True
            direction = -g
            alpha, f_new = _search_step(obj, x, direction, f, g)
            if alpha is None:
                message = "line search failed"
                break
        x_new = x + alpha * direction
        g_new = obj.gradient(x_new)
        s = x_new - x
        y = g_new - g
        ys = float(y @ s)
        if ys > 1e-12 * np.linalg.norm(y) * np.linalg.norm(s):
            if first_update:
                h *= ys / float(y @ y)
                first_update = False
            rho = 1.0 / ys
            hy = h @ y
            h -= rho * (np.outer(s, hy) + np.outer(hy, s))
            h += rho * (rho * float(y @ hy) + 1.0) * np.outer(s, s)
        x, f, g = x_new, f_new, g_new
        history.append(f)
        if len(history) > CHANGE_WINDOW:
            change = abs(history[-1 - CHANGE_WINDOW] - history[-1])
            if change <= config.cost_tolerance * max(1.0, abs(f)):
                converged = True
                message = "cost change tolerance reached"
                break

    gnorm = float(np.abs(g).max())
    if config.log_every:
        progress.append(f"{iteration} {f:.17g} {gnorm:.6e}")
    return x.reshape(problem.shape), f, gnorm, iteration, converged, message, progress


def optimize(problem: TranscodingProblem,
             config: OptimizationConfig = OptimizationConfig()) -> OptimizationReport:
    """Minimize the total cost over the transcoding matrix.

    With ``restarts > 1`` and a seeded initialization, runs are repeated
    with consecutive seeds and the lowest final cost wins (ties go to the
    earliest seed).
    """
    if not problem.coeffs.has_primary_term():
        raise ConfigError(
            "at least one primary cost coefficient (pressure, velocity, "
            "energy, intensity) must be positive"
        )
    start = time.perf_counter()
    best = None
    for restart in range(config.restarts):
        seeded = replace(config, seed=config.seed + restart, restarts=1)
        t0 = initialize(seeded, problem)
        initial = problem.breakdown(t0)
        result = _run_bfgs(problem, seeded, t0)
        t_fin, f_fin, gnorm, iters, converged, message, progress = result
        if f_fin > initial.total:  # line search never accepts ascent
            t_fin, f_fin = t0, initial.total
        if best is None or f_fin < best[1]:
            best = (t_fin, f_fin, gnorm, iters, converged, message, progress,
                    initial)
    t_fin, _, gnorm, iters, converged, message, progress, initial = best
    final = problem.breakdown(t_fin)
    return OptimizationReport(
        final_matrix=problem.transcoding_matrix(t_fin),
        initial_breakdown=initial,
        final_breakdown=final,
        iterations=iters,
        converged=converged,
        gradient_norm_final=gnorm,
        wall_time_seconds=time.perf_counter() - start,
        message=message,
        progress_lines=tuple(progress),
    )
