"""Quasi-Newton minimization of the cost over the transcoding matrix.

BFGS on the flattened transcoder entries with an in-repo strong-Wolfe
line search (Nocedal & Wright, Alg. 3.5 and 3.6) and an Armijo
backtracking fallback for the cost function's piecewise kinks.  The
inverse Hessian is symmetric, so only its upper triangle is stored and
updated; the product H g of the search direction is carried from one
iteration to the next, at one symmetric product per iteration.  Runs are
sequential and fully deterministic for a fixed configuration; a failed
line search returns the best iterate seen with ``converged=False``
instead of aborting.  The start matrix is ``OptimizationConfig.matrix``,
set by ``runner.optimization_config``; ``initialize`` only adds noise.
Each run returns its own ``OptimizationReport``, and ``optimize`` keeps
the lowest-cost restart's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cost import CostBreakdown, TranscodingProblem
from .errors import ConfigError, DimensionError, check_integer, check_number

CHANGE_WINDOW = 5  # iterations over which relative cost change is judged

INIT_KINDS = ("remap", "remap_plus_noise", "random", "given", "reference")
# amplitude of the uniform noise each noisy initialization adds
INIT_SCALE = {"remap_plus_noise": 0.05, "random": 0.5}


@dataclass(frozen=True)
class OptimizationConfig:
    """Optimizer settings.

    ``matrix`` is the start of every init but random, which starts from
    zeros; ``runner.optimization_config`` sets it from the job.  ``init``
    is one of INIT_KINDS and only picks the noise; by default it is
    remap_plus_noise when ``matrix`` is set, else random.  ``scale``
    overrides the noise amplitude of the noisy inits (INIT_SCALE).
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
        if self.init is not None and self.init not in INIT_KINDS:
            raise ConfigError(
                f"unknown strategy {self.init!r}; choose from {INIT_KINDS}",
                "init",
            )
        if self.scale is not None:
            check_number(self.scale, "scale", 0)
            if self.init not in (None, *INIT_SCALE):
                raise ConfigError(
                    f"is only read by the {' and '.join(INIT_SCALE)} inits",
                    "scale",
                )
        if self.matrix is not None:
            if self.init == "random":
                raise ConfigError("is not read by the random init, which "
                                  "starts from zeros", "matrix")
            if not np.isfinite(self.matrix).all():
                raise ConfigError("entries must be finite", "matrix")
        for name, minimum in (("max_iterations", 1), ("restarts", 1),
                              ("log_every", 0), ("seed", 0)):
            check_integer(getattr(self, name), name, minimum)
        for name in ("gradient_tolerance", "cost_tolerance"):
            check_number(getattr(self, name), name, 0, exclusive=True)


@dataclass
class OptimizationReport:
    """Result of ``optimize``; the run fields describe the winning restart.

    ``final_matrix`` is its read-only (N, M) transcoder: rows are the
    problem's decoder channels, columns its encoding channels.
    ``evaluations`` counts cost-and-gradient calls of the iterations,
    ``line_search_fallbacks`` strong-Wolfe searches that fell back to
    Armijo backtracking, and ``hessian_resets`` restarts from steepest
    descent.
    """

    final_matrix: np.ndarray
    initial_breakdown: CostBreakdown
    final_breakdown: CostBreakdown
    iterations: int
    converged: bool
    gradient_norm_final: float
    wall_time_seconds: float
    evaluations: int
    line_search_fallbacks: int
    hessian_resets: int
    message: str = ""
    progress_lines: tuple = field(default=())

    @property
    def initial_cost(self) -> float:
        return self.initial_breakdown.total

    @property
    def final_cost(self) -> float:
        return self.final_breakdown.total


def initialize(config: OptimizationConfig, shape: tuple) -> np.ndarray:
    """Starting transcoder: ``config.matrix`` (zeros for a random init)
    plus the seeded noise of the init kind."""
    kind = config.init
    if kind is None:
        kind = "random" if config.matrix is None else "remap_plus_noise"
    if kind == "random":
        t0 = np.zeros(shape)
    elif config.matrix is None:
        raise ConfigError(f"is required by the {kind} init", "matrix")
    else:
        t0 = np.array(config.matrix, dtype=float)
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


ZOOM_TRIALS = 11  # steps zoom tries before it gives up: 1 + 10 iterations


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic through (a, fa), (b, fb) and (c, fc) with
    slope ``fpa`` at ``a``, or None."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db = b - a
            dc = c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.array([[dc ** 2, -db ** 2], [-dc ** 3, db ** 3]],
                          dtype=float)
            A, B = np.dot(d1, np.array([fb - fa - fpa * db,
                                        fc - fa - fpa * dc]))
            A /= denom
            B /= denom
            radical = B * B - 3 * A * fpa
            xmin = a + (-B + np.sqrt(radical)) / (3 * A)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _quadmin(a, fa, fpa, b, fb):
    """Minimizer of the parabola through (a, fa) and (b, fb) with slope
    ``fpa`` at ``a``, or None."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db = b - a * 1.0
            B = (fb - fa - fpa * db) / (db * db)
            xmin = a - fpa / (2.0 * B)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _zoom(a_lo, a_hi, phi_lo, phi_hi, derphi_lo, phi, derphi, phi0, derphi0,
          c1, c2):
    """Alg. 3.6: shrink the bracket [a_lo, a_hi] to a strong-Wolfe step.

    Trial steps come from a cubic through the last three points, else a
    parabola, else bisection, whichever first lands 20 % (cubic) or 10 %
    (parabola) of the bracket inside its ends.  Returns (alpha,
    phi(alpha)), or (None, None) after ZOOM_TRIALS trials.
    """
    phi_rec = phi0
    a_rec = 0
    for i in range(ZOOM_TRIALS):
        dalpha = a_hi - a_lo
        a, b = (a_hi, a_lo) if dalpha < 0 else (a_lo, a_hi)
        if i > 0:
            cchk = 0.2 * dalpha
            a_j = _cubicmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi,
                            a_rec, phi_rec)
        if i == 0 or a_j is None or a_j > b - cchk or a_j < a + cchk:
            qchk = 0.1 * dalpha
            a_j = _quadmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if a_j is None or a_j > b - qchk or a_j < a + qchk:
                a_j = a_lo + 0.5 * dalpha
        phi_aj = phi(a_j)
        if phi_aj > phi0 + c1 * a_j * derphi0 or phi_aj >= phi_lo:
            phi_rec, a_rec = phi_hi, a_hi
            a_hi, phi_hi = a_j, phi_aj
            continue
        derphi_aj = derphi(a_j)
        if abs(derphi_aj) <= -c2 * derphi0:
            return a_j, phi_aj
        if derphi_aj * (a_hi - a_lo) >= 0:
            phi_rec, a_rec = phi_hi, a_hi
            a_hi, phi_hi = a_lo, phi_lo
        else:
            phi_rec, a_rec = phi_lo, a_lo
        a_lo, phi_lo, derphi_lo = a_j, phi_aj, derphi_aj
    return None, None


def line_search(f, fprime, xk, pk, gfk, old_fval, c1, c2, maxiter):
    """Strong-Wolfe step length along ``pk`` from ``xk`` (Alg. 3.5).

    Tries alpha = 1 and doubles it until a step meets the strong Wolfe
    conditions or brackets one for ``_zoom``.  Returns ``(alpha, fc, gc,
    f_new, old_fval, g_new)``: ``fc`` and ``gc`` count the calls of ``f``
    and ``fprime``, and ``g_new`` is the gradient at the accepted step.
    alpha, f_new and g_new are None when zoom fails; after ``maxiter``
    doublings the last step is returned with g_new None.
    """
    calls = [0, 0]
    grad = [None]

    def phi(alpha):
        calls[0] += 1
        return f(xk + alpha * pk)

    def derphi(alpha):
        calls[1] += 1
        grad[0] = fprime(xk + alpha * pk)
        return np.dot(grad[0], pk)

    derphi0 = np.dot(gfk, pk)
    alpha0, alpha1 = 0, 1.0
    phi_a0, phi_a1 = old_fval, phi(alpha1)
    derphi_a0 = derphi0
    for i in range(maxiter):
        if (phi_a1 > old_fval + c1 * alpha1 * derphi0
                or (i > 0 and phi_a1 >= phi_a0)):
            alpha, f_new = _zoom(alpha0, alpha1, phi_a0, phi_a1, derphi_a0,
                                 phi, derphi, old_fval, derphi0, c1, c2)
            break
        derphi_a1 = derphi(alpha1)
        if abs(derphi_a1) <= -c2 * derphi0:
            alpha, f_new = alpha1, phi_a1
            break
        if derphi_a1 >= 0:
            alpha, f_new = _zoom(alpha1, alpha0, phi_a1, phi_a0, derphi_a1,
                                 phi, derphi, old_fval, derphi0, c1, c2)
            break
        alpha0, alpha1 = alpha1, 2 * alpha1
        phi_a0, phi_a1 = phi_a1, phi(alpha1)
        derphi_a0 = derphi_a1
    else:
        return alpha1, calls[0], calls[1], phi_a1, old_fval, None
    g_new = None if alpha is None else grad[0]
    return alpha, calls[0], calls[1], f_new, old_fval, g_new


def _search_step(obj, x, direction, f, g):
    """Strong-Wolfe line search with Armijo backtracking fallback.

    Returns (alpha, f_new, fell_back); alpha and f_new are None when no
    decrease is possible.
    """
    alpha, _, _, f_new, _, _ = line_search(
        obj.value, obj.gradient, x, direction, gfk=g, old_fval=f,
        c1=1e-4, c2=0.9, maxiter=40,
    )
    if alpha is not None and f_new < f:
        return alpha, f_new, False
    slope = float(g @ direction)
    if slope >= 0:
        return None, None, True
    alpha = 1.0
    for _ in range(60):
        f_new = obj.value(x + alpha * direction)
        if f_new <= f + 1e-4 * alpha * slope:
            return alpha, f_new, True
        alpha *= 0.5
    return None, None, True


def identity_hessian(n: int) -> np.ndarray:
    """Fresh n x n inverse Hessian, Fortran-ordered for ``bfgs_update``."""
    return np.eye(n, order="F")


def bfgs_update(h: np.ndarray, s: np.ndarray, y: np.ndarray,
                g_new: np.ndarray, hg: np.ndarray, first: bool = False):
    """BFGS update of the inverse Hessian ``h`` at a step ``s``, in place.

    ``h`` holds H in its upper triangle only; the strict lower triangle
    is never read and is not kept up to date.  ``hg`` is H g at the point
    the step left, and ``y = g_new - g``.  Returns ``(hg_new, updated)``:
    ``hg_new`` is the updated H times ``g_new``, and ``updated`` is False
    when the curvature ``y.s`` is too small and H stays as it was.

    One symmetric product gives H g_new, so H y = H g_new - hg needs no
    second one.  The first update after a reset (``first``) scales H, and
    with it both products, by y.s / y.y.  Then
    (I - rho s y^T) H (I - rho y s^T) + rho s s^T with rho = 1 / y.s
    equals H + s w^T + w s^T with w = rho (rho y.Hy + 1) s / 2 - rho Hy:
    one BLAS rank-2 update of the triangle, after which
    H g_new gains s (w.g_new) + w (s.g_new).  BLAS updates ``h`` itself
    only when it is Fortran-ordered, as ``identity_hessian`` makes it, so
    any other ``h`` is rejected.
    """
    from scipy.linalg.blas import dsymv, dsyr2

    if not h.flags.f_contiguous:
        raise ValueError("the inverse Hessian must be Fortran-ordered")
    hg_new = dsymv(1.0, h, g_new)
    ys = float(y.dot(s))
    yy = float(y.dot(y))
    # np.linalg.norm of a vector is sqrt(x.dot(x)), so these are its bits
    if not ys > 1e-12 * math.sqrt(yy) * math.sqrt(float(s.dot(s))):
        return hg_new, False
    hy = hg_new - hg
    if first:
        scale = ys / yy
        h *= scale
        hg_new *= scale
        hy *= scale
    rho = 1.0 / ys
    # w = (rho (rho y.Hy + 1) / 2) s - rho Hy, formed in the product arrays
    w = np.multiply(s, 0.5 * rho * (rho * float(y.dot(hy)) + 1.0))
    w -= np.multiply(hy, rho, out=hy)
    dsyr2(1.0, s, w, a=h, overwrite_a=True)
    # H g_new += s (w.g_new) + w (s.g_new)
    wg, sg = float(w.dot(g_new)), float(s.dot(g_new))
    step = np.multiply(s, wg)
    step += np.multiply(w, sg, out=w)
    hg_new += step
    return hg_new, True


def _run_bfgs(problem, config, t0) -> OptimizationReport:
    """One BFGS run from ``t0``; ``optimize`` sets its wall time."""
    initial = problem.breakdown(t0)
    obj = _CachedObjective(problem)
    x = np.asarray(t0, dtype=float).ravel().copy()
    n = x.size
    f, g = obj._eval(x)
    h = identity_hessian(n)
    hg = g  # H g, carried from one iteration to the next
    history = [f]
    progress = []
    converged = False
    message = "iteration cap reached"
    iteration = 0
    first_update = True
    fallbacks = resets = 0

    for iteration in range(1, config.max_iterations + 1):
        gnorm = float(np.abs(g).max())
        if config.log_every and (iteration - 1) % config.log_every == 0:
            progress.append(f"{iteration - 1} {f:.17g} {gnorm:.6e}")
        if gnorm <= config.gradient_tolerance:
            converged = True
            message = "gradient tolerance reached"
            break
        direction = -hg
        alpha, f_new, fell_back = _search_step(obj, x, direction, f, g)
        fallbacks += fell_back
        if alpha is None:
            # kinked or flat landscape: retry once along steepest descent
            h = identity_hessian(n)
            hg = g
            resets += 1
            first_update = True
            direction = -g
            alpha, f_new, fell_back = _search_step(obj, x, direction, f, g)
            fallbacks += fell_back
            if alpha is None:
                message = "line search failed"
                break
        x_new = x + alpha * direction
        g_new = obj.gradient(x_new)
        hg, updated = bfgs_update(h, x_new - x, g_new - g, g_new, hg,
                                  first_update)
        if updated:
            first_update = False
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
    if f > initial.total:  # line search never accepts ascent
        matrix, final = np.array(t0, dtype=float), initial
    else:
        matrix = x.reshape(problem.shape)
        final = problem.breakdown(matrix)
    matrix.flags.writeable = False
    return OptimizationReport(
        final_matrix=matrix,
        initial_breakdown=initial,
        final_breakdown=final,
        iterations=iteration,
        converged=converged,
        gradient_norm_final=gnorm,
        wall_time_seconds=0.0,
        evaluations=obj.evaluations,
        line_search_fallbacks=fallbacks,
        hessian_resets=resets,
        message=message,
        progress_lines=tuple(progress),
    )


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
        report = _run_bfgs(problem, seeded, initialize(seeded, problem.shape))
        if best is None or report.final_cost < best.final_cost:
            best = report
    return replace(best, wall_time_seconds=time.perf_counter() - start)
