"""Mean-field (well-mixed) analysis of the cooperator/defector dynamics.

Densities ``x`` (cooperators) and ``y`` (defectors) evolve on the simplex
``{x >= 0, y >= 0, x + y <= 1}`` according to

    x' = (beta + beta_c * x) * (1 - x - y) * x - x
    y' = (beta + beta_d) * (1 - x - y) * y - y

Occupied mass dies at rate one; births land on the empty fraction
``1 - x - y``.  Cooperators earn an extra ``beta_c * x`` from cooperating
neighbors, defectors a flat bonus ``beta_d``.  The analysis operations
(fixed points, regime classification, transition curve) require
``beta > 1`` so that either type is viable on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _engine, lattice
from .errors import BoundaryError, DomainError, SimplexEscape
from .params import Params

# Regime labels returned by classify_regime.
DEFECTORS_WIN = "defectors_win"
BISTABLE = "bistable"
BOUNDARY = "boundary"

# Ties |beta_d - transition_curve(beta_c)| below this count as the boundary.
REGIME_TOL = 1e-12

# interior_root_probe: Newton steps per start, the L1 residual of the field
# below which a start has converged, and the strict-interior margin.
NEWTON_MAX_ITER = 80
NEWTON_TOL = 1e-13
INTERIOR_MARGIN = 1e-8

# Tolerated simplex violation before integrate() gives up.
SIMPLEX_TOL = 1e-9

# L1 norm of the field below which a trajectory counts as converged.
CONVERGENCE_TOL = 1e-10


class MeanFieldState(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class FixedPointReport:
    """One fixed point of the planar system with its classification."""

    kind: str  # "extinction" | "defector" | "cooperator_high" | "cooperator_low"
    x: float
    y: float
    in_simplex: bool
    locally_stable: bool | None  # None when the sign test is indeterminate


@dataclass(frozen=True, slots=True)
class Trajectory:
    """Fixed-step integration record; arrays share one common length."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    converged: bool

    def __len__(self) -> int:
        return len(self.t)

    @property
    def final(self) -> MeanFieldState:
        return MeanFieldState(float(self.x[-1]), float(self.y[-1]))


@dataclass(frozen=True, slots=True)
class RootProbe:
    """Outcome of one damped-Newton run of interior_root_probe."""

    start: MeanFieldState
    converged: bool
    root: MeanFieldState | None
    residual: float
    strictly_interior: bool


def derivative(state: Sequence[float], p: Params) -> MeanFieldState:
    """Right-hand side (x', y') of the mean-field system at ``state``."""
    x, y = state
    empty = 1.0 - x - y
    dx = (p.beta + p.beta_c * x) * empty * x - x
    dy = (p.beta + p.beta_d) * empty * y - y
    return MeanFieldState(dx, dy)


def integrate(
    state0: Sequence[float],
    p: Params,
    t_end: float,
    dt: float = 1e-3,
    until_converged: bool = False,
) -> Trajectory:
    """Integrate with classical fixed-step RK4 from ``state0``.

    Returns a trajectory of ``ceil(t_end / dt) + 1`` states (fewer when
    ``until_converged`` is set and the field's L1 norm drops below
    ``CONVERGENCE_TOL`` early).  States are clamped back onto the simplex
    when they stray by at most ``SIMPLEX_TOL``; larger excursions, and
    states that are not finite, raise :class:`SimplexEscape`.  A step
    count too large to store raises :class:`DomainError`.  The loop runs
    in ``_engine.c`` when the compiled module loads, else in Python, with
    the same bits.
    """
    if not (0 < t_end < math.inf and 0 < dt < math.inf):
        raise DomainError(f"t_end and dt must be positive and finite, got {t_end}, {dt}")
    x, y = float(state0[0]), float(state0[1])
    _check_in_simplex(x, y)
    steps = t_end / dt
    if not steps < 2.0**63:
        raise DomainError(f"t_end / dt = {steps:.3g} steps cannot be stored: more than an int64 holds")
    n_steps = math.ceil(steps)
    xs, ys = lattice.allocate(n_steps + 1, "trajectory states", np.empty, (2, n_steps + 1))
    xs[0], ys[0] = x, y
    module = _engine.load()
    if module is None:
        last, converged = _rk4(xs, ys, p, dt, until_converged)
    else:
        last, status = _engine.rk4(module, xs, ys, p, dt, until_converged,
                                   SIMPLEX_TOL, CONVERGENCE_TOL)
        if status == _engine.RK4_ESCAPED:
            _clamp_to_simplex(xs.item(last), ys.item(last))  # raises, as the Python loop does
            raise AssertionError("coop_rk4 reported an escape that the clamp accepts")
        converged = status == _engine.RK4_CONVERGED
    if last < n_steps:  # keep the states taken, not the whole buffer
        xs, ys = xs[:last + 1].copy(), ys[:last + 1].copy()
    t = np.arange(last + 1, dtype=np.float64) * dt
    return Trajectory(t=t, x=xs, y=ys, converged=converged)


def _rk4(xs: np.ndarray, ys: np.ndarray, p: Params, dt: float,
         until_converged: bool) -> tuple[int, bool]:
    """RK4 steps from ``(xs[0], ys[0])``, each state written into ``xs`` and
    ``ys``; ``coop_rk4`` of ``_engine.c`` in Python.  Returns the index of
    the last state and whether the field fell below ``CONVERGENCE_TOL``."""
    x, y = xs.item(0), ys.item(0)
    beta, bc, bd = p.beta, p.beta_c, p.beta_d
    half = dt / 2.0
    sixth = dt / 6.0
    for i in range(1, len(xs)):
        e0 = 1.0 - x - y
        k1x = (beta + bc * x) * e0 * x - x
        k1y = (beta + bd) * e0 * y - y
        if until_converged and abs(k1x) + abs(k1y) < CONVERGENCE_TOL:
            return i - 1, True
        ax, ay = x + half * k1x, y + half * k1y
        e1 = 1.0 - ax - ay
        k2x = (beta + bc * ax) * e1 * ax - ax
        k2y = (beta + bd) * e1 * ay - ay
        bx, by = x + half * k2x, y + half * k2y
        e2 = 1.0 - bx - by
        k3x = (beta + bc * bx) * e2 * bx - bx
        k3y = (beta + bd) * e2 * by - by
        cx, cy = x + dt * k3x, y + dt * k3y
        e3 = 1.0 - cx - cy
        k4x = (beta + bc * cx) * e3 * cx - cx
        k4y = (beta + bd) * e3 * cy - cy
        x = x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y = y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        if not (x >= 0.0 and y >= 0.0 and x + y <= 1.0):  # NaN fails every test
            x, y = _clamp_to_simplex(x, y)
        xs[i] = x
        ys[i] = y
    return len(xs) - 1, False


def _check_in_simplex(x: float, y: float) -> None:
    if not (x >= 0.0 and y >= 0.0 and x + y <= 1.0):
        raise SimplexEscape(f"state ({x}, {y}) is outside the density simplex")


def _clamp_to_simplex(x: float, y: float) -> tuple[float, float]:
    if not (math.isfinite(x) and math.isfinite(y)):
        raise SimplexEscape(f"state ({x}, {y}) left the simplex: a density is not finite")
    violation = max(-x, -y, x + y - 1.0)
    if violation > SIMPLEX_TOL:
        raise SimplexEscape(
            f"state ({x}, {y}) left the simplex by {violation:.3e} (> {SIMPLEX_TOL})"
        )
    x = max(x, 0.0)
    y = max(y, 0.0)
    total = x + y
    if total > 1.0:
        x /= total
        y /= total
    return x, y


def _require_viable(beta: float) -> None:
    if not 1.0 < beta < math.inf:
        raise DomainError(f"analysis requires a finite beta > 1, got beta={beta}")


def _coop_fixed_point_roots(beta: float, beta_c: float) -> tuple[float | None, float]:
    """Roots of the cooperator fixed-point quadratic, as (low, high).

    The high root always lies in (0, 1); the low root is negative, and is
    None when beta_c == 0 and the quadratic degenerates to a line.  Uses
    the sign-split quadratic formula so neither root suffers cancellation.
    """
    if beta_c == 0.0:
        return None, 1.0 - 1.0 / beta
    # -beta_c * x^2 + (beta_c - beta) * x + (beta - 1) = 0
    a = -beta_c
    b = beta_c - beta
    c = beta - 1.0
    disc = b * b - 4.0 * a * c  # equals (beta_c + beta)^2 - 4 beta_c > 0
    sqrt_disc = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sqrt_disc, b if b != 0.0 else 1.0))
    r1 = q / a
    r2 = c / q
    return (r1, r2) if r1 < r2 else (r2, r1)


def transition_curve(beta_c: float, beta: float) -> float:
    """Critical defector bonus below which cooperators can persist.

    Equals ``beta_c * x_high`` where ``x_high`` is the in-simplex cooperator
    fixed point, hence always falls strictly below ``beta_c``; it is
    nondecreasing in ``beta_c`` and tends to 0 as ``beta_c -> 0``.
    """
    _require_viable(beta)
    if not 0 <= beta_c < math.inf:
        raise DomainError(f"beta_c must be nonnegative and finite, got {beta_c}")
    if beta_c == 0.0:
        return 0.0
    _, x_high = _coop_fixed_point_roots(beta, beta_c)
    return beta_c * x_high


def fixed_points(p: Params) -> list[FixedPointReport]:
    """All fixed points of the planar system with location and stability flags.

    Stability of the defector point and of the in-simplex cooperator point
    follow the analytic sign conditions; the off-simplex cooperator root is
    reported with indeterminate stability since it is not physically
    reachable.
    """
    _require_viable(p.beta)
    reports = [
        FixedPointReport(
            kind="extinction",
            x=0.0,
            y=0.0,
            in_simplex=True,
            # growth rates at the empty state are beta - 1 > 0 and
            # beta + beta_d - 1 > 0, so extinction always repels.
            locally_stable=False,
        )
    ]
    y_star = 1.0 - 1.0 / (p.beta + p.beta_d)
    reports.append(
        FixedPointReport(
            kind="defector",
            x=0.0,
            y=y_star,
            in_simplex=True,
            locally_stable=True,
        )
    )
    low, high = _coop_fixed_point_roots(p.beta, p.beta_c)
    gap = p.beta_d - transition_curve(p.beta_c, p.beta)
    if abs(gap) <= REGIME_TOL:
        high_stable: bool | None = None
    else:
        high_stable = gap < 0
    reports.append(
        FixedPointReport(
            kind="cooperator_high",
            x=high,
            y=0.0,
            in_simplex=0.0 < high < 1.0,
            locally_stable=high_stable,
        )
    )
    if low is not None:
        reports.append(
            FixedPointReport(
                kind="cooperator_low",
                x=low,
                y=0.0,
                in_simplex=False,
                locally_stable=None,
            )
        )
    return reports


def classify_regime(p: Params, tol: float = REGIME_TOL) -> str:
    """Compare beta_d against the transition curve at beta_c.

    Returns ``defectors_win`` when the defector bonus exceeds the curve,
    ``bistable`` when it falls below, and ``boundary`` within ``tol`` of a
    tie (no attractor claim is made on the boundary).
    """
    gap = p.beta_d - transition_curve(p.beta_c, p.beta)
    if abs(gap) <= tol:
        return BOUNDARY
    return DEFECTORS_WIN if gap > 0 else BISTABLE


def dulac_divergence(state: Sequence[float], p: Params) -> float:
    """Divergence of the field rescaled by 1 / (x^2 y), in closed form.

    Strictly negative throughout the open simplex whenever ``beta > 1``,
    which rules out interior periodic orbits.  Undefined on the boundary.
    """
    x, y = state
    if x <= 0.0 or y <= 0.0:
        raise BoundaryError(f"divergence undefined off the open simplex at ({x}, {y})")
    return -(p.beta_c * x * x + p.beta_d * y + (p.beta - 1.0)) / (x * x * y)


def _jacobian(x: float, y: float, p: Params) -> tuple[float, float, float, float]:
    empty = 1.0 - x - y
    rate_c = p.beta + p.beta_c * x
    fxx = rate_c * empty - 1.0 + x * (p.beta_c * empty - rate_c)
    fxy = -x * rate_c
    fyx = -y * (p.beta + p.beta_d)
    fyy = (p.beta + p.beta_d) * empty - 1.0 - y * (p.beta + p.beta_d)
    return fxx, fxy, fyx, fyy


def interior_root_probe(p: Params, starts: Sequence[Sequence[float]]) -> list[RootProbe]:
    """Damped Newton search for fixed points from each start.

    Non-convergence is recorded per start, never raised.  A converged root
    counts as strictly interior when both densities exceed
    ``INTERIOR_MARGIN`` and their sum stays below ``1 - INTERIOR_MARGIN``.

    Setting both rates to zero with x, y != 0 forces x = beta_d / beta_c
    and y = 1 - x - 1/(beta + beta_d), which lies inside the simplex
    exactly when 0 < beta_d < transition_curve(beta_c, beta).  There the
    probe reports one strictly interior root: the saddle separating the
    two boundary basins (its Jacobian determinant is -beta_c * x * y < 0).
    When beta_d exceeds the curve no interior root exists.
    """
    probes = []
    for start in starts:
        x, y = float(start[0]), float(start[1])
        fx, fy = derivative((x, y), p)
        res = abs(fx) + abs(fy)
        converged = res < NEWTON_TOL
        for _ in range(NEWTON_MAX_ITER):
            if converged:
                break
            fxx, fxy, fyx, fyy = _jacobian(x, y, p)
            det = fxx * fyy - fxy * fyx
            if det == 0.0 or not math.isfinite(det):
                break
            step_x = (fx * fyy - fy * fxy) / det
            step_y = (fy * fxx - fx * fyx) / det
            scale = 1.0
            improved = False
            for _ in range(40):
                nx, ny = x - scale * step_x, y - scale * step_y
                nfx, nfy = derivative((nx, ny), p)
                nres = abs(nfx) + abs(nfy)
                if math.isfinite(nres) and nres < res:
                    x, y, fx, fy, res = nx, ny, nfx, nfy, nres
                    improved = True
                    break
                scale *= 0.5
            if not improved:
                break
            converged = res < NEWTON_TOL
        interior = (
            converged
            and x > INTERIOR_MARGIN
            and y > INTERIOR_MARGIN
            and x + y < 1.0 - INTERIOR_MARGIN
        )
        probes.append(
            RootProbe(
                start=MeanFieldState(float(start[0]), float(start[1])),
                converged=converged,
                root=MeanFieldState(x, y) if converged else None,
                residual=res,
                strictly_interior=interior,
            )
        )
    return probes
