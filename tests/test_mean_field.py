"""Unit tests for the well-mixed density dynamics."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from coopsim import _engine, mean_field
from coopsim.errors import BoundaryError, DomainError, SimplexEscape
from coopsim.mean_field import (
    BISTABLE,
    BOUNDARY,
    DEFECTORS_WIN,
    SIMPLEX_TOL,
    _clamp_to_simplex,
    _coop_fixed_point_roots,
    classify_regime,
    derivative,
    dulac_divergence,
    fixed_points,
    integrate,
    interior_root_probe,
    transition_curve,
)
from coopsim.params import Params

# Independently computed at 30-digit precision (mpmath) and frozen here.
PHI_BC1_BETA2 = 0.6180339887498949  # (sqrt(5) - 1) / 2
X_LOW_BC1_BETA2 = -1.618033988749895  # -(sqrt(5) + 1) / 2
Y_STAR_BETA2_BD07 = 0.6296296296296297  # 1 - 1/2.7


def interior_grid(n_per_axis: int, margin: float = 0.05) -> list[tuple[float, float]]:
    axis = np.linspace(margin, 1.0 - margin, n_per_axis)
    return [(x, y) for x in axis for y in axis if x + y <= 1.0 - margin]


# ---------------------------------------------------------------- derivative


def test_derivative_closed_form_spot_values():
    p = Params(2.0, 1.0, 0.5)
    dx, dy = derivative((0.25, 0.25), p)
    # (2 + 0.25) * 0.5 * 0.25 - 0.25 and (2.5) * 0.5 * 0.25 - 0.25, dyadic-exact
    assert dx == 2.25 * 0.5 * 0.25 - 0.25
    assert dy == 2.5 * 0.5 * 0.25 - 0.25


def test_derivative_vanishes_at_full_lattice_without_deaths():
    # At (x, y) = (0, 0) both densities are stationary only in the death-free
    # direction; the true fixed points are covered by fixed_points() below.
    p = Params(3.0, 2.0, 1.0)
    dx, dy = derivative((0.0, 0.0), p)
    assert dx == 0.0 and dy == 0.0


def test_derivative_matches_central_difference_along_trajectory():
    p = Params(2.0, 1.0, 0.7)
    dt = 1e-3
    traj = integrate((0.3, 0.3), p, t_end=2.0, dt=dt)
    for k in range(50, 1500, 200):
        dx, dy = derivative((traj.x[k], traj.y[k]), p)
        num_dx = (traj.x[k + 1] - traj.x[k - 1]) / (2 * dt)
        num_dy = (traj.y[k + 1] - traj.y[k - 1]) / (2 * dt)
        assert abs(dx - num_dx) <= 5.0 * dt**2
        assert abs(dy - num_dy) <= 5.0 * dt**2


# ----------------------------------------------------------------- integrate


def test_integrate_rejects_bad_arguments():
    p = Params(2.0)
    with pytest.raises(DomainError):
        integrate((0.3, 0.3), p, t_end=0.0)
    with pytest.raises(DomainError):
        integrate((0.3, 0.3), p, t_end=1.0, dt=0.0)
    with pytest.raises(SimplexEscape):
        integrate((0.8, 0.8), p, t_end=1.0)
    with pytest.raises(SimplexEscape):
        integrate((-0.1, 0.3), p, t_end=1.0)


def test_clamp_pulls_small_excursions_back_onto_the_simplex():
    assert _clamp_to_simplex(-1e-10, 0.5) == (0.0, 0.5)
    x, y = 0.6, 0.4 + 5e-10
    total = x + y
    assert total > 1.0
    assert _clamp_to_simplex(x, y) == (x / total, y / total)
    assert sum(_clamp_to_simplex(x, y)) <= 1.0
    assert _clamp_to_simplex(0.3, 0.3) == (0.3, 0.3)
    with pytest.raises(SimplexEscape, match="left the simplex by"):
        _clamp_to_simplex(-2 * SIMPLEX_TOL, 0.5)


def test_integrate_raises_when_a_step_leaves_the_simplex():
    # the start is inside; an oversized step overshoots far past the tolerance
    with pytest.raises(SimplexEscape, match="left the simplex by"):
        integrate((0.5, 0.4), Params(2.0, 1.0, 0.5), t_end=20, dt=5.0)


def test_clamp_refuses_a_state_that_is_not_finite():
    for x, y in [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.0), (0.0, -math.inf),
                 (math.nan, math.nan)]:
        with pytest.raises(SimplexEscape, match="left the simplex"):
            _clamp_to_simplex(x, y)


@pytest.mark.parametrize("rates", [(1e200, 1e200, 1.0), (1e308, 1e308, 1e308)])
def test_integrate_refuses_an_overflowing_trajectory(engine, rates):
    # the field overflows to inf and then to nan; no state that is not finite is kept
    with pytest.raises(SimplexEscape, match="left the simplex"):
        integrate((0.2, 0.2), Params(*rates), t_end=1.0)


@pytest.mark.parametrize("t_end, dt", [(1e12, 1e-3), (1.0, 1e-300), (1e300, 1e-300)])
def test_integrate_refuses_a_step_count_too_large_to_store(engine, t_end, dt):
    with pytest.raises(DomainError, match="cannot be stored|int64"):
        integrate((0.2, 0.2), Params(2.0), t_end=t_end, dt=dt)


def test_integrate_step_count_and_time_grid():
    p = Params(2.0)
    traj = integrate((0.3, 0.3), p, t_end=1.0, dt=0.5)
    assert len(traj) == 3
    assert np.allclose(traj.t, [0.0, 0.5, 1.0])
    assert traj.final == (traj.x[-1], traj.y[-1])


def test_integrate_matches_independent_integrator():
    # scipy's adaptive RK45 at tight tolerance is the second opinion.
    cases = [
        (Params(2.0, 1.0, 0.7), (0.3, 0.3)),
        (Params(4.0, 3.0, 1.0), (0.1, 0.6)),
        (Params(1.5, 0.0, 0.2), (0.5, 0.2)),
    ]
    for p, s0 in cases:
        traj = integrate(s0, p, t_end=20.0, dt=1e-3)
        sol = solve_ivp(
            lambda _, s: derivative(s, p),
            (0.0, 20.0),
            s0,
            rtol=1e-10,
            atol=1e-12,
        )
        assert abs(traj.x[-1] - sol.y[0, -1]) < 1e-7
        assert abs(traj.y[-1] - sol.y[1, -1]) < 1e-7


def test_integrate_until_converged_stops_early():
    p = Params(2.0, 0.0, 0.7)
    traj = integrate((0.05, 0.4), p, t_end=5000.0, dt=1e-2, until_converged=True)
    assert traj.converged
    assert traj.t[-1] < 5000.0
    dx, dy = derivative(traj.final, p)
    assert abs(dx) + abs(dy) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(1.05, 6.0),
    beta_c=st.floats(0.0, 10.0),
    beta_d=st.floats(0.0, 5.0),
    x=st.floats(1e-3, 0.99),
    frac=st.floats(1e-3, 0.999),
)
def test_simplex_forward_invariance(beta, beta_c, beta_d, x, frac):
    y = (1.0 - x) * frac
    p = Params(beta, beta_c, beta_d)
    traj = integrate((x, y), p, t_end=5.0, dt=1e-2)
    assert np.all(traj.x >= -1e-9)
    assert np.all(traj.y >= -1e-9)
    assert np.all(traj.x + traj.y <= 1.0 + 1e-9)


# ---------------------------------------------------------- transition curve


def test_transition_curve_frozen_value():
    assert transition_curve(1.0, 2.0) == pytest.approx(PHI_BC1_BETA2, rel=1e-15)


def test_transition_curve_domain_errors():
    with pytest.raises(DomainError):
        transition_curve(1.0, 1.0)
    with pytest.raises(DomainError):
        transition_curve(1.0, 0.5)
    with pytest.raises(DomainError):
        transition_curve(-0.1, 2.0)


def test_transition_curve_zero_benefit():
    assert transition_curve(0.0, 2.0) == 0.0
    assert transition_curve(0.0, 7.3) == 0.0


@pytest.mark.parametrize("beta", [1.5, 2.0, 4.0])
def test_transition_curve_grid_properties(beta):
    grid = np.linspace(0.1, 20.0, 200)
    values = np.array([transition_curve(bc, beta) for bc in grid])
    assert np.all(np.diff(values) >= -1e-12)  # nondecreasing
    assert np.all(values < grid)  # always below the identity
    assert transition_curve(1e-6, beta) < 1e-3


@pytest.mark.parametrize("beta", [1.5, 2.0, 4.0])
def test_viable_root_nondecreasing_in_benefit(beta):
    grid = np.linspace(0.1, 20.0, 200)
    roots = np.array([_coop_fixed_point_roots(beta, bc)[1] for bc in grid])
    assert np.all((0 < roots) & (roots < 1))
    assert np.all(np.diff(roots) >= -1e-10)


def test_quadratic_roots_match_direct_formula():
    # Cross-check the cancellation-free root split against naive evaluation
    # at benign parameters where the naive formula is accurate.
    beta, beta_c = 2.0, 1.0
    low, high = _coop_fixed_point_roots(beta, beta_c)
    assert high == pytest.approx(PHI_BC1_BETA2, rel=1e-15)
    assert low == pytest.approx(X_LOW_BC1_BETA2, rel=1e-15)


def test_quadratic_roots_extreme_benefit_no_cancellation():
    # For huge beta_c the high root tends to 1 and the naive formula loses
    # digits; the split formula must keep the root strictly inside (0, 1).
    low, high = _coop_fixed_point_roots(2.0, 1e12)
    assert 0.0 < high < 1.0
    assert low is not None and low < 0.0
    # residual of -bc x^2 + (bc - b) x + (b - 1) at the returned root,
    # relative to the quadratic's scale bc
    res = -1e12 * high * high + (1e12 - 2.0) * high + 1.0
    assert abs(res) / 1e12 < 1e-15


# -------------------------------------------------------------- fixed points


def test_fixed_points_catalogue_beta2_bc1_bd07():
    reports = {r.kind: r for r in fixed_points(Params(2.0, 1.0, 0.7))}
    assert set(reports) == {"extinction", "defector", "cooperator_high", "cooperator_low"}

    ext = reports["extinction"]
    assert (ext.x, ext.y) == (0.0, 0.0)
    assert ext.in_simplex and ext.locally_stable is False

    dfp = reports["defector"]
    assert dfp.x == 0.0
    assert dfp.y == pytest.approx(Y_STAR_BETA2_BD07, rel=1e-15)
    assert dfp.in_simplex and dfp.locally_stable is True

    hi = reports["cooperator_high"]
    assert hi.y == 0.0
    assert hi.x == pytest.approx(PHI_BC1_BETA2, rel=1e-15)
    assert hi.in_simplex
    assert hi.locally_stable is False  # 0.7 exceeds the curve value 0.618...

    lo = reports["cooperator_low"]
    assert lo.x == pytest.approx(X_LOW_BC1_BETA2, rel=1e-15)
    assert not lo.in_simplex


def test_fixed_points_stability_flips_below_curve():
    reports = {r.kind: r for r in fixed_points(Params(2.0, 1.0, 0.5))}
    assert reports["cooperator_high"].locally_stable is True


def test_fixed_points_no_low_root_at_zero_benefit():
    kinds = {r.kind for r in fixed_points(Params(2.0, 0.0, 0.5))}
    assert "cooperator_low" not in kinds
    reports = {r.kind: r for r in fixed_points(Params(2.0, 0.0, 0.5))}
    assert reports["cooperator_high"].x == pytest.approx(0.5, rel=1e-15)


def test_fixed_points_in_simplex_residuals():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = Params(
            beta=float(rng.uniform(1.1, 6.0)),
            beta_c=float(rng.uniform(0.0, 10.0)),
            beta_d=float(rng.uniform(0.0, 4.0)),
        )
        for rep in fixed_points(p):
            if rep.in_simplex:
                dx, dy = derivative((rep.x, rep.y), p)
                assert abs(dx) < 1e-12 and abs(dy) < 1e-12


# -------------------------------------------------------------------- regime


def test_classify_regime_three_labels():
    assert classify_regime(Params(2.0, 1.0, 0.7)) == DEFECTORS_WIN
    assert classify_regime(Params(2.0, 1.0, 0.5)) == BISTABLE
    tie = transition_curve(1.0, 2.0)
    assert classify_regime(Params(2.0, 1.0, tie)) == BOUNDARY


def test_classify_regime_custom_tolerance():
    tie = transition_curve(1.0, 2.0)
    assert classify_regime(Params(2.0, 1.0, tie + 1e-6), tol=1e-5) == BOUNDARY
    assert classify_regime(Params(2.0, 1.0, tie + 1e-6), tol=1e-9) == DEFECTORS_WIN


# --------------------------------------------------------------------- dulac


def test_dulac_divergence_frozen_value():
    # All quantities dyadic, so the quotient is exact.
    assert dulac_divergence((0.25, 0.25), Params(2.0, 1.0, 0.5)) == -76.0


def test_dulac_divergence_boundary_rejected():
    p = Params(2.0, 1.0, 0.5)
    with pytest.raises(BoundaryError):
        dulac_divergence((0.0, 0.5), p)
    with pytest.raises(BoundaryError):
        dulac_divergence((0.5, 0.0), p)


def test_dulac_divergence_negative_on_random_interior():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = Params(
            beta=float(rng.uniform(1.01, 8.0)),
            beta_c=float(rng.uniform(0.0, 10.0)),
            beta_d=float(rng.uniform(0.0, 5.0)),
        )
        x = rng.uniform(1e-6, 1.0, size=500)
        y = rng.uniform(1e-6, 1.0, size=500)
        keep = x + y < 1.0
        for xi, yi in zip(x[keep], y[keep]):
            assert dulac_divergence((xi, yi), p) < 0.0


# ------------------------------------------------------------ interior roots
#
# Solving dx = dy = 0 with x, y != 0 forces x = beta_d/beta_c and
# y = 1 - x - 1/(beta + beta_d); this point lies inside the simplex exactly
# when 0 < beta_d < transition_curve(beta_c, beta), and there it is the
# saddle between the two boundary basins (det J = -beta_c * x * y < 0).
# Above the curve the candidate has y < 0 and no interior root exists.


def interior_saddle(p: Params) -> tuple[float, float]:
    x = p.beta_d / p.beta_c
    return x, 1.0 - x - 1.0 / (p.beta + p.beta_d)


def test_interior_root_probe_clean_above_the_curve():
    rng = np.random.default_rng(3)
    for _ in range(8):
        beta = float(rng.uniform(1.1, 6.0))
        beta_c = float(rng.uniform(0.05, 10.0))
        beta_d = transition_curve(beta_c, beta) + float(rng.uniform(0.05, 2.0))
        p = Params(beta, beta_c, beta_d)
        probes = interior_root_probe(p, interior_grid(7))
        assert not any(pr.strictly_interior for pr in probes)
        assert any(pr.converged for pr in probes)
        for pr in probes:
            if pr.converged:
                assert pr.residual < 1e-13


def test_interior_root_probe_finds_bistable_saddle():
    p = Params(2.0, 1.0, 0.5)
    sx, sy = interior_saddle(p)
    assert sx == 0.5
    assert sy == pytest.approx(0.1, abs=1e-15)
    dx, dy = derivative((sx, sy), p)
    assert abs(dx) < 1e-15 and abs(dy) < 1e-15

    probes = interior_root_probe(p, interior_grid(13))
    hits = [pr for pr in probes if pr.strictly_interior]
    assert hits, "Newton never located the interior saddle"
    for pr in hits:
        assert abs(pr.root.x - sx) < 1e-9 and abs(pr.root.y - sy) < 1e-9


def test_interior_saddle_location_random_bistable_parameters():
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(8):
        beta = float(rng.uniform(1.1, 6.0))
        beta_c = float(rng.uniform(0.5, 10.0))
        beta_d = float(rng.uniform(0.1, 0.9)) * transition_curve(beta_c, beta)
        p = Params(beta, beta_c, beta_d)
        sx, sy = interior_saddle(p)
        assert 0.0 < sx < 1.0 and 0.0 < sy and sx + sy < 1.0
        fdx, fdy = derivative((sx, sy), p)
        assert abs(fdx) < 1e-12 and abs(fdy) < 1e-12
        probes = interior_root_probe(p, interior_grid(9))
        for pr in probes:
            if pr.strictly_interior:
                found += 1
                assert abs(pr.root.x - sx) < 1e-8 and abs(pr.root.y - sy) < 1e-8
    assert found > 0


def test_interior_root_probe_boundary_start_excluded():
    p = Params(2.0, 1.0, 0.7)
    y_star = 1.0 - 1.0 / (p.beta + p.beta_d)
    (probe,) = interior_root_probe(p, [(1e-9, y_star)])
    assert probe.converged
    assert not probe.strictly_interior
    assert probe.root is not None and abs(probe.root.x) < 1e-6


# ------------------------------------------------------- attractor behaviour


def test_trajectory_reaches_defector_attractor():
    p = Params(2.0, 1.0, 0.7)
    traj = integrate((0.3, 0.3), p, t_end=500.0, dt=1e-3, until_converged=True)
    x, y = traj.final
    assert math.hypot(x - 0.0, y - Y_STAR_BETA2_BD07) < 1e-6


def test_bistable_basins_split_by_start():
    p = Params(2.0, 1.0, 0.5)
    coop = integrate((0.6, 0.01), p, t_end=500.0, dt=1e-3, until_converged=True).final
    assert math.hypot(coop.x - PHI_BC1_BETA2, coop.y) < 1e-6
    defe = integrate((0.01, 0.5), p, t_end=500.0, dt=1e-3, until_converged=True).final
    assert math.hypot(defe.x, defe.y - 0.6) < 1e-6


# --------------------------------------------------------- engine agreement


def outcome(*args, **kwargs):
    """Everything ``integrate`` returns or raises, as comparable bytes and text."""
    try:
        traj = integrate(*args, **kwargs)
    except (SimplexEscape, DomainError) as exc:
        return type(exc).__name__, str(exc)
    return traj.t.tobytes(), traj.x.tobytes(), traj.y.tobytes(), traj.converged


def outcome_in_python(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(_engine, "load", lambda: None)
        return outcome(*args, **kwargs)


# Starts and steps whose trajectory reaches the clamp mid-way and stays on
# the simplex: one density a hair from zero with a long step, and a start
# just inside the top edge with beta = 1e9, where an RK4 step of about
# 3 / beta overshoots the edge by less than SIMPLEX_TOL.
CLAMPED = [
    ((6.6e-10, 0.4), Params(1.1, 1.95, 0.32), 5.0),
    ((0.9, 3.5e-14), Params(1.94, 0.99, 0.13), 2.0),
    ((4.6e-10, 0.48), Params(1.04, 2.52, 0.78), 5.0),
    ((0.6, 1.5e-10), Params(1.28, 1.37, 1.86), 5.0),
    ((1e-12, 0.99999999917), Params(1e9, 1.0, 0.0), 2.93e-09),
    ((0.0, 0.9999999992), Params(1e9, 1.0, 0.0), 3.13e-09),
    ((1e-12, 0.9999999974), Params(1e8, 1.0, 0.0), 2.83e-08),
]


def test_frozen_cases_reach_the_clamp_mid_trajectory(monkeypatch):
    monkeypatch.setattr(_engine, "load", lambda: None)
    for start, p, dt in CLAMPED:
        clamped = []

        def spy(x, y):
            result = _clamp_to_simplex(x, y)
            clamped.append(result)
            return result

        with monkeypatch.context() as m:
            m.setattr(mean_field, "_clamp_to_simplex", spy)
            traj = integrate(start, p, t_end=10 * dt, dt=dt)
        assert clamped, (start, p, dt)
        states = list(zip(traj.x.tolist(), traj.y.tolist()))
        assert 0 < states.index(clamped[0]) < len(traj) - 1, (start, p, dt)
        assert clamped[0] != (float(start[0]), float(start[1]))


def battery(n, seed):
    r = random.Random(seed)
    for _ in range(n):
        p = Params(r.uniform(0.3, 6.0), r.choice([0.0, r.uniform(0.0, 10.0)]),
                   r.choice([0.0, r.uniform(0.0, 5.0)]))
        x = r.choice([0.0, r.uniform(0.0, 1.0)])
        y = r.choice([0.0, (1.0 - x) * r.random()])
        dt = r.choice([1e-3, 1e-2, 0.05, 0.3, 1.0, 5.0])
        t_end = dt * r.randint(1, 8000) * r.uniform(0.9, 1.0)
        yield (x, y), p, t_end, dt, r.random() < 0.5


def test_engines_integrate_to_the_same_bytes(monkeypatch):
    if _engine.load() is None:
        pytest.skip("compiled engine unavailable")
    seen = set()
    cases = [(start, p, 10 * dt, dt, False) for start, p, dt in CLAMPED]
    cases += [((0.5, 0.4), Params(2.0, 1.0, 0.5), 20.0, 5.0, False),  # escapes
              ((0.2, 0.2), Params(1e200, 1e200, 1.0), 1.0, 1e-3, False),  # overflows
              ((0.2, 0.2), Params(2.0), 1e12, 1e-3, False)]  # too many steps
    cases += list(battery(200, 17))
    for start, p, t_end, dt, until_converged in cases:
        args = (start, p, t_end, dt, until_converged)
        expected = outcome_in_python(monkeypatch, *args)
        assert outcome(*args) == expected, args
        seen.add(expected[0] if isinstance(expected[0], str) else expected[3])
    # the battery covers both stopping rules and both errors
    assert seen == {False, True, "SimplexEscape", "DomainError"}
