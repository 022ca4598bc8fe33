"""Unit tests for sweep, coupled-monotonicity, and bracketing harnesses."""

import json

import numpy as np
import pytest

from coopsim.errors import BudgetExhausted, DomainError
from coopsim.experiments import (
    BracketEvaluation,
    CriticalBracket,
    MonotonicityReport,
    SweepSpec,
    bracket_critical,
    bracket_document,
    monotonicity_check,
    point_seed,
    sweep_phase_diagram,
    sweep_to_csv,
)
from coopsim.lattice import SurvivalResult, survival_estimate
from coopsim.mean_field import classify_regime
from coopsim.params import Params

# ------------------------------------------------------------------ sweeps


def small_spec(**overrides) -> SweepSpec:
    base = dict(
        beta=4.0,
        beta_c_grid=(0.0, 6.0),
        beta_d_grid=(0.5, 1.5),
        side=24,
        dim=1,
        horizon=20.0,
        replicas=20,
        master_seed=90,
        rho_c=0.2,
        rho_d=0.3,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_sweep_spec_validation():
    with pytest.raises(DomainError):
        small_spec(beta_c_grid=())
    with pytest.raises(DomainError):
        small_spec(beta_c_grid=(1.0, 1.0))
    with pytest.raises(DomainError):
        small_spec(beta_d_grid=(2.0, 1.0))
    with pytest.raises(DomainError):
        small_spec(beta_c_grid=(-1.0, 0.0))
    with pytest.raises(DomainError):
        small_spec(replicas=0)
    with pytest.raises(DomainError):
        small_spec(horizon=0.0)


def test_sweep_spec_rejects_non_finite():
    nan, inf = float("nan"), float("inf")
    for bad in (dict(beta_c_grid=(nan,)), dict(beta_d_grid=(0.0, inf)),
                dict(horizon=nan), dict(horizon=inf)):
        with pytest.raises(DomainError):
            small_spec(**bad)


def test_sweep_rows_partition_and_order():
    spec = small_spec()
    rows = sweep_phase_diagram(spec)
    assert len(rows) == 4
    assert [(r.beta_c, r.beta_d) for r in rows] == [
        (0.0, 0.5),
        (0.0, 1.5),
        (6.0, 0.5),
        (6.0, 1.5),
    ]
    for r in rows:
        assert (
            r.n_c_wins + r.n_d_wins + r.n_coexist + r.n_both_extinct == r.replicas
        )
        assert r.mf_regime == classify_regime(Params(spec.beta, r.beta_c, r.beta_d, 1))
    assert len({r.seed for r in rows}) == 4


def test_sweep_rows_are_the_survival_results_of_their_points():
    spec = small_spec(replicas=6, horizon=5.0)
    for r in sweep_phase_diagram(spec):
        alone = survival_estimate(
            Params(spec.beta, r.beta_c, r.beta_d, spec.dim),
            spec.side, spec.horizon, spec.replicas, spec.rho_c, spec.rho_d, r.seed,
        )
        assert isinstance(r, SurvivalResult)
        assert r.outcomes == alone.outcomes and r.replicas == spec.replicas
        assert r.freq_d_wins == alone.freq_d_wins == r.n_d_wins / spec.replicas


def test_sweep_is_deterministic_in_spec_and_seed():
    spec = small_spec()
    assert sweep_phase_diagram(spec) == sweep_phase_diagram(spec)
    shifted = sweep_phase_diagram(small_spec(master_seed=91))
    assert shifted != sweep_phase_diagram(spec)


def test_sweep_opens_one_pool_for_the_whole_grid(serial_pool):
    spec = small_spec(replicas=3, horizon=5.0)
    assert sweep_phase_diagram(spec, jobs=2) == sweep_phase_diagram(spec)
    assert serial_pool == [2]


def test_sweep_zero_benefit_defectors_dominate():
    spec = small_spec(
        beta_c_grid=(0.0,),
        beta_d_grid=(1.5,),
        side=40,
        horizon=60.0,
        replicas=40,
    )
    (row,) = sweep_phase_diagram(spec)
    others = (row.freq_c_wins, row.freq_coexist, row.freq_both_extinct)
    assert row.freq_d_wins > max(others)
    assert row.mf_regime == "defectors_win"


def test_sweep_huge_benefit_cooperators_dominate():
    spec = small_spec(
        beta_c_grid=(50.0,),
        beta_d_grid=(1.0,),
        side=40,
        horizon=60.0,
        replicas=40,
        rho_c=0.25,
        rho_d=0.25,
    )
    (row,) = sweep_phase_diagram(spec)
    others = (row.freq_d_wins, row.freq_coexist, row.freq_both_extinct)
    assert row.freq_c_wins > max(others)


def test_sweep_csv_round_trips_frequencies():
    spec = small_spec(replicas=10, horizon=5.0)
    rows = sweep_phase_diagram(spec)
    text = sweep_to_csv(spec, rows)
    lines = text.splitlines()
    assert lines[0].startswith("#")
    assert "master_seed=90" in lines[2]
    assert lines[3].split(",")[0] == "beta_c"
    assert len(lines) == 4 + len(rows)
    first = lines[4].split(",")
    assert float(first[0]) == rows[0].beta_c
    assert float(first[2]) == rows[0].freq_c_wins
    assert first[6] == rows[0].mf_regime


def test_point_seed_is_stable_and_spread():
    assert point_seed(90, 0) == point_seed(90, 0)
    seeds = {point_seed(90, i) for i in range(32)}
    assert len(seeds) == 32


# ------------------------------------------------------------ monotonicity


def test_monotonicity_zero_deltas_identical():
    rep = monotonicity_check(
        Params(4.0, 1.0, 1.0, 1), 0.0, 0.0, 10, np.random.default_rng(8)
    )
    assert rep.identical_trajectories
    assert rep.favored == rep.base
    assert rep.freq_c_alive_favored == rep.freq_c_alive_base
    assert rep.freq_d_alive_favored == rep.freq_d_alive_base


def test_monotonicity_coupled_runs_stay_nested():
    rep = monotonicity_check(
        Params(4.0, 1.0, 1.0, 1), 1.0, 0.0, 100, np.random.default_rng(7)
    )
    assert rep.c_sets_nested_at_horizon
    assert rep.d_sets_nested_at_horizon
    # Site-wise nesting makes the aliveness frequencies ordered replica by
    # replica, so the aggregate comparison is exact, not just within noise.
    assert rep.freq_c_alive_favored >= rep.freq_c_alive_base
    assert rep.freq_d_alive_favored <= rep.freq_d_alive_base


def test_monotonicity_shifts_both_benefits():
    rep = monotonicity_check(
        Params(3.0, 0.5, 0.8, 1), 0.7, 0.3, 40, np.random.default_rng(3)
    )
    assert rep.favored == Params(3.0, 1.2, 0.5, 1)
    assert rep.c_sets_nested_at_horizon and rep.d_sets_nested_at_horizon


def test_monotonicity_clamps_defection_benefit_at_zero():
    rep = monotonicity_check(
        Params(3.0, 0.5, 0.4, 1), 0.0, 2.0, 5, np.random.default_rng(3)
    )
    assert rep.favored.beta_d == 0.0


def test_monotonicity_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        monotonicity_check(Params(3.0), -0.1, 0.0, 5, rng)
    with pytest.raises(DomainError):
        monotonicity_check(Params(3.0), 0.0, -0.1, 5, rng)
    with pytest.raises(DomainError):
        monotonicity_check(Params(3.0), 0.1, 0.1, 0, rng)


# ------------------------------------------------------------- bracketing


def test_bracket_validation():
    kw = dict(
        dim=1, side=20, horizon=10.0, replicas=5,
        rho_c=0.2, rho_d=0.2, master_seed=1,
    )
    with pytest.raises(DomainError):
        bracket_critical(4.0, 1.0, tau=1.0, **kw)
    with pytest.raises(DomainError):
        bracket_critical(4.0, 1.0, lo=2.0, hi=1.0, **kw)
    with pytest.raises(DomainError):
        bracket_critical(4.0, 1.0, lo=-1.0, hi=1.0, **kw)
    with pytest.raises(DomainError):
        bracket_critical(4.0, 1.0, budget=1, **kw)


@pytest.mark.parametrize("lo, hi", [(0.0, float("inf")), (float("nan"), 4.0), (0.0, float("nan"))])
def test_bracket_rejects_non_finite_endpoints(lo, hi):
    # at lo = 0 defectors do not dominate, so hi would never be evaluated
    with pytest.raises(DomainError, match="lo < hi < inf"):
        bracket_critical(4.0, 0.0, side=10, horizon=1.0, replicas=2, rho_c=0.2, rho_d=0.2,
                         master_seed=1, lo=lo, hi=hi)


def test_bracket_degenerate_when_defectors_never_dominate():
    br = bracket_critical(
        4.0, 0.0, dim=1, side=30, horizon=40.0, replicas=30,
        rho_c=0.25, rho_d=0.25, master_seed=11, tau=0.9, lo=0.0, hi=8.0, budget=4,
    )
    assert br.beta_c_low == br.beta_c_high == 0.0
    assert len(br.evaluations) == 1
    assert "degenerate" in br.notes
    assert br.lower_edge_exceeds_equal_rate_point  # equal-rate point is 0 here
    wider = bracket_critical(
        4.0, 0.0, dim=1, side=30, horizon=40.0, replicas=60,
        rho_c=0.25, rho_d=0.25, master_seed=11, tau=0.9, lo=0.0, hi=8.0, budget=4,
    )
    assert wider.width <= br.width


def test_bracket_bisection_mechanics():
    kw = dict(
        dim=1, side=40, horizon=120.0, replicas=40,
        rho_c=0.25, rho_d=0.25, master_seed=2028,
        tau=0.9, lo=0.0, hi=16.0, budget=4,
    )
    br = bracket_critical(4.0, 1.0, **kw)
    assert 0.0 <= br.beta_c_low < br.beta_c_high <= 16.0
    assert br.width == 16.0 / 2 ** (4 - 2)
    assert len(br.evaluations) == 4
    assert br.evaluations[0].freq_d_wins > 0.9
    assert br.evaluations[1].freq_c_wins > 0.9
    assert "finite" in br.notes
    assert bracket_critical(4.0, 1.0, **kw) == br
    # the flag reflects the equal-rate landmark 2 d beta_d / (2d - 1) = 2
    assert br.lower_edge_exceeds_equal_rate_point == (br.beta_c_low >= 2.0)


def test_bracket_budget_exhausted_keeps_partial():
    with pytest.raises(BudgetExhausted) as err:
        bracket_critical(
            4.0, 1.0, dim=1, side=30, horizon=40.0, replicas=30,
            rho_c=0.05, rho_d=0.55, master_seed=556,
            tau=0.9, lo=0.0, hi=0.5, budget=4,
        )
    partial = err.value.partial
    assert isinstance(partial, CriticalBracket)
    assert (partial.beta_c_low, partial.beta_c_high) == (0.0, 0.5)
    assert len(partial.evaluations) == 2
    assert partial.evaluations[1].freq_c_wins <= 0.9


def test_bracket_dataclass_invariants():
    with pytest.raises(DomainError):
        CriticalBracket(2.0, 1.0, (), False, "")
    with pytest.raises(DomainError):
        CriticalBracket(-1.0, 1.0, (), False, "")


def test_bracket_json_round_trip():
    ev = BracketEvaluation(beta_c=0.5, freq_c_wins=0.125, freq_d_wins=0.875, seed=7)
    br = CriticalBracket(0.5, 1.0, (ev,), False, "finite-size estimate")
    doc = json.loads(json.dumps(bracket_document(br, 4.0, 1.0, 99)))
    assert float(doc["beta_c_low"]) == 0.5
    assert doc["master_seed"] == 99
    assert doc["evaluations"][0]["seed"] == 7
    assert float(doc["evaluations"][0]["freq_d_wins"]) == 0.875
    assert "finite" in doc["notes"]
