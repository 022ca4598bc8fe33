"""Seeded experiment harnesses built on the torus engine.

Three workflows live here: long-format phase-diagram sweeps over the
(cooperation benefit, defection benefit) plane, coupled monotonicity
audits that drive an advantaged and a baseline process off one shared
mark environment, and statistical bisection for the cooperation benefit
at which the typical winner flips.

Every routine is a deterministic function of its arguments: grid points
and bisection evaluations derive their seeds from the master seed, never
from global state.  Survival frequencies measured here are finite-torus,
finite-horizon surrogates for the limit quantities they estimate, and the
serialized outputs say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetExhausted, DomainError
from .graphical import COUPLED, coupled_evolve, sample_event_log
from .lattice import (COOPERATOR, DEFECTOR, ReplicaOutcome, SurvivalResult, check_listable,
                      product_measure, survival_estimate, survival_replicas)
from .mean_field import classify_regime
from .params import Params, equal_rate_benefit

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "sweep_phase_diagram",
    "sweep_to_csv",
    "MonotonicityReport",
    "monotonicity_check",
    "CriticalBracket",
    "BracketEvaluation",
    "bracket_critical",
    "bracket_document",
]


def _fmt(x: float) -> str:
    """17 significant digits: round-trips every double exactly."""
    return format(x, ".17g")


def point_seed(master_seed: int, index: int) -> int:
    """Derive the integer master seed owned by one grid/search point."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


# ------------------------------------------------------------------ sweeps


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Grid description for a phase-diagram sweep.

    The winner rule is strict extinction at the horizon: a type wins a
    replica when it is alive and the other type's count is zero, so the
    four outcome classes partition the replicas exactly.
    """

    beta: float
    beta_c_grid: tuple[float, ...]
    beta_d_grid: tuple[float, ...]
    side: int
    dim: int
    horizon: float
    replicas: int
    master_seed: int
    rho_c: float
    rho_d: float

    def __post_init__(self) -> None:
        for name, grid in (("beta_c_grid", self.beta_c_grid), ("beta_d_grid", self.beta_d_grid)):
            if len(grid) == 0:
                raise DomainError(f"{name} must be nonempty")
            if any(a >= b for a, b in zip(grid, grid[1:])):
                raise DomainError(f"{name} must be strictly increasing, got {grid}")
            if not all(0.0 <= v < math.inf for v in grid):
                raise DomainError(f"{name} entries must be finite and >= 0, got {grid}")
        if self.replicas < 1:
            raise DomainError(f"replicas must be >= 1, got {self.replicas}")
        if not 0.0 < self.horizon < math.inf:
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")


@dataclass(frozen=True, slots=True)
class SweepPoint(SurvivalResult):
    """The replica outcomes at one (beta_c, beta_d) grid point, whose
    inherited counts partition ``replicas`` exactly."""

    beta_c: float
    beta_d: float
    mf_regime: str
    seed: int

    @property
    def replicas(self) -> int:
        return len(self.outcomes)


def sweep_phase_diagram(spec: SweepSpec, jobs: int = 1) -> list[SweepPoint]:
    """Survival-outcome frequencies over the full benefit grid.

    Grid points are visited in row-major order (beta_c outer, beta_d
    inner); point ``i`` runs its replicas under its own derived seed, so
    rerunning any subset of the grid reproduces the same rows.  The
    replicas of every point go through one ``survival_replicas`` call,
    and so through one process pool when ``jobs > 1``.  The mean-field
    regime label for the same parameters rides along for side-by-side
    comparison.
    """
    points = [
        (Params(spec.beta, beta_c, beta_d, spec.dim), point_seed(spec.master_seed, k))
        for k, (beta_c, beta_d) in enumerate(product(spec.beta_c_grid, spec.beta_d_grid))
    ]
    n = spec.replicas
    check_listable(len(points) * n, "replicas")
    runs = [
        (p, spec.side, spec.horizon, spec.rho_c, spec.rho_d, seed, i)
        for p, seed in points
        for i in range(n)
    ]
    outcomes = survival_replicas(runs, jobs)
    return [
        SweepPoint(
            outcomes=tuple(outcomes[k * n : (k + 1) * n]),
            beta_c=p.beta_c,
            beta_d=p.beta_d,
            mf_regime=classify_regime(p),
            seed=seed,
        )
        for k, (p, seed) in enumerate(points)
    ]


def sweep_to_csv(spec: SweepSpec, rows: list[SweepPoint]) -> str:
    """Long-format CSV with the full spec embedded as comment lines."""
    out = [
        "# phase-diagram sweep; frequencies are finite-torus, finite-horizon"
        " surrogates for the limit survival probabilities",
        f"# beta={_fmt(spec.beta)} dim={spec.dim} side={spec.side}"
        f" horizon={_fmt(spec.horizon)} replicas={spec.replicas}",
        f"# rho_c={_fmt(spec.rho_c)} rho_d={_fmt(spec.rho_d)}"
        f" master_seed={spec.master_seed}",
        "beta_c,beta_d,freq_c_wins,freq_d_wins,freq_coexist,freq_both_extinct,"
        "mf_regime,point_seed",
    ]
    for r in rows:
        out.append(
            ",".join(
                [
                    _fmt(r.beta_c),
                    _fmt(r.beta_d),
                    _fmt(r.freq_c_wins),
                    _fmt(r.freq_d_wins),
                    _fmt(r.freq_coexist),
                    _fmt(r.freq_both_extinct),
                    r.mf_regime,
                    str(r.seed),
                ]
            )
        )
    return "\n".join(out) + "\n"


# ------------------------------------------------------------ monotonicity


@dataclass(frozen=True, slots=True)
class MonotonicityReport:
    """Aggregate of coupled favored-vs-base runs on shared mark logs.

    The per-mark pair check inside ``coupled_evolve`` raises on any order
    violation, so a report existing at all certifies the pathwise
    inclusions held throughout every replica window; the fields below add
    the horizon-time summaries.
    """

    base: Params
    favored: Params
    replicas: int
    horizon: float
    c_sets_nested_at_horizon: bool
    d_sets_nested_at_horizon: bool
    identical_trajectories: bool
    freq_c_alive_favored: float
    freq_c_alive_base: float
    freq_d_alive_favored: float
    freq_d_alive_base: float


def monotonicity_check(
    base: Params,
    delta_c: float,
    delta_d: float,
    replicas: int,
    rng: np.random.Generator,
    side: int = 24,
    horizon: float = 4.0,
    rho_c: float = 0.25,
    rho_d: float = 0.25,
) -> MonotonicityReport:
    """Couple a benefit-advantaged process against the base parameters.

    The favored process raises the cooperation benefit by ``delta_c`` and
    lowers the defection benefit by ``delta_d`` (clamped at zero).  Both
    processes start from the same product-measure draw and read one shared
    coupled-flavor log per replica, which forces cooperator sets to nest
    one way and defector sets the other at every instant.
    """
    if delta_c < 0.0 or delta_d < 0.0:
        raise DomainError(f"deltas must be >= 0, got ({delta_c}, {delta_d})")
    if replicas < 1:
        raise DomainError(f"replicas must be >= 1, got {replicas}")
    favored = Params(
        base.beta,
        base.beta_c + delta_c,
        base.beta_d - min(delta_d, base.beta_d),
        base.dim,
    )
    c_nested = True
    d_nested = True
    identical = True
    outcomes_f, outcomes_b = [], []
    for i in range(replicas):
        start = product_measure(side, base.dim, rho_c, rho_d, rng)
        log = sample_event_log(favored, start, horizon, rng, flavor=COUPLED, p2=base)
        first, second = coupled_evolve(start, start.copy(), log)
        outcomes_f.append(ReplicaOutcome(i, *first.counts()))
        outcomes_b.append(ReplicaOutcome(i, *second.counts()))
        pairs = list(zip(first.sites, second.sites))
        c_nested &= all(a == COOPERATOR for a, b in pairs if b == COOPERATOR)
        d_nested &= all(b == DEFECTOR for a, b in pairs if a == DEFECTOR)
        identical &= first.sites == second.sites
    fav, bas = SurvivalResult(tuple(outcomes_f)), SurvivalResult(tuple(outcomes_b))
    return MonotonicityReport(
        base=base,
        favored=favored,
        replicas=replicas,
        horizon=horizon,
        c_sets_nested_at_horizon=c_nested,
        d_sets_nested_at_horizon=d_nested,
        identical_trajectories=identical,
        freq_c_alive_favored=fav.freq_c_alive,
        freq_c_alive_base=bas.freq_c_alive,
        freq_d_alive_favored=fav.freq_d_alive,
        freq_d_alive_base=bas.freq_d_alive,
    )


# ------------------------------------------------------------- bracketing


@dataclass(frozen=True, slots=True)
class BracketEvaluation:
    """Win frequencies measured at one candidate cooperation benefit."""

    beta_c: float
    freq_c_wins: float
    freq_d_wins: float
    seed: int


@dataclass(frozen=True, slots=True)
class CriticalBracket:
    """Interval estimate for the winner-flip cooperation benefit.

    ``beta_c_low`` is defector-dominant and ``beta_c_high`` is not (the
    initial upper endpoint is additionally cooperator-dominant); the
    finite-size estimate of the flip point lies in between.
    """

    beta_c_low: float
    beta_c_high: float
    evaluations: tuple[BracketEvaluation, ...]
    lower_edge_exceeds_equal_rate_point: bool
    notes: str

    def __post_init__(self) -> None:
        if self.beta_c_low < 0.0 or self.beta_c_low > self.beta_c_high:
            raise DomainError(
                f"need 0 <= low <= high, got ({self.beta_c_low}, {self.beta_c_high})"
            )

    @property
    def width(self) -> float:
        return self.beta_c_high - self.beta_c_low


def bracket_critical(
    beta: float,
    beta_d: float,
    *,
    dim: int = 1,
    side: int,
    horizon: float,
    replicas: int,
    rho_c: float,
    rho_d: float,
    master_seed: int,
    tau: float = 0.9,
    lo: float = 0.0,
    hi: float = 16.0,
    budget: int = 10,
) -> CriticalBracket:
    """Bisect the cooperation benefit until the defector-dominant band ends.

    A point is defector-dominant when its measured ``freq_d_wins``
    exceeds ``tau``.  The search requires ``lo`` dominant and ``hi``
    cooperator-dominant (``freq_c_wins > tau``); every midpoint that stays
    dominant becomes the new lower edge, everything else the new upper
    edge.  ``budget`` caps the total number of survival runs, endpoint
    checks included.

    When even ``lo`` is not defector-dominant the flip happens at or below
    ``lo`` and the degenerate bracket (lo, lo) is returned.  When ``hi``
    fails its check no bracket exists inside the search interval and
    ``BudgetExhausted`` carries the partial result; its message names both
    endpoint evaluations.
    """
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must lie in (0, 1), got {tau}")
    if not 0.0 <= lo < hi < math.inf:
        raise DomainError(f"need 0 <= lo < hi < inf, got ({lo}, {hi})")
    if budget < 2:
        raise DomainError(f"budget must allow both endpoint checks, got {budget}")

    finite_size_note = (
        f"finite-size estimate: side={side}, horizon={_fmt(horizon)}, "
        f"replicas={replicas}, tau={_fmt(tau)}; winner frequencies are "
        "finite-horizon surrogates, not the limit critical values"
    )
    equal_rate_point = equal_rate_benefit(beta_d, dim)
    evaluations: list[BracketEvaluation] = []

    def measure(beta_c: float) -> BracketEvaluation:
        seed = point_seed(master_seed, len(evaluations))
        result = survival_estimate(
            Params(beta, beta_c, beta_d, dim),
            side,
            horizon,
            replicas,
            rho_c,
            rho_d,
            seed,
        )
        ev = BracketEvaluation(
            beta_c=beta_c,
            freq_c_wins=result.freq_c_wins,
            freq_d_wins=result.freq_d_wins,
            seed=seed,
        )
        evaluations.append(ev)
        return ev

    def bracket(low: float, high: float, caveat: str) -> CriticalBracket:
        return CriticalBracket(
            beta_c_low=low,
            beta_c_high=high,
            evaluations=tuple(evaluations),
            lower_edge_exceeds_equal_rate_point=low >= equal_rate_point,
            notes=caveat + finite_size_note,
        )

    at_lo = measure(lo)
    if not at_lo.freq_d_wins > tau:
        return bracket(lo, lo, "degenerate: defectors never dominate at the lower endpoint, "
                       "so the flip sits at or below it; ")
    at_hi = measure(hi)
    if not at_hi.freq_c_wins > tau:
        raise BudgetExhausted(
            f"no cooperator-dominant point found at the upper endpoint {hi}; evaluations: "
            + "; ".join(
                f"beta_c={ev.beta_c} freq_c_wins={ev.freq_c_wins} freq_d_wins={ev.freq_d_wins}"
                for ev in evaluations
            ),
            partial=bracket(lo, hi, "upper endpoint never cooperator-dominant; "),
        )

    low, high = lo, hi
    while len(evaluations) < budget:
        mid = 0.5 * (low + high)
        if measure(mid).freq_d_wins > tau:
            low = mid
        else:
            high = mid
    return bracket(low, high, "")


def bracket_document(
    bracket: CriticalBracket,
    beta: float,
    beta_d: float,
    master_seed: int,
) -> dict:
    """JSON-ready document carrying the bracket plus everything needed to replay."""
    return {
        "beta": _fmt(beta),
        "beta_d": _fmt(beta_d),
        "master_seed": master_seed,
        "beta_c_low": _fmt(bracket.beta_c_low),
        "beta_c_high": _fmt(bracket.beta_c_high),
        "lower_edge_exceeds_equal_rate_point": bracket.lower_edge_exceeds_equal_rate_point,
        "notes": bracket.notes,
        "evaluations": [
            {
                "beta_c": _fmt(ev.beta_c),
                "freq_c_wins": _fmt(ev.freq_c_wins),
                "freq_d_wins": _fmt(ev.freq_d_wins),
                "seed": ev.seed,
            }
            for ev in bracket.evaluations
        ],
    }
