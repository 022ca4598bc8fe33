"""Per-layer metrics read from a traced run, and the end-to-end metric each should move.

A metric is computed only on the workloads its ``on`` field names, where
the layer it reads does the work the metric is about; never as 0 on a
workload that does no such work.  A traced run of another workload takes
it from one traced round of the first workload that it names.  A metric whose
span name is missing at the commit under test, or whose layer did no
such work, is left out and reported as missing.  Counts are per
benchmark round (plus set-up, where the workload's inputs are sampled)
and must repeat exactly between two traced runs of one commit and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Callable

import numpy as np

from workloads import DESK_COMMANDS, SWEEP_JOBS, TorusLarge

BIG_TORI = tuple(label for label, _, _ in TorusLarge.TORI)


@dataclass(frozen=True)
class Context:
    spans: object  # tracer.Spans
    rounds: list[int]  # traced rounds
    extras: dict  # workload measurements the tracer does not take


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric(s) it should move
    on: tuple[str, ...]  # workloads where it should move, and is reported
    needs: tuple[str, ...]  # traced span names it reads
    value: Callable[[Context], float | None]  # None: the layer did no such work
    count: bool = False  # exact count: must repeat between traced runs


def _per_call(c: Context, name: str, scale: float, label: str | None = None) -> float | None:
    s = c.spans
    m = s.select(name, label)
    n = int(m.sum())
    return float(s.dur[m].sum() / n * scale) if n else None


def _per_work(c: Context, names: tuple[str, ...], scale: float, mask=None,
              use_self=False) -> float | None:
    s = c.spans
    if mask is None:
        mask = np.zeros(len(s.dur), dtype=bool)
        for name in names:
            mask |= s.select(name)
    work = s.work[mask].sum()
    time = (s.self_time if use_self else s.dur)[mask].sum()
    return float(time / work * scale) if work else None


def _count(c: Context, name: str, calls: bool = False) -> float:
    """Work (or calls) of ``name`` in set-up plus the first traced round."""
    s = c.spans
    m = s.select(name, rounds=[-1, c.rounds[0]])
    return float(m.sum() if calls else s.work[m].sum())


def _step_small(c: Context) -> float | None:
    s = c.spans
    m = s.select("lattice.step")
    for label in BIG_TORI:
        m &= ~s.select("lattice.step", label)
    n = int(m.sum())
    return float(s.dur[m].sum() / n * 1e6) if n else None


def _replica_fixed(c: Context) -> float | None:
    # Read on desk's simulate: about 70 events per replica, so the wrapper
    # cost taken out per step stays small next to the fixed cost.  Bracket
    # replicas have thousands of steps each, and the sweep's run in a pool.
    s = c.spans
    m = s.select("lattice.survival_estimate", "cli.simulate")
    return _per_work(c, (), 1e6, mask=m, use_self=True)


def _dual_ms(c: Context) -> float | None:
    s = c.spans
    n = int(s.select("graphical.build_dual").sum())
    if not n:
        return None
    t = s.dur[s.select("graphical.build_dual")].sum() + s.dur[s.select("graphical.resolve_origin_type")].sum()
    return float(t / n * 1e3)


def _replicas_per_s(c: Context) -> float | None:
    seconds = _per_work(c, ("experiments.sweep_phase_diagram",), 1.0)
    return 1.0 / seconds if seconds else None


def _worker_util(c: Context) -> float | None:
    samples = c.extras.get("sweep", [])
    if not samples:
        return None
    return median(cpu / (wall * SWEEP_JOBS) for cpu, wall in samples)


def _cli_seconds(label: str) -> Callable[[Context], float | None]:
    def value(c: Context) -> float | None:
        s = c.spans
        m = s.select("cli.main", "cli." + label)
        return float(s.dur[m].sum() / len(c.rounds)) if m.any() else None

    return value


def _cli_overhead(c: Context) -> float | None:
    s = c.spans
    m = s.select("cli.main")
    n = int(m.sum())
    return float(s.self_time[m].sum() / n * 1e3) if n else None


def _overhead(c: Context) -> float:
    """Wrapper cost of one traced round's spans over an untraced round's time.

    The cost per span is the calibrated ``c_in + c_out``; comparing timed
    traced and untraced rounds instead would measure the host's drift.
    """
    spans = int(np.isin(c.spans.round, c.rounds).sum()) / len(c.rounds)
    return spans * c.extras["span_cost_s"] / c.extras["untraced_round_s"]


STEP = "lattice.step"
LAYER_METRICS: list[LayerMetric] = [
    LayerMetric("lattice.events", "count", "lower", "none; a change means the draw path changed",
                ("torus-large", "desk"), (STEP,), lambda c: _count(c, STEP), count=True),
    LayerMetric("lattice.step_us.n1e4_d1", "us", "lower", "wall_s, cpu_s", ("torus-large",),
                (STEP,), lambda c: _per_call(c, STEP, 1e6, "n1e4_d1")),
    LayerMetric("lattice.step_us.n1e4_d2", "us", "lower", "wall_s, cpu_s", ("torus-large",),
                (STEP,), lambda c: _per_call(c, STEP, 1e6, "n1e4_d2")),
    LayerMetric("lattice.step_us.small", "us", "lower", "wall_s", ("desk",), (STEP,), _step_small),
    LayerMetric("lattice.replica_fixed_us", "us", "lower", "wall_s", ("desk",),
                ("lattice.survival_estimate", STEP), _replica_fixed),
    LayerMetric("lattice.torus_build_ms", "ms", "lower", "wall_s", ("desk",),
                ("lattice.Torus.__init__",), lambda c: _per_call(c, "lattice.Torus.__init__", 1e3)),
    LayerMetric("lattice.run_fixed_us", "us", "lower", "wall_s", ("desk",), ("lattice.run", STEP),
                lambda c: _per_work(c, ("lattice.run",), 1e6, use_self=True)),
    LayerMetric("graphical.sample.marks", "count", "lower", "none; a change means the draw path changed",
                ("desk", "replay"), ("graphical.sample_event_log",),
                lambda c: _count(c, "graphical.sample_event_log"), count=True),
    LayerMetric("graphical.sample.us_per_mark", "us", "lower",
                "wall_s, cpu_s on desk; setup_s on replay", ("desk", "replay"),
                ("graphical.sample_event_log",),
                lambda c: _per_work(c, ("graphical.sample_event_log",), 1e6)),
    LayerMetric("graphical.evolve.us_per_mark", "us", "lower", "wall_s", ("replay",),
                ("graphical.evolve_from_log",),
                lambda c: _per_work(c, ("graphical.evolve_from_log",), 1e6)),
    LayerMetric("graphical.evolve_coupled.us_per_mark", "us", "lower", "wall_s", ("replay",),
                ("graphical.coupled_evolve",),
                lambda c: _per_work(c, ("graphical.coupled_evolve",), 1e6)),
    LayerMetric("graphical.text.us_per_mark", "us", "lower", "wall_s", ("replay",),
                ("graphical.EventLog.to_text", "graphical.EventLog.from_text"),
                lambda c: _per_work(c, ("graphical.EventLog.to_text", "graphical.EventLog.from_text"), 1e6)),
    LayerMetric("graphical.sterile.us_per_probe", "us", "lower", "wall_s", ("desk", "replay"),
                ("graphical.classify_sterile",),
                lambda c: _per_call(c, "graphical.classify_sterile", 1e6)),
    LayerMetric("graphical.dual.queries", "count", "lower", "none", ("replay",),
                ("graphical.build_dual",), lambda c: _count(c, "graphical.build_dual", calls=True),
                count=True),
    LayerMetric("graphical.dual.segments", "count", "lower", "wall_s, peak_rss_mb", ("replay",),
                ("graphical.build_dual",), lambda c: _count(c, "graphical.build_dual"), count=True),
    LayerMetric("graphical.dual.ms_per_query", "ms", "lower", "wall_s, peak_rss_mb", ("replay",),
                ("graphical.build_dual", "graphical.resolve_origin_type"), _dual_ms),
    LayerMetric("experiments.sweep.replicas_per_s", "1/s", "higher", "wall_s", ("desk",),
                ("experiments.sweep_phase_diagram",), _replicas_per_s),
    LayerMetric("experiments.sweep.worker_util", "frac", "higher", "wall_s", ("desk",), (), _worker_util),
    LayerMetric("experiments.bracket.evaluations", "count", "lower", "wall_s", ("desk",),
                ("experiments.bracket_critical",),
                lambda c: _count(c, "experiments.bracket_critical"), count=True),
    LayerMetric("experiments.bracket.s_per_eval", "s", "lower", "wall_s", ("desk",),
                ("experiments.bracket_critical",),
                lambda c: _per_work(c, ("experiments.bracket_critical",), 1.0)),
    LayerMetric("experiments.couple.ms_per_replica", "ms", "lower", "wall_s", ("desk",),
                ("experiments.monotonicity_check",),
                lambda c: _per_work(c, ("experiments.monotonicity_check",), 1e3)),
    LayerMetric("mean_field.integrate.us_per_step", "us", "lower", "wall_s (about 8% share)", ("desk",),
                ("mean_field.integrate",), lambda c: _per_work(c, ("mean_field.integrate",), 1e6)),
    LayerMetric("percolation.spread.ms_per_replica", "ms", "lower", "wall_s", ("desk",),
                ("percolation.block_spread_estimate",),
                lambda c: _per_work(c, ("percolation.block_spread_estimate",), 1e3)),
    LayerMetric("percolation.field.ns_per_site", "ns", "lower", "wall_s", ("desk",),
                ("percolation.percolate",), lambda c: _per_work(c, ("percolation.percolate",), 1e9)),
    *[
        LayerMetric(f"cli.{label}.s", "s", "lower", "wall_s", ("desk",), ("cli.main",), _cli_seconds(label))
        for label, _ in DESK_COMMANDS
    ],
    LayerMetric("cli.overhead_ms", "ms", "lower", "wall_s", ("desk",), ("cli.main",), _cli_overhead),
    LayerMetric("trace.overhead_frac", "frac", "lower", "none", ("torus-large", "desk", "replay"), (), _overhead),
]


def layer_metrics(c: Context, workload: str, missing: set[str],
                  wanted: set[str] | None = None) -> tuple[dict[str, float], list[str]]:
    """Values of this workload's per-layer metrics (those in ``wanted`` only,
    when given), and the names of those it cannot report: a span they read
    is missing, or the layer did no such work."""
    values: dict[str, float] = {}
    absent: list[str] = []
    for metric in LAYER_METRICS:
        if workload not in metric.on or (wanted is not None and metric.name not in wanted):
            continue
        v = None if any(name in missing for name in metric.needs) else metric.value(c)
        if v is None:
            absent.append(metric.name)
        else:
            values[metric.name] = int(round(v)) if metric.count else v
    return values, absent


def per_round_counts(c: Context, workload: str) -> list[dict[str, float]]:
    """The exact counts of each traced round, for the repeat check."""
    out = []
    for r in c.rounds:
        one = Context(c.spans, [r], c.extras)
        out.append({m.name: m.value(one) for m in LAYER_METRICS if m.count and workload in m.on})
    return out
