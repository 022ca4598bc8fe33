"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
one fixed unit of work per ``run_round``; the runner repeats rounds for
the measured time.  Every round uses the same inputs, so rounds must
produce the same outputs, and each operation's output is compared with
the first round's.  The workloads call coopsim only through module
attributes (``lattice.step``, ``cli.main``, ...) so the tracer's wrappers
see every call.

torus-large  survival replicas on side-100 (d=2) and side-10^4 (d=1)
             tori: per-event site selection dominates.
desk         a desk session through ``cli.main``: many short runs on
             tori of at most 37 sites, where per-run fixed costs, pool
             start-up, mark sampling and formatting dominate.
replay       reads two sampled event logs: text round-trips, replays,
             coupled replays, sterile classification and dual queries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import time

import numpy as np

import reference
from coopsim import cli, graphical, lattice
from coopsim.params import Params


def _cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Ledger:
    """Operations attempted, failed and timed; each output must repeat across rounds.

    ``times`` maps each operation of the current round to its wall and
    CPU seconds and the mean wall and CPU seconds of the reference probes
    taken just before and just after it; the runner collects it and calls
    :meth:`new_round` after every round.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.times: dict[str, tuple[float, float, float, float]] = {}
        self._first: dict[str, object] = {}
        self._last_probe: tuple[float, float] | None = None

    def new_round(self) -> None:
        self.times = {}
        self._last_probe = None

    def op(self, key: str, fn):
        """Run ``fn() -> (result, fingerprint, ok)`` and return the result.

        An exception, a failed check, or a fingerprint that differs from
        the first one recorded under ``key`` counts the operation as failed.
        """
        self.attempted += 1
        before = self._last_probe if self._last_probe is not None else reference.probe()
        c0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            result, fingerprint, ok = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            self._fail(f"{key}: {type(exc).__name__}: {exc}")
            return None
        finally:
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
            after = self._last_probe = reference.probe()
            self.times[key] = (wall, cpu, (before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
        if not ok:
            self._fail(f"{key}: check failed")
        elif self._first.setdefault(key, fingerprint) != fingerprint:
            self._fail(f"{key}: output differs from the first round")
        return result

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


# ------------------------------------------------------------- torus-large


class TorusLarge:
    name = "torus-large"
    # (label, side, dim): N = 10^4 sites either way
    TORI = (("n1e4_d2", 100, 2), ("n1e4_d1", 10_000, 1))
    HORIZON = 2.0

    def __init__(self, seed: int, ledger: Ledger):
        self.seed = seed
        self.ledger = ledger
        self.extras: dict = {}

    def setup(self) -> None:
        self.params = {dim: Params(4.0, 6.0, 1.0, dim) for _, _, dim in self.TORI}

    def run_round(self, tracer) -> None:
        for label, side, dim in self.TORI:
            with tracer.label(label):
                self.ledger.op(label, lambda: self._replica(side, dim))

    def _replica(self, side: int, dim: int):
        res = lattice.survival_estimate(
            self.params[dim], side, self.HORIZON, 1, 0.25, 0.25, self.seed, jobs=1
        )
        counts = tuple((o.n_c, o.n_d, o.n_e) for o in res.outcomes)
        return counts, counts, all(sum(c) == side**dim for c in counts)

    def after_rounds(self) -> None:
        pass


# -------------------------------------------------------------------- desk

SWEEP_JOBS = 2
# (label, argv); setup adds the seed, or the start state for ``meanfield``
DESK_COMMANDS: list[tuple[str, list[str]]] = [
    ("sweep", ["sweep", "--beta", "4", "--beta-c-grid", "0,4,8", "--beta-d-grid", "0.5,1,1.5",
               "--side", "20", "--t-end", "30", "--replicas", "20", "--jobs", str(SWEEP_JOBS)]),
    # tau 0.5 keeps the lower endpoint defector-dominant and the upper one
    # cooperator-dominant for every seed (freq_d_wins is about 0.8 at
    # beta_c = 0), so the search always bisects: beta_c = 0, 16, 8, 4
    ("bracket", ["bracket", "--beta", "4", "--beta-d", "1", "--side", "24", "--t-end", "80",
                 "--replicas", "20", "--budget", "4", "--tau", "0.5"]),
    ("simulate", ["simulate", "--beta", "4", "--beta-c", "1", "--beta-d", "1", "--side", "4",
                  "--replicas", "1000"]),
    ("couple", ["couple", "--beta", "3", "--beta-c", "1.2", "--beta-d", "0.5", "--delta-c", "1",
                "--replicas", "200"]),
    ("sterile", ["sterile", "--beta", "0.3", "--beta-c", "0.7", "--replicas", "6000"]),
    ("blocks_spread", ["blocks", "spread", "--beta", "4", "--beta-d", "1", "--L", "6",
                       "--replicas", "20"]),
    ("meanfield", ["meanfield", "--beta", "2", "--beta-c", "1", "--beta-d", "0.7", "--t-end", "300"]),
    ("meanfield_phi", ["meanfield", "--phi-curve", "--beta", "2", "--beta-c-max", "10",
                       "--points", "100"]),
    ("blocks_perc", ["blocks", "perc", "--epsilon", "0.05", "--levels", "400", "--width", "600"]),
]


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _result(payload: str) -> dict:
    return json.loads(payload)["result"]


def _meanfield_settled(payload: str) -> bool:
    """The final state sits on a stable fixed point inside the simplex."""
    terminal = fixed = None
    for line in payload.splitlines():
        if line.startswith("# terminal "):
            terminal = [float(part.split("=")[1]) for part in line[len("# terminal "):].split()]
        elif line.startswith("# fixed_points="):
            fixed = json.loads(line[len("# fixed_points="):])
    stable = [
        (float(fp["x"]), float(fp["y"])) for fp in fixed if fp["in_simplex"] and fp["locally_stable"]
    ]
    return any(abs(terminal[0] - x) + abs(terminal[1] - y) < 1e-6 for x, y in stable)


DESK_CHECKS = {
    "couple": lambda out: _result(out)["c_sets_nested_at_horizon"]
    and _result(out)["d_sets_nested_at_horizon"],
    "sterile": lambda out: float(_result(out)["abs_z"]) < 4.0,
    "meanfield": _meanfield_settled,
}


class Desk:
    name = "desk"

    def __init__(self, seed: int, ledger: Ledger):
        self.seed = seed
        self.ledger = ledger
        self.extras: dict = {"sweep": []}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        x0, y0 = rng.uniform(0.1, 0.4, size=2)
        self.argvs = {}
        for label, argv in DESK_COMMANDS:
            if label == "meanfield":
                argv = argv + ["--x0", repr(float(x0)), "--y0", repr(float(y0))]
            elif label != "meanfield_phi":
                argv = argv + ["--seed", str(self.seed)]
            self.argvs[label] = argv

    def run_round(self, tracer) -> None:
        for label, _ in DESK_COMMANDS:
            with tracer.label("cli." + label):
                self.ledger.op(label, lambda: self._command(label))

    def _command(self, label: str):
        t0, c0 = time.perf_counter(), _children_cpu()
        result = self._run(self.argvs[label], DESK_CHECKS.get(label))
        if label == "sweep":
            self.extras["sweep"].append((_children_cpu() - c0, time.perf_counter() - t0))
        return result

    @staticmethod
    def _run(argv: list[str], check=None):
        rc, out, err = _call_cli(argv)
        if rc != 0:
            raise RuntimeError(f"exit code {rc}: {err.strip()}")
        return out, out, check is None or bool(check(out))

    def after_rounds(self) -> None:
        """``--jobs`` never changes a result: the sweep at one job matches."""
        argv = list(self.argvs["sweep"])
        argv[argv.index("--jobs") + 1] = "1"
        self.ledger.op("sweep", lambda: self._run(argv))


# ------------------------------------------------------------------ replay


class Replay:
    name = "replay"
    SIDE = 1000
    WINDOW = 20.0
    HISTORY = 2.0  # sample_event_log's default pre-window history
    P_STANDARD = Params(2.0, 1.0, 1.0, 1)  # 5 marks per site per unit time
    P_BASE = Params(2.0, 1.0, 1.0, 1)
    P_FAVORED = Params(2.0, 2.7, 1.0, 1)  # coupled: 6.7 marks per site per unit time
    STARTS = 10
    COUPLED_STARTS = 4
    DUAL_SITES = range(0, 1000, 100)
    DUAL_DEPTHS = (2.0, 3.0)  # depth 4 can exceed 200k segments per query

    def __init__(self, seed: int, ledger: Ledger):
        self.seed = seed
        self.ledger = ledger
        self.extras: dict = {}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        torus = lattice.Torus(self.SIDE, 1)
        self.log = graphical.sample_event_log(self.P_STANDARD, torus, self.WINDOW, rng)
        self.coupled = graphical.sample_event_log(
            self.P_FAVORED, torus, self.WINDOW, rng, flavor=graphical.COUPLED, p2=self.P_BASE
        )
        self.starts = [
            lattice.product_measure(self.SIDE, 1, 0.25, 0.25, rng) for _ in range(self.STARTS)
        ]
        self.dots = [i for i, m in self.log.window_marks() if m.kind == graphical.DOT_ARROW]
        # every round then meets the original log with its site index built
        self.log.last_cross_at(0, 0.0)

    def run_round(self, tracer) -> None:
        op = self.ledger.op
        rt = op("text.standard", lambda: self._round_trip(self.log))
        rt_coupled = op("text.coupled", lambda: self._round_trip(self.coupled))
        if rt is None or rt_coupled is None:
            return
        for j, c0 in enumerate(self.starts):
            op(f"evolve.window.{j}", lambda: self._evolve(c0, rt))
            op(f"evolve.history.{j}", lambda: self._evolve(c0, rt, t_from=-self.HISTORY, t_to=0.0))
        for j, c0 in enumerate(self.starts[: self.COUPLED_STARTS]):
            op(f"coupled.{j}", lambda: self._coupled(c0, rt_coupled))
        op("sterile", lambda: self._sterile(rt))
        for site in self.DUAL_SITES:
            for depth in self.DUAL_DEPTHS:
                op(f"dual.{site}.{depth}", lambda: self._dual(rt, site, depth))

    @staticmethod
    def _round_trip(log):
        text = log.to_text()
        copy = graphical.EventLog.from_text(text)
        return copy, hashlib.sha256(text.encode()).hexdigest(), copy.to_text() == text

    def _evolve(self, c0, rt, **window):
        a = graphical.evolve_from_log(c0, self.log, **window)
        b = graphical.evolve_from_log(c0, rt, **window)
        state = a.state_string()
        return state, state, a.sites == b.sites

    def _coupled(self, c0, rt_coupled):
        a = graphical.coupled_evolve(c0, c0.copy(), self.coupled)
        b = graphical.coupled_evolve(c0, c0.copy(), rt_coupled)
        states = [t.state_string() for t in a + b]
        return None, states[:2], states[:2] == states[2:]

    def _sterile(self, rt):
        a = [graphical.classify_sterile(self.log, i) for i in self.dots]
        b = [graphical.classify_sterile(rt, i) for i in self.dots]
        return None, a, a == b

    def _dual(self, rt, site: int, depth: float):
        t = self.log.t_start + depth
        a = graphical.build_dual(self.log, site, t)
        b = graphical.build_dual(rt, site, t)
        origin_a = graphical.resolve_origin_type(a, self.starts[0])
        origin_b = graphical.resolve_origin_type(b, self.starts[0])
        found = (origin_a, len(a.nodes))
        return None, found, found == (origin_b, len(b.nodes))

    def after_rounds(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (TorusLarge, Desk, Replay)}
