"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 22 --trace 0

Run it from the root of a coopsim checkout: coopsim is imported from that
checkout's ``src/`` and nothing is installed.  Without ``src/coopsim`` the
run exits 2 and prints no result.

Set-up imports coopsim (timed in fresh interpreters) and builds the workload's inputs from the seed, three times.
Then the workload's round, a fixed unit of work on the same inputs, is
repeated until ``--seconds`` would be exceeded, and at least three times.

``--trace 0`` reports the end-to-end metrics: medians over rounds of
wall and CPU time, set-up time, and peak resident memory.  Times are
scaled to the reference probe's nominal speed (see ``reference.py``);
the raw times are in the report and on the ``# host`` line.  ``--trace 1``
wraps the traced coopsim names (see ``tracer.py``), alternates untraced
and traced rounds, and reports every per-layer metric of ``layers.py``.
A metric whose layer this workload does not reach is taken from one
traced round of the first other workload that does, at the same seed;
the report names the workload each metric came from.
A full report, and with ``--trace 1`` every span, is written under
``perfbench/out/``.  The last line of standard output is the result.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy loads: no workload may use more
# threads than its process budget (the desk sweep's two pool workers)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
HELD_OUT_SEED = 7919  # kept out of tuning; later claims must also hold on it
SETUP_REPEATS = 3
IMPORT_PROBES = 5  # fresh interpreters, each timing `import coopsim.cli`
MIN_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["torus-large", "desk", "replay"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_seconds() -> list[tuple[float, float]]:
    """Import time of coopsim in fresh interpreters.

    Each sample is (seconds, mean of the import probes just before and
    just after it).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    before = reference.import_probe()
    for _ in range(IMPORT_PROBES):
        seconds = reference.import_seconds("coopsim.cli", env=env, cwd=ROOT)
        after = reference.import_probe()
        samples.append((seconds, (before + after) / 2))
        before = after
    return samples


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import coopsim
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "coopsim": coopsim.__version__,
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def run_rounds(workload, ledger, tracer, seconds: float, trace: bool,
               traced_only: bool = False) -> dict:
    """Repeat the workload's round; with tracing, alternate untraced and traced.

    With ``traced_only`` a single traced round runs.  Returns the wall time
    of each round and, for untraced rounds, each operation's (wall seconds,
    CPU seconds, probe wall seconds, probe CPU seconds).
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    op_times: list[dict[str, tuple[float, float, float, float]]] = []
    traced_rounds: list[int] = []
    begin = time.perf_counter()
    r = 0
    while True:
        traced = traced_only or (trace and r % 2 == 1)
        tracer.round = r
        ledger.new_round()
        t0 = time.perf_counter()
        tracer.enabled = traced
        workload.run_round(tracer)
        tracer.enabled = False
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            traced_rounds.append(r)
        else:
            op_times.append(ledger.times)
        r += 1
        if traced_only:
            break
        if trace:  # one round each is enough; counts repeat across traced runs
            enough = bool(walls[False] and walls[True])
        else:  # medians need three rounds; later rounds check that outputs repeat
            enough = len(walls[False]) >= MIN_ROUNDS
        typical = statistics.median(walls[False] + walls[True])
        if enough and time.perf_counter() - begin + typical > seconds:
            break
    ledger.new_round()
    return {"untraced": walls[False], "traced": walls[True], "traced_rounds": traced_rounds,
            "op_times": op_times}


def round_seconds(op_times: list[dict[str, tuple[float, float, float, float]]], which: int,
                  scale: bool = True) -> float:
    """One round's wall (0) or CPU (1) time: the sum of each operation's median over rounds.

    With ``scale`` each operation's wall (CPU) time is first scaled by the
    wall (CPU) time of the reference probes around it.  A host hiccup slows one operation in one round; the
    per-operation median drops it, where a median of whole rounds would
    keep part of it.
    """
    def seconds(t):
        return reference.scaled(t[which], t[2 + which]) if scale else t[which]

    return sum(
        statistics.median(seconds(times[key]) for times in op_times if key in times)
        for key in op_times[0]
    )


def tripwire(seed: int, counts: dict, sources: dict) -> list[str]:
    """Exact counts that differ from the committed baseline for this seed.

    Each count is compared with the baseline of the workload it came from.
    """
    try:
        baseline = json.loads((BENCH / "baseline.json").read_text())
    except (OSError, ValueError):
        return []
    stored = baseline.get("counts", {})
    out = []
    for name, value in counts.items():
        expected = stored.get(sources[name], {}).get(str(seed), {}).get(name)
        if expected is not None and expected != value:
            out.append(f"{name} ({sources[name]}): {value} here, {expected} in the baseline")
    return out


def traced_setup(workload, tracer) -> None:
    """Install the tracer and build the workload's inputs with it on."""
    tracer.install()
    tracer.calibrate()
    tracer.enabled = True
    workload.setup()
    tracer.enabled = False


def borrow(name: str, seed: int, wanted: set[str], ledger) -> tuple[dict, list[str], object]:
    """The ``wanted`` per-layer metrics from one traced round of workload ``name``.

    Returns their values, the names it could not report, and the tracer.
    """
    from layers import Context, layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, ledger)
    tracer = Tracer()
    traced_setup(workload, tracer)
    rounds = run_rounds(workload, ledger, tracer, 0.0, True, traced_only=True)
    tracer.uninstall()
    workload.after_rounds()
    ctx = Context(tracer.spans(), rounds["traced_rounds"], workload.extras)
    values, absent = layer_metrics(ctx, name, set(tracer.missing) | tracer.work_errors, wanted)
    return values, absent, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coopsim" / "__init__.py").is_file():
        print(f"perfbench: no coopsim package under {SRC}; run from a coopsim checkout",
              file=sys.stderr)
        return 2
    imports = [] if args.trace else import_seconds()
    sys.path.insert(0, str(SRC))
    import coopsim

    if Path(coopsim.__file__).resolve().parent != (SRC / "coopsim").resolve():
        print(f"perfbench: imported coopsim from {coopsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from layers import LAYER_METRICS, Context, layer_metrics, per_round_counts
    from tracer import Tracer
    from workloads import WORKLOADS, Ledger

    ledger = Ledger()
    ledgers = [ledger]
    tracer = Tracer()
    setups: list[tuple[float, float]] = []
    if args.trace:
        workload = WORKLOADS[args.workload](args.seed, ledger)
        traced_setup(workload, tracer)
    else:
        for _ in range(SETUP_REPEATS):
            # each repeat starts from nothing: the previous inputs are freed
            # first, so the garbage collector never scans them during set-up
            workload = None
            gc.collect()
            workload = WORKLOADS[args.workload](args.seed, ledger)
            setups.append(reference.bracket(workload.setup))

    rounds = run_rounds(workload, ledger, tracer, args.seconds, bool(args.trace))
    tracer.uninstall()
    workload.after_rounds()

    probes = [t[2:] for times in rounds["op_times"] for t in times.values()]
    host = {"probe_median_s": statistics.median(p[0] for p in probes),
            "probe_cpu_median_s": statistics.median(p[1] for p in probes),
            "probe_nominal_s": reference.NOMINAL_S,
            "raw_wall_s": round_seconds(rounds["op_times"], 0, scale=False),
            "raw_cpu_s": round_seconds(rounds["op_times"], 1, scale=False)}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "host": host, "rounds": rounds}
    if args.trace:
        extras = dict(workload.extras, untraced_round_s=host["raw_wall_s"],
                      span_cost_s=tracer.c_in + tracer.c_out)
        ctx = Context(tracer.spans(), rounds["traced_rounds"], extras)
        metrics, absent = layer_metrics(ctx, args.workload, set(tracer.missing) | tracer.work_errors)
        for counts in per_round_counts(ctx, args.workload):
            ledger.op("trace.counts", lambda: (None, counts, True))
        sources = dict.fromkeys(metrics, args.workload)
        workload = None
        gc.collect()
        # the result holds every per-layer metric: those this workload does
        # not reach come from the first other workload that does
        borrowed = {}
        for other in WORKLOADS:
            wanted = {m.name for m in LAYER_METRICS if other in m.on
                      and args.workload not in m.on and m.name not in sources}
            if not wanted:
                continue
            ledgers.append(Ledger())
            values, other_absent, borrowed[other] = borrow(other, args.seed, wanted, ledgers[-1])
            metrics.update(values)
            sources.update(dict.fromkeys(values, other))
            absent += other_absent
            gc.collect()
        metrics = {m.name: metrics[m.name] for m in LAYER_METRICS if m.name in metrics}
        report["missing"] = absent
        report["source"] = sources
        counted = {m.name: metrics[m.name] for m in LAYER_METRICS if m.count and m.name in metrics}
        report["tripwire"] = tripwire(args.seed, counted, sources)
        report["calibration"] = {"c_in_s": tracer.c_in, "c_out_s": tracer.c_out}
        units = {m.name: m.unit for m in LAYER_METRICS}
        for line in report["tripwire"]:
            print(f"perfbench: tripwire: {line}", file=sys.stderr)
        if absent:
            print(f"perfbench: missing per-layer metrics: {', '.join(absent)}", file=sys.stderr)
    else:
        report["import_s"] = imports
        report["setup_inputs_s"] = setups
        host["raw_setup_s"] = (statistics.median(t for t, _ in imports)
                               + statistics.median(t for t, _ in setups))
        host["import_probe_median_s"] = statistics.median(p for _, p in imports)
        metrics = {
            "wall_s": round_seconds(rounds["op_times"], 0),
            "cpu_s": round_seconds(rounds["op_times"], 1),
            "setup_s": (statistics.median(reference.scaled(t, p, reference.IMPORT_NOMINAL_S)
                                          for t, p in imports)
                        + statistics.median(reference.scaled(*s) for s in setups)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    attempted = sum(one.attempted for one in ledgers)
    failed = sum(one.failed for one in ledgers)
    report["attempted"] = attempted
    report["failed"] = failed
    report["failures"] = [f for one in ledgers for f in one.failures]
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write(str(OUT / f"{args.workload}.trace.npz"))
        for other, other_tracer in borrowed.items():
            other_tracer.write(str(OUT / f"{args.workload}.{other}.trace.npz"))

    for failure in report["failures"]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print("# env " + json.dumps(report["env"], sort_keys=True))
    print("# host " + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
