"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload desk --seeds 1-10
    python3 perfbench/spread.py --workload replay --seeds 1,2 --trace 1 --repeat 2

Runs one ``run.py`` process at a time from the repository root.  For each
metric it prints the median of the runs, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, and next to it a third of each end-to-end bound in
``BENCHMARK.json``, the spread a steady benchmark stays under.  Each run
measures for ``BENCHMARK.json``'s ``run_seconds``, and its ``# host``
line (reference probe, raw times) is printed with its metrics.  With
``--repeat 2`` every seed runs twice, and the exact counts of traced
runs must match between the two.  ``--baseline`` merges the medians
(and, for traced runs that repeat, the exact counts per seed) into
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    host = next(json.loads(line[len("# host "):]) for line in lines if line.startswith("# host "))
    return dict(json.loads(lines[-1]), host=host)


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def update_baseline(workload: str, trace: int, runs: list[dict], summary: dict) -> None:
    """Merge a set of runs into ``baseline.json``.

    A file taken at another commit is started afresh.  Untraced sets are
    appended, so two sets of the same code sit side by side; a traced set
    replaces the last one and stores its exact counts per seed.
    """
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    from layers import LAYER_METRICS

    path = BENCH / "baseline.json"
    baseline = json.loads(path.read_text()) if path.exists() else {}
    report = json.loads((BENCH / "out" / f"{workload}.json").read_text())
    if baseline.get("env", {}).get("commit") != report["env"]["commit"]:
        baseline = {}
    baseline["env"] = report["env"]
    baseline["layer_map"] = {m.name: {"unit": m.unit, "moves": m.moves, "on": list(m.on)}
                             for m in LAYER_METRICS}
    entry = {"seeds": sorted({r["seed"] for r in runs}), "runs": len(runs), "metrics": summary,
             "host": {k: spread([r["host"][k] for r in runs]) for k in runs[0]["host"]}}
    if trace:
        baseline.setdefault("per_layer", {})[workload] = entry
        # only the workload's own counts: the others were borrowed from
        # another workload and are stored under that one
        counted = {m.name for m in LAYER_METRICS if m.count and workload in m.on}
        counts = baseline.setdefault("counts", {}).setdefault(workload, {})
        for r in runs:
            counts[str(r["seed"])] = {k: v["value"] for k, v in r["metrics"].items() if k in counted}
    else:
        baseline.setdefault("end_to_end", {}).setdefault(workload, []).append(entry)
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    counted = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}

    runs = []
    for seed in parse_seeds(args.seeds):
        for rep in range(args.repeat):
            result = run_once(args.workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "repeat": rep, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                      if args.trace == 0 or k in counted}
            host = {k: round(v, 4) for k, v in result["host"].items()}
            print(f"seed {seed} #{rep}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} {values} host {host}", flush=True)

    ok = all(r["correct"] for r in runs)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = spread(values) if len(values) > 1 else {"median": values[0]}
        line = f"{name:40s} median {summary[name]['median']:.6g}"
        if "spread" in summary[name]:
            s = summary[name]
            line += f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
            if name in bounds:
                line += f"  (bound/3 {bounds[name] / 3:.4f})"
        print(line)
    if args.repeat > 1:
        by_seed: dict[int, list[dict]] = {}
        for r in runs:
            by_seed.setdefault(r["seed"], []).append(
                {k: v["value"] for k, v in r["metrics"].items() if k in counted})
        for seed, counts in by_seed.items():
            same = all(c == counts[0] for c in counts)
            ok &= same
            print(f"seed {seed}: exact counts {'repeat' if same else 'DIFFER'}: {counts[0]}")
    if args.baseline and ok:
        update_baseline(args.workload, args.trace, runs, summary)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
