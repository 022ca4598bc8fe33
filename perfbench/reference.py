"""Probes that measure how fast the host runs right now.

The benchmark's hosts are shared: over minutes to an hour the same
Python code can run 30-70% slower or faster with nothing of the
benchmark's own changed.  So every timed operation is bracketed by a
probe, and each reported time is scaled to the probe's nominal speed:

    scaled = measured * nominal / probe

where ``probe`` is the mean of the probes just before and just after
the operation.  Computation is bracketed by :func:`probe`, a fixed
pure-Python loop; wall times are scaled by its wall time and CPU times
by its CPU time, so time the host takes the core away for is left out
of both CPU figures.  Imports are bracketed by :func:`import_probe`, a
fresh interpreter importing a fixed set of standard-library modules:
import time follows file-system and loader load on the host, which
:func:`probe` does not see.  The probes are benchmark code and import
nothing from coopsim, so a change to coopsim moves ``measured`` and not
``probe``.
The raw times and every probe are kept in the run's report.
"""

from __future__ import annotations

import subprocess
import sys
import time

ITERATIONS = 10_000
PIECES = 3
# median probe time on the 2-core x86-64 virtual machine the baseline was
# taken on; it only sets the scale, so scaled times read as seconds there
NOMINAL_S = 0.0035


def _piece() -> tuple[float, float]:
    t0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    table: dict[int, int] = {}
    items: list[int] = []
    for i in range(ITERATIONS):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
        items.append(acc & 255)
    items.sort()
    return time.perf_counter() - t0, time.process_time() - c0


def probe() -> tuple[float, float]:
    """Wall and CPU seconds for one fixed loop of integer, list and dict work.

    The loop runs ``PIECES`` times and the median of each is returned, so
    a hiccup that stalls one piece does not read as a slow host.
    """
    walls, cpus = zip(*(_piece() for _ in range(PIECES)))
    return sorted(walls)[PIECES // 2], sorted(cpus)[PIECES // 2]


def import_seconds(modules: str, env: dict | None = None, cwd=None) -> float:
    """Seconds a fresh interpreter takes to import ``modules`` (comma-separated)."""
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


# standard-library modules with both Python and C-extension parts; about
# 90 ms in a fresh interpreter on the baseline machine
IMPORT_SET = ("decimal, json, asyncio, email.parser, http.client, xml.etree.ElementTree, sqlite3, "
              "unittest, multiprocessing, concurrent.futures, logging, argparse, csv, zipfile, "
              "tarfile, ctypes, ssl")
IMPORT_NOMINAL_S = 0.090


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import ``IMPORT_SET``."""
    return import_seconds(IMPORT_SET)


def scaled(seconds: float, probe_s: float, nominal_s: float = NOMINAL_S) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at nominal speed."""
    return seconds * nominal_s / probe_s


def bracket(fn) -> tuple[float, float]:
    """Run ``fn()``; return its wall seconds and the mean wall time of the probes around it."""
    before = probe()[0]
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    return seconds, (before + probe()[0]) / 2
