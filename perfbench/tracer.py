"""In-memory span tracer that wraps a fixed list of public coopsim names.

The tracer lives in the benchmark, not in the package: ``install`` swaps
each named function for a wrapper in its defining module, in every other
coopsim module that imported it by name, or on its class, and
``uninstall`` puts the originals back.  A name that no longer exists is
recorded in ``missing`` and skipped, so deleting or renaming a traced
function never breaks the benchmark; the metrics that read it are then
reported as missing.

A span is (name, parent, label, round, start, end, work).  ``label`` is
the innermost span the benchmark opened itself with :meth:`Tracer.label`,
``round`` the benchmark round, and ``work`` a count taken from the call's
result (events, marks, segments, replicas, ...).  Spans are appended to
flat arrays, so a million of them cost about 40 MB.

Self time is a span's duration minus the intervals of its child spans.
The wrapper's own cost is measured once by :meth:`Tracer.calibrate` and
taken out: ``c_in`` is the part of it inside a span's interval, ``c_out``
the part a parent pays per child outside the child's interval.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import operator
import os
import sys
import time
from array import array
from typing import Callable

import numpy as np

_clock = time.perf_counter


def _marks(r):
    return float(len(r))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _window_count(log, lo=None, hi=None) -> float:
    """Marks with lo < time <= hi: the marks an evolution routine applies."""
    lo = log.t_start if lo is None else lo
    hi = log.t_end if hi is None else hi
    key = operator.attrgetter("time")
    return float(bisect.bisect_right(log.marks, hi, key=key) - bisect.bisect_right(log.marks, lo, key=key))


# (span name, module, attribute path, work from (args, kwargs, result))
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("lattice.step", "coopsim.lattice", "step", lambda a, k, r: float(r[0] is not None)),
    ("lattice.run", "coopsim.lattice", "run", None),
    ("lattice.survival_estimate", "coopsim.lattice", "survival_estimate",
     lambda a, k, r: float(len(r.outcomes))),
    ("lattice.Torus.__init__", "coopsim.lattice", "Torus.__init__", None),
    ("graphical.sample_event_log", "coopsim.graphical", "sample_event_log",
     lambda a, k, r: _marks(r)),
    ("graphical.evolve_from_log", "coopsim.graphical", "evolve_from_log",
     lambda a, k, r: _window_count(_arg(a, k, 1, "log"), k.get("t_from"), k.get("t_to"))),
    ("graphical.coupled_evolve", "coopsim.graphical", "coupled_evolve",
     lambda a, k, r: _window_count(_arg(a, k, 2, "log"))),
    ("graphical.EventLog.to_text", "coopsim.graphical", "EventLog.to_text",
     lambda a, k, r: _marks(a[0])),
    ("graphical.EventLog.from_text", "coopsim.graphical", "EventLog.from_text",
     lambda a, k, r: _marks(r)),
    ("graphical.classify_sterile", "coopsim.graphical", "classify_sterile", None),
    ("graphical.build_dual", "coopsim.graphical", "build_dual",
     lambda a, k, r: float(len(r.nodes))),
    ("graphical.resolve_origin_type", "coopsim.graphical", "resolve_origin_type", None),
    ("experiments.sweep_phase_diagram", "coopsim.experiments", "sweep_phase_diagram",
     lambda a, k, r: float(sum(p.replicas for p in r))),
    ("experiments.bracket_critical", "coopsim.experiments", "bracket_critical",
     lambda a, k, r: float(len(r.evaluations))),
    ("experiments.monotonicity_check", "coopsim.experiments", "monotonicity_check",
     lambda a, k, r: float(r.replicas)),
    ("mean_field.integrate", "coopsim.mean_field", "integrate",
     lambda a, k, r: float(len(r) - 1)),
    ("percolation.percolate", "coopsim.percolation", "percolate",
     lambda a, k, r: float(r.open_.size)),
    ("percolation.block_spread_estimate", "coopsim.percolation", "block_spread_estimate",
     lambda a, k, r: float(r.replicas)),
    ("cli.main", "coopsim.cli", "main", None),
]


# calibration: median over this many batches of this many no-op calls
CALIBRATION_BATCHES = 9
CALIBRATION_CALLS = 20_000


def _noop() -> None:
    pass


class Tracer:
    """Spans and counts of one benchmark run, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.missing: list[str] = []
        self.work_errors: set[str] = set()
        self.enabled = False
        self.round = -1
        self.c_in = 0.0
        self.c_out = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._clear()
        # pool workers forked from a traced process must not record spans
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _clear(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.label_of = array("i")
        self.round_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ----------------------------------------------------------- recording

    def _open(self, name_id: int, is_label: bool = False) -> int:
        idx = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        self.name.append(name_id)
        self.parent.append(parent)
        if is_label:
            self.label_of.append(name_id)
        else:
            self.label_of.append(self.label_of[parent] if parent >= 0 else -1)
        self.round_of.append(self.round)
        self.end.append(0.0)
        self.work.append(1.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def _finish(self, idx: int, end: float, work: float) -> None:
        self.end[idx] = end
        self.work[idx] = work
        self._stack.pop()

    def label(self, name: str):
        """Context manager opening a benchmark-owned span that labels its subtree."""
        return _Label(self, name)

    def _wrap(self, fn: Callable, span: str, work_fn: Callable | None) -> Callable:
        name_id = self._id(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._finish(idx, _clock(), 0.0)
                raise
            end = _clock()
            work = 1.0
            if work_fn is not None:
                try:
                    work = work_fn(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    work = float("nan")
                    tracer.work_errors.add(span)
            tracer._finish(idx, end, work)
            return result

        return traced

    # ------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for span, module_name, path, work_fn in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *head, attr = path.split(".")
                for part in head:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(span)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, span, work_fn))
            else:
                wrapped = self._wrap(raw, span, work_fn)
            self._rebind(owner, attr, raw, wrapped)
            if not isinstance(owner, type):
                # names imported with ``from module import name`` elsewhere
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not mod_name.startswith("coopsim"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._rebind(mod, key, raw, wrapped)

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def calibrate(self) -> None:
        """Measure the wrapper's cost inside (c_in) and outside (c_out) a span.

        Each batch times ``CALIBRATION_CALLS`` wrapped no-op calls under one
        parent span; the median over batches keeps a host hiccup in one
        batch out.
        """
        noop = self._wrap(_noop, "trace.calibrate.child", None)
        n = CALIBRATION_CALLS
        c_in, c_out = [], []
        for _ in range(CALIBRATION_BATCHES):
            self.enabled = True
            parent = self._open(self._id("trace.calibrate"))
            for _ in range(n):
                noop()
            self._finish(parent, _clock(), 1.0)
            self.enabled = False
            start = np.array(self.start)
            end = np.array(self.end)
            child = end[1:] - start[1:]
            c_in.append(float(np.median(child)))
            c_out.append(max(0.0, (end[0] - start[0] - child.sum()) / n))
            self._clear()
        self.c_in = float(np.median(c_in))
        self.c_out = float(np.median(c_out))

    # ------------------------------------------------------------ output

    def spans(self) -> "Spans":
        return Spans(self)

    def write(self, path: str) -> None:
        """Save every span, with the name table and calibration, as ``.npz``."""
        s = self.spans()
        np.savez(
            path,
            names=np.array(self.names),
            name=s.name,
            parent=s.parent,
            label=s.label,
            round=s.round,
            start=s.start,
            end=s.end,
            work=s.work,
            calibration=np.array([self.c_in, self.c_out]),
        )


class _Label:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name_id = tracer._id(name)
        self.idx = -1

    def __enter__(self):
        if self.tracer.enabled:
            self.idx = self.tracer._open(self.name_id, is_label=True)
        return self

    def __exit__(self, *exc):
        if self.idx >= 0:
            self.tracer._finish(self.idx, _clock(), 1.0)
        return False


class Spans:
    """Column view of the recorded spans with wrapper cost taken out."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.array(tracer.name, dtype=np.int32)
        self.parent = np.array(tracer.parent, dtype=np.int32)
        self.label = np.array(tracer.label_of, dtype=np.int32)
        self.round = np.array(tracer.round_of, dtype=np.int32)
        self.start = np.array(tracer.start, dtype=np.float64)
        self.end = np.array(tracer.end, dtype=np.float64)
        self.work = np.array(tracer.work, dtype=np.float64)
        raw = self.end - self.start
        child = self.parent >= 0
        covered = np.zeros(len(raw))
        np.add.at(covered, self.parent[child], raw[child] + tracer.c_out)
        self.dur = np.maximum(raw - tracer.c_in, 0.0)
        self.self_time = np.maximum(raw - covered - tracer.c_in, 0.0)
        self._ids = {name: i for i, name in enumerate(self.names)}

    def select(self, name: str, label: str | None = None, rounds=None) -> np.ndarray:
        """Mask of the spans called ``name`` (inside ``label``, in ``rounds``)."""
        mask = self.name == self._ids.get(name, -2)
        if label is not None:
            mask &= self.label == self._ids.get(label, -2)
        if rounds is not None:
            mask &= np.isin(self.round, list(rounds))
        return mask
