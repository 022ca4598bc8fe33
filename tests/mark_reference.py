"""The mark-by-mark sampler, text reader and replay loops of coopsim 0.1.0.

The package now keeps an event log as numpy columns and replays it in C.
These are the versions it replaced, one :class:`Mark` tuple per mark, kept
as references: for a seed both must give the same marks, the same next
draw, the same text, the same final sites and the same error messages.
"""

import functools
from bisect import bisect_right

from coopsim import graphical as g
from coopsim import lattice
from coopsim.errors import DomainError, FlavorMismatch, InclusionViolation
from coopsim.lattice import COOPERATOR, DEFECTOR, EMPTY
from coopsim.graphical import (
    ARROW, C_PLUS_DOT_ARROW, CROSS, D_ARROW, D_PLUS_ARROW, DOT_ARROW, KIND_ORDER, Mark,
)


def sort_key(mark):
    return (
        mark.time,
        KIND_ORDER[mark.kind],
        mark.target,
        -1 if mark.source is None else mark.source,
        -1 if mark.dot is None else mark.dot,
    )


def neighbors(torus):
    """Each site's ``2 * dim`` neighbors as a tuple, read off the shape's int32 table."""
    nbr = lattice._geometry(torus.side, torus.dim).nbr
    return [tuple(row) for row in nbr.reshape(-1, 2 * torus.dim).tolist()]


def sample_marks(p, torus, t_max, rng, flavor=g.STANDARD, p2=None, history=2.0):
    """The marks ``sample_event_log`` draws, in log order."""
    rates = g._stream_intensities(p, flavor, p2)
    n = torus.n_sites
    two_d = 2 * torus.dim
    nbrs = neighbors(torus)
    marks = []
    for kind in sorted(rates, key=KIND_ORDER.get):
        rate = rates[kind]
        if rate <= 0.0:
            continue
        slots = g._SLOTS[kind]
        n_channels = n * two_d**slots
        count = int(rng.poisson(rate * n_channels * (t_max + history)))
        times = rng.uniform(-history, t_max, size=count)
        channels = rng.integers(0, n_channels, size=count)
        if slots == 0:
            marks.extend(Mark(float(t), kind, int(ch)) for t, ch in zip(times, channels))
        elif slots == 1:
            for t, ch in zip(times, channels):
                x, slot = divmod(int(ch), two_d)
                marks.append(Mark(float(t), kind, x, nbrs[x][slot]))
        else:
            for t, ch in zip(times, channels):
                x, rest = divmod(int(ch), two_d * two_d)
                slot_y, slot_z = divmod(rest, two_d)
                y = nbrs[x][slot_y]
                marks.append(Mark(float(t), kind, x, y, nbrs[y][slot_z]))
    return sorted(marks, key=sort_key)


def to_text(log, marks):
    """``log.to_text()`` with ``marks`` in place of the log's own."""
    lines = [
        "# coopsim event log v1",
        f"flavor={log.flavor}",
        f"window={log.t_start!r} {log.t_end!r}",
        f"history={log.history!r}",
        f"torus={log.side} {log.dim}",
        f"seed={'-' if log.seed is None else log.seed}",
    ]
    for kind in sorted(log.intensities):
        lines.append(f"intensity {kind}={log.intensities[kind]!r}")
    for m in marks:
        src = "-" if m.source is None else m.source
        dot = "-" if m.dot is None else m.dot
        lines.append(f"{m.time!r} {m.kind} {m.target} {src} {dot}")
    return "\n".join(lines) + "\n"


def read_marks(text):
    """The marks of well-formed :meth:`EventLog.to_text` output, line by line."""
    header = {}
    rows = []
    for no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("intensity "):
            continue
        if "=" in line and (key := line.split("=", 1)[0]) in g._HEADER:
            header[key] = g._HEADER[key](line.split("=", 1)[1])
        else:
            rows.append((no, line))
    (t_start, t_end), (side, dim) = header["window"], header["torus"]

    @functools.cache
    def site(token):
        value = int(token)
        if not 0 <= value < side**dim:
            raise ValueError(f"site {value} is off the {side**dim}-site torus")
        return value

    t_lo = t_start - header["history"]
    marks = []
    for no, line in rows:
        t_str, kind, x, y, z = line.split()
        t = float(t_str)
        if not t_lo <= t <= t_end:
            raise DomainError(f"event log line {no}: time {t!r} outside the log's span")
        marks.append(Mark(t, kind, site(x), None if y == "-" else site(y),
                          None if z == "-" else site(z)))
    return marks


def _window(marks, lo, hi):
    key = (lambda m: m.time)
    return marks[bisect_right(marks, lo, key=key):bisect_right(marks, hi, key=key)]


def evolve(c0, flavor, marks, lo, hi):
    """``evolve_from_log`` over the marks with lo < time <= hi."""
    if flavor not in (g.STANDARD, g.EQUAL_RATE):
        raise FlavorMismatch(f"cannot single-evolve a {flavor!r} log")
    state = c0.copy()
    sites = state.sites
    equal_rate = flavor == g.EQUAL_RATE
    for m in _window(marks, lo, hi):
        if m.kind == CROSS:
            sites[m.target] = EMPTY
        elif m.kind == ARROW:
            if sites[m.target] == EMPTY and sites[m.source] != EMPTY:
                sites[m.target] = sites[m.source]
        elif m.kind == D_ARROW:
            if sites[m.target] == EMPTY and sites[m.source] == DEFECTOR:
                sites[m.target] = DEFECTOR
        elif m.kind == DOT_ARROW:
            if sites[m.target] != EMPTY:
                continue
            src = sites[m.source]
            if src == COOPERATOR and sites[m.dot] == COOPERATOR:
                sites[m.target] = COOPERATOR
            elif equal_rate and src == DEFECTOR and m.dot != m.target:
                sites[m.target] = DEFECTOR
        else:
            raise FlavorMismatch(f"mark kind {m.kind!r} in a {flavor!r} log")
    return state


def coupled(c0_first, c0_second, marks, lo, hi):
    """``coupled_evolve``'s loop over the marks with lo < time <= hi, without its start check."""
    first, second = c0_first.copy(), c0_second.copy()
    s1, s2 = first.sites, second.sites
    for m in _window(marks, lo, hi):
        x = m.target
        if m.kind == CROSS:
            s1[x] = EMPTY
            s2[x] = EMPTY
        elif m.kind == ARROW:
            if s1[x] == EMPTY and s1[m.source] != EMPTY:
                s1[x] = s1[m.source]
            if s2[x] == EMPTY and s2[m.source] != EMPTY:
                s2[x] = s2[m.source]
        elif m.kind == D_ARROW:
            if s1[x] == EMPTY and s1[m.source] == DEFECTOR:
                s1[x] = DEFECTOR
            if s2[x] == EMPTY and s2[m.source] == DEFECTOR:
                s2[x] = DEFECTOR
        elif m.kind == DOT_ARROW:
            if s1[x] == EMPTY and s1[m.source] == COOPERATOR and s1[m.dot] == COOPERATOR:
                s1[x] = COOPERATOR
            if s2[x] == EMPTY and s2[m.source] == COOPERATOR and s2[m.dot] == COOPERATOR:
                s2[x] = COOPERATOR
        elif m.kind == C_PLUS_DOT_ARROW:
            if s1[x] == EMPTY and s1[m.source] == COOPERATOR and s1[m.dot] == COOPERATOR:
                s1[x] = COOPERATOR
        elif m.kind == D_PLUS_ARROW:
            if s2[x] == EMPTY and s2[m.source] == DEFECTOR:
                s2[x] = DEFECTOR
        if (s1[x], s2[x]) not in g.ALLOWED_PAIRS:
            raise InclusionViolation(
                f"pair ({lattice.STATE_CHARS[s1[x]]}, {lattice.STATE_CHARS[s2[x]]}) "
                f"at site {x}, time {m.time!r} after a {m.kind} mark"
            )
    return first, second
