"""Poisson-mark construction of the process, couplings, and dual tracing.

The process on a torus can be built from independent Poisson streams of
space-time marks instead of an event-by-event Gillespie draw:

* ``cross`` at a site kills its occupant (rate 1 per site),
* ``arrow`` from y to x copies y's occupant onto an empty x
  (rate beta/2d per directed neighbor pair),
* ``dot_arrow`` from y to x with a dot at z (a neighbor of y) births a
  cooperator onto an empty x when both y and z host cooperators
  (rate beta_c/4d^2 per triple),
* ``d_arrow`` from y to x births a defector onto an empty x when y hosts
  one (rate beta_d/2d per directed pair).

Three flavors of mark-sets are sampled:

``standard``
    the four streams above.
``equal_rate``
    requires beta_c = 2d*beta_d/(2d-1); drops the d-arrow stream and lets
    defectors give birth through the dot-arrows whose dot is not the
    target.  The leftover self-dotted arrows (dot == target) can never
    fire, since their dot sits on the birth site, which must be empty.
``coupled``
    one shared mark-set driving two processes whose parameters differ in
    the type bonuses; difference streams ``c_plus_dot_arrow`` /
    ``d_plus_arrow`` act on only one of the two processes, which keeps the
    first process cooperator-heavier and defector-lighter site by site.

The module also classifies "sterile" dot-arrows (whose dot site is
provably empty from the local mark pattern alone) and traces the
backward-in-time tree of potential ancestors of a space-time point.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, NamedTuple

import numpy as np

from coopsim import lattice
from coopsim.errors import (
    BudgetExhausted,
    CouplingOrder,
    DomainError,
    FlavorMismatch,
    InclusionViolation,
    InsufficientHistory,
)
from coopsim.lattice import COOPERATOR, DEFECTOR, EMPTY, Torus
from coopsim.params import Params, require_equal_rate

STANDARD = "standard"
EQUAL_RATE = "equal_rate"
COUPLED = "coupled"

CROSS = "cross"
ARROW = "arrow"
DOT_ARROW = "dot_arrow"
D_ARROW = "d_arrow"
C_PLUS_DOT_ARROW = "c_plus_dot_arrow"
D_PLUS_ARROW = "d_plus_arrow"

# Deterministic tie-break order for equal-time marks.
KIND_ORDER = {
    CROSS: 0,
    ARROW: 1,
    DOT_ARROW: 2,
    D_ARROW: 3,
    C_PLUS_DOT_ARROW: 4,
    D_PLUS_ARROW: 5,
}

# Marks whose tip can place an occupant at their target site.
ARROW_KINDS = frozenset({ARROW, DOT_ARROW, D_ARROW, C_PLUS_DOT_ARROW, D_PLUS_ARROW})

_TIME = attrgetter("time")


def _two(convert, value: str) -> tuple:
    a, b = value.split()
    return convert(a), convert(b)


# The v1 text header: each key with the parser of its value.
_HEADER = {
    "flavor": str,
    "window": lambda value: _two(float, value),
    "history": float,
    "torus": lambda value: _two(int, value),
    "seed": lambda value: None if value == "-" else int(value),
}

# Checks a kind read from text, and gives every mark of a kind one shared string.
_KINDS = {kind: kind for kind in KIND_ORDER}


class Mark(NamedTuple):
    """One Poisson mark.  ``source``/``dot`` are None where meaningless."""

    time: float
    kind: str
    target: int
    source: int | None = None
    dot: int | None = None


def _sort_key(mark: Mark):
    return (
        mark.time,
        KIND_ORDER[mark.kind],
        mark.target,
        -1 if mark.source is None else mark.source,
        -1 if mark.dot is None else mark.dot,
    )


class EventLog:
    """Immutable, time-sorted mark collection over one sampling window.

    Marks cover ``[t_start - history, t_end]``; the sub-window before
    ``t_start`` exists only so that backward-looking classification near
    ``t_start`` has something to look at, and is never applied by the
    evolution routines.
    """

    __slots__ = (
        "t_start",
        "t_end",
        "history",
        "flavor",
        "marks",
        "intensities",
        "side",
        "dim",
        "seed",
        "_crosses_at",
        "_arrows_into",
    )

    def __init__(
        self,
        t_start: float,
        t_end: float,
        history: float,
        flavor: str,
        marks: Iterable[Mark],
        intensities: dict[str, float],
        side: int,
        dim: int,
        seed: int | None = None,
    ):
        if flavor not in (STANDARD, EQUAL_RATE, COUPLED):
            raise DomainError(f"unknown flavor {flavor!r}")
        if t_end < t_start:
            raise DomainError(f"empty window ({t_start}, {t_end})")
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.history = float(history)
        self.flavor = flavor
        self.marks = tuple(sorted(marks, key=_sort_key))
        self.intensities = dict(intensities)
        self.side = side
        self.dim = dim
        self.seed = seed
        self._crosses_at = None
        self._arrows_into = None

    def __len__(self) -> int:
        return len(self.marks)

    def window_marks(
        self, t_from: float | None = None, t_to: float | None = None
    ) -> Iterable[tuple[int, Mark]]:
        """Marks with t_from < time <= t_to (window bounds by default), with index."""
        lo = self.t_start if t_from is None else t_from
        hi = self.t_end if t_to is None else t_to
        for i, m in enumerate(self.marks):
            if m.time > lo:
                if m.time > hi:
                    break
                yield i, m

    def _ensure_site_indexes(self) -> None:
        """Build the per-site indexes once per log, in one pass over the marks.

        ``_crosses_at[site]`` holds the times of the crosses at ``site``;
        ``_arrows_into[site]`` holds the marks of every arrow kind whose
        target is ``site``, self-dotted ones included.  Both are
        time-ascending and keep log order among equal times.
        """
        if self._crosses_at is not None:
            return
        crosses: dict[int, list[float]] = {}
        arrows: dict[int, list[Mark]] = {}
        for m in self.marks:  # already time-sorted
            if m.kind == CROSS:
                crosses.setdefault(m.target, []).append(m.time)
            elif m.kind in ARROW_KINDS:
                arrows.setdefault(m.target, []).append(m)
        self._crosses_at = crosses
        self._arrows_into = arrows

    def last_cross_at(self, site: int, before: float) -> float | None:
        self._ensure_site_indexes()
        times = self._crosses_at.get(site)
        if not times:
            return None
        i = bisect_left(times, before)
        return times[i - 1] if i > 0 else None

    def last_arrow_into(self, site: int, before: float) -> float | None:
        self._ensure_site_indexes()
        arrows = self._arrows_into.get(site)
        if not arrows:
            return None
        i = bisect_left(arrows, before, key=_TIME)
        return arrows[i - 1].time if i > 0 else None

    # ------------------------------------------------------- serialization

    def to_text(self) -> str:
        lines = [
            "# coopsim event log v1",
            f"flavor={self.flavor}",
            f"window={self.t_start!r} {self.t_end!r}",
            f"history={self.history!r}",
            f"torus={self.side} {self.dim}",
            f"seed={'-' if self.seed is None else self.seed}",
        ]
        for kind in sorted(self.intensities):
            lines.append(f"intensity {kind}={self.intensities[kind]!r}")
        for m in self.marks:
            src = "-" if m.source is None else m.source
            dot = "-" if m.dot is None else m.dot
            lines.append(f"{m.time!r} {m.kind} {m.target} {src} {dot}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EventLog":
        """Read :meth:`to_text` output; malformed text raises :class:`DomainError` naming its line."""
        header: dict[str, object] = {}
        intensities: dict[str, float] = {}
        rows: list[tuple[int, str]] = []  # (line number, text) of each mark line
        for no, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if line.startswith("intensity "):
                    key, value = line[len("intensity "):].split("=", 1)
                    intensities[key] = float(value)
                elif "=" in line and (key := line.split("=", 1)[0]) in _HEADER:
                    header[key] = _HEADER[key](line.split("=", 1)[1])
                else:
                    rows.append((no, line))
            except ValueError as exc:
                raise DomainError(f"event log line {no} {line!r}: {exc}") from None
        missing = _HEADER.keys() - header.keys()
        if missing:
            raise DomainError(f"event log has no {min(missing)}= line")
        (t_start, t_end), (side, dim) = header["window"], header["torus"]
        if side < 2 or dim < 1:
            raise DomainError(f"event log torus needs side >= 2 and dim >= 1, got {side} {dim}")

        @functools.cache  # each distinct site token is parsed and checked once
        def site(token: str) -> int:
            value = int(token)
            if not 0 <= value < side**dim:
                raise ValueError(f"site {value} is off the {side**dim}-site torus")
            return value

        marks: list[Mark] = []
        for no, line in rows:
            try:
                t_str, kind, x, y, z = line.split()
                marks.append(Mark(float(t_str), _KINDS[kind], site(x),
                                  None if y == "-" else site(y), None if z == "-" else site(z)))
            except KeyError:
                raise DomainError(f"event log line {no} {line!r}: unknown mark kind") from None
            except ValueError as exc:
                raise DomainError(f"event log line {no} {line!r}: {exc}") from None
        return cls(
            t_start=t_start,
            t_end=t_end,
            history=header["history"],
            flavor=header["flavor"],
            marks=marks,
            intensities=intensities,
            side=side,
            dim=dim,
            seed=header["seed"],
        )


def _stream_intensities(p: Params, flavor: str, p2: Params | None) -> dict[str, float]:
    """Per-channel rates, keyed by mark kind."""
    two_d = 2.0 * p.dim
    if flavor == STANDARD:
        return {
            CROSS: 1.0,
            ARROW: p.beta / two_d,
            DOT_ARROW: p.beta_c / (two_d * two_d),
            D_ARROW: p.beta_d / two_d,
        }
    if flavor == EQUAL_RATE:
        require_equal_rate(p, "equal-rate sampling")
        return {
            CROSS: 1.0,
            ARROW: p.beta / two_d,
            DOT_ARROW: p.beta_c / (two_d * two_d),
        }
    if flavor == COUPLED:
        if p2 is None:
            raise DomainError("coupled sampling needs the second parameter set")
        if p2.dim != p.dim or p2.beta != p.beta:
            raise CouplingOrder("coupled processes must share beta and dim")
        if p.beta_c < p2.beta_c or p.beta_d > p2.beta_d:
            raise CouplingOrder(
                "first process must have beta_c >= and beta_d <= the second's"
            )
        return {
            CROSS: 1.0,
            ARROW: p.beta / two_d,
            DOT_ARROW: p2.beta_c / (two_d * two_d),
            D_ARROW: p.beta_d / two_d,
            C_PLUS_DOT_ARROW: (p.beta_c - p2.beta_c) / (two_d * two_d),
            D_PLUS_ARROW: (p2.beta_d - p.beta_d) / two_d,
        }
    raise DomainError(f"unknown flavor {flavor!r}")


def sample_event_log(
    p: Params,
    torus: Torus,
    t_max: float,
    rng: np.random.Generator,
    flavor: str = STANDARD,
    p2: Params | None = None,
    history: float = 2.0,
    seed: int | None = None,
) -> EventLog:
    """Draw every Poisson stream over ``[-history, t_max]``.

    Channel counts: per site there are 2d directed arrow channels (one per
    neighbor slot) and 4d^2 dot channels (neighbor slot for the source,
    neighbor-of-source slot for the dot).  Streams are drawn in a fixed
    order so a given generator state always yields the same log.
    """
    if not 0 < t_max < math.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    if not 0 <= history < math.inf:
        raise DomainError(f"history must be nonnegative and finite, got {history}")
    if torus.dim != p.dim:
        raise DomainError(f"params dim {p.dim} != torus dim {torus.dim}")
    rates = _stream_intensities(p, flavor, p2)
    n = torus.n_sites
    two_d = 2 * torus.dim
    duration = t_max + history
    t_lo = -history
    neighbors = torus.neighbors

    marks: list[Mark] = []
    for kind in sorted(rates, key=KIND_ORDER.get):
        rate = rates[kind]
        if kind == CROSS:
            n_channels = n
        elif kind in (ARROW, D_ARROW, D_PLUS_ARROW):
            n_channels = n * two_d
        else:
            n_channels = n * two_d * two_d
        if rate <= 0.0:
            continue
        count = int(rng.poisson(rate * n_channels * duration))
        times = rng.uniform(t_lo, t_max, size=count)
        channels = rng.integers(0, n_channels, size=count)
        if kind == CROSS:
            marks.extend(
                Mark(float(t), kind, int(ch)) for t, ch in zip(times, channels)
            )
        elif kind in (ARROW, D_ARROW, D_PLUS_ARROW):
            for t, ch in zip(times, channels):
                x, slot = divmod(int(ch), two_d)
                marks.append(Mark(float(t), kind, x, neighbors[x][slot]))
        else:  # dot-arrow families
            for t, ch in zip(times, channels):
                x, rest = divmod(int(ch), two_d * two_d)
                slot_y, slot_z = divmod(rest, two_d)
                y = neighbors[x][slot_y]
                marks.append(Mark(float(t), kind, x, y, neighbors[y][slot_z]))
    return EventLog(
        t_start=0.0,
        t_end=t_max,
        history=history,
        flavor=flavor,
        marks=marks,
        intensities=rates,
        side=torus.side,
        dim=torus.dim,
        seed=seed,
    )


# ------------------------------------------------------------------ evolution


def _check_geometry(c0: Torus, log: EventLog) -> None:
    if (c0.side, c0.dim) != (log.side, log.dim):
        raise DomainError(
            f"configuration torus {(c0.side, c0.dim)} does not match "
            f"log torus {(log.side, log.dim)}"
        )


def evolve_from_log(
    c0: Torus,
    log: EventLog,
    drop_self_dotted: bool = False,
    cooperator_blocked: frozenset[int] | set[int] = frozenset(),
    t_from: float | None = None,
    t_to: float | None = None,
) -> Torus:
    """Deterministically apply the window marks to a copy of ``c0``.

    ``drop_self_dotted`` ignores dot-arrows whose dot is their own target.
    ``cooperator_blocked`` holds mark indexes (positions in ``log.marks``)
    whose cooperator-birth eligibility is suppressed; defector use of the
    same marks, where the flavor allows it, is unaffected.  ``t_from`` /
    ``t_to`` override the applied sub-window, e.g. to warm a configuration
    up through the pre-window history marks.
    """
    if log.flavor not in (STANDARD, EQUAL_RATE):
        raise FlavorMismatch(f"cannot single-evolve a {log.flavor!r} log")
    _check_geometry(c0, log)
    state = c0.copy()
    sites = state.sites
    equal_rate = log.flavor == EQUAL_RATE
    for idx, m in log.window_marks(t_from, t_to):
        if m.kind == CROSS:
            sites[m.target] = EMPTY
        elif m.kind == ARROW:
            if sites[m.target] == EMPTY and sites[m.source] != EMPTY:
                sites[m.target] = sites[m.source]
        elif m.kind == D_ARROW:
            if sites[m.target] == EMPTY and sites[m.source] == DEFECTOR:
                sites[m.target] = DEFECTOR
        elif m.kind == DOT_ARROW:
            if drop_self_dotted and m.dot == m.target:
                continue
            if sites[m.target] != EMPTY:
                continue
            src = sites[m.source]
            if (
                src == COOPERATOR
                and sites[m.dot] == COOPERATOR
                and idx not in cooperator_blocked
            ):
                sites[m.target] = COOPERATOR
            elif equal_rate and src == DEFECTOR and m.dot != m.target:
                sites[m.target] = DEFECTOR
        else:  # difference streams never appear outside coupled logs
            raise FlavorMismatch(f"mark kind {m.kind!r} in a {log.flavor!r} log")
    return state


# Pairs (first-process state, second-process state) preserved by every mark.
ALLOWED_PAIRS = frozenset(
    {
        (COOPERATOR, COOPERATOR),
        (DEFECTOR, DEFECTOR),
        (EMPTY, EMPTY),
        (COOPERATOR, DEFECTOR),
        (COOPERATOR, EMPTY),
        (EMPTY, DEFECTOR),
    }
)


def coupled_evolve(c0_first: Torus, c0_second: Torus, log: EventLog) -> tuple[Torus, Torus]:
    """Drive both processes off one shared coupled-flavor log.

    The first process must start cooperator-richer and defector-poorer
    site by site; every mark preserves that comparison, which the routine
    re-checks at each application.
    """
    if log.flavor != COUPLED:
        raise FlavorMismatch(f"coupled_evolve needs a coupled log, got {log.flavor!r}")
    _check_geometry(c0_first, log)
    _check_geometry(c0_second, log)
    for x, (a, b) in enumerate(zip(c0_first.sites, c0_second.sites)):
        if (a, b) not in ALLOWED_PAIRS:
            raise DomainError(
                f"initial configurations violate the coupling order at site {x}: "
                f"({lattice.STATE_CHARS[a]}, {lattice.STATE_CHARS[b]})"
            )
    first = c0_first.copy()
    second = c0_second.copy()
    s1, s2 = first.sites, second.sites
    for _, m in log.window_marks():
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
        if (s1[x], s2[x]) not in ALLOWED_PAIRS:
            raise InclusionViolation(
                f"pair ({lattice.STATE_CHARS[s1[x]]}, {lattice.STATE_CHARS[s2[x]]}) "
                f"at site {x}, time {m.time!r} after a {m.kind} mark"
            )
    return first, second


# --------------------------------------------------------------- sterility


def sterile_probability(beta: float, beta_c: float) -> float:
    """Chance that a dot-arrow's local mark pattern proves its dot empty.

    The dot site is provably empty when its last death mark is less than
    one time unit old while its last incoming arrow is between one and two
    units old: the death happened after the arrow, and no birth has been
    possible since.
    """
    s = beta + beta_c
    if s <= 0:
        raise DomainError(f"need beta + beta_c > 0, got {s}")
    return (1.0 - math.exp(-1.0)) * (1.0 - math.exp(-s)) * math.exp(-s)


def classify_sterile(log: EventLog, mark_index: int) -> bool:
    """Decide sterility of the dot-arrow at ``log.marks[mark_index]``.

    Writing s for the mark time, u for the last death mark at the dot site
    and v for the last arrow of any kind pointing at the dot site, the
    mark is sterile exactly when s - u < 1 < s - v < 2.  Raises
    :class:`InsufficientHistory` when the sampled window cannot pin down
    the truth value.
    """
    if not 0 <= mark_index < len(log.marks):
        raise DomainError(f"no mark at index {mark_index}")
    mark = log.marks[mark_index]
    if mark.kind not in (DOT_ARROW, C_PLUS_DOT_ARROW):
        raise DomainError(f"mark {mark_index} is a {mark.kind}, not a dot-arrow")
    z = mark.dot
    s = mark.time
    lo = log.t_start - log.history

    u = log.last_cross_at(z, s)
    if u is None:
        if lo <= s - 1.0:
            return False  # any unseen death mark is at least one unit old
        raise InsufficientHistory(
            f"cannot locate the last death mark at site {z} before {s!r}"
        )
    if not s - u < 1.0:
        return False

    v = log.last_arrow_into(z, s)
    if v is None:
        if lo <= s - 2.0:
            return False  # any unseen arrow is at least two units old
        raise InsufficientHistory(
            f"cannot locate the last arrow into site {z} before {s!r}"
        )
    return 1.0 < s - v < 2.0


def estimate_sterile(
    beta: float,
    beta_c: float,
    replicas: int,
    rng: np.random.Generator,
    side: int = 60,
    window: float = 20.0,
) -> tuple[float, float]:
    """Monte Carlo sterile frequency of dot-arrows at well-separated probes.

    Samples standard-flavor logs (with no defector bonus, so that arrows
    into a site arrive at total rate beta + beta_c) and classifies one
    probe dot-arrow per cell of a fixed space-time grid whose cells are
    more than 2 apart in space or in time.  Conditioning a Poisson stream
    on carrying a point at a chosen location leaves the remaining marks'
    law untouched, so inserting the probes instead of hunting for nearby
    realized marks loads no bias into their surroundings, and the grid
    separation makes the classifications read disjoint mark sets: the
    samples are independent Bernoulli draws.  Competitive selection among
    the realized dot-arrows would instead skew the local mark pattern
    (being picked anti-correlates with recent arrows into the dot site).

    Returns the sterile frequency and its binomial standard error.
    """
    if replicas < 1:
        raise DomainError(f"need at least one sample, got {replicas}")
    if not (side >= 8 and 1.0 < window < math.inf):
        raise DomainError(f"probe grid needs side >= 8 and finite window > 1, got {side}, {window}")
    p = Params(beta, beta_c, 0.0, 1)
    torus = Torus(side, 1)
    probe_sites = range(0, side - 4, 5)  # pairwise torus distance >= 5
    probe_times = np.arange(0.5, window, 3.0)  # pairwise gap 3 > 2
    done = 0
    sterile_total = 0
    while done < replicas:
        base = sample_event_log(p, torus, window, rng, flavor=STANDARD)
        probes = [
            # dot at z, source z+1, target z+2: never an arrow into any probe site
            Mark(float(s), DOT_ARROW, (z + 2) % side, (z + 1) % side, z)
            for z in probe_sites
            for s in probe_times
        ]
        log = EventLog(
            t_start=base.t_start,
            t_end=base.t_end,
            history=base.history,
            flavor=base.flavor,
            marks=base.marks + tuple(probes),
            intensities=base.intensities,
            side=base.side,
            dim=base.dim,
        )
        probe_keys = {(m.time, m.dot) for m in probes}
        for i, m in enumerate(log.marks):
            if m.kind == DOT_ARROW and (m.time, m.dot) in probe_keys:
                sterile_total += classify_sterile(log, i)
                done += 1
                if done == replicas:
                    break
    return lattice.binomial_estimate(sterile_total, replicas)


# --------------------------------------------------------------- dual tree


@dataclass(frozen=True, slots=True)
class DualNode:
    """One backward path segment of the ancestor tree.

    ``sigma`` counts dual time: 0 at the tree origin, growing toward the
    past.  ``sigma_stop`` is the dual time of the stopping death mark, or
    the window horizon when the segment reaches the bottom alive.
    """

    site: int
    index: tuple[int, ...]
    sigma_start: float
    sigma_stop: float
    stopped_by_cross: bool


@dataclass(frozen=True, slots=True)
class DualTree:
    origin_site: int
    origin_time: float
    horizon: float  # largest dual time traced (origin_time - log.t_start)
    nodes: tuple[DualNode, ...]  # in hierarchy order

    def ancestors_at_horizon(self) -> list[DualNode]:
        """Segments alive at the window bottom, in hierarchy order."""
        return [n for n in self.nodes if not n.stopped_by_cross]


def build_dual(log: EventLog, x: int, t: float, max_nodes: int = 1_000_000) -> DualTree:
    """Trace every potential-ancestor path of ``(x, t)`` back to the window start.

    Self-dotted arrows are skipped (they can never place an occupant), all
    other arrow kinds are crossed tail-ward.  Children of a segment are
    indexed 1, 2, ... in the order their arrows are met walking up from
    the segment's stopping mark.

    The walk reads the log's per-site indexes (built once per log, in one
    O(marks) pass, and shared with :func:`classify_sterile`): each segment
    costs three bisections into its site's lists plus its own children, so
    a query is O(segments x log marks) and never rescans the log.
    Children are pushed latest first, so segments come off the
    stack, and into ``nodes``, in hierarchy order: a preorder walk.  When
    the tree has more than ``max_nodes`` segments, :class:`BudgetExhausted`
    carries the first ``max_nodes`` of them in that order, a prefix of the
    full tree, as ``partial``.
    """
    if not (log.t_start < t <= log.t_end):
        raise DomainError(f"time {t!r} outside the log window")
    if not (0 <= x < log.side**log.dim):
        raise DomainError(f"site {x} not on the log's torus")

    log._ensure_site_indexes()
    arrows_into = log._arrows_into
    nodes: list[DualNode] = []
    # Work stack of (site, real time the segment is entered, hierarchy index).
    stack: list[tuple[int, float, tuple[int, ...]]] = [(x, t, (1,))]
    while stack:
        site, r_hi, index = stack.pop()
        if len(nodes) >= max_nodes:
            err = BudgetExhausted(f"dual tree exceeded {max_nodes} segments")
            err.partial = tuple(nodes)
            raise err
        cross = log.last_cross_at(site, r_hi)
        if cross is not None and cross >= log.t_start:
            r_lo, stopped = cross, True
        else:
            r_lo, stopped = log.t_start, False
        nodes.append(
            DualNode(
                site=site,
                index=index,
                sigma_start=t - r_hi,
                sigma_stop=t - r_lo,
                stopped_by_cross=stopped,
            )
        )
        # Arrows strictly inside (r_lo, r_hi); r_hi <= t, so none is later than t.
        arrows = arrows_into.get(site, ())
        lo = bisect_right(arrows, r_lo, key=_TIME)
        hi = bisect_left(arrows, r_hi, lo, key=_TIME)
        feeders = [m for m in arrows[lo:hi] if m.dot != m.target]
        for i in range(len(feeders), 0, -1):
            m = feeders[i - 1]
            stack.append((m.source, m.time, index + (i,)))
    return DualTree(origin_site=x, origin_time=t, horizon=t - log.t_start, nodes=tuple(nodes))


ORIGIN_EMPTY = "empty"
ORIGIN_DEFECTOR = "defector"
ORIGIN_INDETERMINATE = "indeterminate"


def resolve_origin_type(tree: DualTree, initial: Torus) -> str:
    """Partial type resolution of the tree origin from the starting state.

    If every window-surviving ancestor starts empty, nothing could have
    propagated up and the origin is empty.  If the first occupied ancestor
    in hierarchy order holds a defector, the origin holds one too, because
    defectors travel through every arrow unconditionally.  A first
    occupied ancestor holding a cooperator is not resolved: its climb may
    be blocked at any dot-arrow whose dot state the tree does not carry.
    """
    for node in tree.ancestors_at_horizon():
        state = initial.sites[node.site]
        if state == EMPTY:
            continue
        return ORIGIN_DEFECTOR if state == DEFECTOR else ORIGIN_INDETERMINATE
    return ORIGIN_EMPTY
