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
import gc
import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from coopsim import _engine, lattice
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

# Deterministic tie-break order for equal-time marks, and each kind's code
# in a log's ``kind`` column (the codes of ``_engine.c``).
KIND_ORDER = {
    CROSS: 0,
    ARROW: 1,
    DOT_ARROW: 2,
    D_ARROW: 3,
    C_PLUS_DOT_ARROW: 4,
    D_PLUS_ARROW: 5,
}
_KIND_NAMES = tuple(sorted(KIND_ORDER, key=KIND_ORDER.get))
_CROSS, _ARROW, _DOT_ARROW, _D_ARROW, _C_PLUS_DOT_ARROW, _D_PLUS_ARROW = range(len(_KIND_NAMES))
_KIND_OBJECTS = np.array(_KIND_NAMES, dtype=object)  # the same str objects, indexed by code

# Marks that the mark views make from one slice of the columns: enough to
# spread each slice's cost, few enough that a pass holds little at once.
_MARK_CHUNK = 4096

# Neighbor slots in each kind's channel: a cross has one channel per site, an
# arrow one per (site, neighbor slot of the source), a dot-arrow one per
# (site, source slot, dot slot among the source's neighbors).
_SLOTS = {CROSS: 0, ARROW: 1, D_ARROW: 1, D_PLUS_ARROW: 1, DOT_ARROW: 2, C_PLUS_DOT_ARROW: 2}

# Marks whose tip can place an occupant at their target site.
ARROW_KINDS = frozenset({ARROW, DOT_ARROW, D_ARROW, C_PLUS_DOT_ARROW, D_PLUS_ARROW})


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


def _check_header(t_start, t_end, history, flavor, side, dim) -> None:
    """The checks every log header passes, whether built directly or read from text."""
    if flavor not in (STANDARD, EQUAL_RATE, COUPLED):
        raise DomainError(f"unknown flavor {flavor!r}")
    if not -math.inf < t_start <= t_end < math.inf:
        raise DomainError(f"event log window must be finite and nonempty, got ({t_start}, {t_end})")
    if not 0 <= history < math.inf:
        raise DomainError(f"event log history must be nonnegative and finite, got {history}")
    if side < 2 or dim < 1:
        raise DomainError(f"event log torus needs side >= 2 and dim >= 1, got {side} {dim}")
    lattice.site_count(side, dim)


class Mark(NamedTuple):
    """One Poisson mark.  ``source``/``dot`` are None where meaningless."""

    time: float
    kind: str
    target: int
    source: int | None = None
    dot: int | None = None


class _Columns(NamedTuple):
    """Marks as parallel arrays: kind codes, and -1 for a missing source or dot."""

    time: np.ndarray
    kind: np.ndarray
    target: np.ndarray
    source: np.ndarray
    dot: np.ndarray

    @classmethod
    def of(cls, time, kind, target, source, dot) -> "_Columns":
        # contiguous: the compiled replay loops read the buffers directly
        return cls(np.ascontiguousarray(time, dtype=np.float64),
                   np.ascontiguousarray(kind, dtype=np.int8),
                   *(np.ascontiguousarray(c, dtype=np.int32) for c in (target, source, dot)))


def _checked_columns(marks: Iterable[Mark], t_lo: float, t_hi: float, n_sites: int) -> _Columns:
    """Columns of marks built in code, each kind known, each time finite and in
    [t_lo, t_hi] and each site on the torus: replay bisects the marks by time,
    so a NaN time would misplace others."""
    marks = list(marks)
    try:
        kind = [KIND_ORDER[m.kind] for m in marks]
    except KeyError as exc:
        raise DomainError(f"unknown mark kind {exc.args[0]!r}") from None
    time = np.array([m.time for m in marks], dtype=np.float64)
    sites = {
        "target": np.array([m.target for m in marks], dtype=np.int64),
        "source": np.array([-1 if m.source is None else m.source for m in marks], dtype=np.int64),
        "dot": np.array([-1 if m.dot is None else m.dot for m in marks], dtype=np.int64),
    }
    if marks and not (t_lo <= time.min() and time.max() <= t_hi):  # NaN fails both
        t = float(time[~((t_lo <= time) & (time <= t_hi))][0])
        raise DomainError(f"mark time {t!r} is outside the log's span [{t_lo!r}, {t_hi!r}]")
    for name, column in sites.items():
        lowest = 0 if name == "target" else -1
        if marks and (column.min() < lowest or column.max() >= n_sites):
            site = int(column[(column < lowest) | (column >= n_sites)][0])
            raise DomainError(f"mark {name} {site} is off the {n_sites}-site torus")
    return _Columns.of(time, kind, *sites.values())


class _SiteIndex(NamedTuple):
    """Per-site lists as flat read-only arrays: site x's entries sit at
    ``[ptr[x], ptr[x + 1])``, in log order.

    ``cross_*`` hold the crosses at each site; ``arrow_*`` every mark of an
    arrow kind aimed at each site, self-dotted ones included, with its
    source and whether it can feed its target (its dot is not the target).
    ``view`` is their C view, or ``None`` until the compiled engine reads
    them.
    """

    cross_ptr: np.ndarray  # int32, one more than the sites
    cross_time: np.ndarray  # float64
    arrow_ptr: np.ndarray  # int32, one more than the sites
    arrow_time: np.ndarray  # float64
    arrow_source: np.ndarray  # int32
    arrow_feeds: np.ndarray  # int8
    view: _engine.SiteIndex | None = None


def _last_before(ptr: memoryview, times: memoryview, site: int, before: float) -> float | None:
    """The last of ``site``'s entries in ``times`` before ``before``, or None."""
    lo = ptr[site]
    i = bisect_left(times, before, lo, ptr[site + 1])
    return times[i - 1] if i > lo else None


def _integer(value, what: str) -> int:
    """``value`` as an int, as ``operator.index`` takes it; anything else raises DomainError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} {value!r} is not an integer") from None


class EventLog:
    """Immutable, time-sorted mark collection over one sampling window.

    Marks cover ``[t_start - history, t_end]``; the sub-window before
    ``t_start`` exists only so that backward-looking classification near
    ``t_start`` has something to look at, and is never applied by the
    evolution routines.

    The marks are stored as five read-only columns sorted by (time, kind
    code, target, source, dot): ``time`` (float64), ``kind`` (int8,
    :data:`KIND_ORDER` codes) and ``target``, ``source``, ``dot`` (int32
    sites, -1 for none).  ``marks`` is the same log as a tuple of
    :class:`Mark`, built on first access and then kept; ``window_marks``
    streams its marks from the columns and keeps none.
    """

    __slots__ = (
        "t_start",
        "t_end",
        "history",
        "flavor",
        "time",
        "kind",
        "target",
        "source",
        "dot",
        "intensities",
        "side",
        "dim",
        "seed",
        "_marks",
        "_index",
        "_probe",
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
        _check_header(t_start, t_end, history, flavor, side, dim)
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.history = float(history)
        self.flavor = flavor
        if isinstance(marks, _Columns):  # drawn, read from checked text, or edited here
            columns = marks
        else:
            columns = _checked_columns(marks, self.t_start - self.history, self.t_end, side**dim)
        time = columns.time
        if not (time[:-1] < time[1:]).all():  # text written by to_text is already in order
            # distinct times order the marks alone, so any sort will do; ties
            # need the other keys
            order = np.argsort(time)
            if not (time[order[:-1]] < time[order[1:]]).all():
                order = np.lexsort(columns[::-1])
            columns = [c[order] for c in columns]
        for name, column in zip(_Columns._fields, _Columns.of(*columns)):
            column.flags.writeable = False
            setattr(self, name, column)
        self.intensities = dict(intensities)
        self.side = side
        self.dim = dim
        self.seed = seed
        self._marks = None
        self._index = None
        self._probe = None

    def __len__(self) -> int:
        return len(self.time)

    @property
    def marks(self) -> tuple[Mark, ...]:
        """The marks as :class:`Mark` tuples, in log order, built on first
        access and kept for the log's life."""
        if self._marks is None:
            self._marks = tuple(self._iter_marks(0, len(self)))
        return self._marks

    def _iter_marks(self, lo: int, hi: int) -> Iterator[Mark]:
        """Marks [lo, hi) as :class:`Mark` tuples, made from the columns
        ``_MARK_CHUNK`` at a time, so that no more than a chunk's objects
        exist ahead of their use."""
        def chunks():
            for a in range(lo, hi, _MARK_CHUNK):
                b = min(a + _MARK_CHUNK, hi)
                source, dot = self.source[a:b], self.dot[a:b]
                yield map(tuple.__new__, itertools.repeat(Mark), zip(
                    self.time[a:b].tolist(), _KIND_OBJECTS[self.kind[a:b]].tolist(),
                    self.target[a:b].tolist(), np.where(source < 0, None, source).tolist(),
                    np.where(dot < 0, None, dot).tolist()))
        return itertools.chain.from_iterable(chunks())

    def _columns(self) -> _Columns:
        return _Columns(self.time, self.kind, self.target, self.source, self.dot)

    def with_marks(self, marks: Iterable[Mark]) -> "EventLog":
        """A log with this header over other marks."""
        return EventLog(self.t_start, self.t_end, self.history, self.flavor, marks,
                        self.intensities, self.side, self.dim, self.seed)

    def _window(self, t_from: float | None, t_to: float | None) -> slice:
        """Index slice of the marks with t_from < time <= t_to (window bounds by default)."""
        lo = self.t_start if t_from is None else t_from
        hi = self.t_end if t_to is None else t_to
        if math.isnan(lo) or math.isnan(hi):
            raise DomainError(f"window bounds must not be NaN, got ({lo}, {hi})")
        start, stop = np.searchsorted(self.time, (lo, hi), side="right").tolist()
        return slice(start, stop)

    def window_marks(
        self, t_from: float | None = None, t_to: float | None = None
    ) -> Iterable[tuple[int, Mark]]:
        """Marks with t_from < time <= t_to (window bounds by default), with
        index.  They stream from the columns a chunk at a time; this does
        not build ``marks``."""
        window = self._window(t_from, t_to)
        return enumerate(self._iter_marks(window.start, window.stop), window.start)

    def _site_index(self) -> _SiteIndex:
        """The per-site index, built once per log: by one counting pass in
        ``_engine.c`` when the compiled module loads, else by two stable
        sorts on the target."""
        if self._index is None:
            if len(self) > lattice.MAX_SITES:  # the offsets are int32
                raise DomainError(f"a log of more than {lattice.MAX_SITES} marks has no site index")
            n_sites = self.side**self.dim
            crosses = self.kind == _CROSS  # every other kind is an arrow kind
            module = _engine.load()
            if module is None:
                crosses, arrows = np.flatnonzero(crosses), np.flatnonzero(~crosses)
                crosses = crosses[np.argsort(self.target[crosses], kind="stable")]
                arrows = arrows[np.argsort(self.target[arrows], kind="stable")]
                sites = np.arange(n_sites + 1)
                index = _SiteIndex(
                    np.searchsorted(self.target[crosses], sites).astype(np.int32),
                    self.time[crosses],
                    np.searchsorted(self.target[arrows], sites).astype(np.int32),
                    self.time[arrows],
                    self.source[arrows],
                    (self.dot[arrows] != self.target[arrows]).astype(np.int8),
                )
            else:
                arrays, view = _engine.site_index(module, self._columns(), self.t_start - self.history,
                                                  n_sites, int(np.count_nonzero(crosses)))
                index = _SiteIndex(*arrays, view)
            for array in index[:-1]:
                array.flags.writeable = False
            self._index = index
        return self._index

    def _site_view(self, module) -> _engine.SiteIndex:
        """The C view of the per-site index, made when first read."""
        index = self._index
        if index is None or index.view is None:  # or built while the compiled module was not loaded
            index = self._site_index()
            view = index.view or _engine.SiteIndex(module, self._columns(), self.t_start - self.history,
                                                   index[:-1])
            index = self._index = index._replace(view=view)
        return index.view

    def _site(self, site) -> int:
        """``site`` as an int on the log's torus; anything else raises DomainError."""
        x = _integer(site, "site")
        if not 0 <= x < self.side**self.dim:
            raise DomainError(f"site {x} not on the log's torus")
        return x

    def last_cross_at(self, site: int, before: float) -> float | None:
        """The time of the last cross at ``site`` before ``before``, or None."""
        x, index = self._site(site), self._site_index()
        return _last_before(memoryview(index.cross_ptr), memoryview(index.cross_time), x, before)

    def last_arrow_into(self, site: int, before: float) -> float | None:
        """The time of the last mark of an arrow kind aimed at ``site`` before ``before``, or None."""
        x, index = self._site(site), self._site_index()
        return _last_before(memoryview(index.arrow_ptr), memoryview(index.arrow_time), x, before)

    # ------------------------------------------------------- serialization

    def to_text(self) -> str:
        """The log as text: header lines, then one line per mark.

        The mark lines come from ``_engine.c``'s formatter when the compiled
        module loads, else from the same format in Python; the bytes are
        the same.
        """
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
        module = _engine.load()
        marks = None if module is None else _engine.format_marks(
            module, self._columns(), _KIND_NAMES, self.side**self.dim)
        if marks is None:
            # the sites the marks name, and -1 for none: not every site of the torus
            sites = np.unique(np.concatenate((self.target, self.source, self.dot))).tolist()
            names = dict(zip(sites, map(str, sites))) | {-1: "-"}
            marks = "".join(
                f"{t!r} {_KIND_NAMES[k]} {names[x]} {names[y]} {names[z]}\n"
                for t, k, x, y, z in zip(*(c.tolist() for c in self._columns()))
            )
        return "\n".join(lines) + "\n" + marks

    @classmethod
    def from_text(cls, text: str) -> "EventLog":
        """Read :meth:`to_text` output; malformed text raises :class:`DomainError` naming its line.

        When the compiled module loads, the mark lines after the leading
        header go through ``_engine.c``'s parser, which takes only lines as
        :meth:`to_text` writes them.  Any other text, and all text without
        the module, goes through the Python loop, which also reads lenient
        lines and names the line of each error.
        """
        module = _engine.load()
        read = None if module is None else _read_text_compiled(module, text)
        header, intensities, columns = read or _read_text(text)
        (t_start, t_end), (side, dim) = header["window"], header["torus"]
        return cls(
            t_start=t_start,
            t_end=t_end,
            history=header["history"],
            flavor=header["flavor"],
            marks=columns,
            intensities=intensities,
            side=side,
            dim=dim,
            seed=header["seed"],
        )


def _read_header_line(no: int, line: str, header: dict, intensities: dict) -> bool:
    """Reads stripped line ``no`` of a log's text into ``header`` or ``intensities``.

    Returns False, reading nothing, for a mark line, and True for a blank,
    comment or header line.
    """
    if not line or line.startswith("#"):
        return True
    try:
        if line.startswith("intensity "):
            key, value = line[len("intensity "):].split("=", 1)
            intensities[key] = float(value)
        elif "=" in line and (key := line.split("=", 1)[0]) in _HEADER:
            header[key] = _HEADER[key](line.split("=", 1)[1])
        else:
            return False
    except ValueError as exc:
        raise DomainError(f"event log line {no} {line!r}: {exc}") from None
    return True


def _text_span(header: dict) -> tuple[float, float]:
    """The span ``[t_start - history, t_end]`` of a header read from text, once it is checked."""
    missing = _HEADER.keys() - header.keys()
    if missing:
        raise DomainError(f"event log has no {min(missing)}= line")
    (t_start, t_end), (side, dim) = header["window"], header["torus"]
    _check_header(t_start, t_end, header["history"], header["flavor"], side, dim)
    return t_start - header["history"], t_end


def _read_text(text: str) -> tuple[dict, dict, _Columns]:
    """The header, intensities and mark columns of a log's text, line by line in Python."""
    header: dict[str, object] = {}
    intensities: dict[str, float] = {}
    # line number and text of each mark line, in two lists: a tuple per
    # line would make the garbage collector scan them all
    row_no: list[int] = []
    row_text: list[str] = []
    for no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not _read_header_line(no, line, header, intensities):
            row_no.append(no)
            row_text.append(line)
    # replay bisects the marks by time, so a NaN time would misplace others
    t_lo, t_end = _text_span(header)
    side, dim = header["torus"]

    @functools.cache  # each distinct site token is parsed and checked once
    def site(token: str) -> int:
        value = int(token)
        if not 0 <= value < side**dim:
            raise ValueError(f"site {value} is off the {side**dim}-site torus")
        return value

    time, kind, target, source, dot = [], [], [], [], []
    for no, line in zip(row_no, row_text):
        try:
            t_str, k, x, y, z = line.split()
            t = float(t_str)
            if not t_lo <= t <= t_end:
                raise ValueError(f"time {t!r} is outside the log's span [{t_lo!r}, {t_end!r}]")
            kind.append(KIND_ORDER[k])
            target.append(site(x))
            source.append(-1 if y == "-" else site(y))
            dot.append(-1 if z == "-" else site(z))
            time.append(t)
        except KeyError:
            raise DomainError(f"event log line {no} {line!r}: unknown mark kind") from None
        except ValueError as exc:
            raise DomainError(f"event log line {no} {line!r}: {exc}") from None
    return header, intensities, _Columns.of(time, kind, target, source, dot)


def _read_text_compiled(module, text: str) -> tuple[dict, dict, _Columns] | None:
    """:func:`_read_text` with the mark lines read by ``_engine.c``'s parser.

    Reads the leading lines up to the first mark line in Python, then the
    rest in C.  Returns ``None`` when the rest is not all canonical mark
    lines, or when the leading header cannot be read as the Python loop
    would read the whole text: the caller then runs that loop.
    """
    header: dict[str, object] = {}
    intensities: dict[str, float] = {}
    pos = no = 0
    while pos < len(text):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        line = text[pos:end]
        if len((line + "\n").splitlines()) > 1:  # a line break that splitlines sees first
            return None
        no += 1
        if not _read_header_line(no, line.strip(), header, intensities):
            break
        pos = end + 1
    try:
        t_lo, t_end = _text_span(header)
        marks = memoryview(text.encode("ascii"))[pos:]  # no copy of the mark lines alone
    except (DomainError, UnicodeEncodeError):  # a later header line may complete the header
        return None
    side, dim = header["torus"]
    columns = _engine.parse_marks(module, marks, _KIND_NAMES, t_lo, t_end, side**dim)
    return None if columns is None else (header, intensities, _Columns(*columns))


def _stream_intensities(p: Params, flavor: str, p2: Params | None) -> dict[str, float]:
    """Per-channel rates, keyed by mark kind."""
    two_d = 2.0 * p.dim
    rates = {
        CROSS: 1.0,
        ARROW: p.beta / two_d,
        DOT_ARROW: p.beta_c / (two_d * two_d),
        D_ARROW: p.beta_d / two_d,
    }
    if flavor == STANDARD:
        return rates
    if flavor == EQUAL_RATE:
        require_equal_rate(p, "equal-rate sampling")
        del rates[D_ARROW]
        return rates
    if flavor == COUPLED:
        if p2 is None:
            raise DomainError("coupled sampling needs the second parameter set")
        if p2.dim != p.dim or p2.beta != p.beta:
            raise CouplingOrder("coupled processes must share beta and dim")
        if p.beta_c < p2.beta_c or p.beta_d > p2.beta_d:
            raise CouplingOrder(
                "first process must have beta_c >= and beta_d <= the second's"
            )
        rates[DOT_ARROW] = p2.beta_c / (two_d * two_d)
        rates[C_PLUS_DOT_ARROW] = (p.beta_c - p2.beta_c) / (two_d * two_d)
        rates[D_PLUS_ARROW] = (p2.beta_d - p.beta_d) / two_d
        return rates
    raise DomainError(f"unknown flavor {flavor!r}")


def sample_event_log(
    p: Params,
    torus: Torus,
    t_max: float,
    rng: np.random.Generator,
    flavor: str = STANDARD,
    p2: Params | None = None,
    history: float = 2.0,
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
    neighbors = lattice._geometry(torus.side, torus.dim).nbr

    codes, counts, times, targets, sources, dots = [], [], [], [], [], []
    for kind in sorted(rates, key=KIND_ORDER.get):
        rate = rates[kind]
        if rate <= 0.0:
            continue
        slots = _SLOTS[kind]
        n_channels = n * two_d**slots
        count = int(lattice.poisson(rng, rate * n_channels * duration))
        times.append(lattice.allocate(count, "mark times", rng.uniform, t_lo, t_max, size=count))
        channels = rng.integers(0, n_channels, size=count)
        # channel = (x * 2d + source slot) * 2d + dot slot, for the slots the kind
        # has, and neighbors[x * 2d + slot] is site x's neighbor in that slot
        y = z = np.full(count, -1)
        if slots == 0:
            x = channels
        elif slots == 1:
            x, y = channels // two_d, neighbors[channels]
        else:
            pair, slot_z = np.divmod(channels, two_d)
            y = neighbors[pair]
            x, z = pair // two_d, neighbors[y * two_d + slot_z]
        codes.append(KIND_ORDER[kind])
        counts.append(count)
        targets.append(x)
        sources.append(y)
        dots.append(z)
    marks = _Columns(np.concatenate(times), np.repeat(np.array(codes, dtype=np.int8), counts),
                     *(np.concatenate(c, dtype=np.int32) for c in (targets, sources, dots)))
    return EventLog(
        t_start=0.0,
        t_end=t_max,
        history=history,
        flavor=flavor,
        marks=marks,
        intensities=rates,
        side=torus.side,
        dim=torus.dim,
    )


# ------------------------------------------------------------------ evolution


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


def _check_coupling_order(first: Torus, second: Torus) -> None:
    for x, (a, b) in enumerate(zip(first.sites, second.sites)):
        if (a, b) not in ALLOWED_PAIRS:
            raise DomainError(
                f"initial configurations violate the coupling order at site {x}: "
                f"({lattice.STATE_CHARS[a]}, {lattice.STATE_CHARS[b]})"
            )


# What each kind is to each coupled process: a difference stream acts on one
# process only, as the excess rate of that process's own kind (-1: nothing).
_AS_FIRST = (_CROSS, _ARROW, _DOT_ARROW, _D_ARROW, _DOT_ARROW, -1)
_AS_SECOND = (_CROSS, _ARROW, _DOT_ARROW, _D_ARROW, -1, _D_ARROW)


def _apply_mark(s: list[int], k: int, x: int, y: int, z: int, equal_rate: bool) -> None:
    """The mark rule on one process's sites: the one statement of the mark
    law, read by ``_replay_marks`` and tabulated by :func:`_mark_tables`."""
    if k == _CROSS:
        s[x] = EMPTY
    elif s[x] != EMPTY:
        return
    elif k == _ARROW:
        s[x] = s[y]
    elif k == _D_ARROW:
        if s[y] == DEFECTOR:
            s[x] = DEFECTOR
    elif k == _DOT_ARROW:
        if s[y] == COOPERATOR and s[z] == COOPERATOR:
            s[x] = COOPERATOR
        elif equal_rate and s[y] == DEFECTOR and z != x:
            s[x] = DEFECTOR


def _mark_table(as_kind: tuple[int, ...], equal_rate: bool) -> np.ndarray:
    """``next[k, s_x, s_y, s_z, z == x]``: the state that :func:`_apply_mark`
    leaves at the target x of a mark of kind ``as_kind[k]`` whose target,
    source and dot hold ``s_x``, ``s_y`` and ``s_z``.  The rule reads nothing
    else, so the table is exact; where ``z == x`` the dot is the target."""
    table = np.empty((len(as_kind), 3, 3, 3, 2), np.int8)
    for k, sx, sy, sz, same in np.ndindex(table.shape):
        s = [sx, sy, sz]
        _apply_mark(s, as_kind[k], 0, 1, 0 if same else 2, equal_rate)
        table[k, sx, sy, sz, same] = s[0]
    return table


@functools.cache
def _mark_tables(flavor: str) -> tuple[np.ndarray, ...]:
    """``coop_replay``'s tables for a log of ``flavor``: one transition table,
    or for a coupled log one per process, through :data:`_AS_FIRST` and
    :data:`_AS_SECOND`, then ``allowed[a, b]``, 1 for the pairs of
    :data:`ALLOWED_PAIRS`."""
    if flavor == COUPLED:
        allowed = np.zeros((3, 3), np.int8)
        allowed[tuple(zip(*ALLOWED_PAIRS))] = 1
        tables = (_mark_table(_AS_FIRST, False), _mark_table(_AS_SECOND, False), allowed)
    else:
        tables = (_mark_table(tuple(range(len(_KIND_NAMES))), flavor == EQUAL_RATE),)
    for table in tables:
        table.flags.writeable = False  # one array for every caller
    return tables


def _replay_marks(s1: list[int], s2: list[int] | None, log: EventLog, lo: int, hi: int,
                  equal_rate: bool) -> int:
    """Apply marks [lo, hi) to ``s1``, or to ``s1`` and ``s2`` for a coupled log;
    ``coop_replay`` of ``_engine.c`` in Python.

    Returns ``hi``, or the index of the first mark it cannot apply, or that
    leaves its target in a pair outside :data:`ALLOWED_PAIRS`.
    """
    columns = (c[lo:hi].tolist() for c in log._columns()[1:])
    for i, (k, x, y, z) in enumerate(zip(*columns), lo):
        if (k != _CROSS and y < 0) or (k in (_DOT_ARROW, _C_PLUS_DOT_ARROW) and z < 0):
            return i
        if s2 is None:
            if k > _D_ARROW:
                return i
            _apply_mark(s1, k, x, y, z, equal_rate)
            continue
        _apply_mark(s1, _AS_FIRST[k], x, y, z, equal_rate)
        _apply_mark(s2, _AS_SECOND[k], x, y, z, equal_rate)
        if (s1[x], s2[x]) not in ALLOWED_PAIRS:
            return i
    return hi


def _replay(log: EventLog, starts: tuple[Torus, ...], t_from: float | None = None,
            t_to: float | None = None) -> tuple[Torus, ...]:
    """Apply the marks with t_from < time <= t_to to copies of one start, or of
    two coupled ones, in ``_engine.c``'s loop over :func:`_mark_tables` when
    the compiled module loads, else in :func:`_replay_marks`; a mark the loop
    stops at raises."""
    for c0 in starts:
        if (c0.side, c0.dim) != (log.side, log.dim):
            raise DomainError(f"configuration torus {(c0.side, c0.dim)} does not match "
                              f"log torus {(log.side, log.dim)}")
    if len(starts) == 2:
        _check_coupling_order(*starts)
    states = [c0.copy() for c0 in starts]
    s1, s2 = states[0].sites, states[1].sites if len(states) == 2 else None
    window = log._window(t_from, t_to)
    module = _engine.load()
    if module is None:
        stop = _replay_marks(s1, s2, log, window.start, window.stop, log.flavor == EQUAL_RATE)
    else:
        stop = _engine.replay(module, s1, s2, log, window.start, window.stop, _mark_tables(log.flavor))
    if stop < window.stop:
        x, t, kind = log.target.item(stop), log.time.item(stop), _KIND_NAMES[log.kind[stop]]
        if s2 is not None and (s1[x], s2[x]) not in ALLOWED_PAIRS:
            raise InclusionViolation(
                f"pair ({lattice.STATE_CHARS[s1[x]]}, {lattice.STATE_CHARS[s2[x]]}) "
                f"at site {x}, time {t!r} after a {kind} mark"
            )
        if log.flavor != COUPLED and kind in (C_PLUS_DOT_ARROW, D_PLUS_ARROW):
            # difference streams never appear outside coupled logs
            raise FlavorMismatch(f"mark kind {kind!r} in a {log.flavor!r} log")
        raise DomainError(f"{kind} mark at time {t!r} has no source or dot")
    return tuple(states)


def evolve_from_log(
    c0: Torus, log: EventLog, t_from: float | None = None, t_to: float | None = None
) -> Torus:
    """Deterministically apply the window marks to a copy of ``c0``.

    ``t_from`` / ``t_to`` override the applied sub-window, e.g. to warm a
    configuration up through the pre-window history marks.  The marks run
    through ``_engine.c``'s loop when the compiled module loads, else
    through the same loop in Python.
    """
    if log.flavor not in (STANDARD, EQUAL_RATE):
        raise FlavorMismatch(f"cannot single-evolve a {log.flavor!r} log")
    return _replay(log, (c0,), t_from, t_to)[0]


def coupled_evolve(c0_first: Torus, c0_second: Torus, log: EventLog) -> tuple[Torus, Torus]:
    """Drive both processes off one shared coupled-flavor log.

    The first process must start cooperator-richer and defector-poorer
    site by site; every mark preserves that comparison, which the routine
    re-checks at each application, in ``_engine.c``'s loop when the
    compiled module loads, else in the same loop in Python.
    """
    if log.flavor != COUPLED:
        raise FlavorMismatch(f"coupled_evolve needs a coupled log, got {log.flavor!r}")
    return _replay(log, (c0_first, c0_second))


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


_STERILE_YES = _engine.STERILE_YES  # a global: one lookup fewer on the per-call path


def classify_sterile(log: EventLog, mark_index: int) -> bool:
    """Decide sterility of the dot-arrow at ``log.marks[mark_index]``.

    Writing s for the mark time, u for the last death mark at the dot site
    and v for the last arrow of any kind pointing at the dot site, the
    mark is sterile exactly when s - u < 1 < s - v < 2.  Raises
    :class:`InsufficientHistory` when the sampled window cannot pin down
    the truth value.  The test runs in ``_engine.c`` when the compiled
    module loads, else in :func:`_sterile_code`; the log keeps the compiled
    test from its first call, so a call costs one index check and one C
    call.
    """
    try:
        i = operator.index(mark_index)
    except TypeError:
        raise DomainError(f"mark index {mark_index!r} is not an integer") from None
    if not 0 <= i < len(log.time):
        raise DomainError(f"no mark at index {i}")
    code = (log._probe or _sterile_probe(log))(i)
    if code <= _STERILE_YES:
        return code == _STERILE_YES
    if code == _engine.STERILE_NOT_DOT_ARROW:
        raise DomainError(f"mark {i} is a {_KIND_NAMES[log.kind.item(i)]}, not a dot-arrow")
    if code == _engine.STERILE_NO_DOT:
        raise DomainError(f"mark {i} is a dot-arrow without a dot")
    z, s = log.dot.item(i), log.time.item(i)
    if code == _engine.STERILE_CROSS_HISTORY:
        raise InsufficientHistory(f"cannot locate the last death mark at site {z} before {s!r}")
    raise InsufficientHistory(f"cannot locate the last arrow into site {z} before {s!r}")


def _sterile_probe(log: EventLog):
    """The sterility test of ``log``'s marks as a function of the mark index:
    ``coop_sterile`` over the log's C view when the compiled module loads,
    kept on the log as ``_probe``, else :func:`_sterile_code`."""
    module = _engine.load()
    if module is None:
        return functools.partial(_sterile_code, log)
    view = log._site_view(module)
    probe = log._probe = functools.partial(module.lib.coop_sterile, view.c)
    probe.view = view  # the index that view.c points into lives as long as the probe
    return probe


def _sterile_code(log: EventLog, i: int) -> int:
    """``coop_sterile`` of ``_engine.c`` in Python: the sterility of mark i
    as one of the ``_engine.STERILE_*`` outcomes."""
    if log.kind.item(i) not in (_DOT_ARROW, _C_PLUS_DOT_ARROW):
        return _engine.STERILE_NOT_DOT_ARROW
    z = log.dot.item(i)
    if z < 0:
        return _engine.STERILE_NO_DOT
    s = log.time.item(i)
    lo = log.t_start - log.history
    u = log.last_cross_at(z, s)
    if u is None:
        # any unseen death mark is at least one unit old
        return _engine.STERILE_NO if lo <= s - 1.0 else _engine.STERILE_CROSS_HISTORY
    if not s - u < 1.0:
        return _engine.STERILE_NO
    v = log.last_arrow_into(z, s)
    if v is None:
        # any unseen arrow is at least two units old
        return _engine.STERILE_NO if lo <= s - 2.0 else _engine.STERILE_ARROW_HISTORY
    return _engine.STERILE_YES if 1.0 < s - v < 2.0 else _engine.STERILE_NO


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
    probe_sites = np.arange(0, side - 4, 5)  # pairwise torus distance >= 5
    probe_times = lattice.allocate(math.ceil((window - 0.5) / 3.0), "probe times",
                                   np.arange, 0.5, window, 3.0)  # pairwise gap 3 > 2
    # dot at z, source z+1, target z+2: never an arrow into any probe site
    dots = np.repeat(probe_sites, len(probe_times))
    probes = _Columns.of(np.tile(probe_times, len(probe_sites)), np.full(len(dots), _DOT_ARROW),
                         (dots + 2) % side, (dots + 1) % side, dots)
    done = 0
    sterile_total = 0
    while done < replicas:
        base = sample_event_log(p, torus, window, rng, flavor=STANDARD)
        log = base.with_marks(_Columns(*map(np.concatenate, zip(base._columns(), probes))))
        # the dot-arrows at a probe's (time, dot), in log order
        found = (log.kind == _DOT_ARROW) & np.isin(log.time, probe_times) & np.isin(log.dot, probe_sites)
        for i in np.flatnonzero(found)[: replicas - done].tolist():
            sterile_total += classify_sterile(log, i)
            done += 1
    return lattice.binomial_estimate(sterile_total, replicas)


# --------------------------------------------------------------- dual tree


class DualNode(NamedTuple):
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

    The walk reads the log's per-site index (built once per log and shared
    with :func:`classify_sterile`): each segment costs three bisections
    inside its site's range of the flat arrays plus its own children, so a
    query never rescans the log.
    Children are pushed latest first, so segments come off the
    stack, and into ``nodes``, in hierarchy order: a preorder walk.  When
    the tree has more than ``max_nodes`` segments, :class:`BudgetExhausted`
    carries the first ``max_nodes`` of them in that order, a prefix of the
    full tree, as ``partial``.  The walk runs in ``_engine.c`` when the
    compiled module loads, else in :func:`_dual_walk`; the nodes are the
    same.
    """
    x, max_nodes = _integer(x, "site"), _integer(max_nodes, "max_nodes")
    try:
        t = float(t)
    except (TypeError, ValueError):
        raise DomainError(f"time {t!r} is not a number") from None
    if not (log.t_start < t <= log.t_end):
        raise DomainError(f"time {t!r} outside the log window")
    x = log._site(x)
    module = _engine.load()
    nodes = _dual_walk(log, x, t, max_nodes) if module is None else _dual_compiled(module, log, x, t, max_nodes)
    return DualTree(origin_site=x, origin_time=t, horizon=t - log.t_start, nodes=nodes)


def _budget_exhausted(max_nodes: int, nodes: tuple[DualNode, ...]) -> BudgetExhausted:
    err = BudgetExhausted(f"dual tree exceeded {max_nodes} segments")
    err.partial = nodes
    return err


def _sourceless(site: int, time: float) -> DomainError:
    return DomainError(f"arrow into site {site} at time {time!r} has no source")


def _dual_walk(log: EventLog, x: int, t: float, max_nodes: int) -> tuple[DualNode, ...]:
    """The nodes of :func:`build_dual`, walked in Python: ``coop_dual`` of ``_engine.c``."""
    index = log._site_index()
    cross_ptr, cross_time, arrow_ptr, arrow_time, arrow_source, arrow_feeds = map(memoryview, index[:-1])
    nodes: list[DualNode] = []
    # Work stack of (site, real time the segment is entered, hierarchy index).
    stack: list[tuple[int, float, tuple[int, ...]]] = [(x, t, (1,))]
    while stack:
        site, r_hi, idx = stack.pop()
        if len(nodes) >= max_nodes:
            raise _budget_exhausted(max_nodes, tuple(nodes))
        cross = _last_before(cross_ptr, cross_time, site, r_hi)
        if cross is not None and cross >= log.t_start:
            r_lo, stopped = cross, True
        else:
            r_lo, stopped = log.t_start, False
        nodes.append(DualNode(site, idx, t - r_hi, t - r_lo, stopped))
        # Arrows strictly inside (r_lo, r_hi); r_hi <= t, so none is later than t.
        end = arrow_ptr[site + 1]
        lo = bisect_right(arrow_time, r_lo, arrow_ptr[site], end)
        hi = bisect_left(arrow_time, r_hi, lo, end)
        feeders = [k for k in range(lo, hi) if arrow_feeds[k]]
        for i in range(len(feeders), 0, -1):
            k = feeders[i - 1]
            if arrow_source[k] < 0:
                raise _sourceless(site, arrow_time[k])
            stack.append((arrow_source[k], arrow_time[k], idx + (i,)))
    return tuple(nodes)


def _dual_compiled(module, log: EventLog, x: int, t: float, max_nodes: int) -> tuple[DualNode, ...]:
    """The nodes of :func:`build_dual` from the rows of ``coop_dual``.

    A row's hierarchy index is its parent's plus its ordinal, and its dual
    times are ``t`` less its real ones, the same subtractions as the
    Python walk's.
    """
    status, (site, parent, ordinal, r_hi, r_lo, stopped), arrow = _engine.dual(
        module, log._site_view(module), x, t, log.t_start, max_nodes)
    if status == _engine.DUAL_SOURCELESS:
        raise _sourceless(site.item(-1), log._site_index().arrow_time.item(arrow))
    # The nodes are new tuples without cycles, which the cyclic collector
    # would only scan again and again: a tuple subclass is never untracked.
    collecting = gc.isenabled()
    gc.disable()
    try:
        indices = [()]  # the root's parent, row -1, at 0
        for p, o in zip((parent + 1).tolist(), ordinal.tolist()):
            indices.append(indices[p] + (o,))
        del indices[0]
        nodes = tuple(map(tuple.__new__, itertools.repeat(DualNode),
                          zip(site.tolist(), indices, (t - r_hi).tolist(), (t - r_lo).tolist(),
                              stopped.astype(bool).tolist())))
    finally:
        if collecting:
            gc.enable()
    if status == _engine.DUAL_BUDGET:
        raise _budget_exhausted(max_nodes, nodes)
    return nodes


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
