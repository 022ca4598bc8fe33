"""Event-driven simulation of the cooperator/defector process on finite tori.

Sites of a d-dimensional torus are empty, occupied by a cooperator, or
occupied by a defector.  Occupied sites die at rate one.  An empty site x
gains a cooperator at rate

    sum over cooperator neighbors y of
        beta / (2 d)  +  beta_c / (4 d^2) * #{cooperator neighbors z of y}

(z runs over all 2d neighbors of y, including x itself) and gains a
defector at rate ``#defector neighbors * (beta + beta_d) / (2 d)``.

The sampler is an exact Gillespie direct method with one exponential and
one uniform draw per event.  Selection is two-level: the sites are cut into
consecutive blocks of ``isqrt(N)`` sites, the uniform picks a block from the
prefix sums of the block sums and then a site from the prefix sums within
that block, so an event costs O(sqrt(N)) rather than O(N).  Inside an empty
site the directed neighbor pairs are walked in a fixed order, so that when
``beta_c == beta_d == 0`` swapping the two type labels in the initial
configuration mirrors the whole run exactly, draw for draw.

``run`` uses the compiled step of ``_engine`` when its module loads and
this Python ``RateTable``/``step`` otherwise.  The two perform the same
floating-point operations in the same order and draw through the same
numpy routines, so a seed gives the same bytes from either; the Python
engine is the specification and the reference the tests compare against.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain
from operator import add
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _engine
from .errors import Absorbed, DomainError
from .params import Params

EMPTY, COOPERATOR, DEFECTOR = 0, 1, 2
STATE_CHARS = {EMPTY: "e", COOPERATOR: "c", DEFECTOR: "d"}
CHAR_STATES = {v: k for k, v in STATE_CHARS.items()}


class Torus(object):
    """Periodic d-dimensional lattice with one state per site.

    Site indices are flat: coordinates (c_0, ..., c_{d-1}) map to
    ``sum(c_j * side**j)``.  Each site has exactly ``2 * dim`` neighbors,
    listed axis by axis as (-e_j, +e_j); on a side-2 torus both directions
    reach the same site and the neighbor list repeats it, keeping every
    per-pair rate channel present.
    """

    __slots__ = ("dim", "side", "n_sites", "sites", "neighbors", "near2")

    def __init__(self, side: int, dim: int = 1, sites: Sequence[int] | None = None):
        if side < 2:
            raise DomainError(f"torus side must be at least 2, got {side}")
        if dim < 1:
            raise DomainError(f"torus dim must be at least 1, got {dim}")
        self.dim = dim
        self.side = side
        self.n_sites = side**dim
        if sites is None:
            self.sites = [EMPTY] * self.n_sites
        else:
            if len(sites) != self.n_sites:
                raise DomainError(
                    f"expected {self.n_sites} site states, got {len(sites)}"
                )
            bad = set(sites) - {EMPTY, COOPERATOR, DEFECTOR}
            if bad:
                raise DomainError(f"invalid site states: {bad}")
            self.sites = list(sites)
        geometry = _geometry(side, dim)
        self.neighbors = geometry.neighbors
        self.near2 = geometry.near2

    def index(self, coords: Sequence[int]) -> int:
        i = 0
        for j in reversed(range(self.dim)):
            i = i * self.side + (coords[j] % self.side)
        return i

    def counts(self) -> tuple[int, int, int]:
        """(cooperators, defectors, empty)."""
        n_c = self.sites.count(COOPERATOR)
        n_d = self.sites.count(DEFECTOR)
        return n_c, n_d, self.n_sites - n_c - n_d

    def copy(self) -> "Torus":
        dup = object.__new__(Torus)
        dup.dim = self.dim
        dup.side = self.side
        dup.n_sites = self.n_sites
        dup.sites = list(self.sites)
        dup.neighbors = self.neighbors
        dup.near2 = self.near2
        return dup

    def swap_types(self) -> "Torus":
        """Copy with cooperator and defector labels exchanged."""
        swap = {EMPTY: EMPTY, COOPERATOR: DEFECTOR, DEFECTOR: COOPERATOR}
        dup = self.copy()
        dup.sites = [swap[s] for s in self.sites]
        return dup

    def state_string(self) -> str:
        return "".join(STATE_CHARS[s] for s in self.sites)

    @classmethod
    def from_state_string(cls, text: str, dim: int = 1) -> "Torus":
        if dim < 1:
            raise DomainError(f"torus dim must be at least 1, got {dim}")
        if not set(text) <= CHAR_STATES.keys():
            raise DomainError(f"state string {text!r} holds a character other than e, c, d")
        side = round(len(text) ** (1.0 / dim))
        if side**dim != len(text):
            raise DomainError(f"{len(text)} sites do not fill a dim-{dim} torus")
        return cls(side, dim, [CHAR_STATES[ch] for ch in text])


# (side, dim) pairs whose neighbor and distance-two tables are kept
GEOMETRY_CACHE_SIZE = 8


class _Geometry(NamedTuple):
    """A torus's neighbor and distance-two tables, shared by every torus
    of its (side, dim), with the flat int32 arrays the compiled step reads:
    ``nbr`` (``2 * dim`` neighbors per site) and ``near2_flat`` sliced by
    the offsets ``near2_ptr``."""

    neighbors: tuple[tuple[int, ...], ...]
    near2: tuple[tuple[int, ...], ...]
    nbr: np.ndarray
    near2_ptr: np.ndarray
    near2_flat: np.ndarray


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _geometry(side: int, dim: int) -> _Geometry:
    # tuples and read-only arrays: every torus of this shape shares them
    neighbors = tuple(_neighbor_table(side, dim))
    near2 = tuple(_near2_table(neighbors))
    near2_ptr = np.zeros(len(near2) + 1, dtype=np.int32)
    np.cumsum([len(z) for z in near2], out=near2_ptr[1:])
    flat = (
        np.array(neighbors, dtype=np.int32).ravel(),
        near2_ptr,
        np.fromiter(chain.from_iterable(near2), dtype=np.int32, count=int(near2_ptr[-1])),
    )
    for array in flat:
        array.flags.writeable = False
    return _Geometry(neighbors, near2, *flat)


def _neighbor_table(side: int, dim: int) -> list[tuple[int, ...]]:
    n = side**dim
    strides = [side**j for j in range(dim)]
    table = []
    for i in range(n):
        coords = []
        rem = i
        for _ in range(dim):
            coords.append(rem % side)
            rem //= side
        nbrs = []
        for j in range(dim):
            for delta in (-1, 1):
                c = (coords[j] + delta) % side
                nbrs.append(i + (c - coords[j]) * strides[j])
        table.append(tuple(nbrs))
    return table


def _near2_table(neighbors: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    table = []
    for i, nbrs in enumerate(neighbors):
        seen = {i}
        seen.update(nbrs)
        for y in nbrs:
            seen.update(neighbors[y])
        table.append(tuple(sorted(seen)))
    return table


def product_measure(
    side: int,
    dim: int,
    rho_c: float,
    rho_d: float,
    rng: np.random.Generator,
) -> Torus:
    """Independent per-site states with P(c) = rho_c, P(d) = rho_d."""
    if not (rho_c >= 0 and rho_d >= 0 and rho_c + rho_d <= 1):
        raise DomainError(f"densities ({rho_c}, {rho_d}) not a sub-probability")
    u = rng.random(side**dim)
    sites = [
        COOPERATOR if v < rho_c else (DEFECTOR if v < rho_c + rho_d else EMPTY)
        for v in u
    ]
    return Torus(side, dim, sites)


class Event(NamedTuple):
    kind: str  # "death" | "birth"
    site: int
    parent: int | None  # occupied neighbor the birth came through
    state: int  # site state after the event
    prev: int  # site state before the event


class RateTable:
    """Per-site event rates, grouped into blocks for two-level selection.

    ``rates[i]`` is 1.0 for an occupied site (its death clock) and, for an
    empty site, the sum of its directed-pair birth rates taken in neighbor
    order.  The sites are cut into consecutive blocks of ``block`` =
    ``isqrt(N)`` sites (the last one may be shorter) and ``block_sums[b]``
    holds the sum of ``rates[b * block:(b + 1) * block]``, added left to
    right (builtin ``sum`` compensates from Python 3.12, which would make
    selections depend on the Python version).

    Block sums are set, never added to: after a change every touched block
    is summed again from its sites.  Every rate and every block sum is thus
    a pure function of the configuration, equal to a fresh table's, and no
    floating-point drift builds up over a run.
    """

    __slots__ = (
        "torus",
        "rates",
        "block",
        "block_sums",
        "pair_beta",
        "pair_coop",
        "pair_defect",
    )

    def __init__(self, torus: Torus, p: Params):
        self.torus = torus
        self.pair_beta, self.pair_coop, self.pair_defect = _pair_rates(torus, p)
        n = torus.n_sites
        self.block = math.isqrt(n)
        self.rates = [self.site_rate(i) for i in range(n)]
        self.block_sums = [self.block_sum(b) for b in range((n + self.block - 1) // self.block)]

    def pair_rate(self, y: int) -> float:
        """Birth rate through the occupied site ``y`` into an empty neighbor:
        beta/2d + beta_c/4d^2 * #{cooperator neighbors of y}, or (beta + beta_d)/2d."""
        sites = self.torus.sites
        if sites[y] == DEFECTOR:
            return self.pair_defect
        k = 0
        for z in self.torus.neighbors[y]:
            if sites[z] == COOPERATOR:
                k += 1
        return self.pair_beta + self.pair_coop * k

    def site_rate(self, i: int) -> float:
        """Total event rate of site ``i`` in the current configuration."""
        sites = self.torus.sites
        if sites[i] != EMPTY:
            return 1.0
        tot = 0.0
        for y in self.torus.neighbors[i]:
            if sites[y] != EMPTY:
                tot += self.pair_rate(y)
        return tot

    def block_sum(self, b: int) -> float:
        """Sum of block ``b``'s site rates, added left to right."""
        lo = b * self.block
        return reduce(add, self.rates[lo : lo + self.block], 0.0)

    def refresh(self, changed: Sequence[int]) -> None:
        """Recompute the rates of ``changed`` sites, then their block sums."""
        for i in changed:
            self.rates[i] = self.site_rate(i)
        for b in {i // self.block for i in changed}:
            self.block_sums[b] = self.block_sum(b)


def _pair_rates(torus: Torus, p: Params) -> tuple[float, float, float]:
    """(beta, support, defector) directed-pair rate constants of ``p`` on ``torus``."""
    if p.dim != torus.dim:
        raise DomainError(f"params dim {p.dim} != torus dim {torus.dim}")
    two_d = 2.0 * torus.dim
    return p.beta / two_d, p.beta_c / (two_d * two_d), (p.beta + p.beta_d) / two_d


def _rate_table(torus: Torus, p: Params, rng: np.random.Generator) -> RateTable | _engine.Table:
    """The compiled engine's table, bound to ``rng``, when its module
    loads; else a ``RateTable``."""
    module = _engine.load()
    if module is None:
        return RateTable(torus, p)
    return _engine.Table(module, torus, _geometry(torus.side, torus.dim), _pair_rates(torus, p), rng)


def _pick(cum: list[float], weights: Sequence[float], x: float) -> int:
    """Index of the first prefix sum in ``cum`` above ``x``, so never a
    zero-weight entry; when rounding carries ``x`` past the last one, the
    last ``k`` with ``weights[k] > 0``.  ``_engine.c``'s pick, in Python."""
    k = bisect_right(cum, x)
    if k == len(cum):
        k = next(j for j in reversed(range(k)) if weights[j] > 0.0)
    return k


def step(
    table: RateTable,
    rng: np.random.Generator,
    t_limit: float | None = None,
) -> tuple[Event | None, float]:
    """Advance ``table.torus`` by one event; returns (event, elapsed).

    Raises :class:`Absorbed` when the total rate is zero.  When ``t_limit``
    is given and the exponential holding time exceeds it, no event is
    selected or applied and ``(None, elapsed)`` is returned, which is the
    exact way to stop a continuous-time chain at a horizon.

    ``table`` may also be the compiled engine's table, which takes the
    same steps in C from the generator it was built with.
    """
    if table.__class__ is _engine.Table:
        return _compiled_step(table, rng, t_limit)
    cum_blocks = list(accumulate(table.block_sums))
    total = cum_blocks[-1]
    if total <= 0.0:
        raise Absorbed("all sites empty: total event rate is zero")
    elapsed = rng.standard_exponential() / total
    if t_limit is not None and elapsed > t_limit:
        return None, elapsed
    target = rng.random() * total
    b = _pick(cum_blocks, table.block_sums, target)
    residual = target - (cum_blocks[b - 1] if b > 0 else 0.0)
    lo = b * table.block
    block_rates = table.rates[lo : lo + table.block]
    cum = list(accumulate(block_rates))
    j = _pick(cum, block_rates, residual)
    i = lo + j

    sites = table.torus.sites
    prev = sites[i]
    if prev != EMPTY:
        event = Event("death", i, None, EMPTY, prev)
    else:
        residual -= cum[j - 1] if j > 0 else 0.0
        chosen = None
        for y in table.torus.neighbors[i]:
            if sites[y] != EMPTY:
                chosen = y
                residual -= table.pair_rate(y)
                if residual < 0.0:
                    break
        if chosen is None:  # cannot happen unless the rate table was stale
            raise Absorbed(f"no occupied neighbor at selected empty site {i}")
        event = Event("birth", i, chosen, sites[chosen], prev)

    sites[event.site] = event.state
    table.refresh(table.torus.near2[event.site])
    return event, elapsed


_new_tuple = tuple.__new__


def _compiled_step(
    table: _engine.Table,
    rng: np.random.Generator,
    t_limit: float | None,
) -> tuple[Event | None, float]:
    if rng is not table.rng:
        raise DomainError("a compiled table draws only from the generator it was built with")
    elapsed = table.c_step(table.c, math.inf if t_limit is None else t_limit, table.ev)
    if elapsed < 0.0:
        raise Absorbed("all sites empty: total event rate is zero" if elapsed == -1.0
                       else "no occupied neighbor at the selected empty site")
    site, parent, state, prev = table.ev
    if site < 0:
        return None, elapsed
    table.torus.sites[site] = state
    # tuple.__new__ skips Event's Python-level __new__, about 0.4 us per event
    if parent < 0:
        return _new_tuple(Event, ("death", site, None, state, prev)), elapsed
    return _new_tuple(Event, ("birth", site, parent, state, prev)), elapsed


@dataclass(frozen=True, slots=True)
class TimeSeries:
    """Counts sampled on a fixed grid; constant after absorption."""

    t: np.ndarray
    n_c: np.ndarray
    n_d: np.ndarray
    n_e: np.ndarray


def run(
    torus: Torus,
    p: Params,
    t_end: float,
    rng: np.random.Generator,
    sample_interval: float = 1.0,
) -> TimeSeries:
    """Simulate in place until ``t_end``, sampling counts every interval.

    The sample at time s holds the counts of the configuration at s: a
    sample the next event jumps over gets the counts from before that
    event.  The grid runs to the multiple of the interval nearest
    ``t_end``, and a sample time past ``t_end`` holds the counts at
    ``t_end``.  The torus is left in its state at ``t_end``.  ``t_end = 0``
    yields the single initial sample and draws nothing from ``rng``.
    """
    if not (0 <= t_end < math.inf and 0 < sample_interval < math.inf):
        raise DomainError("t_end must be finite and >= 0, sample_interval finite and > 0")
    sample_times = np.arange(0.0, t_end + sample_interval * 0.5, sample_interval)
    times = sample_times.tolist() + [math.inf]
    n_c, n_d, n_e = torus.counts()
    counts = [n_e, n_c, n_d]  # indexed by site state
    samples = []
    k = 0
    t = 0.0
    if t_end > 0:
        table = _rate_table(torus, p, rng)
        try:
            while True:
                event, elapsed = step(table, rng, t_limit=t_end - t)
                if event is None:
                    break
                t += elapsed
                while times[k] < t:
                    samples.append(tuple(counts))
                    k += 1
                counts[event.prev] -= 1
                counts[event.state] += 1
        except Absorbed:
            pass
    samples += [tuple(counts)] * (len(sample_times) - k)
    out_e, out_c, out_d = np.array(samples, dtype=np.int64).T.copy()
    return TimeSeries(t=sample_times, n_c=out_c, n_d=out_d, n_e=out_e)


@dataclass(frozen=True, slots=True)
class ReplicaOutcome:
    """Final counts of one survival replica."""

    index: int
    n_c: int
    n_d: int
    n_e: int


@dataclass(frozen=True, slots=True)
class SurvivalResult:
    """Replica outcomes and the outcome frequencies they give.

    A type is alive when its count is positive at the horizon; it wins when
    it is alive and the opponent is extinct.  The four classes (cooperators
    win, defectors win, coexist, both extinct) partition the replicas.
    These are finite-horizon, finite-volume surrogates for the limit
    statements, and are labelled as such wherever they are written out.
    """

    outcomes: tuple[ReplicaOutcome, ...]

    def count(self, predicate: Callable[[ReplicaOutcome], bool]) -> int:
        return sum(1 for o in self.outcomes if predicate(o))

    def freq(self, predicate: Callable[[ReplicaOutcome], bool]) -> float:
        return self._share(self.count(predicate))

    def _share(self, n: int) -> float:
        return n / len(self.outcomes) if self.outcomes else float("nan")

    # the four outcome classes, as counts and as frequencies
    n_c_wins = property(lambda self: self.count(lambda o: o.n_c > 0 and o.n_d == 0))
    n_d_wins = property(lambda self: self.count(lambda o: o.n_d > 0 and o.n_c == 0))
    n_coexist = property(lambda self: self.count(lambda o: o.n_c > 0 and o.n_d > 0))
    n_both_extinct = property(lambda self: self.count(lambda o: o.n_c == 0 and o.n_d == 0))
    freq_c_wins = property(lambda self: self._share(self.n_c_wins))
    freq_d_wins = property(lambda self: self._share(self.n_d_wins))
    freq_coexist = property(lambda self: self._share(self.n_coexist))
    freq_both_extinct = property(lambda self: self._share(self.n_both_extinct))
    freq_c_alive = property(lambda self: self.freq(lambda o: o.n_c > 0))
    freq_d_alive = property(lambda self: self.freq(lambda o: o.n_d > 0))


def binomial_estimate(hits: int, n: int) -> tuple[float, float]:
    """Frequency ``hits / n`` and its binomial standard error."""
    freq = hits / n
    return freq, math.sqrt(freq * (1.0 - freq) / n)


def replica_rng(master_seed: int, index: int) -> np.random.Generator:
    """The RNG stream owned by one replica: (master seed, replica index)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def _survival_replica(spec: tuple) -> ReplicaOutcome:
    p, side, horizon, rho_c, rho_d, master_seed, index = spec
    rng = replica_rng(master_seed, index)
    torus = product_measure(side, p.dim, rho_c, rho_d, rng)
    run(torus, p, horizon, rng, sample_interval=max(horizon, 1.0))
    return ReplicaOutcome(index, *torus.counts())


def survival_replicas(runs: Sequence[tuple], jobs: int = 1) -> list[ReplicaOutcome]:
    """Final counts of ``runs``, each ``(params, side, horizon, rho_c, rho_d,
    master_seed, index)`` and drawn from ``replica_rng(master_seed, index)``.

    ``jobs > 1`` runs them in one process pool that lives only inside this
    call, with ``min(jobs, usable cpus, len(runs))`` workers.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1 or not runs:
        return [_survival_replica(r) for r in runs]
    _engine.load()  # forked workers inherit the loaded module
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, cpus, len(runs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_survival_replica, runs, chunksize=8))


def survival_estimate(
    p: Params,
    side: int,
    horizon: float,
    replicas: int,
    rho_c: float,
    rho_d: float,
    master_seed: int,
    jobs: int = 1,
) -> SurvivalResult:
    """Monte Carlo survival/win frequencies from product-measure starts.

    Replica ``i`` draws everything from its own stream seeded by
    ``(master_seed, i)``, so results are identical for any ``jobs`` value
    and any batching of the replicas.
    """
    if replicas < 1:
        raise DomainError(f"need at least one replica, got {replicas}")
    if not (math.isfinite(horizon) and horizon >= 0):
        raise DomainError(f"horizon must be finite and nonnegative, got {horizon}")
    runs = [(p, side, horizon, rho_c, rho_d, master_seed, i) for i in range(replicas)]
    return SurvivalResult(tuple(survival_replicas(runs, jobs)))
