"""Space-time block events, their closed forms, and oriented site percolation.

The renormalization argument chops space-time into blocks and asks for
"good" behavior inside each:

* every site of a small box sees at least one death mark in a window
  (probability ``prob_a1``),
* consecutive marks affecting a larger box never arrive within ``2*delta``
  of each other (lower bound ``bound_a2``, sampler ``estimate_a2``),
* a lower bound for the chance that each sub-interval delivers the birth
  arrows a spreading cooperator cluster needs (``prob_a3_bound``),
* no cooperator-only difference arrow points into a space-time region
  (``c_plus_absence_prob``).

Good blocks dominate supercritical oriented site percolation on the
parity lattice {(z, n): sum(z) + n even}, which this module samples with
independent open/closed marks (``percolate``) and searches for directed
dry paths (``dry_path_exists``) in the step graph or its horizontal
augmentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from coopsim import lattice
from coopsim.errors import DomainError, OutOfBounds
from coopsim.lattice import DEFECTOR, Torus
from coopsim.params import Params, require_equal_rate

# Pilot-validated critical birth rate of the d=1 single-type process
# (per-neighbor rate beta/2d crosses criticality near 1.6489).
BETA_STAR_D1 = 3.2978


def _require_dim(d: int) -> None:
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")


# From this dimension on 3**(d-1) alone, and so every box, exceeds the largest double.
FLOAT_BOX_DIM_LIMIT = 648


def _as_float(box: Callable[[int], int], d: int) -> float:
    """``box(d)``, a box's site count, as a float, which the closed forms
    multiply by; from :data:`FLOAT_BOX_DIM_LIMIT` on no power is built."""
    if d < FLOAT_BOX_DIM_LIMIT:
        try:
            return float(box(d))
        except OverflowError:
            pass
    raise DomainError(f"dimension {d} gives a box of more sites than a float can hold")


def inner_box_sites(d: int) -> int:
    """Sites in the union of the 2d face-adjacent side-3 sub-boxes."""
    _require_dim(d)
    return 2 * d * 3 ** (d - 1)


def outer_box_sites(d: int) -> int:
    """Inner box plus the three central columns: 3^(d-1) * (2d + 3) sites."""
    _require_dim(d)
    return 3 ** (d - 1) * (2 * d + 3)


@dataclass(frozen=True, slots=True)
class BlockSpec:
    """Scales of one space-time block.

    ``T`` is the block's time span, the horizon ``block_spread_estimate``
    runs to, and ``L`` the spatial half-width of the large boxes (side
    2L+1) whose sub-boxes have side max(1, round(L**0.1)).
    """

    T: float
    L: int

    def __post_init__(self) -> None:
        if not (self.T > 0 and self.L > 0):
            raise DomainError("T and L must be positive")

    @classmethod
    def for_scale(cls, L: int) -> "BlockSpec":
        """Large-box convention: the time span is the squared spatial scale."""
        return cls(T=float(L) ** 2, L=L)

    @property
    def sub_box_side(self) -> int:
        return max(1, round(self.L**0.1))


# ----------------------------------------------------------- closed forms


def _require_positive_finite(**values: float) -> None:
    for name, v in values.items():
        if not 0 < v < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {v}")


def prob_a1(T: float, d: int) -> float:
    """Chance every inner-box site dies at least once within a T-window."""
    _require_positive_finite(T=T)
    return (1.0 - math.exp(-T)) ** _as_float(inner_box_sites, d)


def estimate_a1(T: float, d: int, replicas: int, rng: np.random.Generator) -> tuple[float, float]:
    """Sample unit-rate death marks per inner-box site over [T, 2T]."""
    if replicas < 1:
        raise DomainError(f"need at least one replica, got {replicas}")
    prob_a1(T, d)  # argument validation
    try:
        counts = lattice.poisson(rng, T, (replicas, inner_box_sites(d)))
    except DomainError as exc:
        raise DomainError(f"dimension {d}: {exc}") from None
    return lattice.binomial_estimate(int((counts > 0).all(axis=1).sum()), replicas)


def _mark_rate(p: Params, d: int) -> float:
    """Total rate of crosses plus incoming birth arrows over the outer box."""
    return _as_float(outer_box_sites, d) * (p.beta + p.beta_d + 1.0)


def bound_a2(T: float, delta: float, d: int, p: Params) -> float:
    """Lower bound for the well-spaced-marks event.

    The rate constant folds the box size and the per-site mark intensity;
    the exponential constant comes from the Poisson upper-tail
    bound P(N >= 2*lambda) <= exp(-lambda*(2 ln 2 - 1)) applied to the
    mark count over [0, 2T].  The bound can be negative (and thus vacuous)
    when ``delta`` is not small against 1/(4rT).
    """
    _require_positive_finite(T=T, delta=delta)
    r = _mark_rate(p, d)
    a = 2.0 * r * (2.0 * math.log(2.0) - 1.0)
    return 1.0 - math.exp(-a * T) - 4.0 * r * T * (1.0 - math.exp(-2.0 * delta * r))


def estimate_a2(
    p: Params,
    T: float,
    delta: float,
    d: int,
    replicas: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Frequency of no two marks within 2*delta over [0, 2T] on the outer box."""
    if replicas < 1:
        raise DomainError(f"need at least one replica, got {replicas}")
    _require_positive_finite(T=T, delta=delta)
    rate = _mark_rate(p, d)
    window = 2.0 * T
    ok = 0
    for _ in range(replicas):
        n = lattice.poisson(rng, rate * window)
        if n < 2:
            ok += 1
            continue
        times = np.sort(lattice.allocate(n, "mark times", rng.uniform, 0.0, window, size=n))
        if float(np.diff(times).min()) > 2.0 * delta:
            ok += 1
    return lattice.binomial_estimate(ok, replicas)


def prob_a3_bound(beta: float, beta_c: float, T: float, delta: float, d: int) -> float:
    """Closed-form lower bound for delivering a birth arrow per sub-interval.

    Each of the 2 * outer_box_sites(d) * T / delta sub-intervals must carry
    an arrow that arrives at per-site rate (beta + beta_c/2d) / 2d.
    """
    _require_dim(d)
    _require_positive_finite(beta=beta, T=T, delta=delta)
    if not 0 <= beta_c < math.inf:
        raise DomainError(f"beta_c must be nonnegative and finite, got {beta_c}")
    per_site = (beta + beta_c / (2 * d)) / (2 * d)
    exponent = 2.0 * _as_float(outer_box_sites, d) * T / delta
    return (1.0 - math.exp(-delta * per_site)) ** exponent


def c_plus_absence_prob(L: int, d: int, rho: float) -> float:
    """Chance no cooperator-difference arrow points into a block region.

    The region spans (6L+1)^d sites over a time window of length 2L^2, and
    the difference stream delivers arrows into any fixed site at rate rho.
    """
    _require_dim(d)
    if L < 1 or int(L) != L:
        raise DomainError(f"L must be a positive integer, got {L}")
    if not 0 <= rho < math.inf:
        raise DomainError(f"rho must be nonnegative and finite, got {rho}")
    region = _as_float(lambda d: (6 * L + 1) ** d, d)
    try:
        window = 2.0 * L**2
    except OverflowError:
        window = math.inf
    if math.isinf(window * region):  # times rho = 0 it would be NaN
        raise DomainError(f"L = {lattice.number_text(L)} in dimension {d} gives a region of "
                          "more site-time than a float can hold")
    return math.exp(-window * region * rho)


def estimate_c_plus_absence(
    L: int, d: int, rho: float, replicas: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo companion to :func:`c_plus_absence_prob`.

    Draws the difference-arrow channels targeting the region site by site
    (4d^2 channels per site at rate rho/4d^2 each, superposed) over the
    2L^2 window and reports the frequency of drawing none at all.
    """
    if replicas < 1:
        raise DomainError(f"need at least one replica, got {replicas}")
    c_plus_absence_prob(L, d, rho)  # argument validation
    lam = rho * (6 * L + 1) ** d * 2.0 * L**2
    counts = lattice.poisson(rng, lam, replicas)
    return lattice.binomial_estimate(int((counts == 0).sum()), replicas)


# ------------------------------------------------------------- percolation


@dataclass(frozen=True, slots=True)
class PercolationField:
    """Sampled open/closed marks and the resulting wet sets (d=1).

    Arrays are indexed ``[level, z + width]``; cells off the parity
    sublattice are always False in both arrays.
    """

    epsilon: float
    levels: int
    width: int
    sources: tuple[int, ...]
    open_: np.ndarray
    wet: np.ndarray

    def in_bounds(self, z: int, n: int) -> bool:
        return 0 <= n <= self.levels and abs(z) <= self.width

    def wet_levels(self) -> np.ndarray:
        return self.wet.sum(axis=1)

    def dump_rle(self) -> str:
        """One line per level: run-length encoded parity-cell states.

        ``w`` wet, ``o`` open but dry, ``x`` closed.
        """
        codes = np.where(self.wet, 2, self.open_)  # wet wins, even over a closed cell
        lines = []
        for n, row in enumerate(codes):
            row = row[(n + self.width) % 2 :: 2]  # the parity cells z + n even
            starts = np.flatnonzero(np.diff(row, prepend=-1))
            counts = np.diff(starts, append=len(row))
            runs = "".join(f"{c}{'xow'[k]}" for c, k in zip(counts.tolist(), row[starts].tolist()))
            lines.append(f"{n}: {runs}")
        return "\n".join(lines) + "\n"


def percolate(
    epsilon: float,
    levels: int,
    width: int,
    sources="all",
    rng: np.random.Generator | None = None,
    uniforms: np.ndarray | None = None,
) -> PercolationField:
    """Sample an independent field and flood-fill wetness level by level.

    ``sources`` lists the level-0 launch sites (even coordinates), or
    ``"all"`` for every parity-valid level-0 site.  Passing the same
    ``uniforms`` array with two epsilons yields coupled fields: the wet
    set can only shrink as epsilon grows.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"epsilon must be a probability, got {epsilon}")
    if levels < 0 or width < 1:
        raise DomainError("need levels >= 0 and width >= 1")
    span = 2 * width + 1
    if uniforms is None:
        if rng is None:
            raise DomainError("either rng or uniforms must be provided")
        uniforms = lattice.allocate((levels + 1) * span, "percolation uniforms", rng.random,
                                    (levels + 1, span))
    elif uniforms.shape != (levels + 1, span):
        raise DomainError(
            f"uniforms shape {uniforms.shape} != {(levels + 1, span)}"
        )
    parity = _parity(levels, width)
    open_ = parity & (uniforms >= epsilon)

    if isinstance(sources, str):
        if sources != "all":
            raise DomainError(f"unknown source designation {sources!r}")
        source_list = (np.flatnonzero(parity[0]) - width).tolist()
    else:
        source_list = sorted(int(z) for z in sources)
        for z in source_list:
            if abs(z) > width:
                raise OutOfBounds(f"source {z} beyond width {width}")
            if z % 2 != 0:
                raise DomainError(f"source {z} is not on the parity sublattice")

    wet = np.zeros_like(open_)
    launch = np.asarray(source_list, dtype=np.intp) + width
    wet[0, launch] = open_[0, launch]
    for n in range(levels):
        wet[n + 1] = open_[n + 1] & _either_side(wet[n], 1)
    return PercolationField(
        epsilon=epsilon,
        levels=levels,
        width=width,
        sources=tuple(source_list),
        open_=open_,
        wet=wet,
    )


def _parity(levels: int, width: int) -> np.ndarray:
    """Mask of the parity sublattice z + n even, levels by positions -width..width."""
    return (np.arange(-width, width + 1) + np.arange(levels + 1)[:, None]) % 2 == 0


def _either_side(row: np.ndarray, k: int) -> np.ndarray:
    """Positions ``k`` to the left or right of some member of the set ``row``."""
    out = np.zeros_like(row)
    out[k:] |= row[:-k]
    out[:-k] |= row[k:]
    return out


def _dry_reach(field: PercolationField, graph: str) -> list[np.ndarray]:
    """Per level, the dry sites reachable from level 0, up to the last level any reaches."""
    if graph not in ("G", "H"):
        raise DomainError(f"graph must be 'G' or 'H', got {graph!r}")
    dry = ~field.wet & _parity(field.levels, field.width)
    levels: list[np.ndarray] = []
    reach = dry[0]
    for n in range(field.levels + 1):
        if n > 0:
            reach = dry[n] & _either_side(reach, 1)  # the diagonal steps up
        while graph == "H":  # saturate the same-level double steps
            spread = dry[n] & (reach | _either_side(reach, 2))
            if (spread == reach).all():
                break
            reach = spread
        if not reach.any():
            break
        levels.append(reach)
    return levels


def dry_path_exists(field: PercolationField, target: tuple[int, int], graph: str = "G") -> bool:
    """Directed dry-site path search from level 0 to ``target``.

    ``graph`` "G" uses the upward steps only; "H" also walks the same-level
    double steps.  A site is dry when it is not wet (closed sites count).
    """
    levels = _dry_reach(field, graph)
    z_t, n_t = target
    if not field.in_bounds(z_t, n_t):
        raise OutOfBounds(f"target {target} outside the sampled field")
    if (z_t + n_t) % 2 != 0:
        raise DomainError(f"target {target} is not on the parity sublattice")
    return n_t < len(levels) and bool(levels[n_t][z_t + field.width])


def max_dry_level(field: PercolationField, graph: str = "G") -> int:
    """Highest level any dry path reaches, or -1 when level 0 is fully wet.

    Because a dry path to level n passes through every level below it, the
    indicator of "some dry path reaches level n" is nonincreasing in n
    field by field.
    """
    return len(_dry_reach(field, graph)) - 1


# ----------------------------------------------------------- block spread


@dataclass(frozen=True, slots=True)
class BlockSpreadResult:
    frequency: float
    stderr: float
    replicas: int
    spec: BlockSpec


def _sub_box_slices(lo: int, hi: int, side: int) -> list[range]:
    """Partition [lo, hi] into runs of length ``side`` (last one may be short)."""
    return [range(a, min(a + side, hi + 1)) for a in range(lo, hi + 1, side)]


def block_spread_estimate(
    p: Params,
    spec: BlockSpec,
    replicas: int,
    rng: np.random.Generator,
) -> BlockSpreadResult:
    """Frequency that a minimally-seeded center block fills both neighbors.

    Starting from the minimal configuration of the center event — one
    defector placed uniformly in each sub-box of the center box, no
    cooperators anywhere — the equal-rate process runs for the block time
    span ``spec.T``; success means both horizontally adjacent boxes end
    cooperator free (here automatic) with at least one defector in each of
    their sub-boxes.  d=1 only: the pilot-validated supercriticality threshold
    and the box bookkeeping are calibrated for one dimension.
    """
    if p.dim != 1:
        raise DomainError("block spread estimation is calibrated for d=1 only")
    if replicas < 1:
        raise DomainError(f"need at least one replica, got {replicas}")
    if p.beta_d <= 1e-9:
        raise DomainError(
            "degenerate block family: the type bonuses vanish with beta_d"
        )
    require_equal_rate(p, "block spread (the equal-rate process)")
    if p.beta <= BETA_STAR_D1:
        raise DomainError(
            f"beta = {p.beta} is not above the pilot-validated threshold "
            f"{BETA_STAR_D1} for d=1"
        )
    L = spec.L
    side = 6 * L + 1  # covers [-3L, 3L]
    lattice.site_count(side, 1)  # before the sub-box lists, which a torus too large would outsize
    offset = 3 * L
    sub = spec.sub_box_side
    center_boxes = _sub_box_slices(-L, L, sub)
    left_boxes = _sub_box_slices(-2 * L, 0, sub)
    right_boxes = _sub_box_slices(0, 2 * L, sub)
    horizon = spec.T

    hits = 0
    for _ in range(replicas):
        torus = Torus(side, 1)
        for box in center_boxes:
            z = int(rng.integers(box.start, box.stop))
            torus.sites[z + offset] = DEFECTOR
        lattice.run(torus, p, horizon, rng, sample_interval=horizon)
        hits += all(
            DEFECTOR in torus.sites[box.start + offset : box.stop + offset]
            for box in left_boxes + right_boxes
        )
    freq, stderr = lattice.binomial_estimate(hits, replicas)
    return BlockSpreadResult(frequency=freq, stderr=stderr, replicas=replicas, spec=spec)
