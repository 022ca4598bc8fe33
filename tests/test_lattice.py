"""Unit tests for the torus simulation engine."""

import itertools
import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim import lattice
from coopsim.errors import DomainError
from coopsim.lattice import (
    COOPERATOR,
    DEFECTOR,
    EMPTY,
    RateTable,
    SurvivalResult,
    Torus,
    product_measure,
    replica_rng,
    run,
    step,
    survival_estimate,
)
from coopsim.params import Params

from mark_reference import neighbors

state_strings = st.text(alphabet="ecd", min_size=4, max_size=40)


def make_line(pattern: str) -> Torus:
    return Torus.from_state_string(pattern, dim=1)


# --------------------------------------------------------------------- torus


def test_torus_geometry_basics():
    t = Torus(5, dim=1)
    assert t.n_sites == 5
    assert neighbors(t)[0] == (4, 1)
    assert neighbors(t)[4] == (3, 0)
    assert all(len(nbrs) == 2 for nbrs in neighbors(t))


def test_torus_neighbors_axis_order_2d():
    t = Torus(4, dim=2)
    assert t.n_sites == 16
    i = t.index((0, 0))
    # order is (-e_0, +e_0, -e_1, +e_1) with periodic wrap
    assert neighbors(t)[i] == (t.index((3, 0)), t.index((1, 0)), t.index((0, 3)), t.index((0, 1)))
    assert all(len(nbrs) == 4 for nbrs in neighbors(t))


def test_torus_side_two_repeats_neighbor():
    t = Torus(2, dim=1)
    assert neighbors(t)[0] == (1, 1)
    assert neighbors(t)[1] == (0, 0)


# every shape with side 2-8, d = 1-4 and at most 5,000 sites, and six more
GEOMETRY_SHAPES = [(side, dim) for side in range(2, 9) for dim in range(1, 5) if side**dim <= 5000]
GEOMETRY_SHAPES += [(100, 2), (10**4, 1), (20, 3), (1000, 1), (37, 1), (60, 1)]


@pytest.mark.parametrize("side, dim", GEOMETRY_SHAPES)
def test_geometry_matches_its_definition(side, dim):
    # neighbors are the sites one unit step away, axis by axis as (-e_j, +e_j);
    # near2 holds the sites at most two unit steps away, ascending
    t = Torus(side, dim)
    geometry = lattice._geometry(side, dim)
    units = [tuple(s * (j == k) for k in range(dim)) for j in range(dim) for s in (-1, 1)]
    neighbors, near2 = [], []
    for i in range(t.n_sites):
        c = [i // side**j % side for j in range(dim)]
        assert t.index(c) == i
        one = [[a + b for a, b in zip(c, u)] for u in units]
        two = [[a + b for a, b in zip(x, u)] for x in one for u in units]
        neighbors.append(tuple(t.index(x) for x in one))
        near2.append(tuple(sorted({t.index(x) for x in [c, *one, *two]})))
    python_neighbors, python_near2 = lattice._neighbor_lists(side, dim)
    assert python_neighbors == tuple(neighbors)
    assert tuple(map(tuple, python_near2)) == tuple(near2)
    assert geometry.nbr.tolist() == [y for row in neighbors for y in row]
    assert geometry.near2_flat.tolist() == [z for row in near2 for z in row]
    assert geometry.near2_ptr.tolist() == [0, *itertools.accumulate(map(len, near2))]
    for array in (geometry.nbr, geometry.near2_ptr, geometry.near2_flat):
        assert array.dtype == np.int32 and array.ndim == 1 and not array.flags.writeable


def test_geometry_allocates_only_its_arrays():
    # the three int32 arrays hold 32 bytes a site on a ring (2 + 5 + 1 ints);
    # per-site Python tuples, as once kept for the Python engine, cost 200 more
    lattice._geometry.cache_clear()
    tracemalloc.start()
    try:
        lattice._geometry(10**5, 1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        lattice._geometry.cache_clear()
    assert kept < 40 * 10**5 and peak < 128 * 10**5, (kept, peak)


def test_site_count_refuses_shapes_beyond_the_int32_limit():
    assert lattice.MAX_SITES == 2**31 - 1
    assert lattice.site_count(2, 30) == 2**30
    assert lattice.site_count(46340, 2) == 46340**2 < lattice.MAX_SITES < 46341**2
    for side, dim in [(2, 31), (46341, 2), (2, 64), (2, 10**9), (10**6, 31)]:
        with pytest.raises(DomainError, match="more than 2147483647 sites"):
            lattice.site_count(side, dim)
    with pytest.raises(DomainError, match="side must be at least 2"):
        lattice.site_count(1, 10**9)
    with pytest.raises(DomainError, match="dim must be at least 1"):
        lattice.site_count(2, 0)


def test_too_large_torus_is_refused_before_anything_is_drawn():
    with pytest.raises(DomainError, match="more than 2147483647 sites"):
        Torus(2, dim=64)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="more than 2147483647 sites"):
        product_measure(2, 64, 0.3, 0.3, rng)
    assert rng.bit_generator.state == state


def test_torus_state_string_round_trip():
    t = make_line("ecdce")
    assert t.state_string() == "ecdce"
    assert t.counts() == (2, 1, 2)
    assert t.swap_types().state_string() == "edcde"


def test_torus_validation():
    with pytest.raises(DomainError):
        Torus(1, dim=1)
    with pytest.raises(DomainError):
        Torus(3, dim=0)
    with pytest.raises(DomainError):
        Torus(3, dim=1, sites=[0, 1])
    with pytest.raises(DomainError):
        Torus(3, dim=1, sites=[0, 1, 7])


@pytest.mark.parametrize(
    "states",
    [[1.0, 0, 0, 0, 2], [0, 0, 2.5, 0, 0], [0, 3, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, 0, 0, 256],
     [0, "c", 0, 0, 0], [0, None, 0, 0, 0], [0, 10**30, 0, 0, 0], "eccdd", np.array([1.0, 0, 0, 0, 2])],
    ids=["float", "fraction", "three", "negative", "past-a-byte", "char", "none", "huge", "text",
         "float-array"],
)
def test_torus_refuses_a_state_that_is_not_an_integer_0_to_2(states):
    with pytest.raises(DomainError, match="site states"):
        Torus(5, 1, states)


def test_torus_takes_any_integer_states_and_runs_them(engine):
    # states are read through __index__, so numpy integers and bools count
    for states in ([1, 0, 0, 0, 2], np.array([1, 0, 0, 0, 2]), [np.int8(1), 0, False, 0, np.uint64(2)],
                   bytearray(b"\1\0\0\0\2")):
        t = Torus(5, 1, states)
        assert type(t.sites) is bytearray and t.state_string() == "ceeed"
        series = run(t, Params(2.0), 1.0, np.random.default_rng(0))
        assert sum(t.counts()) == 5 and series.events > 0


@pytest.mark.parametrize(
    "text, dim, named",
    [("cxe", 1, "other than e, c, d"), ("cde", 0, "dim must be"), ("cde", -1, "dim must be"),
     ("cdeec", 2, "do not fill"), ("", 1, "side must be")],
    ids=["unknown-char", "dim-zero", "dim-negative", "not-square", "empty"],
)
def test_from_state_string_rejects_bad_input(text, dim, named):
    with pytest.raises(DomainError, match=named):
        Torus.from_state_string(text, dim=dim)


def test_product_measure_frequencies():
    rng = np.random.default_rng(123)
    t = product_measure(10_000, 1, 0.3, 0.5, rng)
    n_c, n_d, n_e = t.counts()
    assert abs(n_c / 10_000 - 0.3) < 4 * (0.3 * 0.7 / 10_000) ** 0.5
    assert abs(n_d / 10_000 - 0.5) < 4 * (0.5 * 0.5 / 10_000) ** 0.5
    with pytest.raises(DomainError):
        product_measure(10, 1, 0.6, 0.6, rng)


def product_measure_reference(side, dim, rho_c, rho_d, rng):
    """The per-site rule ``product_measure`` once ran, one comparison a site."""
    u = rng.random(side**dim)
    return [COOPERATOR if v < rho_c else (DEFECTOR if v < rho_c + rho_d else EMPTY) for v in u]


@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("rho_c, rho_d", [(0.0, 0.0), (0.25, 0.25), (0.1, 0.2), (0.3, 0.7), (1.0, 0.0),
                                          (0.0, 1.0), (0.5, 0.5)])
def test_product_measure_equals_the_per_site_rule(seed, rho_c, rho_d):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    torus = product_measure(30, 2, rho_c, rho_d, rng)
    assert list(torus.sites) == product_measure_reference(30, 2, rho_c, rho_d, reference)
    assert rng.random() == reference.random()  # and the generator is left where it was


def test_product_measure_at_a_draw_equal_to_rho_c():
    # a uniform equal to rho_c is not below it, so its site is no cooperator
    u = np.random.default_rng(11).random(64)
    for k in np.flatnonzero(u < 0.75)[:6]:
        rho_c = float(u[k])
        for rho_d in (0.0, 0.25):
            torus = product_measure(8, 2, rho_c, rho_d, np.random.default_rng(11))
            reference = product_measure_reference(8, 2, rho_c, rho_d, np.random.default_rng(11))
            assert list(torus.sites) == reference
            assert torus.sites[k] == (DEFECTOR if rho_d else EMPTY)


# --------------------------------------------------------------- birth rates
# An empty site's entry in ``RateTable.rates`` is the birth rate the engine
# samples from: the sum of its directed-pair rates.


def test_birth_rate_c_supported_pair():
    # (c, c, x, e, e): x's left neighbor is a cooperator whose other
    # neighbor is also a cooperator.
    t = make_line("ccxee".replace("x", "e"))
    p = Params(2.0, 4.0, 0.0, 1)
    assert RateTable(t, p).rates[2] == 2.0


def test_birth_rate_c_lone_parent():
    t = make_line("ecxee".replace("x", "e"))
    p = Params(2.0, 4.0, 0.0, 1)
    assert RateTable(t, p).rates[2] == 1.0


def test_birth_rate_c_all_neighbors_empty():
    t = make_line("eeeee")
    assert RateTable(t, Params(2.0, 4.0)).rates[2] == 0.0


def test_rate_table_occupied_site_has_death_rate_only():
    # occupied sites carry their unit death clock, whatever their neighbors
    t = make_line("ccdee")
    rates = RateTable(t, Params(2.0, 4.0, 1.0, 1)).rates
    assert rates[:3] == [1.0, 1.0, 1.0]


def test_birth_rate_d_one_neighbor():
    t = make_line("edxee".replace("x", "e"))
    assert RateTable(t, Params(2.0, 0.0, 1.0, 1)).rates[2] == 1.5


def test_birth_rate_d_four_neighbors_2d():
    t = Torus(3, dim=2)
    center = t.index((1, 1))
    for coords in [(0, 1), (2, 1), (1, 0), (1, 2)]:
        t.sites[t.index(coords)] = DEFECTOR
    assert RateTable(t, Params(2.0, 0.0, 2.0, 2)).rates[center] == 4.0


def test_birth_rate_dim_mismatch():
    t = make_line("eeeee")
    with pytest.raises(DomainError):
        RateTable(t, Params(2.0, dim=2))


@settings(max_examples=120, deadline=None)
@given(
    pattern=state_strings,
    beta=st.floats(0.1, 10.0),
    beta_c=st.floats(0.0, 10.0),
)
def test_birth_rate_c_bounded_by_total_rate(pattern, beta, beta_c):
    t = make_line(pattern)
    rates = RateTable(t, Params(beta, beta_c, 0.0, 1)).rates
    for x, s in enumerate(t.sites):
        if s == EMPTY:
            assert rates[x] <= beta + beta_c + 1e-12


@settings(max_examples=120, deadline=None)
@given(pattern=state_strings, beta=st.floats(0.1, 10.0))
def test_birth_rate_c_reduces_exactly_without_benefit(pattern, beta):
    # with beta_c == beta_d == 0 every occupied neighbor feeds exactly beta/2d
    t = make_line(pattern)
    rates = RateTable(t, Params(beta, 0.0, 0.0, 1)).rates
    for x, s in enumerate(t.sites):
        if s == EMPTY:
            n_occ = sum(1 for y in neighbors(t)[x] if t.sites[y] != EMPTY)
            assert rates[x] == n_occ * (beta / 2.0)


# ---------------------------------------------------------------- rate table


def test_rate_table_single_defector_totals():
    t = make_line("eedee")
    table = RateTable(t, Params(2.0, 0.0, 1.0, 1))
    assert table.rates == [0.0, 1.5, 1.0, 1.5, 0.0]
    assert sum(table.block_sums) == 4.0


def test_step_single_defector_death_fraction():
    # Death carries 1/4 of the total rate 4; check the empirical pick.
    p = Params(2.0, 0.0, 1.0, 1)
    rng = np.random.default_rng(99)
    deaths = 0
    n = 4000
    for _ in range(n):
        t = make_line("eedee")
        table = RateTable(t, p)
        event, _ = step(table, rng)
        deaths += event.kind == "death"
    assert abs(deaths / n - 0.25) < 3 * (0.25 * 0.75 / n) ** 0.5


def test_step_horizon_stop_leaves_state_unchanged():
    t = make_line("ccdee")
    p = Params(2.0, 1.0, 1.0, 1)
    table = RateTable(t, p)
    before = t.state_string()
    event, elapsed = step(table, np.random.default_rng(1), t_limit=1e-12)
    assert event is None
    assert elapsed > 1e-12
    assert t.state_string() == before


def test_rate_table_incremental_matches_rebuild_after_many_steps():
    # Rates and block sums are recomputed from the configuration, never
    # accumulated, so after many events they equal a fresh table's exactly.
    # A square N = side**2 fills its blocks of side sites; N = 23 (blocks of
    # 4) and N = 5**3 (blocks of 11) end in a partial block.
    for side, dim, partial in ((23, 1, True), (31, 2, False), (5, 3, True)):
        p = Params(6.0, 3.0, 2.0, dim)
        rng = np.random.default_rng(42)
        t = product_measure(side, dim, 0.4, 0.4, rng)
        table = RateTable(t, p)
        assert (t.n_sites % table.block != 0) == partial
        for _ in range(10_000):
            if step(table, rng)[0] is None:  # pragma: no cover - not expected at these rates
                break
        fresh = RateTable(t, p)
        assert table.rates == fresh.rates
        assert table.block_sums == fresh.block_sums


class _FixedDraws:
    """Generator stand-in whose uniform draw is a fixed value."""

    def __init__(self, u: float):
        self.u = u

    def standard_exponential(self) -> float:
        return 1.0

    def random(self) -> float:
        return self.u


@pytest.mark.parametrize(
    "pattern, p, u, site",
    [
        # the last, partial block (site 9) and the block before it hold only
        # zero-rate empty sites; the uniform is the largest float below 1
        ("eeccdeeeee", Params(2.0, 1.0, 1.0, 1), float(np.nextafter(1.0, 0.0)), 5),
        # u * total lands one ulp below the end of block (3, 4, 5) and the
        # residual rounds up past that block's own sum, so the within-block
        # clamp must skip the zero-rate site 5 and take site 4
        ("eeedeeeede", Params(0.7, 0.0, 0.0, 1), float(np.nextafter(0.5, 0.0)), 4),
    ],
)
def test_step_selection_boundary_never_picks_zero_rate_site(pattern, p, u, site):
    t = make_line(pattern)
    table = RateTable(t, p)
    rates = list(table.rates)
    assert table.block == 3 and rates[site + 1] == 0.0
    event, _ = step(table, _FixedDraws(u))
    assert rates[event.site] > 0.0
    assert (event.kind, event.site, event.parent) == ("birth", site, 4 if site == 5 else 3)


def test_step_birth_walk_picks_every_pair_of_mixed_sites():
    # Every empty site of this 4x4 torus has cooperator and defector
    # neighbors, and the cooperators have support 1 or 2.  A uniform at the
    # midpoint of one directed pair's slice of the total rate must pick that
    # pair.  The pair rates are the distinct integers 3 (cooperator with
    # support 1), 5 (support 2) and 4 (defector), so the hand sums are exact.
    p = Params(4.0, 32.0, 12.0, 2)
    start = Torus.from_state_string("ccedcedcedccdecd", dim=2)
    sites = start.sites

    def pair_rates(x):
        out = []
        for y in neighbors(start)[x]:
            if sites[y] == COOPERATOR:
                k = sum(1 for z in neighbors(start)[y] if sites[z] == COOPERATOR)
                out.append((y, p.beta / 4 + p.beta_c / 16 * k))
            elif sites[y] == DEFECTOR:
                out.append((y, (p.beta + p.beta_d) / 4))
        return out

    site_rates = [sum(r for _, r in pair_rates(x)) if s == EMPTY else 1.0 for x, s in enumerate(sites)]
    assert RateTable(start.copy(), p).rates == site_rates
    total = sum(site_rates)
    picked = []
    for x, s in enumerate(sites):
        if s != EMPTY:
            continue
        lo = sum(site_rates[:x])
        for y, r in pair_rates(x):
            event, _ = step(RateTable(start.copy(), p), _FixedDraws((lo + r / 2) / total))
            assert (event.kind, event.site, event.parent, event.state) == ("birth", x, y, sites[y])
            picked.append(sites[y])
            lo += r
    assert len(picked) == 16 and set(picked) == {COOPERATOR, DEFECTOR}


# ----------------------------------------------------------- type symmetry


def test_role_swap_mirrors_run_exactly():
    # With no type-specific bonus the two labels play identical roles: the
    # same seed must drive the mirrored configuration through the mirrored
    # event sequence, draw for draw.
    p = Params(3.0, 0.0, 0.0, 1)
    rng_a = np.random.default_rng(2024)
    rng_b = np.random.default_rng(2024)
    t_a = product_measure(30, 1, 0.25, 0.25, np.random.default_rng(5))
    t_b = t_a.swap_types()
    table_a = RateTable(t_a, p)
    table_b = RateTable(t_b, p)
    swap = {EMPTY: EMPTY, COOPERATOR: DEFECTOR, DEFECTOR: COOPERATOR}
    for _ in range(3000):
        ev_a, dt_a = step(table_a, rng_a)
        ev_b, dt_b = step(table_b, rng_b)
        assert dt_a == dt_b
        if ev_a is None:
            assert ev_b is None and dt_a == math.inf
            break
        assert ev_a.kind == ev_b.kind
        assert ev_a.site == ev_b.site
        assert ev_a.parent == ev_b.parent
        assert ev_b.state == swap[ev_a.state]
        assert ev_b.prev == swap[ev_a.prev]
    assert t_b.state_string() == t_a.swap_types().state_string()


def test_identical_seeds_are_bit_identical():
    p = Params(4.0, 1.5, 1.0, 1)

    def one(seed):
        rng = np.random.default_rng(seed)
        t = product_measure(40, 1, 0.2, 0.3, rng)
        series = run(t, p, t_end=15.0, rng=rng, sample_interval=0.5)
        return series, t.state_string()

    series_a, final_a = one(7)
    series_b, final_b = one(7)
    assert final_a == final_b
    assert np.array_equal(series_a.n_c, series_b.n_c)
    assert np.array_equal(series_a.n_d, series_b.n_d)
    assert np.array_equal(series_a.n_e, series_b.n_e)


# ----------------------------------------------------------------------- run


def test_run_zero_horizon_single_sample():
    t = make_line("ccdee")
    series = run(t, Params(2.0, 1.0, 1.0, 1), t_end=0.0, rng=np.random.default_rng(0))
    assert len(series.t) == 1
    assert (series.n_c[0], series.n_d[0], series.n_e[0]) == (2, 1, 2)
    assert t.state_string() == "ccdee"


def test_run_counts_conserved_and_nonnegative():
    rng = np.random.default_rng(11)
    t = product_measure(50, 1, 0.3, 0.3, rng)
    series = run(t, Params(4.0, 0.0, 0.0, 1), t_end=30.0, rng=rng)
    total = series.n_c + series.n_d + series.n_e
    assert np.all(total == 50)
    assert np.all(series.n_c >= 0) and np.all(series.n_d >= 0) and np.all(series.n_e >= 0)


def test_run_final_state_independent_of_sampling_grid():
    # t_end falls between sample times; the torus must still be advanced
    # all the way to t_end, not parked at the last flushed sample
    p = Params(3.0, 1.0, 0.5, 1)
    finals = []
    for interval in (0.25, 1.0, 7.0):
        t = make_line("ccddeeccdd")
        run(t, p, t_end=4.7, rng=np.random.default_rng(21), sample_interval=interval)
        finals.append(t.state_string())
    assert finals[0] == finals[1] == finals[2]


def test_run_sample_is_state_at_sampling_time():
    # a run stopped at a sample time makes the same draws up to that time,
    # so its final counts are what the longer run sampled there
    p = Params(3.0, 1.0, 0.5, 1)
    start = product_measure(30, 1, 0.3, 0.3, np.random.default_rng(13))
    series = run(start.copy(), p, t_end=10.0, rng=np.random.default_rng(14), sample_interval=0.25)
    for k in range(1, len(series.t), 3):
        t = start.copy()
        run(t, p, t_end=float(series.t[k]), rng=np.random.default_rng(14))
        assert t.counts() == (series.n_c[k], series.n_d[k], series.n_e[k])


def test_run_pinned_bytes():
    # values computed before the event loop was merged into one; the
    # sampled counts and the final state must not move
    t = make_line("ccddeeccdd")
    series = run(t, Params(3.0, 1.0, 0.5, 1), t_end=4.7, rng=np.random.default_rng(21))
    assert series.n_c.tolist() == [4, 4, 3, 3, 0, 0]
    assert series.n_d.tolist() == [4, 5, 4, 5, 4, 4]
    assert series.n_e.tolist() == [2, 1, 3, 2, 6, 6]
    assert t.state_string() == "eeededddee"


def test_run_absorption_freezes_remaining_samples():
    t = make_line("cc")
    series = run(t, Params(0.001, 0.0, 0.0, 1), t_end=200.0, rng=np.random.default_rng(3))
    assert series.n_c[-1] == 0 and series.n_d[-1] == 0
    assert series.n_e[-1] == 2
    # once empty, every later sample is the frozen absorbing state
    dead_from = int(np.argmax(series.n_e == 2))
    assert np.all(series.n_e[dead_from:] == 2)
    assert t.counts() == (0, 0, 2)


# ------------------------------------------------- two-site chain vs algebra

TWO_SITE_STATES = [(a, b) for a in (EMPTY, COOPERATOR, DEFECTOR) for b in (EMPTY, COOPERATOR, DEFECTOR)]


def two_site_generator(p: Params) -> np.ndarray:
    """Exact 9-state generator of the side-2 torus chain.

    On two sites each empty site sees the other site twice, so a lone
    cooperator feeds rate beta (its support term is always zero because its
    only distinct neighbor is the empty target), and a lone defector feeds
    rate beta + beta_d.
    """
    idx = {s: k for k, s in enumerate(TWO_SITE_STATES)}
    q = np.zeros((9, 9))
    for (a, b), k in idx.items():
        for pos, (mine, other) in enumerate([(a, b), (b, a)]):
            target = (EMPTY, b) if pos == 0 else (a, EMPTY)
            if mine != EMPTY:
                q[k, idx[target]] += 1.0
            else:
                if other == COOPERATOR:
                    born = (COOPERATOR, b) if pos == 0 else (a, COOPERATOR)
                    q[k, idx[born]] += p.beta
                elif other == DEFECTOR:
                    born = (DEFECTOR, b) if pos == 0 else (a, DEFECTOR)
                    q[k, idx[born]] += p.beta + p.beta_d
    np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
    return q


def test_two_site_occupation_times_match_linear_algebra():
    # The chain absorbs at (e, e); the comparable exact object is the
    # expected time spent in each transient state before absorption,
    # which is the start row of the inverse of the negated sub-generator.
    p = Params(2.0, 1.0, 1.0, 1)
    q = two_site_generator(p)
    start = TWO_SITE_STATES.index((COOPERATOR, DEFECTOR))
    absorbing = TWO_SITE_STATES.index((EMPTY, EMPTY))
    transient = [k for k in range(9) if k != absorbing]
    q_sub = q[np.ix_(transient, transient)]
    expected = np.zeros(9)
    expected[transient] = np.linalg.solve(
        -q_sub.T, np.eye(len(transient))[transient.index(start)]
    )
    expected_dist = expected / expected.sum()

    rng = np.random.default_rng(314)
    occupancy = np.zeros(9)
    replicas = 4000
    p_local = Params(2.0, 1.0, 1.0, 1)
    for _ in range(replicas):
        t = Torus(2, 1, [COOPERATOR, DEFECTOR])
        table = RateTable(t, p_local)
        while True:
            state_idx = TWO_SITE_STATES.index((t.sites[0], t.sites[1]))
            event, elapsed = step(table, rng)
            if event is None:
                break
            occupancy[state_idx] += elapsed
    observed_dist = occupancy / occupancy.sum()
    tv = 0.5 * float(np.abs(observed_dist - expected_dist).sum())
    assert tv < 0.02, f"occupation TV {tv:.4f}"
    assert expected[absorbing] == 0.0


# ------------------------------------------------------------------ survival


def test_survival_no_cooperators_never_revive():
    res = survival_estimate(
        Params(3.0, 1.0, 0.5, 1), side=20, horizon=5.0, replicas=16,
        rho_c=0.0, rho_d=0.4, master_seed=5,
    )
    assert res.freq_c_alive == 0.0
    assert res.freq_c_wins == 0.0


def test_survival_frequencies_partition():
    res = survival_estimate(
        Params(4.0, 1.0, 1.0, 1), side=30, horizon=10.0, replicas=32,
        rho_c=0.2, rho_d=0.2, master_seed=17,
    )
    total = res.freq_c_wins + res.freq_d_wins + res.freq_coexist + res.freq_both_extinct
    assert total == pytest.approx(1.0)


def test_survival_independent_of_worker_count():
    kwargs = dict(
        p=Params(4.0, 1.0, 1.0, 1), side=20, horizon=5.0, replicas=8,
        rho_c=0.3, rho_d=0.3, master_seed=23,
    )
    serial = survival_estimate(**kwargs, jobs=1)
    pooled = survival_estimate(**kwargs, jobs=2)
    assert serial.outcomes == pooled.outcomes


@pytest.mark.parametrize(
    "jobs, replicas, workers", [(64, 3, 3), (64, 10, 4), (2, 10, 2), (1000, 1, 1)]
)
def test_survival_pool_is_capped(serial_pool, jobs, replicas, workers):
    # the pool gets min(jobs, usable cpus (4 here), replicas) workers
    kwargs = dict(
        p=Params(4.0, 1.0, 1.0, 1), side=6, horizon=2.0, replicas=replicas,
        rho_c=0.3, rho_d=0.3, master_seed=3,
    )
    pooled = survival_estimate(**kwargs, jobs=jobs)
    assert serial_pool == [workers]
    assert pooled == survival_estimate(**kwargs, jobs=1)


def test_survival_pool_without_affinity_uses_cpu_count(serial_pool, monkeypatch):
    monkeypatch.delattr(lattice.os, "sched_getaffinity")
    monkeypatch.setattr(lattice.os, "cpu_count", lambda: 3)
    survival_estimate(Params(4.0), side=4, horizon=1.0, replicas=10, rho_c=0.3, rho_d=0.3,
                      master_seed=1, jobs=8)
    assert serial_pool == [3]


def test_survival_pinned_outcomes():
    # values computed before replicas were routed through ``run``
    res = survival_estimate(
        Params(4.0, 1.0, 1.0, 1), side=12, horizon=3.0, replicas=4,
        rho_c=0.3, rho_d=0.3, master_seed=5,
    )
    assert [(o.n_c, o.n_d, o.n_e) for o in res.outcomes] == [
        (1, 9, 2), (5, 5, 2), (2, 9, 1), (0, 9, 3),
    ]


HAND_ROWS = [  # (n_c, n_d, n_e): every class, zero cooperators, zero defectors, all empty
    (3, 0, 1), (0, 4, 0), (2, 2, 0), (0, 0, 4), (1, 0, 3), (0, 1, 3), (0, 0, 4), (4, 1, 0), (5, 0, 0),
]


def result_of(rows) -> SurvivalResult:
    return SurvivalResult(np.array(rows, dtype=np.int32).reshape(-1, 3).tobytes())


@pytest.mark.parametrize("rows", [HAND_ROWS, HAND_ROWS[:1], HAND_ROWS[3:4], HAND_ROWS[2:3]],
                         ids=["all-classes", "one-c-wins", "one-all-empty", "one-coexist"])
def test_survival_reductions_equal_a_count_over_the_rows(rows):
    res = result_of(rows)
    n = len(rows)
    classes = {
        "c_wins": lambda c, d: c > 0 and d == 0,
        "d_wins": lambda c, d: d > 0 and c == 0,
        "coexist": lambda c, d: c > 0 and d > 0,
        "both_extinct": lambda c, d: c == 0 and d == 0,
        "c_alive": lambda c, d: c > 0,
        "d_alive": lambda c, d: d > 0,
    }
    for name, rule in classes.items():
        hits = sum(1 for c, d, _ in rows if rule(c, d))
        if not name.endswith("alive"):
            count = getattr(res, f"n_{name}")
            assert count == hits and type(count) is int, name
        freq = getattr(res, f"freq_{name}")
        assert freq == hits / n and type(freq) is float, name
    assert res.n_c_wins + res.n_d_wins + res.n_coexist + res.n_both_extinct == res.replicas == n
    assert res.outcomes == tuple((i, *row) for i, row in enumerate(rows))
    assert [o.index for o in res.outcomes] == list(range(n))
    assert res.counts.dtype == np.int32 and res.counts.shape == (n, 3)
    assert not res.counts.flags.writeable
    twin = result_of(list(rows))
    assert twin == res and hash(twin) == hash(res)
    assert result_of(rows[::-1] + [(1, 1, 1)]) != res


# two points of a sweep, whose 10 replicas each the chunk tests run 3 at a time
TWO_POINTS = [(Params(4.0, beta_c, 1.0, 1), 6, 2.0, 0.3, 0.3, seed) for beta_c, seed in ((0.0, 5), (6.0, 8))]


def test_survival_rows_are_filled_chunk_by_chunk(serial_pool, monkeypatch):
    points = TWO_POINTS
    serial = lattice.survival_replicas(points, 10, jobs=1)
    monkeypatch.setattr(lattice, "REPLICA_CHUNK", 3)
    assert np.array_equal(lattice.survival_replicas(points, 10, jobs=1), serial)
    assert np.array_equal(lattice.survival_replicas(points, 10, jobs=2), serial)
    assert serial_pool == [2]
    for k, (p, side, horizon, rho_c, rho_d, seed) in enumerate(points):
        alone = survival_estimate(p, side, horizon, 10, rho_c, rho_d, seed)
        assert np.array_equal(alone.counts, serial[10 * k : 10 * (k + 1)])


def test_survival_rows_are_filled_chunk_by_chunk_in_one_real_pool(monkeypatch):
    points = TWO_POINTS
    serial = lattice.survival_replicas(points, 10, jobs=1)
    opened = []

    class CountedPool(lattice.ProcessPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(lattice, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(lattice, "REPLICA_CHUNK", 3)
    monkeypatch.setattr(lattice.os, "sched_getaffinity", lambda pid: {0, 1})
    assert np.array_equal(lattice.survival_replicas(points, 10, jobs=2), serial)
    assert opened == [2]
    assert multiprocessing.active_children() == []


def test_survival_keeps_a_few_bytes_per_replica():
    n = 10_000
    kwargs = dict(p=Params(4.0), side=4, horizon=0.0, rho_c=0.3, rho_d=0.3, master_seed=1)
    survival_estimate(replicas=10, **kwargs)  # caches and first-use allocations
    tracemalloc.start()
    try:
        res = survival_estimate(replicas=n, **kwargs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.replicas == n
    assert kept <= 16 * n and peak <= 32 * n, (kept / n, peak / n)


def test_replica_rng_streams_differ():
    a = replica_rng(9, 0).random(4)
    b = replica_rng(9, 1).random(4)
    again = replica_rng(9, 0).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, again)


def test_survival_rejects_zero_replicas():
    with pytest.raises(DomainError):
        survival_estimate(
            Params(2.0), side=10, horizon=1.0, replicas=0,
            rho_c=0.1, rho_d=0.1, master_seed=1,
        )


def test_params_reject_non_finite_rates():
    for args in ((2.0, float("nan"), 1.0), (float("inf"),), (2.0, 0.0, float("inf")),
                 (float("nan"),), (2.0, 0.0, 0.0, float("inf"))):
        with pytest.raises(DomainError):
            Params(*args)


def test_product_measure_rejects_nan_density():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        product_measure(10, 1, float("nan"), 0.2, rng)
    with pytest.raises(DomainError):
        product_measure(10, 1, 0.2, float("nan"), rng)


def test_run_rejects_non_finite_times():
    t = make_line("ccddeeee")
    for kwargs in (dict(t_end=float("nan")), dict(t_end=-1.0),
                   dict(t_end=1.0, sample_interval=float("nan")),
                   dict(t_end=1.0, sample_interval=0.0)):
        with pytest.raises(DomainError):
            run(t, Params(2.0), rng=np.random.default_rng(0), **kwargs)


@pytest.mark.parametrize("horizon", [-1.0, float("nan"), float("inf")])
def test_survival_rejects_bad_horizon(horizon):
    with pytest.raises(DomainError):
        survival_estimate(
            Params(2.0), side=10, horizon=horizon, replicas=1,
            rho_c=0.1, rho_d=0.1, master_seed=1,
        )
