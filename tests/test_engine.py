"""The compiled lattice step against the Python engine it reproduces.

Both engines must give the same bytes for a seed: the same series, the
same final configuration, and the generator left at the same point.  The
compiled tests skip when the module cannot be built (no cffi or no C
compiler); the Python engine then runs everywhere.
"""

import itertools
import locale
import math
import os
import random
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest

from coopsim import _engine, graphical, lattice, mean_field
from coopsim.errors import DomainError
from coopsim.lattice import RateTable, Torus, product_measure, run
from coopsim.params import Params, equal_rate_benefit

from engine_agreement import exact_law_pvalue, ring_law
from mark_reference import neighbors

SRC = Path(__file__).resolve().parents[1] / "src"


def compiled_module():
    module = _engine.load()
    if module is None:
        pytest.skip("compiled engine unavailable")
    return module


def fresh_loader(monkeypatch, tmp_path):
    """Make ``_engine.load`` act as in a new process, with an empty cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_engine, "_module", None)
    monkeypatch.setattr(_engine, "_tried", False)


def run_bytes(side, dim, p, seed, t_end, interval, python=False, monkeypatch=None):
    rng = np.random.default_rng(seed)
    torus = product_measure(side, dim, 0.3, 0.3, rng)
    if python:
        with monkeypatch.context() as m:
            m.setattr(_engine, "load", lambda: None)
            series = run(torus, p, t_end, rng, sample_interval=interval)
    else:
        series = run(torus, p, t_end, rng, sample_interval=interval)
    arrays = (series.t, series.n_c, series.n_d, series.n_e)
    return b"".join(a.tobytes() for a in arrays), torus.state_string(), rng.random()


def battery(n, seed):
    r = random.Random(seed)
    for _ in range(n):
        dim = r.choice([1, 2, 3])
        side = r.randint(2, {1: 59, 2: 11, 3: 5}[dim])
        beta_c = 0.0 if r.random() < 0.5 else r.uniform(0.0, 8.0)
        beta_d = r.choice([0.0, r.uniform(0.0, 3.0)])
        p = Params(r.uniform(0.3, 6.0), beta_c, beta_d, dim)
        yield (side, dim, p, r.randrange(10**6), r.choice([0, 0.7, 3.3, 10, 25]), r.choice([0.25, 1, 7]))


# ------------------------------------------------------------- differential


def test_engines_give_the_same_bytes(monkeypatch):
    compiled_module()
    for case in battery(300, 2024):
        assert run_bytes(*case) == run_bytes(*case, python=True, monkeypatch=monkeypatch), case


@pytest.mark.parametrize("dim, side", [(1, 2), (2, 2), (3, 2), (1, 3)])
def test_engines_agree_on_the_smallest_tori(monkeypatch, dim, side):
    # side 2 repeats each neighbor; side 3 makes every site a distance-two neighbor
    compiled_module()
    for seed in range(20):
        case = (side, dim, Params(2.5, 3.0, 0.5, dim), seed, 10.0, 1.0)
        assert run_bytes(*case) == run_bytes(*case, python=True, monkeypatch=monkeypatch), case


def test_block_sums_add_left_to_right(engine):
    # beta = 1e16 on a 2-d torus: pair rates of 2.5e15 share blocks with the
    # unit death rates, so the order of addition decides how a sum rounds
    p = Params(1e16, 0.0, 0.0, 2)
    rng = np.random.default_rng(1)
    torus = product_measure(6, 2, 0.35, 0.35, rng)
    table = lattice._rate_table(torus, p, rng)
    n, block = torus.n_sites, math.isqrt(torus.n_sites)
    sharp = 0
    for _ in range(40):
        if engine == "python":
            rates, block_sums = table.rates, table.block_sums
        else:
            ffi = compiled_module().ffi
            rates, block_sums = ffi.unpack(table.c.rates, n), ffi.unpack(table.c.block_sums, n // block)
        assert rates == RateTable(torus, p).rates
        chunks = [rates[lo : lo + block] for lo in range(0, n, block)]
        assert block_sums == [reduce(add, chunk) for chunk in chunks]
        # blocks where a compensated sum (as builtin sum from 3.12) rounds differently
        sharp += sum(math.fsum(chunk) != reduce(add, chunk) for chunk in chunks)
        lattice.step(table, rng)
    assert sharp > 10


def test_compiled_run_calls_step_once_per_event(monkeypatch):
    compiled_module()
    calls = []
    real = lattice.step

    def counting(table, rng, t_limit=None):
        event, elapsed = real(table, rng, t_limit)
        calls.append(event)
        return event, elapsed

    monkeypatch.setattr(lattice, "step", counting)
    rng = np.random.default_rng(5)
    torus = product_measure(40, 1, 0.3, 0.3, rng)
    reference = torus.copy()
    run(torus, Params(3.0, 1.0, 0.5, 1), 6.0, rng)
    assert calls[-1] is None and None not in calls[:-1]
    events = calls[:-1]
    # replaying the reported events turns the start into the final state
    for ev in events:
        assert reference.sites[ev.site] == ev.prev
        reference.sites[ev.site] = ev.state
    assert reference.sites == torus.sites and len(events) > 100


def test_run_reports_the_events_it_applied(engine, monkeypatch):
    steps = []
    real = lattice.step

    def counting(table, rng, t_limit=None):
        event, elapsed = real(table, rng, t_limit)
        steps.append(event)
        return event, elapsed

    monkeypatch.setattr(lattice, "step", counting)
    rng = np.random.default_rng(5)
    series = run(product_measure(40, 1, 0.3, 0.3, rng), Params(3.0, 1.0, 0.5, 1), 6.0, rng)
    assert series.events == sum(event is not None for event in steps) > 100
    # a run that ends absorbed counts the events before absorption; the
    # call that finds the zero total rate applies none
    steps.clear()
    series = run(Torus.from_state_string("ceeee"), Params(0.5), 50.0, rng)
    assert series.n_c[-1] == 0 and steps[-1] is None
    assert series.events == len(steps) - 1 > 0
    assert run(product_measure(40, 1, 0.3, 0.3, rng), Params(3.0), 0.0, rng).events == 0
    assert run(Torus.from_state_string("eeeee"), Params(3.0), 5.0, rng).events == 0


def test_step_at_zero_total_rate_is_an_infinite_holding_time(engine):
    rng = np.random.default_rng(0)
    table = lattice._rate_table(Torus.from_state_string("eeeee"), Params(2.0), rng)
    state = rng.bit_generator.state
    assert lattice.step(table, rng) == (None, math.inf)
    assert rng.bit_generator.state == state  # nothing drawn


def test_run_raises_on_a_stale_rate_table(engine, monkeypatch):
    # Site 15 of cc + 18 e is empty with no occupied neighbor; a table that
    # gives it a rate can select it, and the run must fail, not stop.
    real = lattice._rate_table

    def stale(torus, p, rng):
        table = real(torus, p, rng)
        b = 15 // math.isqrt(torus.n_sites)
        if engine == "python":
            table.rates[15] = 5.0
            table.block_sums[b] = table.block_sum(b)
        else:
            c = table.c
            c.rates[15] = 5.0
            c.block_sums[b] = reduce(add, (c.rates[i] for i in range(b * c.block, (b + 1) * c.block)))
        return table

    monkeypatch.setattr(lattice, "_rate_table", stale)
    torus = Torus.from_state_string("cc" + "e" * 18)
    with pytest.raises(AssertionError, match="stale rate table: selected empty site 15"):
        run(torus, Params(3.0), 50.0, np.random.default_rng(3))


def test_engines_report_the_same_event_counts(monkeypatch):
    compiled_module()
    for side, dim, p, seed, t_end, interval in battery(50, 19):
        counts = []
        for python in (False, True):
            with monkeypatch.context() as m:
                if python:
                    m.setattr(_engine, "load", lambda: None)
                rng = np.random.default_rng(seed)
                torus = product_measure(side, dim, 0.3, 0.3, rng)
                counts.append(run(torus, p, t_end, rng, sample_interval=interval).events)
        assert counts[0] == counts[1], (side, dim, p, seed, t_end)


def test_a_total_rate_beyond_a_float_is_refused(engine):
    # an infinite total rate made every step take no time and pick the last
    # site; the bound is the site count times the largest site rate
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    for p, side in [(Params(1e308, 1e308, 1.0), 4), (Params(1e308), 6), (Params(1e307), 100),
                    (Params(2.0, 0.0, 1.7e308), 2), (Params(1.0, 1e307, 0.0, 2), 10)]:
        torus = Torus(side, p.dim, [lattice.COOPERATOR] * side**p.dim)
        with pytest.raises(DomainError, match="can exceed the largest float"):
            run(torus, p, 1.0, rng)
    assert rng.bit_generator.state == state
    # a total just inside the bound runs
    series = run(Torus(6, 1, [lattice.COOPERATOR, lattice.EMPTY] * 3), Params(1e306), 1e-305, rng)
    assert series.events > 0


def test_rates_near_the_bound_give_the_same_bytes(monkeypatch):
    compiled_module()
    for case in [(6, 1, Params(1e306), 5, 1e-305, 1e-305), (4, 2, Params(1.0, 1e305, 0.5, 2), 6, 1e-304, 1e-304)]:
        assert run_bytes(*case) == run_bytes(*case, python=True, monkeypatch=monkeypatch), case


def test_compiled_step_matches_python_step_event_by_event():
    module = compiled_module()
    p = Params(4.0, 6.0, 1.0, 2)
    start = product_measure(9, 2, 0.3, 0.3, np.random.default_rng(3))
    rng_c, rng_p = np.random.default_rng(4), np.random.default_rng(4)
    torus_c, torus_p = start.copy(), start.copy()
    table_c = lattice._rate_table(torus_c, p, rng_c)
    table_p = RateTable(torus_p, p)
    assert isinstance(table_c, _engine.Table)
    for _ in range(500):
        expected = lattice.step(table_p, rng_p)
        assert lattice.step(table_c, rng_c) == expected
        assert torus_c.sites == torus_p.sites
        if expected[0] is None:
            break
    assert module.ffi.unpack(table_c.c.rates, start.n_sites) == table_p.rates


def test_compiled_step_rejects_a_foreign_generator():
    compiled_module()
    rng = np.random.default_rng(0)
    table = lattice._rate_table(Torus.from_state_string("ccdee"), Params(2.0), rng)
    with pytest.raises(DomainError, match="generator it was built with"):
        lattice.step(table, np.random.default_rng(0))


# ---------------------------------------------------------------- exact law


@pytest.mark.slow
def test_run_matches_the_exact_law_on_a_five_site_ring(engine):
    # the joint law of all five sites at t = 2, not only the counts; bins
    # expecting fewer than 5 replicas are pooled into one
    p = Params(2.0, 4.0, 1.0, 1)
    start = Torus.from_state_string("cdcde")
    law, index = ring_law(start, p, 2.0)
    counts = np.zeros(len(index))
    rng = np.random.default_rng(61)
    for _ in range(20_000):
        torus = start.copy()
        run(torus, p, 2.0, rng, sample_interval=2.0)
        counts[index[tuple(torus.sites)]] += 1
    pvalue, bins = exact_law_pvalue(counts, law)
    assert bins > 100 and pvalue > 0.001


# ---------------------------------------------------- selection, through C


def c_select(table, u):
    """Site and parent the compiled selection picks for uniform ``u``."""
    module = compiled_module()
    n, block = table.torus.n_sites, math.isqrt(table.torus.n_sites)
    total = reduce(add, module.ffi.unpack(table.c.block_sums, -(-n // block)))
    parent = module.ffi.new("int32_t *")
    site = module.lib.coop_select(table.c, u * total, parent)
    return site, (None if parent[0] < 0 else parent[0])


@pytest.mark.parametrize(
    "pattern, p, u, site",
    [
        ("eeccdeeeee", Params(2.0, 1.0, 1.0, 1), float(np.nextafter(1.0, 0.0)), 5),
        ("eeedeeeede", Params(0.7, 0.0, 0.0, 1), float(np.nextafter(0.5, 0.0)), 4),
    ],
)
def test_compiled_selection_boundary_never_picks_zero_rate_site(pattern, p, u, site):
    # the cases of test_step_selection_boundary_never_picks_zero_rate_site
    torus = Torus.from_state_string(pattern)
    table = lattice._rate_table(torus, p, np.random.default_rng(0))
    rates = RateTable(torus.copy(), p).rates
    assert compiled_module().ffi.unpack(table.c.rates, torus.n_sites) == rates
    assert rates[site + 1] == 0.0
    assert c_select(table, u) == (site, 4 if site == 5 else 3)


def test_compiled_birth_walk_picks_every_pair_of_mixed_sites():
    # the 16-pair case of test_step_birth_walk_picks_every_pair_of_mixed_sites
    p = Params(4.0, 32.0, 12.0, 2)
    start = Torus.from_state_string("ccedcedcedccdecd", dim=2)
    table = lattice._rate_table(start, p, np.random.default_rng(0))
    site_rates = RateTable(start.copy(), p).rates
    total = sum(site_rates)
    pairs = 0
    for x, s in enumerate(start.sites):
        if s != lattice.EMPTY:
            assert c_select(table, (sum(site_rates[:x]) + 0.5) / total) == (x, None)
            continue
        lo = sum(site_rates[:x])
        for y in neighbors(start)[x]:
            if start.sites[y] == lattice.EMPTY:
                continue
            k = sum(1 for z in neighbors(start)[y] if start.sites[z] == lattice.COOPERATOR)
            r = p.beta / 4 + p.beta_c / 16 * k if start.sites[y] == lattice.COOPERATOR else 4.0
            assert c_select(table, (lo + r / 2) / total) == (x, y)
            lo += r
            pairs += 1
    assert pairs == 16


# ------------------------------------------------------ building and fallback


def replay_bytes(seed):
    """Final sites of window, history and coupled replays of logs sampled from ``seed``."""
    rng = np.random.default_rng(seed)
    line = Torus(30, 1)
    p, favored = Params(2.0, 1.0, 1.0, 1), Params(2.0, 2.5, 0.5, 1)
    log = graphical.sample_event_log(p, line, 5.0, rng)
    coupled = graphical.sample_event_log(favored, line, 5.0, rng, flavor=graphical.COUPLED, p2=p)
    states = []
    for _ in range(3):
        c0 = product_measure(30, 1, 0.3, 0.3, rng)
        states.append(graphical.evolve_from_log(c0, log).state_string())
        states.append(graphical.evolve_from_log(c0, log, t_from=-2.0, t_to=0.0).state_string())
        states.extend(t.state_string() for t in graphical.coupled_evolve(c0, c0.copy(), coupled))
    return states


def text_round_trips(seed):
    """Each flavor's log sampled from ``seed`` as text, and its columns read back, as bytes."""
    rng = np.random.default_rng(seed)
    torus = Torus(12, 2)
    p, favored = Params(2.0, 1.0, 1.0, 2), Params(2.0, 2.5, 0.5, 2)
    equal = Params(2.0, equal_rate_benefit(1.0, 2), 1.0, 2)
    logs = [graphical.sample_event_log(p, torus, 3.0, rng),
            graphical.sample_event_log(equal, torus, 3.0, rng, flavor=graphical.EQUAL_RATE),
            graphical.sample_event_log(favored, torus, 3.0, rng, flavor=graphical.COUPLED, p2=p)]
    trips = []
    for log in logs:
        text = log.to_text()
        back = graphical.EventLog.from_text(text)
        trips.append((text, [c.tobytes() for c in back._columns()]))
    return trips


def trajectory_bytes():
    """A mean-field trajectory that converges early, as bytes."""
    traj = mean_field.integrate((0.05, 0.4), Params(2.0, 0.0, 0.7), 5000.0, dt=1e-2,
                                until_converged=True)
    return traj.t.tobytes(), traj.x.tobytes(), traj.y.tobytes(), traj.converged


def test_compiled_text_loops_take_what_to_text_writes(monkeypatch):
    module = compiled_module()
    trips = text_round_trips(6)

    def python_loop(text):
        raise AssertionError("canonical text reached the Python loop")

    monkeypatch.setattr(graphical, "_read_text", python_loop)
    for text, columns in trips:
        log = graphical.EventLog.from_text(text)
        assert [c.tobytes() for c in log._columns()] == columns
        marks = text.split("\n", 6 + len(log.intensities))[-1]  # the lines after the header
        assert _engine.format_marks(module, log._columns(), graphical._KIND_NAMES,
                                    log.side**log.dim) == marks


def test_a_comma_decimal_point_leaves_the_text_to_the_python_loop():
    # strtod follows LC_NUMERIC: where the decimal point is a comma it stops
    # at the '.', and the line must be refused, not read as a shorter number
    module = compiled_module()
    trips = text_round_trips(7)
    text = trips[0][0]
    log = graphical.EventLog.from_text(text)
    marks = text.split("\n", 6 + len(log.intensities))[-1].encode()
    old = locale.setlocale(locale.LC_NUMERIC)
    for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"):
        try:
            locale.setlocale(locale.LC_NUMERIC, name)
            break
        except locale.Error:
            continue
    else:
        pytest.skip("no locale with a comma decimal point")
    try:
        assert locale.localeconv()["decimal_point"] == ","
        assert _engine.parse_marks(module, marks, graphical._KIND_NAMES, log.t_start - log.history,
                                   log.t_end, log.side**log.dim) is None
        assert [[c.tobytes() for c in graphical.EventLog.from_text(t)._columns()]
                for t, _ in trips] == [c for _, c in trips]
    finally:
        locale.setlocale(locale.LC_NUMERIC, old)


def repr_battery() -> np.ndarray:
    """Finite doubles on which a shortest-digit formatter can go wrong: 1M random
    bit patterns, every power of two and every power of ten with their two
    neighbors, the neighbors of repr's fixed/exponent boundaries, whole
    numbers up to 2**53, and the extremes; each also negated."""
    rng = np.random.default_rng(20260)
    draws = rng.integers(0, 2**64, size=1_001_000, dtype=np.uint64).view(np.float64)
    random_doubles = draws[np.isfinite(draws)][:1_000_000]
    assert len(random_doubles) == 1_000_000

    def around(x):
        x = np.asarray(x, dtype=np.float64)
        return np.concatenate((np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)))

    fmax, fmin = sys.float_info.max, sys.float_info.min
    structured = np.concatenate((
        around(np.ldexp(1.0, np.arange(-1074, 1024))),
        around([float(f"1e{k}") for k in range(-323, 309)]),  # the double nearest each 10**k
        around([1e-4, 1e-5, 1e16]), [9999999999999998.0],
        np.arange(100_001.0), rng.integers(0, 2**53, size=100_000, endpoint=True).astype(float),
        2.0**53 - np.arange(100.0),
        [0.0, 5e-324, fmin, fmax],
    ))
    values = np.concatenate((random_doubles, structured, -structured))
    return values[np.isfinite(values)]


@pytest.mark.slow
def test_to_text_writes_every_time_as_repr_does(engine):
    # a window over every finite double, so that each is a legal mark time
    fmax = sys.float_info.max
    time = repr_battery()
    n = len(time)
    marks = graphical._Columns.of(time, np.zeros(n), np.zeros(n), np.full(n, -1), np.full(n, -1))
    log = graphical.EventLog(-fmax, fmax, 0.0, graphical.STANDARD, marks, {}, 2, 1)
    text = log.to_text()
    lines = text.splitlines()[6:]  # after the six header lines
    assert len(lines) == n
    wrong = [(line, t) for line, t in zip(lines, log.time.tolist())
             if line != f"{t!r} cross 0 - -"]
    assert wrong[:5] == []
    back = graphical.EventLog.from_text(text)
    assert [c.tobytes() for c in back._columns()] == [c.tobytes() for c in log._columns()]
    assert np.signbit(back.time).sum() == np.signbit(log.time).sum()  # -0.0 is not 0.0


def test_pow10_table_matches_its_definition():
    # row K - POW10_MIN holds g = floor(10**K / 2**r) + 1, 2**127 <= 10**K / 2**r < 2**128
    table = _engine.pow10_table()
    ks = range(_engine.POW10_MIN, _engine.POW10_MAX + 1)
    assert table.shape == (len(ks), 2) and table.dtype == np.uint64
    for (high, low), k in zip(table.tolist(), ks):
        power = Fraction(10)**k
        r = math.floor(k * math.log2(10)) - 127
        while power / Fraction(2)**r >= 2**128:
            r += 1
        while power / Fraction(2)**r < 2**127:
            r -= 1
        assert (high << 64) + low == math.floor(power / Fraction(2)**r) + 1, k


def test_pow10_table_less_one_is_the_truncated_power_of_five():
    # Eisel-Lemire multiplies by 5**K truncated to 128 bits, floor(5**K * 2**-s)
    # in [2**127, 2**128); since 10**K / 2**r = 5**K * 2**(K - r), the table's
    # row less one is that truncated power for every K the parser uses it at
    table = _engine.pow10_table()
    for k in range(_engine.POW10_MIN, 309):
        high, low = table[k - _engine.POW10_MIN].tolist()
        if k >= 0:
            shift = (5**k).bit_length() - 128
            truncated = 5**k >> shift if shift >= 0 else 5**k << -shift
        else:  # 5**-k is no power of two, so 2**s / 5**-k lies strictly inside
            truncated = (1 << 127 + (5**-k).bit_length()) // 5**-k
        assert 2**127 <= truncated < 2**128
        assert (high << 64) + low - 1 == truncated, k


def parsed_times(module, strings):
    """``coop_parse``'s times of cross lines at these times, or None when it refuses one."""
    fmax = sys.float_info.max
    text = "".join(f"{s} cross 0 - -\n" for s in strings).encode()
    columns = _engine.parse_marks(module, text, graphical._KIND_NAMES, -fmax, fmax, 2)
    return None if columns is None else columns[0]


def time_strings(n, seed):
    """Times as to_text's grammar allows them: 1 to 20 significant digits, with
    or without a sign, a point and an exponent, most of them near the
    subnormal and overflow edges; then hard cases of correct rounding."""
    r = random.Random(seed)
    strings = []
    for _ in range(n):
        digits = str(r.randrange(1, 10)) + "".join(r.choices("0123456789", k=r.randrange(20)))
        digits = "0" * r.choice([0, 0, 1, 3]) + digits
        point = r.randrange(1, len(digits) + 1)
        s = digits[:point] + ("." + digits[point:] if point < len(digits) else "")
        # the value's decimal exponent: near the edges, or anywhere
        target = r.choice([r.randint(-330, -300), r.randint(295, 310), r.randint(-25, 25),
                           r.randint(-345, 320)])
        e = target - (point - 1)
        if e != 0 or r.random() < 0.2:
            s += "e" + ("-" if e < 0 else r.choice(["", "+"])) + str(abs(e))
        strings.append(r.choice(["", "-"]) + s)
    strings += [
        "9007199254740993", "9007199254740995", "18014398509481986", "9223372036854775807",
        "9999999999999999999", "18446744073709551615", "18446744073709551616e-20",
        "1.00000000000000011102230246251565404236316680908203125",
        "2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
        "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
        "1.7976931348623157e308", "1.7976931348623158e+308", "0.0", "-0.0", "0e999999", "1e-999999",
        "7.3177701707893310e+15", "9.5e-1", "123456789012345678e-300",
        "1" + "0" * 400 + "e-400", "0." + "0" * 400 + "1e400",
    ]
    return strings


@pytest.mark.slow
def test_parser_reads_every_repr_time_as_strtod_does():
    module = compiled_module()
    time = repr_battery()
    got = parsed_times(module, map(repr, time.tolist()))
    assert got is not None and got.tobytes() == time.tobytes()


@pytest.mark.slow
def test_parser_reads_random_digit_strings_as_strtod_does():
    # float() rounds correctly, as strtod does
    module = compiled_module()
    strings = time_strings(300_000, 29)
    want = np.array([float(s) for s in strings])
    finite = np.isfinite(want)
    assert 0 < (~finite).sum() < len(strings) // 4 and (want == 0).sum() > 1000
    got = parsed_times(module, (s for s, ok in zip(strings, finite) if ok))
    wrong = [(s, g) for s, g, w in zip(itertools.compress(strings, finite), got.tolist(),
                                       want[finite].tolist()) if repr(g) != repr(w)]
    assert wrong[:5] == []
    assert got.tobytes() == want[finite].tobytes()
    # a time beyond the largest float is outside every window
    for s in itertools.islice(itertools.compress(strings, ~finite), 200):
        assert parsed_times(module, [s]) is None, s


def test_parsed_columns_are_their_exact_size():
    # the log's columns are views of the parser's arrays, which live as long
    module = compiled_module()
    for text, _ in text_round_trips(8):
        log = graphical.EventLog.from_text(text)
        marks = text.split("\n", 6 + len(log.intensities))[-1].encode()
        columns = _engine.parse_marks(module, marks, graphical._KIND_NAMES, log.t_start - log.history,
                                      log.t_end, log.side**log.dim)
        for column in columns:
            assert len(column) == len(log) == module.lib.coop_lines(marks, len(marks))
            assert column.base is None or len(column.base) == len(column)
        # a last line without its newline is refused, and left to the Python loop
        assert _engine.parse_marks(module, marks[:-1], graphical._KIND_NAMES,
                                   log.t_start - log.history, log.t_end, log.side**log.dim) is None


def test_python_to_text_costs_the_marks_not_the_sites(engine):
    # two marks on a million-site torus: the Python loop once named every site
    marks = [graphical.Mark(0.25, graphical.CROSS, 999_999),
             graphical.Mark(1e-05, graphical.ARROW, 7, 1_000)]
    log = graphical.EventLog(0.0, 1.0, 0.0, graphical.STANDARD, marks, {}, 1000, 2)
    log.to_text()  # loads the module and its table outside the measurement
    tracemalloc.start()
    try:
        text = log.to_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.split("seed=-\n")[1] == "1e-05 arrow 7 1000 -\n0.25 cross 999999 - -\n"
    assert peak < 2**20


def test_failed_build_falls_back_with_one_stderr_line(monkeypatch, tmp_path, capfd):
    compiled_module()
    case = (20, 1, Params(3.0, 2.0, 0.5, 1), 77, 10.0, 0.25)
    compiled = run_bytes(*case)
    compiled_replays = replay_bytes(5)
    compiled_trajectory = trajectory_bytes()
    compiled_texts = text_round_trips(5)
    fresh_loader(monkeypatch, tmp_path)
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(_engine, "SOURCE", broken)
    capfd.readouterr()
    assert _engine.load() is None
    assert run_bytes(*case) == compiled
    assert replay_bytes(5) == compiled_replays
    assert trajectory_bytes() == compiled_trajectory
    assert text_round_trips(5) == compiled_texts
    assert _engine.load() is None
    out, err = capfd.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "using the Python engine" in err


def test_build_into_empty_cache_writes_nothing(monkeypatch, tmp_path, capfd):
    fresh_loader(monkeypatch, tmp_path)
    module = _engine.load()
    out, err = capfd.readouterr()
    assert out == ""
    if module is None:
        pytest.skip("compiled engine unavailable")
    assert err == ""
    built = list((tmp_path / "cache" / "coopsim").iterdir())
    assert [path.name for path in built] == [Path(module.__file__).name]


def test_import_does_not_load_cffi():
    code = "import sys, coopsim.cli; print(sorted(m for m in sys.modules if 'cffi' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert proc.stdout.strip() == "[]"


def test_engine_source_compiles_without_warnings():
    cc = shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler")
    includes = [f"-I{np.get_include()}", f"-I{sysconfig.get_paths()['include']}"]
    proc = subprocess.run([cc, "-fsyntax-only", "-Wall", "-Wextra", "-Werror", *includes,
                           str(_engine.SOURCE)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
