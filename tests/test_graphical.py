"""Mark sampling, log evolution, couplings, sterility, and dual tracing."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim import graphical as g
from coopsim import lattice
from coopsim.errors import (
    BudgetExhausted,
    CouplingOrder,
    DomainError,
    FlavorMismatch,
    InsufficientHistory,
)
from coopsim.lattice import COOPERATOR, DEFECTOR, EMPTY, Torus, product_measure
from coopsim.params import Params, equal_rate_benefit

from engine_agreement import distributional_equivalence_check
from mark_edits import sterile_births_blocked, without_self_dotted

# closed-form sterile probabilities, evaluated at 30-digit precision
STERILE_AT_SUM_ONE = 0.14699594306608088  # beta + beta_c = 1
STERILE_AT_SUM_LN2 = 0.15803013970713942  # beta + beta_c = ln 2


def hand_log(marks, *, flavor=g.EQUAL_RATE, side=7, dim=1, t_end=10.0, history=2.0):
    return g.EventLog(0.0, t_end, history, flavor, marks, {}, side, dim)


# ----------------------------------------------------------------- sampling


# Params insists on beta > 0, so "births switched off" means a rate small
# enough that no birth mark ever lands in any tested window.
NO_BIRTHS = Params(1e-12)


def test_negligible_birth_rates_yield_only_crosses():
    rng = np.random.default_rng(0)
    log = g.sample_event_log(NO_BIRTHS, Torus(6, 1), 4.0, rng, history=0.0)
    assert all(m.kind == g.CROSS for m in log.marks)


def test_cross_counts_are_poisson():
    rng = np.random.default_rng(1)
    t_max = 4.0
    n = 2000
    counts = np.array(
        [
            len(g.sample_event_log(NO_BIRTHS, Torus(6, 1), t_max, rng, history=0.0))
            for _ in range(n)
        ]
    )
    lam = 6 * t_max
    assert abs(counts.mean() - lam) < 3 * math.sqrt(lam / n)
    assert abs(counts.var(ddof=1) - lam) < 3 * math.sqrt((lam + 2 * lam**2) / n)


def test_mark_count_laws_per_stream():
    # counts over many disjoint windows: Poisson mean/variance per stream
    p = Params(1.0, 0.5, 0.5, 1)
    torus = Torus(4, 1)
    t_max = 0.5
    n = 10_000
    rng = np.random.default_rng(2)
    per_site = {g.CROSS: 1, g.ARROW: 2, g.DOT_ARROW: 4, g.D_ARROW: 2}
    tallies = {kind: np.empty(n) for kind in per_site}
    for i in range(n):
        log = g.sample_event_log(p, torus, t_max, rng, history=0.0)
        for kind in per_site:
            tallies[kind][i] = sum(m.kind == kind for m in log.marks)
    for kind, channels_per_site in per_site.items():
        lam = log.intensities[kind] * channels_per_site * torus.n_sites * t_max
        counts = tallies[kind]
        assert abs(counts.mean() - lam) < 3 * math.sqrt(lam / n), kind
        assert abs(counts.var(ddof=1) - lam) < 3 * math.sqrt(
            (lam + 2 * lam**2) / n
        ), kind


def test_sampled_marks_sit_on_valid_neighbor_tuples():
    rng = np.random.default_rng(3)
    torus = Torus(5, 2)
    log = g.sample_event_log(Params(2.0, 1.0, 1.0, 2), torus, 1.0, rng)
    assert log.marks == tuple(sorted(log.marks, key=lambda m: m.time))
    for m in log.marks:
        if m.kind != g.CROSS:
            assert m.target in torus.neighbors[m.source]
        if m.kind == g.DOT_ARROW:
            assert m.dot in torus.neighbors[m.source]
        assert -2.0 <= m.time <= 1.0


def test_equal_rate_pair_identity():
    # d=1, beta_d=1 forces beta_c=2; the off-target dot channels of one
    # neighbor pair then carry (2d-1) * beta_c/4d^2 = 0.5 = beta_d/2d.
    rng = np.random.default_rng(4)
    p = Params(2.0, equal_rate_benefit(1.0, 1), 1.0, 1)
    assert p.beta_c == 2.0
    log = g.sample_event_log(p, Torus(6, 1), 1.0, rng, flavor=g.EQUAL_RATE)
    per_pair_shared = log.intensities[g.DOT_ARROW] * (2 * 1 - 1)
    assert per_pair_shared == pytest.approx(1.0 / 2.0, abs=1e-15)
    assert g.D_ARROW not in log.intensities


def test_equal_rate_rejects_other_benefits():
    rng = np.random.default_rng(5)
    with pytest.raises(FlavorMismatch):
        g.sample_event_log(Params(2.0, 1.9, 1.0, 1), Torus(6, 1), 1.0, rng,
                           flavor=g.EQUAL_RATE)


def test_coupled_sampling_validation():
    rng = np.random.default_rng(6)
    torus = Torus(6, 1)
    first = Params(2.0, 3.0, 0.5, 1)
    with pytest.raises(DomainError):
        g.sample_event_log(first, torus, 1.0, rng, flavor=g.COUPLED)
    with pytest.raises(CouplingOrder):
        g.sample_event_log(first, torus, 1.0, rng, flavor=g.COUPLED,
                           p2=Params(2.0, 4.0, 1.0, 1))  # larger beta_c
    with pytest.raises(CouplingOrder):
        g.sample_event_log(first, torus, 1.0, rng, flavor=g.COUPLED,
                           p2=Params(2.0, 1.0, 0.1, 1))  # smaller beta_d
    with pytest.raises(CouplingOrder):
        g.sample_event_log(first, torus, 1.0, rng, flavor=g.COUPLED,
                           p2=Params(3.0, 1.0, 1.0, 1))  # different beta
    log = g.sample_event_log(first, torus, 1.0, rng, flavor=g.COUPLED,
                             p2=Params(2.0, 1.0, 1.5, 1))
    assert log.intensities[g.DOT_ARROW] == pytest.approx(1.0 / 4.0)
    assert log.intensities[g.C_PLUS_DOT_ARROW] == pytest.approx(2.0 / 4.0)
    assert log.intensities[g.D_PLUS_ARROW] == pytest.approx(1.0 / 2.0)
    assert log.intensities[g.D_ARROW] == pytest.approx(0.5 / 2.0)


def test_sampling_argument_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(DomainError):
        g.sample_event_log(Params(1.0), Torus(4, 1), 0.0, rng)
    with pytest.raises(DomainError):
        g.sample_event_log(Params(1.0), Torus(4, 1), 1.0, rng, history=-1.0)
    with pytest.raises(DomainError):
        g.sample_event_log(Params(1.0, dim=2), Torus(4, 1), 1.0, rng)


# ------------------------------------------------------------ serialization


def test_round_trip_is_exact():
    rng = np.random.default_rng(8)
    sampled = g.sample_event_log(Params(2.0, 3.0, 0.5, 1), Torus(5, 1), 2.0, rng,
                                 flavor=g.COUPLED, p2=Params(2.0, 1.0, 1.5, 1))
    log = g.EventLog(0.0, 2.0, sampled.history, sampled.flavor, sampled.marks,
                     sampled.intensities, 5, 1, seed=99)
    back = g.EventLog.from_text(log.to_text())
    assert back.marks == log.marks
    assert (back.t_start, back.t_end, back.history) == (0.0, 2.0, 2.0)
    assert back.flavor == log.flavor
    assert back.intensities == log.intensities
    assert (back.side, back.dim, back.seed) == (5, 1, 99)


mark_strategy = st.builds(
    g.Mark,
    time=st.floats(-2.0, 8.0, allow_nan=False),
    kind=st.sampled_from(sorted(g.KIND_ORDER)),
    target=st.integers(0, 48),
    source=st.one_of(st.none(), st.integers(0, 48)),
    dot=st.one_of(st.none(), st.integers(0, 48)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(mark_strategy, max_size=30))
def test_round_trip_survives_arbitrary_marks(marks):
    log = g.EventLog(0.0, 8.0, 2.0, g.STANDARD, marks, {"cross": 1.0}, 7, 2)
    back = g.EventLog.from_text(log.to_text())
    assert back.marks == log.marks
    assert back.intensities == log.intensities


LOG_TEXT = """# coopsim event log v1
flavor=standard
window=0.0 1.0
history=0.0
torus=5 1
seed=-
intensity cross=1.0
0.5 cross 2 - -
"""
MARK_LINE = "0.5 cross 2 - -"


@pytest.mark.parametrize(
    "old, new, named",
    [
        (MARK_LINE, "0.5 arrow -1 0 -", "line 8"),
        (MARK_LINE, "0.5 arrow 9 0 -", "line 8"),
        (MARK_LINE, "0.5 arrow 0 5 -", "line 8"),
        (MARK_LINE, "0.5 dot_arrow 0 1 -3", "line 8"),
        (MARK_LINE, "0.5 cross - - -", "line 8"),
        (MARK_LINE, "0.5 arow 1 0 -", "line 8"),
        (MARK_LINE, "0.5 cross 2 -", "line 8"),
        (MARK_LINE, "0.5 cross 2 - - -", "line 8"),
        (MARK_LINE, "half cross 2 - -", "line 8"),
        (MARK_LINE, "0.5 cross two - -", "line 8"),
        (MARK_LINE, "nan cross 2 - -", "line 8"),
        (MARK_LINE, "1.5 cross 2 - -", "line 8"),
        (MARK_LINE, "-0.5 cross 2 - -", "line 8"),
        ("window=0.0 1.0", "window=0.0", "line 3"),
        ("torus=5 1", "torus=5 one", "line 5"),
        ("torus=5 1", "torus=0 -1", "torus needs"),
        ("torus=5 1", "torus=1 1", "torus needs"),
        ("torus=5 1", "torus=5 0", "torus needs"),
        ("window=0.0 1.0", "window=0.0 nan", "window must be"),
        ("window=0.0 1.0", "window=nan 1.0", "window must be"),
        ("window=0.0 1.0", "window=0.0 inf", "window must be"),
        ("window=0.0 1.0", "window=1.0 0.0", "window must be"),
        ("history=0.0", "history=-3.0", "history must be"),
        ("history=0.0", "history=nan", "history must be"),
        ("flavor=standard", "flavor=exotic", "unknown flavor"),
        ("intensity cross=1.0", "intensity cross=fast", "line 7"),
        ("window=0.0 1.0\n", "", "no window= line"),
    ],
    ids=[
        "negative-target", "target-off-torus", "source-off-torus", "negative-dot",
        "no-target", "misspelt-kind", "four-fields", "six-fields", "bad-time",
        "bad-site", "nan-time", "time-after-window", "time-before-history", "window-one-number", "bad-torus", "empty-torus", "side-one",
        "dim-zero", "nan-window-end", "nan-window-start", "infinite-window",
        "reversed-window", "negative-history", "nan-history", "unknown-flavor",
        "bad-intensity", "no-window",
    ],
)
def test_from_text_rejects_malformed_text_naming_the_line(old, new, named):
    assert g.EventLog.from_text(LOG_TEXT).marks == (g.Mark(0.5, g.CROSS, 2),)
    assert old in LOG_TEXT
    with pytest.raises(DomainError, match=named):
        g.EventLog.from_text(LOG_TEXT.replace(old, new))


def test_event_log_validation():
    for (t_start, t_end, history, flavor, side, dim), named in [
        ((0.0, -1.0, 0.0, g.STANDARD, 4, 1), "window must be"),
        ((0.0, math.nan, 0.0, g.STANDARD, 4, 1), "window must be"),
        ((-math.inf, 1.0, 0.0, g.STANDARD, 4, 1), "window must be"),
        ((0.0, 1.0, -3.0, g.STANDARD, 4, 1), "history must be"),
        ((0.0, 1.0, math.inf, g.STANDARD, 4, 1), "history must be"),
        ((0.0, 1.0, 0.0, "exotic", 4, 1), "unknown flavor"),
        ((0.0, 1.0, 0.0, g.STANDARD, 0, -1), "torus needs"),
        ((0.0, 1.0, 0.0, g.STANDARD, 1, 1), "torus needs"),
        ((0.0, 1.0, 0.0, g.STANDARD, 4, 0), "torus needs"),
    ]:
        with pytest.raises(DomainError, match=named):
            g.EventLog(t_start, t_end, history, flavor, [], {}, side, dim)


# ---------------------------------------------------------------- evolution


def test_empty_log_leaves_configuration_unchanged():
    c0 = Torus.from_state_string("cdecd")
    out = g.evolve_from_log(c0, hand_log([], side=5))
    assert out.sites == c0.sites
    assert out is not c0


def test_single_cross_empties_the_site():
    c0 = Torus.from_state_string("cdecd")
    out = g.evolve_from_log(c0, hand_log([g.Mark(1.0, g.CROSS, 0)], side=5))
    assert out.state_string() == "edecd"


def test_arrow_copies_the_source_type_onto_empty_targets():
    marks = [
        g.Mark(1.0, g.ARROW, 2, 1),  # defector birth
        g.Mark(2.0, g.ARROW, 4, 0),  # cooperator birth (wraps)
        g.Mark(3.0, g.ARROW, 3, 4),  # target occupied: no effect
    ]
    out = g.evolve_from_log(Torus.from_state_string("cdede"),
                            hand_log(marks, side=5))
    assert out.state_string() == "cdddc"


def test_standard_dot_arrow_needs_both_cooperators():
    c0 = Torus.from_state_string("ccedd")
    fires = hand_log([g.Mark(1.0, g.DOT_ARROW, 2, 1, 0)], flavor=g.STANDARD, side=5)
    assert g.evolve_from_log(c0, fires).state_string() == "cccdd"
    dead_dot = hand_log([g.Mark(1.0, g.DOT_ARROW, 2, 1, 2)], flavor=g.STANDARD, side=5)
    assert g.evolve_from_log(c0, dead_dot).state_string() == "ccedd"
    defector_src = hand_log([g.Mark(1.0, g.DOT_ARROW, 2, 3, 4)], flavor=g.STANDARD, side=5)
    assert g.evolve_from_log(c0, defector_src).state_string() == "ccedd"


def test_equal_rate_dot_arrow_lets_defectors_through_off_target_dots():
    c0 = Torus.from_state_string("ccedd")
    shared = hand_log([g.Mark(1.0, g.DOT_ARROW, 2, 3, 4)], side=5)
    assert g.evolve_from_log(c0, shared).state_string() == "ccddd"
    self_dotted = hand_log([g.Mark(1.0, g.DOT_ARROW, 2, 3, 2)], side=5)
    assert g.evolve_from_log(c0, self_dotted).state_string() == "ccedd"


def test_evolution_is_deterministic_and_flavor_checked():
    rng = np.random.default_rng(9)
    p = Params(2.0, 1.0, 1.0, 1)
    c0 = product_measure(12, 1, 0.4, 0.3, rng)
    log = g.sample_event_log(p, c0, 5.0, rng)
    a = g.evolve_from_log(c0, log)
    b = g.evolve_from_log(c0, log)
    assert a.sites == b.sites
    coupled = g.sample_event_log(p, c0, 1.0, rng, flavor=g.COUPLED,
                                 p2=Params(2.0, 0.5, 1.5, 1))
    with pytest.raises(FlavorMismatch):
        g.evolve_from_log(c0, coupled)
    with pytest.raises(DomainError):
        g.evolve_from_log(Torus(5, 1), log)


def test_window_bounds_are_half_open_and_never_nan():
    marks = [g.Mark(t, g.CROSS, site) for site, t in enumerate((-1.0, 1.0, 2.0, 3.0))]
    log = hand_log(marks, side=5)
    c0 = Torus.from_state_string("ccccc")
    # a mark exactly at t_from is left out, one exactly at t_to is applied
    assert g.evolve_from_log(c0, log, t_from=1.0, t_to=2.0).state_string() == "ccecc"
    assert list(log.window_marks(1.0, 2.0)) == [(2, marks[2])]
    assert list(log.window_marks()) == [(1, marks[1]), (2, marks[2]), (3, marks[3])]
    assert list(log.window_marks(2.0, 1.0)) == []
    everything = g.evolve_from_log(c0, log, t_from=-math.inf, t_to=math.inf)
    assert everything.state_string() == "eeeec"
    for bounds in ({"t_from": math.nan}, {"t_to": math.nan}):
        with pytest.raises(DomainError, match="NaN"):
            g.evolve_from_log(c0, log, **bounds)
        with pytest.raises(DomainError, match="NaN"):
            log.window_marks(**bounds)


def test_mark_engine_pinned_digests():
    # SHA-256 digests computed with the mark-by-mark window scan of coopsim 0.1.0
    def sha(lines):
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    rng = np.random.default_rng(2024)
    line, square = Torus(40, 1), Torus(7, 2)
    p = Params(2.0, 1.0, 1.0, 1)
    standard = g.sample_event_log(p, line, 6.0, rng)
    equal = g.sample_event_log(Params(2.0, equal_rate_benefit(0.8, 2), 0.8, 2), square, 6.0, rng,
                               flavor=g.EQUAL_RATE)
    coupled = g.sample_event_log(Params(2.0, 2.7, 0.6, 1), line, 6.0, rng, flavor=g.COUPLED, p2=p)
    assert sha([log.to_text() for log in (standard, equal, coupled)]) == (
        "e9152f3e7e6d50eb28102dfffc3edddec5375cc17917dc5453c8f5ee8226128a"
    )
    states = []
    for log, torus in ((standard, line), (equal, square)):
        for _ in range(3):
            c0 = product_measure(torus.side, torus.dim, 0.3, 0.3, rng)
            states.append(g.evolve_from_log(c0, log).state_string())
            states.append(g.evolve_from_log(c0, log, t_from=-log.history, t_to=0.0).state_string())
    assert sha(states) == "a7f807c0365a90c70e243b2e941712ee8984aaca2848f5c17006f22dce36994b"
    c0 = product_measure(40, 1, 0.3, 0.3, rng)
    pair = g.coupled_evolve(c0, c0.copy(), coupled)
    assert sha([t.state_string() for t in pair]) == (
        "27260dff0573f9cbbad52f5a45157fb01647f7f20ffae369e4279f0934b95e81"
    )


def warmed_equal_rate_log(rng, side=30, window=20.0):
    beta = rng.uniform(0.5, 3.0)
    beta_d = rng.uniform(0.1, 2.0)
    p = Params(beta, equal_rate_benefit(beta_d, 1), beta_d, 1)
    log = g.sample_event_log(p, Torus(side, 1), window, rng, flavor=g.EQUAL_RATE)
    seed_cfg = product_measure(side, 1, 0.3, 0.3, rng)
    warmed = g.evolve_from_log(seed_cfg, log, t_from=-log.history, t_to=0.0)
    return log, warmed


def test_deleting_self_dotted_arrows_never_matters():
    rng = np.random.default_rng(10)
    for _ in range(30):
        log, warmed = warmed_equal_rate_log(rng)
        plain = g.evolve_from_log(warmed, log)
        dropped = g.evolve_from_log(warmed, without_self_dotted(log))
        assert plain.sites == dropped.sites


def test_blocking_sterile_cooperator_births_never_matters():
    rng = np.random.default_rng(11)
    for _ in range(30):
        log, warmed = warmed_equal_rate_log(rng)
        plain = g.evolve_from_log(warmed, log)
        blocked = g.evolve_from_log(warmed, sterile_births_blocked(log))
        assert plain.sites == blocked.sites


def test_log_edits_change_only_the_named_marks():
    # site 2 died 0.5 and 0.7 before the dot-arrows and last gained an
    # arrow 1.5 and 1.7 before them, so both are sterile; the one at 6.0 is not
    arrow, cross = g.Mark(3.5, g.ARROW, 2, 3), g.Mark(4.5, g.CROSS, 2)
    sterile = g.Mark(5.0, g.DOT_ARROW, 0, 1, 2)
    sterile_self_dotted = g.Mark(5.2, g.DOT_ARROW, 2, 1, 2)
    live = g.Mark(6.0, g.DOT_ARROW, 0, 1, 2)
    log = hand_log([arrow, cross, sterile, sterile_self_dotted, live], side=5)
    assert without_self_dotted(log).marks == (arrow, cross, sterile, live)
    assert sterile_births_blocked(log).marks == (
        arrow, cross, g.Mark(5.0, g.D_ARROW, 0, 1), live
    )


# ----------------------------------------------------------------- coupling


def test_identical_parameters_give_identical_trajectories():
    rng = np.random.default_rng(12)
    p = Params(2.0, 1.5, 0.5, 1)
    c0 = product_measure(15, 1, 0.4, 0.3, rng)
    for _ in range(10):
        log = g.sample_event_log(p, c0, 8.0, rng, flavor=g.COUPLED, p2=p)
        assert g.C_PLUS_DOT_ARROW not in log.intensities or \
            log.intensities[g.C_PLUS_DOT_ARROW] == 0.0
        f1, f2 = g.coupled_evolve(c0, c0, log)
        assert f1.sites == f2.sites


def test_all_cooperator_versus_all_defector_start():
    rng = np.random.default_rng(13)
    p1 = Params(2.0, 2.0, 0.2, 1)
    p2 = Params(2.0, 0.5, 1.0, 1)
    side = 15
    all_c = Torus.from_state_string("c" * side)
    all_d = Torus.from_state_string("d" * side)
    for _ in range(10):
        log = g.sample_event_log(p1, all_c, 10.0, rng, flavor=g.COUPLED, p2=p2)
        g.coupled_evolve(all_c, all_d, log)  # must not raise


def sample_admissible_pair(rng, side):
    """Initial pair drawn from the six allowed per-site states."""
    choices = list(g.ALLOWED_PAIRS)
    picks = rng.integers(0, len(choices), side)
    first = [choices[i][0] for i in picks]
    second = [choices[i][1] for i in picks]
    return Torus(side, 1, first), Torus(side, 1, second)


def test_coupling_closure_on_random_starts():
    rng = np.random.default_rng(14)
    side = 20
    for _ in range(25):
        beta = rng.uniform(0.5, 3.0)
        bc1 = rng.uniform(0.0, 3.0)
        bc2 = rng.uniform(0.0, bc1)
        bd2 = rng.uniform(0.0, 2.0)
        bd1 = rng.uniform(0.0, bd2)
        first = Params(beta, bc1, bd1, 1)
        second = Params(beta, bc2, bd2, 1)
        c1, c2 = sample_admissible_pair(rng, side)
        log = g.sample_event_log(first, c1, 20.0, rng, flavor=g.COUPLED, p2=second)
        f1, f2 = g.coupled_evolve(c1, c2, log)  # raises on any violation
        for a, b in zip(f1.sites, f2.sites):
            assert (a, b) in g.ALLOWED_PAIRS


def test_coupled_evolve_validation():
    rng = np.random.default_rng(15)
    p = Params(2.0, 1.0, 0.5, 1)
    c0 = Torus(6, 1)
    log = g.sample_event_log(p, c0, 1.0, rng, flavor=g.COUPLED,
                             p2=Params(2.0, 0.5, 1.0, 1))
    with pytest.raises(DomainError):
        # defector in the first process over empty in the second
        g.coupled_evolve(Torus.from_state_string("deeeee"), c0, log)
    standard = g.sample_event_log(p, c0, 1.0, rng)
    with pytest.raises(FlavorMismatch):
        g.coupled_evolve(c0, c0, standard)


# --------------------------------------------------------------- sterility


def test_sterile_probability_values():
    assert g.sterile_probability(0.3, 0.7) == pytest.approx(
        STERILE_AT_SUM_ONE, abs=1e-16
    )
    assert g.sterile_probability(math.log(2.0), 0.0) == pytest.approx(
        STERILE_AT_SUM_LN2, abs=1e-16
    )
    assert g.sterile_probability(500.0, 500.0) == pytest.approx(0.0, abs=1e-300)
    with pytest.raises(DomainError):
        g.sterile_probability(0.0, 0.0)


def test_classify_sterile_hand_patterns():
    # death 0.5 old, last arrow 1.5 old: sterile
    marks = [
        g.Mark(4.5, g.CROSS, 2),
        g.Mark(3.5, g.ARROW, 2, 3),
        g.Mark(5.0, g.DOT_ARROW, 0, 1, 2),
    ]
    log = hand_log(marks, flavor=g.STANDARD)
    (idx,) = [i for i, m in enumerate(log.marks) if m.kind == g.DOT_ARROW]
    assert g.classify_sterile(log, idx) is True

    # death 1.5 old: never sterile, whatever the arrows say
    marks = [
        g.Mark(3.5, g.CROSS, 2),
        g.Mark(3.6, g.ARROW, 2, 3),
        g.Mark(5.0, g.DOT_ARROW, 0, 1, 2),
    ]
    log = hand_log(marks, flavor=g.STANDARD)
    (idx,) = [i for i, m in enumerate(log.marks) if m.kind == g.DOT_ARROW]
    assert g.classify_sterile(log, idx) is False

    # arrow too fresh (0.5 old): not sterile
    marks = [
        g.Mark(4.6, g.CROSS, 2),
        g.Mark(4.5, g.ARROW, 2, 3),
        g.Mark(5.0, g.DOT_ARROW, 0, 1, 2),
    ]
    log = hand_log(marks, flavor=g.STANDARD)
    (idx,) = [i for i, m in enumerate(log.marks) if m.kind == g.DOT_ARROW]
    assert g.classify_sterile(log, idx) is False

    # arrow too old (2.5 old) with no fresher one: not sterile
    marks = [
        g.Mark(4.6, g.CROSS, 2),
        g.Mark(2.5, g.ARROW, 2, 3),
        g.Mark(5.0, g.DOT_ARROW, 0, 1, 2),
    ]
    log = hand_log(marks, flavor=g.STANDARD)
    (idx,) = [i for i, m in enumerate(log.marks) if m.kind == g.DOT_ARROW]
    assert g.classify_sterile(log, idx) is False


def test_classify_sterile_decidability_without_history():
    # no history window: a mark 0.5 into the window cannot resolve u
    log = g.EventLog(0.0, 5.0, 0.0, g.STANDARD,
                     [g.Mark(0.5, g.DOT_ARROW, 0, 1, 2)], {}, 7, 1)
    with pytest.raises(InsufficientHistory):
        g.classify_sterile(log, 0)
    # a fresh cross resolves u, but v stays hidden
    log = g.EventLog(0.0, 5.0, 0.0, g.STANDARD,
                     [g.Mark(0.4, g.CROSS, 2),
                      g.Mark(0.5, g.DOT_ARROW, 0, 1, 2)], {}, 7, 1)
    with pytest.raises(InsufficientHistory):
        g.classify_sterile(log, 1)
    # far enough from the edge, absence of marks is decisive: not sterile
    log = g.EventLog(0.0, 5.0, 0.0, g.STANDARD,
                     [g.Mark(3.0, g.DOT_ARROW, 0, 1, 2)], {}, 7, 1)
    assert g.classify_sterile(log, 0) is False


def test_classify_sterile_rejects_non_dot_marks():
    log = hand_log([g.Mark(1.0, g.ARROW, 2, 3)], flavor=g.STANDARD)
    with pytest.raises(DomainError):
        g.classify_sterile(log, 0)
    with pytest.raises(DomainError):
        g.classify_sterile(log, 5)


def test_classify_sterile_rejects_negative_index():
    # a negative index would otherwise classify a mark counted from the end
    marks = [g.Mark(1.0, g.ARROW, 2, 3), g.Mark(3.0, g.DOT_ARROW, 0, 1, 2)]
    log = hand_log(marks, flavor=g.STANDARD)
    assert g.classify_sterile(log, 1) is False
    with pytest.raises(DomainError):
        g.classify_sterile(log, -1)


def test_estimate_sterile_matches_closed_form():
    freq, stderr = g.estimate_sterile(0.3, 0.7, 20_000, np.random.default_rng(12))
    assert abs(freq - STERILE_AT_SUM_ONE) <= 3.0 * stderr
    with pytest.raises(DomainError):
        g.estimate_sterile(0.3, 0.7, 0, np.random.default_rng(0))


# --------------------------------------------------------------- dual trees


def test_dual_of_empty_log_is_the_single_root_path():
    tree = g.build_dual(hand_log([], t_end=5.0), 3, 4.0)
    assert [n.index for n in tree.nodes] == [(1,)]
    node = tree.nodes[0]
    assert (node.site, node.sigma_start, node.sigma_stop) == (3, 0.0, 4.0)
    assert not node.stopped_by_cross
    assert tree.horizon == 4.0


def test_dual_stops_at_a_cross():
    tree = g.build_dual(hand_log([g.Mark(2.0, g.CROSS, 3)], t_end=5.0), 3, 4.0)
    (node,) = tree.nodes
    assert node.stopped_by_cross
    assert node.sigma_stop == pytest.approx(2.0)  # dual time of the cross
    assert tree.ancestors_at_horizon() == []


def test_dual_single_arrow_hand_trace():
    tree = g.build_dual(
        hand_log([g.Mark(2.0, g.ARROW, 3, 4)], t_end=5.0), 3, 4.0
    )
    assert [(n.index, n.site) for n in tree.nodes] == [((1,), 3), ((1, 1), 4)]
    root, child = tree.nodes
    assert child.sigma_start == pytest.approx(2.0)
    assert [n.site for n in tree.ancestors_at_horizon()] == [3, 4]


def test_dual_child_order_follows_real_time_from_the_stopping_cross():
    # two arrows into the root: the one nearer the cross gets index (1,1)
    marks = [
        g.Mark(0.5, g.CROSS, 3),
        g.Mark(1.0, g.ARROW, 3, 2),
        g.Mark(3.0, g.ARROW, 3, 4),
    ]
    tree = g.build_dual(hand_log(marks, t_end=5.0), 3, 4.0)
    by_index = {n.index: n for n in tree.nodes}
    assert by_index[(1, 1)].site == 2
    assert by_index[(1, 2)].site == 4
    assert by_index[(1,)].stopped_by_cross


def test_dual_multiplicity_keeps_distinct_paths():
    # the same source feeds the root twice: two distinct child paths
    marks = [
        g.Mark(1.0, g.ARROW, 3, 4),
        g.Mark(2.5, g.ARROW, 3, 4),
    ]
    tree = g.build_dual(hand_log(marks, t_end=5.0), 3, 4.0)
    sites = [n.site for n in tree.nodes]
    assert sites.count(4) == 2
    assert len({n.index for n in tree.nodes}) == len(tree.nodes)


def test_dual_ignores_self_dotted_arrows():
    marks = [g.Mark(2.0, g.DOT_ARROW, 3, 4, 3)]
    tree = g.build_dual(hand_log(marks, t_end=5.0), 3, 4.0)
    assert [n.index for n in tree.nodes] == [(1,)]
    shared = [g.Mark(2.0, g.DOT_ARROW, 3, 4, 5)]
    tree = g.build_dual(hand_log(shared, t_end=5.0), 3, 4.0)
    assert [n.index for n in tree.nodes] == [(1,), (1, 1)]


def test_dual_hierarchy_well_formed_on_random_logs():
    rng = np.random.default_rng(16)
    p = Params(2.0, equal_rate_benefit(1.0, 1), 1.0, 1)
    torus = Torus(8, 1)
    for _ in range(25):
        log = g.sample_event_log(p, torus, 4.0, rng, flavor=g.EQUAL_RATE)
        tree = g.build_dual(log, int(rng.integers(0, 8)), 4.0)
        indices = [n.index for n in tree.nodes]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)
        assert indices[0] == (1,)
        prefixes = set(indices)
        for idx in indices:
            if len(idx) > 1:
                assert idx[:-1] in prefixes
        for node in tree.nodes:
            assert 0.0 <= node.sigma_start < node.sigma_stop <= tree.horizon


def forward_reachable(log, y, s, t):
    """Sites reachable from (y, s) by arrow-hopping, cross-free waiting."""
    reach = {y}
    for _, m in log.window_marks(s, t):
        if m.kind == g.CROSS:
            reach.discard(m.target)
        elif m.kind in g.ARROW_KINDS:
            if m.kind == g.DOT_ARROW and m.dot == m.target:
                continue
            if m.source in reach:
                reach.add(m.target)
    return reach


def test_dual_membership_equals_forward_reachability():
    rng = np.random.default_rng(17)
    p = Params(1.5, equal_rate_benefit(0.8, 1), 0.8, 1)
    torus = Torus(6, 1)
    t = 3.0
    for _ in range(20):
        log = g.sample_event_log(p, torus, t, rng, flavor=g.EQUAL_RATE)
        x = int(rng.integers(0, 6))
        tree = g.build_dual(log, x, t)
        for s in (0.3, 0.9, 1.7, 2.5):
            dual_sites = {
                n.site
                for n in tree.nodes
                if t - n.sigma_stop < s <= t - n.sigma_start
            }
            forward_sites = {
                y for y in range(6) if x in forward_reachable(log, y, s, t)
            }
            assert dual_sites == forward_sites


def test_dual_validation_and_budget():
    log = hand_log([], t_end=5.0)
    with pytest.raises(DomainError):
        g.build_dual(log, 3, 6.0)
    with pytest.raises(DomainError):
        g.build_dual(log, 99, 4.0)
    rng = np.random.default_rng(18)
    p = Params(4.0, equal_rate_benefit(2.0, 1), 2.0, 1)
    busy = g.sample_event_log(p, Torus(10, 1), 8.0, rng, flavor=g.EQUAL_RATE)
    with pytest.raises(BudgetExhausted) as info:
        g.build_dual(busy, 0, 8.0, max_nodes=3)
    assert len(info.value.partial) == 3


def test_dual_boundary_marks():
    # an arrow tied with the stopping cross sorts after it (KIND_ORDER) and
    # lies on the open end of the segment: not a child
    marks = [
        g.Mark(1.0, g.CROSS, 3),
        g.Mark(1.0, g.ARROW, 3, 2),
        g.Mark(2.0, g.ARROW, 3, 4),
    ]
    tree = g.build_dual(hand_log(marks, t_end=5.0), 3, 4.0)
    assert [(n.index, n.site) for n in tree.nodes] == [((1,), 3), ((1, 1), 4)]
    assert tree.nodes[0].sigma_stop == 3.0

    # an arrow into the child's site at the child's entry time: not a child
    marks = [g.Mark(2.0, g.ARROW, 3, 4), g.Mark(2.0, g.ARROW, 4, 5)]
    tree = g.build_dual(hand_log(marks, t_end=5.0), 3, 4.0)
    assert [(n.index, n.site) for n in tree.nodes] == [((1,), 3), ((1, 1), 4)]
    # nor is an arrow into the origin at the origin time
    tree = g.build_dual(hand_log([g.Mark(4.0, g.ARROW, 3, 4)], t_end=5.0), 3, 4.0)
    assert [n.index for n in tree.nodes] == [(1,)]

    # an arrow later than t is never used, not even below a child
    marks = [g.Mark(2.0, g.ARROW, 3, 4), g.Mark(4.5, g.ARROW, 3, 2), g.Mark(4.5, g.ARROW, 4, 5)]
    tree = g.build_dual(hand_log(marks, t_end=5.0), 3, 4.0)
    assert [(n.index, n.site) for n in tree.nodes] == [((1,), 3), ((1, 1), 4)]

    # a self-dotted arrow between two real ones uses up no child index
    for kind in (g.DOT_ARROW, g.C_PLUS_DOT_ARROW):
        marks = [
            g.Mark(1.0, g.ARROW, 3, 2),
            g.Mark(2.0, kind, 3, 4, 3),
            g.Mark(3.0, g.D_ARROW, 3, 4),
        ]
        tree = g.build_dual(hand_log(marks, flavor=g.COUPLED, t_end=5.0), 3, 4.0)
        assert [(n.index, n.site, n.sigma_start) for n in tree.nodes] == [
            ((1,), 3, 0.0),
            ((1, 1), 2, 3.0),
            ((1, 2), 4, 1.0),
        ]


def rescan_dual(log, x, t, max_nodes):
    """Reference dual: rescan every mark per query, then sort by index."""
    arrows_into = {}
    for m in log.marks:
        if m.kind in g.ARROW_KINDS and m.time <= t:
            if m.kind in (g.DOT_ARROW, g.C_PLUS_DOT_ARROW) and m.dot == m.target:
                continue
            arrows_into.setdefault(m.target, []).append((m.time, m.source))
    nodes = []
    stack = [(x, t, (1,))]
    while stack:
        site, r_hi, index = stack.pop()
        if len(nodes) >= max_nodes:
            raise BudgetExhausted("reference budget")
        cross = log.last_cross_at(site, r_hi)
        if cross is not None and cross >= log.t_start:
            r_lo, stopped = cross, True
        else:
            r_lo, stopped = log.t_start, False
        nodes.append((site, index, t - r_hi, t - r_lo, stopped))
        i = 0
        for a_time, a_source in arrows_into.get(site, ()):
            if r_lo < a_time < r_hi:
                i += 1
                stack.append((a_source, a_time, index + (i,)))
    nodes.sort(key=lambda n: n[1])
    return nodes


def random_flavored_log(flavor, side, rng):
    if flavor == g.STANDARD:
        p = Params(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 3.0)), 1.0, 1)
        return g.sample_event_log(p, Torus(side, 1), 4.0, rng)
    if flavor == g.EQUAL_RATE:
        beta_d = float(rng.uniform(0.2, 2.0))
        p = Params(float(rng.uniform(0.5, 3.0)), equal_rate_benefit(beta_d, 1), beta_d, 1)
        return g.sample_event_log(p, Torus(side, 1), 4.0, rng, flavor=g.EQUAL_RATE)
    favored, base = Params(2.0, 2.5, 0.5, 1), Params(2.0, 1.0, 1.0, 1)
    return g.sample_event_log(favored, Torus(side, 1), 4.0, rng, flavor=g.COUPLED, p2=base)


def dual_outcome(build, log, x, t, max_nodes):
    try:
        return build(log, x, t, max_nodes)
    except BudgetExhausted:
        return "budget"


def indexed_dual(log, x, t, max_nodes):
    tree = g.build_dual(log, x, t, max_nodes=max_nodes)
    return [(n.site, n.index, n.sigma_start, n.sigma_stop, n.stopped_by_cross) for n in tree.nodes]


def test_dual_matches_rescan_reference():
    rng = np.random.default_rng(31)
    self_dotted = 0
    budget_hits = 0
    for flavor in (g.STANDARD, g.EQUAL_RATE, g.COUPLED):
        for _ in range(12):
            log = random_flavored_log(flavor, int(rng.integers(5, 16)), rng)
            self_dotted += sum(
                m.kind == g.C_PLUS_DOT_ARROW and m.dot == m.target for m in log.marks
            )
            x, t = int(rng.integers(0, log.side)), float(rng.uniform(0.1, 4.0))
            expected = dual_outcome(rescan_dual, log, x, t, 5_000)
            assert dual_outcome(indexed_dual, log, x, t, 5_000) == expected
            if expected == "budget":
                budget_hits += 1
                continue
            # both raise one segment short of the tree, neither at its size
            short = len(expected) - 1
            assert dual_outcome(indexed_dual, log, x, t, short) == "budget"
            assert dual_outcome(rescan_dual, log, x, t, short) == "budget"
            assert dual_outcome(indexed_dual, log, x, t, len(expected)) == expected
    assert self_dotted > 0  # the coupled logs exercise self-dotted c_plus marks
    assert 0 < budget_hits < 36


def test_dual_budget_partial_is_hierarchy_prefix():
    rng = np.random.default_rng(18)
    p = Params(4.0, equal_rate_benefit(2.0, 1), 2.0, 1)
    busy = g.sample_event_log(p, Torus(10, 1), 8.0, rng, flavor=g.EQUAL_RATE)
    full = g.build_dual(busy, 0, 3.0)
    assert len(full.nodes) > 50
    for k in (1, 3, 17, len(full.nodes) - 1):
        with pytest.raises(BudgetExhausted) as info:
            g.build_dual(busy, 0, 3.0, max_nodes=k)
        assert info.value.partial == full.nodes[:k]


def test_dual_pinned_side_200_tree():
    # node count and node digest of one seeded query, computed with the
    # rescan-and-sort implementation
    p = Params(2.0, 1.0, 1.0, 1)
    log = g.sample_event_log(p, Torus(200, 1), 3.0, np.random.default_rng(0))
    tree = g.build_dual(log, 100, 3.0)
    assert len(tree.nodes) == 620
    digest = hashlib.sha256(repr(tree.nodes).encode()).hexdigest()
    assert digest == "66bd19152ed8ea75378de6598095f21125a523490055780d3d85804ed51033d9"


# ----------------------------------------------------------- origin typing


def one_arrow_tree():
    log = hand_log([g.Mark(2.0, g.ARROW, 3, 4)], t_end=5.0)
    return g.build_dual(log, 3, 4.0)


def test_origin_empty_when_all_ancestors_start_empty():
    tree = one_arrow_tree()
    assert g.resolve_origin_type(tree, Torus(7, 1)) == g.ORIGIN_EMPTY


def test_origin_defector_from_first_occupied_ancestor():
    tree = one_arrow_tree()
    init = Torus.from_state_string("eeedeee")
    assert g.resolve_origin_type(tree, init) == g.ORIGIN_DEFECTOR
    later = Torus.from_state_string("eeeedee")  # defector on the second path
    assert g.resolve_origin_type(tree, later) == g.ORIGIN_DEFECTOR


def test_origin_indeterminate_when_a_cooperator_comes_first():
    tree = one_arrow_tree()
    init = Torus.from_state_string("eeecdee")  # root path start is a cooperator
    assert g.resolve_origin_type(tree, init) == g.ORIGIN_INDETERMINATE
    # hierarchy order decides which ancestor speaks first
    both = Torus.from_state_string("eeecdee")
    assert g.resolve_origin_type(tree, both) == g.ORIGIN_INDETERMINATE


def test_origin_respects_hierarchy_order_over_site_position():
    # cross kills the root path; only the arrow-fed path survives
    marks = [g.Mark(1.0, g.CROSS, 3), g.Mark(2.0, g.ARROW, 3, 4)]
    tree = g.build_dual(hand_log(marks, t_end=5.0), 3, 4.0)
    init = Torus.from_state_string("eeecdee")
    assert g.resolve_origin_type(tree, init) == g.ORIGIN_DEFECTOR


# --------------------------------------------------- engine cross-validation


def test_equivalence_check_at_time_zero_is_exact():
    rng = np.random.default_rng(19)
    report = distributional_equivalence_check(
        Params(2.0, 1.0, 1.0, 1), Torus.from_state_string("cdcde"), 0.0, 50, rng
    )
    assert report.passed
    assert report.p_values == (1.0, 1.0, 1.0)


def test_equivalence_check_pure_death():
    # no births ever land: occupied sites survive independently with chance e^{-t}
    rng = np.random.default_rng(20)
    p = NO_BIRTHS
    init = Torus.from_state_string("cdcdc")
    t_probe = 1.0
    report = distributional_equivalence_check(p, init, t_probe, 3000, rng)
    assert report.passed
    survive = math.exp(-t_probe)
    logs = [g.sample_event_log(p, init, t_probe, rng, history=0.0) for _ in range(3000)]
    occupied = np.array(
        [5 - g.evolve_from_log(init, log).counts()[2] for log in logs]
    )
    expected = 5 * survive
    spread = math.sqrt(5 * survive * (1 - survive) / len(occupied))
    assert abs(occupied.mean() - expected) < 4 * spread


def test_equivalence_check_contact_process_case():
    rng = np.random.default_rng(21)
    report = distributional_equivalence_check(
        Params(2.0), Torus.from_state_string("cdcde"), 2.0, 4000, rng
    )
    assert report.passed
    assert all(d >= 1 for d in report.dofs)


def test_equivalence_check_validation():
    rng = np.random.default_rng(22)
    with pytest.raises(DomainError):
        distributional_equivalence_check(Params(1.0), Torus(5, 1), 1.0, 1, rng)
