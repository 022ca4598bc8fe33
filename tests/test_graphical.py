"""Mark sampling, log evolution, couplings, sterility, and dual tracing."""

import functools
import hashlib
import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim import _engine, lattice
from coopsim import graphical as g
from coopsim.errors import (
    BudgetExhausted,
    CoopSimError,
    CouplingOrder,
    DomainError,
    FlavorMismatch,
    InsufficientHistory,
)
from coopsim.lattice import COOPERATOR, DEFECTOR, EMPTY, Torus, product_measure
from coopsim.params import Params, equal_rate_benefit

import mark_reference as ref
from engine_agreement import distributional_equivalence_check, exact_law_pvalue, ring_law
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
    nbrs = ref.neighbors(torus)
    for m in log.marks:
        if m.kind != g.CROSS:
            assert m.target in nbrs[m.source]
        if m.kind == g.DOT_ARROW:
            assert m.dot in nbrs[m.source]
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


def column_bytes(log):
    """A log's columns as bytes: unlike comparing marks, this tells -0.0 from 0.0."""
    return tuple(c.tobytes() for c in log._columns())


def text_cases():
    """Logs over the three flavors, d = 1..3 and sides 2 to 10^4."""
    r = random.Random(18)
    for flavor, dim, side in [
        (g.STANDARD, 1, 2), (g.EQUAL_RATE, 1, 9), (g.COUPLED, 1, 10), (g.STANDARD, 1, 10**4),
        (g.EQUAL_RATE, 2, 3), (g.COUPLED, 2, 11), (g.STANDARD, 2, 100),
        (g.COUPLED, 3, 2), (g.EQUAL_RATE, 3, 5), (g.STANDARD, 3, 21),
    ]:
        beta, beta_d = r.uniform(0.3, 3.0), r.uniform(0.0, 2.0)
        p2 = None
        if flavor == g.EQUAL_RATE:
            p = Params(beta, equal_rate_benefit(beta_d, dim), beta_d, dim)
        else:
            p = Params(beta, r.uniform(0.0, 3.0), beta_d, dim)
        if flavor == g.COUPLED:
            p2 = Params(beta, p.beta_c / 2, beta_d + 0.5, dim)
        # about 4000 marks on the largest tori
        t_max = min(2.0, 400.0 / side**dim)
        rng = np.random.default_rng(r.randrange(10**6))
        yield g.sample_event_log(p, Torus(side, dim), t_max, rng, flavor=flavor, p2=p2,
                                 history=t_max / 2)
    # times repr writes in either notation, at both ends of the span
    edge = [-1.0, -0.0, 0.0, 5e-324, -5e-324, 1e-05, 0.1, 1 / 3, 2.0**53, 1e16, 2e16]
    yield g.EventLog(0.0, 2e16, 1.0, g.STANDARD,
                     [g.Mark(t, g.CROSS, i % 7) for i, t in enumerate(edge)], {}, 7, 1, seed=3)
    yield g.EventLog(-3.5, 0.25, 0.125, g.STANDARD,
                     [g.Mark(-3.625, g.ARROW, 10**4 - 1, 0), g.Mark(0.25, g.CROSS, 0)],
                     {"cross": 1.0}, 10**4, 1)


def test_text_round_trip_matches_the_reference_formatter(engine):
    for log in text_cases():
        text = log.to_text()
        assert text == ref.to_text(log, log.marks)
        back = g.EventLog.from_text(text)
        assert column_bytes(back) == column_bytes(log)
        assert back.to_text() == text


LENIENT_TEXT = """# coopsim event log v1
flavor=standard
window=0.0 1.0
history=0.5
torus=12 1
seed=-
intensity cross=1.0
-0.5 cross 2 - -
0.001 arrow 10 11 -
0.5 dot_arrow 3 4 5
1.0 d_arrow 11 10 -
"""
LENIENT_MARKS = (
    g.Mark(-0.5, g.CROSS, 2),
    g.Mark(0.001, g.ARROW, 10, 11),
    g.Mark(0.5, g.DOT_ARROW, 3, 4, 5),
    g.Mark(1.0, g.D_ARROW, 11, 10),
)


@pytest.mark.parametrize(
    "old, new",
    [
        ("\n", "\r\n"),
        ("0.5 dot_arrow 3 4 5", "0.5\tdot_arrow\t3 4\t5"),
        ("0.5 dot_arrow 3 4 5", "  0.5   dot_arrow 3  4 5 "),
        ("0.001 arrow 10 11 -\n", "0.001 arrow 10 11 -\n\n# a comment\n   \n"),
        ("seed=-\n", ""),
        ("0.001 arrow 10 11 -", "+0.001 arrow +10 1_1 -"),
        ("0.5 dot_arrow 3 4 5", "0.5 dot_arrow 003 04 5"),
        ("0.5 dot_arrow", ".5 dot_arrow"),
        ("0.001 arrow", "1e-3 arrow"),
        ("0.001 arrow", "1E-3 arrow"),
        ("-0.5 cross 2", "-.5e0 cross ٢"),
        ("1.0 d_arrow 11 10", "١.٠ d_arrow ١١ 1٠"),
        ("1.0 d_arrow 11 10 -\n", "1.0 d_arrow 11 10 -"),
    ],
    ids=["crlf", "tabs", "runs-of-spaces", "blank-and-comment-lines", "header-after-marks",
         "plus-and-underscore", "leading-zeros", "no-leading-digit", "exponent",
         "capital-exponent", "non-ascii-site", "non-ascii-digits", "no-final-newline"],
)
def test_from_text_reads_lenient_text_on_both_engines(engine, old, new):
    assert old in LENIENT_TEXT
    text = LENIENT_TEXT.replace(old, new)
    if new == "":  # the header line moves after the marks
        text += old
    log = g.EventLog.from_text(text)
    assert log.marks == LENIENT_MARKS
    assert column_bytes(log) == column_bytes(g.EventLog.from_text(LENIENT_TEXT))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("0.5 dot_arrow", "0x1p-1 dot_arrow",
         "line 10 '0x1p-1 dot_arrow 3 4 5': could not convert string to float: '0x1p-1'"),
        ("0.5 dot_arrow", "0.5,dot_arrow",
         "line 10 '0.5,dot_arrow 3 4 5': not enough values to unpack (expected 5, got 4)"),
        ("0.5 dot_arrow", "nan dot_arrow",
         "line 10 'nan dot_arrow 3 4 5': time nan is outside the log's span [-0.5, 1.0]"),
        ("0.5 dot_arrow", "inf dot_arrow",
         "line 10 'inf dot_arrow 3 4 5': time inf is outside the log's span [-0.5, 1.0]"),
        ("0.5 dot_arrow", "1e400 dot_arrow",
         "line 10 '1e400 dot_arrow 3 4 5': time inf is outside the log's span [-0.5, 1.0]"),
        ("0.5 dot_arrow", "-0.5000000000000001 dot_arrow",
         "line 10 '-0.5000000000000001 dot_arrow 3 4 5': time -0.5000000000000001 is outside"),
        ("0.5 dot_arrow 3 4 5", "0.5 dot_arrow 3 12 5",
         "line 10 '0.5 dot_arrow 3 12 5': site 12 is off the 12-site torus"),
        ("1.0 d_arrow 11 10 -", "1.0 d_arrow 11 10 99999999999",
         "line 11 '1.0 d_arrow 11 10 99999999999': site 99999999999 is off the 12-site torus"),
        ("1.0 d_arrow 11 10 -", "1.0 d_arrow - 10 -",
         "line 11 '1.0 d_arrow - 10 -': invalid literal for int() with base 10: '-'"),
        ("1.0 d_arrow", "1.0 D_arrow", "line 11 '1.0 D_arrow 11 10 -': unknown mark kind"),
        ("seed=-\n", "seed=-\n0.25 cross 1 - -\nseed=x\n",
         "line 8 'seed=x': invalid literal for int() with base 10: 'x'"),
        # a form feed ends a line too, so the bad intensity is on line 8
        ("seed=-\n", "seed=-\x0c\nintensity cross=fast\n",
         "line 8 'intensity cross=fast': could not convert string to float: 'fast'"),
    ],
    ids=["hex-float", "comma-after-time", "nan", "inf", "overflow", "below-history", "site-off-torus",
         "huge-site", "no-target", "capital-kind", "bad-header-after-a-mark",
         "form-feed-in-the-header"],
)
def test_from_text_refuses_the_same_text_on_both_engines(engine, old, new, message):
    assert old in LENIENT_TEXT
    with pytest.raises(DomainError) as caught:
        g.EventLog.from_text(LENIENT_TEXT.replace(old, new))
    assert str(caught.value).startswith("event log " + message)


def test_tied_times_keep_the_kind_order():
    # a cross and an arrow at one site and time: the time alone cannot order them
    marks = [g.Mark(1.0, g.ARROW, 2, 1), g.Mark(0.5, g.CROSS, 4), g.Mark(1.0, g.CROSS, 2)]
    assert hand_log(marks).marks == (marks[1], marks[2], marks[0])
    # distinct times are ordered by the time alone
    marks = [g.Mark(1.0, g.ARROW, 2, 1), g.Mark(0.5, g.D_ARROW, 4, 3), g.Mark(0.75, g.CROSS, 6)]
    assert hand_log(marks).marks == (marks[1], marks[2], marks[0])


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


def test_event_log_refuses_a_torus_beyond_the_int32_site_limit():
    # a 10**10-site torus once stored target 3000000000 as -1294967296, and
    # to_text then wrote text that from_text could not read back
    named = "more than 2147483647 sites"
    with pytest.raises(DomainError, match=named):
        g.EventLog(0.0, 1.0, 0.0, g.STANDARD, [g.Mark(0.5, g.CROSS, 3000000000)], {}, 100000, 2)
    text = "\n".join(["# coopsim event log v1", "flavor=standard", "window=0.0 1.0",
                      "history=0.0", "torus=100000 2", "seed=-", "0.5 cross 3000000000 - -", ""])
    with pytest.raises(DomainError, match=named):
        g.EventLog.from_text(text)
    with pytest.raises(DomainError, match=named):
        g.EventLog(0.0, 1.0, 0.0, g.STANDARD, [], {}, 2, 64)


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


def test_event_log_rejects_marks_off_its_span_or_torus():
    # a NaN time among sorted marks used to hide the cross at 0.5 from replay
    marks = [g.Mark(0.5, g.CROSS, 2), g.Mark(math.nan, g.CROSS, 1), g.Mark(0.7, g.CROSS, 3)]
    with pytest.raises(DomainError, match="outside the log's span"):
        g.EventLog(0.0, 1.0, 0.0, g.STANDARD, marks, {}, 5, 1)
    for mark, named in [
        (g.Mark(1.5, g.CROSS, 2), "outside the log's span"),
        (g.Mark(-2.5, g.CROSS, 2), "outside the log's span"),
        (g.Mark(math.inf, g.CROSS, 2), "outside the log's span"),
        (g.Mark(0.5, g.CROSS, 5), "mark target 5 is off the 5-site torus"),
        (g.Mark(0.5, g.CROSS, -1), "mark target -1 is off"),
        (g.Mark(0.5, g.ARROW, 2, 7), "mark source 7 is off"),
        (g.Mark(0.5, g.DOT_ARROW, 2, 1, -2), "mark dot -2 is off"),
        (g.Mark(0.5, "arow", 2, 1), "unknown mark kind 'arow'"),
    ]:
        with pytest.raises(DomainError, match=named):
            g.EventLog(0.0, 1.0, 2.0, g.STANDARD, [mark], {}, 5, 1)
    # the span's ends are in it
    log = g.EventLog(0.0, 1.0, 2.0, g.STANDARD, [g.Mark(1.0, g.CROSS, 0), g.Mark(-2.0, g.CROSS, 4)],
                     {}, 5, 1)
    assert [m.time for m in log.marks] == [-2.0, 1.0]


def test_an_arrow_without_its_source_or_dot_is_refused(replay_engine):
    c0 = Torus.from_state_string("ccccc")
    for kind, source, dot in [(g.ARROW, None, None), (g.DOT_ARROW, 1, None), (g.D_ARROW, None, None)]:
        log = hand_log([g.Mark(0.5, g.CROSS, 2), g.Mark(1.0, kind, 2, source, dot)], side=5)
        with pytest.raises(DomainError, match=f"{kind} mark at time 1.0 has no source or dot"):
            g.evolve_from_log(c0, log)
        coupled = hand_log(log.marks, flavor=g.COUPLED, side=5)
        with pytest.raises(DomainError, match="has no source or dot"):
            g.coupled_evolve(c0, c0, coupled)
    assert g.evolve_from_log(c0, log, t_to=0.9).state_string() == "ccecc"
    with pytest.raises(DomainError, match="mark 1 is a dot-arrow without a dot"):
        g.classify_sterile(hand_log([g.Mark(0.5, g.CROSS, 2), g.Mark(3.0, g.DOT_ARROW, 0, 1)]), 1)
    with pytest.raises(DomainError, match="arrow into site 3 at time 2.0 has no source"):
        g.build_dual(hand_log([g.Mark(2.0, g.ARROW, 3)], t_end=5.0), 3, 4.0)


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


def marks_one_by_one(log):
    """The log's marks made one at a time from its columns: the reference
    for the chunked mark views."""
    return tuple(
        g.Mark(t, g._KIND_NAMES[k], x, None if y < 0 else y, None if z < 0 else z)
        for t, k, x, y, z in zip(*(c.tolist() for c in log._columns()))
    )


def assert_same_marks(got, want):
    assert got == want
    for m in got:
        assert type(m) is g.Mark and type(m.time) is float and type(m.target) is int
        assert m.kind is g._KIND_NAMES[g.KIND_ORDER[m.kind]]
        assert m.source is None or type(m.source) is int
        assert m.dot is None or type(m.dot) is int


def mark_view_cases():
    """(log, windows): sampled logs of every flavor, hand logs with missing
    sources and dots, an empty log, and a log longer than two chunks."""
    rng = np.random.default_rng(31)
    for flavor in (g.STANDARD, g.EQUAL_RATE, g.COUPLED):
        log = random_flavored_log(flavor, 20, rng)
        yield log, [(None, None), (-math.inf, math.inf), (-math.inf, log.t_start),
                    (2.0, 1.0), (1.0, 1.0), (0.5, 2.5)]
    hand = hand_log([g.Mark(-1.0, g.CROSS, 2), g.Mark(0.5, g.ARROW, 3, 2),
                     g.Mark(0.5, g.DOT_ARROW, 1, 2, 3), g.Mark(4.0, g.DOT_ARROW, 4, 3, 4),
                     g.Mark(9.0, g.CROSS, 0)])
    yield hand, [(None, None), (-math.inf, 0.0), (0.5, 9.0)]
    yield hand_log([]), [(None, None), (-math.inf, math.inf)]
    long = g.sample_event_log(Params(2.0, 1.0, 1.0, 1), Torus(200, 1), 10.0, rng)
    assert len(long) > 2 * g._MARK_CHUNK + 1000
    # from inside the first chunk to inside the third
    lo, hi = 1000, 2 * g._MARK_CHUNK + 700
    inside = (float(long.time[lo - 1]), float(long.time[hi - 1]))
    assert long._window(*inside) == slice(lo, hi)
    yield long, [(None, None), inside]


def test_mark_views_equal_the_marks_made_one_by_one():
    for log, windows in mark_view_cases():
        want = marks_one_by_one(log)
        for t_from, t_to in windows:
            window = log._window(t_from, t_to)
            got = list(log.window_marks(t_from, t_to))
            assert [i for i, _ in got] == list(range(window.start, window.stop))
            assert_same_marks(tuple(m for _, m in got), want[window])
        assert log._marks is None  # a window never builds the tuple
        assert_same_marks(log.marks, want)
        assert log.marks is log.marks


def test_window_marks_keeps_no_marks_alive():
    log = g.sample_event_log(Params(2.0, 1.0, 1.0, 1), Torus(1000, 1), 20.0,
                             np.random.default_rng(3))
    assert len(log) > 100_000
    tracemalloc.start()
    try:
        dots = sum(m.kind == g.DOT_ARROW for _, m in log.window_marks())
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert dots == np.count_nonzero(log.kind[log._window(None, None)] == g.KIND_ORDER[g.DOT_ARROW])
    assert kept < 1_000_000  # a Mark kept for every mark would hold about 18 MB
    assert log._marks is None


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


def test_replay_sized_logs_pinned_text():
    # SHA-256 of to_text() for the two 1000-site, 20-unit logs one seed
    # draws (257,850 marks), and the generator's next draw after them;
    # computed with the mark-by-mark sampler and formatter of coopsim 0.1.0
    rng = np.random.default_rng(1)
    line = Torus(1000, 1)
    standard = g.sample_event_log(Params(2.0, 1.0, 1.0, 1), line, 20.0, rng)
    coupled = g.sample_event_log(Params(2.0, 2.7, 1.0, 1), line, 20.0, rng, flavor=g.COUPLED,
                                 p2=Params(2.0, 1.0, 1.0, 1))
    assert (len(standard), len(coupled)) == (109774, 148076)
    assert hashlib.sha256(standard.to_text().encode()).hexdigest() == (
        "1d2bae9b0a8e99baaf16f9ef6362261aa4dd5953a9e98e66415551fc4b913d6c"
    )
    assert hashlib.sha256(coupled.to_text().encode()).hexdigest() == (
        "2fd989446e74a35a7720b3ca0d8c2714409fb9d0106cacf6cd86c7c1bf4df0ce"
    )
    assert rng.random() == 0.26425404083771464


@pytest.fixture(params=["compiled", "python"])
def replay_engine(request, monkeypatch):
    """Replay on the compiled loops, or on the Python loops as when the build fails."""
    if request.param == "python":
        monkeypatch.setattr(_engine, "load", lambda: None)
    elif _engine.load() is None:
        pytest.skip("compiled engine unavailable")
    return request.param


def reference_cases(n, seed):
    """(flavor, torus, p, p2, t_max, history, seed) over the three flavors and d = 1..3."""
    r = random.Random(seed)
    for _ in range(n):
        flavor = r.choice([g.STANDARD, g.EQUAL_RATE, g.COUPLED])
        dim = r.choice([1, 2, 3])
        side = r.randint(2, {1: 30, 2: 9, 3: 4}[dim])
        beta, beta_c, beta_d = r.uniform(0.3, 3.0), r.uniform(0.0, 3.0), r.uniform(0.0, 2.0)
        p2 = None
        if flavor == g.STANDARD:
            p = Params(beta, beta_c, beta_d, dim)
        elif flavor == g.EQUAL_RATE:
            p = Params(beta, equal_rate_benefit(beta_d, dim), beta_d, dim)
        else:  # either difference stream may be switched off
            p = Params(beta, beta_c + r.choice([0.0, r.uniform(0.0, 2.0)]), beta_d, dim)
            p2 = Params(beta, beta_c, beta_d + r.choice([0.0, r.uniform(0.0, 2.0)]), dim)
        t_max, history = r.uniform(0.5, 4.0), r.choice([0.0, 0.7, 2.0])
        yield flavor, Torus(side, dim), p, p2, t_max, history, r.randrange(10**6)


def outcome(replay, *args):
    """Final site strings, or the error's type and message."""
    try:
        result = replay(*args)
    except CoopSimError as exc:
        return type(exc).__name__, str(exc)
    return [t.state_string() for t in (result if isinstance(result, tuple) else (result,))]


def test_columns_match_the_mark_reference(replay_engine, monkeypatch):
    # starts out of coupling order reach the loop, which must report the
    # same InclusionViolation as the reference
    monkeypatch.setattr(g, "_check_coupling_order", lambda first, second: None)
    seen = Counter()
    for flavor, torus, p, p2, t_max, history, seed in reference_cases(60, 5):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        log = g.sample_event_log(p, torus, t_max, rng, flavor=flavor, p2=p2, history=history)
        marks = ref.sample_marks(p, torus, t_max, rng_ref, flavor=flavor, p2=p2, history=history)
        assert log.marks == tuple(marks)
        assert rng.random() == rng_ref.random()
        text = log.to_text()
        assert text == ref.to_text(log, marks)
        back = g.EventLog.from_text(text)
        assert back.marks == tuple(ref.read_marks(text))
        assert back.to_text() == text
        window = (log.t_start, log.t_end)
        # the same marks in a standard log: replay refuses the first difference mark
        relabelled = g.EventLog(*window, log.history, g.STANDARD, marks, {}, torus.side, torus.dim)
        for j in range(3):
            c0 = product_measure(torus.side, torus.dim, 0.3, 0.3, rng)
            if flavor == g.COUPLED:
                other = c0.copy() if j == 0 else product_measure(torus.side, torus.dim, 0.3, 0.3, rng)
                cases = [
                    ((g.coupled_evolve, c0, other, back), (ref.coupled, c0, other, marks, *window)),
                    ((g.evolve_from_log, c0, relabelled), (ref.evolve, c0, g.STANDARD, marks, *window)),
                ]
            else:
                cases = [((g.evolve_from_log, c0, a, lo, hi), (ref.evolve, c0, flavor, marks, lo, hi))
                         for a, lo, hi in ((log, *window), (back, -log.history, 0.0))]
            for new, old in cases:
                got = outcome(*new)
                assert got == outcome(*old)
                seen[got[0] if isinstance(got, tuple) else "states"] += 1
    assert seen["states"] and seen["InclusionViolation"] and seen["FlavorMismatch"], seen


def test_every_single_mark_matches_the_mark_reference(replay_engine):
    # one mark on the ring 0-1-2-3-4: target 2, source 1, and a dot at 0 or
    # on the target; every state of sites 0, 1 and 2 (every allowed pair of
    # states, coupled), sites 3 and 4 empty
    def placements(kind):
        if kind == g.CROSS:
            return [(None, None)]
        return [(1, 0), (1, 2)] if g._SLOTS[kind] == 2 else [(1, None)]

    def ring(states):
        return Torus(5, 1, [*states, EMPTY, EMPTY])

    pairs = sorted(g.ALLOWED_PAIRS)
    seen = Counter()
    for flavor in (g.STANDARD, g.EQUAL_RATE, g.COUPLED):
        domain = pairs if flavor == g.COUPLED else (EMPTY, COOPERATOR, DEFECTOR)
        for kind in g.KIND_ORDER:
            for source, dot in placements(kind):
                marks = [g.Mark(1.0, kind, 2, source, dot)]
                log = hand_log(marks, flavor=flavor, side=5)
                for states in itertools.product(domain, repeat=3):
                    if flavor == g.COUPLED:
                        c1, c2 = ring(s[0] for s in states), ring(s[1] for s in states)
                        new = (g.coupled_evolve, c1, c2, log)
                        old = (ref.coupled, c1, c2, marks, 0.0, 10.0)
                    else:
                        c0 = ring(states)
                        new = (g.evolve_from_log, c0, log)
                        old = (ref.evolve, c0, flavor, marks, 0.0, 10.0)
                    got = outcome(*new)
                    assert got == outcome(*old), (flavor, kind, source, dot, states)
                    seen[got[0] if isinstance(got, tuple) else "states"] += 1
    # 8 placements; the 3 of the difference kinds are refused outside coupled logs
    assert seen == {"states": 2 * 5 * 27 + 8 * 216, "FlavorMismatch": 2 * 3 * 27}, seen


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


# ---------------------------------------------------------------- exact law
# Replays of sampled logs on the ring cdcde at t = 2 against the exact law,
# expm of the process's generator; the per-mark battery above already shows
# that the two replay engines agree, so these run on the default one.


@pytest.mark.slow
@pytest.mark.parametrize("flavor, p", [
    (g.STANDARD, Params(2.0, 4.0, 1.0, 1)),
    (g.EQUAL_RATE, Params(2.0, equal_rate_benefit(1.0, 1), 1.0, 1)),
])
def test_mark_replay_matches_the_exact_law_on_a_five_site_ring(flavor, p):
    start = Torus.from_state_string("cdcde")
    law, index = ring_law(start, p, 2.0)
    counts = np.zeros(len(index))
    rng = np.random.default_rng(61)
    for _ in range(20_000):
        log = g.sample_event_log(p, start, 2.0, rng, flavor=flavor, history=0.0)
        counts[index[tuple(g.evolve_from_log(start, log).sites)]] += 1
    pvalue, bins = exact_law_pvalue(counts, law)
    assert bins > 100 and pvalue > 0.001


@pytest.mark.slow
def test_coupled_marginals_match_their_exact_laws_on_a_five_site_ring():
    # each process of the coupling is the process with its own parameters
    p1, p2 = Params(2.0, 4.0, 0.5, 1), Params(2.0, 2.0, 1.0, 1)
    start = Torus.from_state_string("cdcde")
    (law1, index), (law2, _) = ring_law(start, p1, 2.0), ring_law(start, p2, 2.0)
    counts1, counts2 = np.zeros(len(index)), np.zeros(len(index))
    rng = np.random.default_rng(61)
    for _ in range(20_000):
        log = g.sample_event_log(p1, start, 2.0, rng, flavor=g.COUPLED, p2=p2, history=0.0)
        first, second = g.coupled_evolve(start, start, log)
        counts1[index[tuple(first.sites)]] += 1
        counts2[index[tuple(second.sites)]] += 1
    for counts, law in ((counts1, law1), (counts2, law2)):
        pvalue, bins = exact_law_pvalue(counts, law)
        assert bins > 100 and pvalue > 0.001


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


def test_mark_tables_are_apply_mark_on_three_sites():
    # next[k, s_x, s_y, s_z, z == x] for target 0, source 1 and a dot at 2, or
    # on the target, whose state is then the target's
    states = (EMPTY, COOPERATOR, DEFECTOR)
    for flavor in (g.STANDARD, g.EQUAL_RATE, g.COUPLED):
        tables = g._mark_tables(flavor)
        assert g._mark_tables(flavor) is tables
        if flavor == g.COUPLED:
            kind_maps = [g._AS_FIRST, g._AS_SECOND]
            assert tables[2].tolist() == [[int((a, b) in g.ALLOWED_PAIRS) for b in states] for a in states]
        else:
            kind_maps = [range(len(g.KIND_ORDER))]
        assert len(tables) == 2 * len(kind_maps) - 1
        for table, as_kind in zip(tables, kind_maps):
            assert table.shape == (6, 3, 3, 3, 2) and table.dtype == np.int8
            for k, sx, sy, sz, same in itertools.product(range(6), states, states, states, (0, 1)):
                s = [sx, sy, sz]
                g._apply_mark(s, as_kind[k], 0, 1, 0 if same else 2, flavor == g.EQUAL_RATE)
                assert table[k, sx, sy, sz, same] == s[0], (flavor, k, sx, sy, sz, same)
        assert not any(t.flags.writeable for t in tables)
    # spot checks of the law itself: a cooperator birth needs both cooperators,
    # and an equal-rate defector birth needs its dot off the target
    dot = g.KIND_ORDER[g.DOT_ARROW]
    standard, equal = g._mark_tables(g.STANDARD)[0], g._mark_tables(g.EQUAL_RATE)[0]
    assert standard[dot, EMPTY, COOPERATOR, COOPERATOR, 0] == COOPERATOR
    assert standard[dot, EMPTY, COOPERATOR, DEFECTOR, 0] == EMPTY
    assert standard[dot, EMPTY, DEFECTOR, EMPTY, 0] == EMPTY
    assert equal[dot, EMPTY, DEFECTOR, EMPTY, 0] == DEFECTOR
    assert equal[dot, EMPTY, DEFECTOR, EMPTY, 1] == EMPTY
    first, second, _ = g._mark_tables(g.COUPLED)
    plus = g.KIND_ORDER[g.D_PLUS_ARROW]
    assert first[plus, EMPTY, DEFECTOR, EMPTY, 0] == EMPTY
    assert second[plus, EMPTY, DEFECTOR, EMPTY, 0] == DEFECTOR


@functools.cache
def replay_workload(seed):
    """The standard and coupled logs and the ten starts that the replay benchmark draws at ``seed``."""
    rng = np.random.default_rng(seed)
    line, base = Torus(1000, 1), Params(2.0, 1.0, 1.0, 1)
    log = g.sample_event_log(base, line, 20.0, rng)
    coupled = g.sample_event_log(Params(2.0, 2.7, 1.0, 1), line, 20.0, rng, flavor=g.COUPLED, p2=base)
    starts = [product_measure(1000, 1, 0.25, 0.25, rng) for _ in range(10)]
    return log, coupled, starts


def both_replays(log, flavor, s1, s2, window=slice(None)):
    """The stop index and the sites of ``_replay_marks`` and then of
    ``coop_replay`` on marks ``window`` of ``log``, as marks of ``flavor``."""
    module = compiled_module()
    lo, hi, _ = window.indices(len(log))
    outcomes = []
    for replay in (lambda a, b: g._replay_marks(a, b, log, lo, hi, flavor == g.EQUAL_RATE),
                   lambda a, b: _engine.replay(module, a, b, log, lo, hi, g._mark_tables(flavor))):
        a, b = bytearray(s1), None if s2 is None else bytearray(s2)
        outcomes.append((replay(a, b), a, b))
    return outcomes


def test_compiled_replay_matches_replay_marks_on_the_replay_logs():
    log, coupled, starts = replay_workload(3)
    for c0 in starts:
        for window in (log._window(None, None), log._window(-log.history, 0.0)):
            python, compiled = both_replays(log, g.STANDARD, c0.sites, None, window)
            assert python == compiled and python[0] == window.stop
    stops = set()
    for j, c0 in enumerate(starts[:4]):
        python, compiled = both_replays(coupled, g.COUPLED, c0.sites, c0.sites)
        assert python == compiled and python[0] == len(coupled)
        # a start with one site out of coupling order, (e, c): the replay stops
        # at the first mark that leaves a forbidden pair at its target
        second = list(c0.sites)
        second[c0.sites.index(EMPTY, 250 * j)] = COOPERATOR
        python, compiled = both_replays(coupled, g.COUPLED, c0.sites, second)
        assert python == compiled
        stops.add(python[0])
        # one process stops at the first difference-stream mark of its window
        python, compiled = both_replays(coupled, g.STANDARD, c0.sites, None,
                                        slice(j * len(coupled) // 4, None))
        assert python == compiled
        stops.add(python[0])
    assert len(stops) == 8 and 0 < min(stops) and max(stops) < len(coupled), stops


def test_compiled_replay_matches_replay_marks_at_each_stop_rule():
    ring = [EMPTY, COOPERATOR, DEFECTOR, COOPERATOR, EMPTY]
    lead, tail = g.Mark(0.5, g.CROSS, 4), g.Mark(2.0, g.ARROW, 4, 3)
    cases = [
        (g.STANDARD, [g.Mark(1.0, g.ARROW, 0)], None),
        (g.STANDARD, [g.Mark(1.0, g.D_ARROW, 0)], None),
        (g.EQUAL_RATE, [g.Mark(1.0, g.DOT_ARROW, 0, 1)], None),
        (g.STANDARD, [g.Mark(1.0, g.D_PLUS_ARROW, 0, 1)], None),
        (g.STANDARD, [g.Mark(1.0, g.C_PLUS_DOT_ARROW, 0, 1, 2)], None),
        (g.COUPLED, [g.Mark(1.0, g.ARROW, 0)], ring),
        (g.COUPLED, [g.Mark(1.0, g.C_PLUS_DOT_ARROW, 0, 1)], ring),
        # out of order at site 2, (d, c) or (d, e): a mark from it carries a
        # forbidden pair to site 0, and stops there, applied
        (g.COUPLED, [g.Mark(1.0, g.ARROW, 0, 2)], [EMPTY, COOPERATOR, COOPERATOR, COOPERATOR, EMPTY]),
        (g.COUPLED, [g.Mark(1.0, g.D_ARROW, 0, 2)], [EMPTY, COOPERATOR, EMPTY, COOPERATOR, EMPTY]),
        # a source or dot on the target is read there
        (g.EQUAL_RATE, [g.Mark(1.0, g.DOT_ARROW, 0, 0, 0)], None),
        (g.STANDARD, [g.Mark(1.0, g.ARROW, 0, 0)], None),
    ]
    stops = []
    for flavor, marks, second in cases:
        log = hand_log([lead, *marks, tail], flavor=flavor, side=5)
        python, compiled = both_replays(log, flavor, ring, second)
        assert python == compiled, (flavor, marks)
        stops.append(python[0])
    assert stops == [1] * 9 + [3] * 2, stops


def test_last_mark_readers_take_only_sites_on_the_torus(engine):
    log = hand_log([g.Mark(1.0, g.CROSS, 6), g.Mark(1.5, g.ARROW, 6, 5), g.Mark(2.0, g.CROSS, 0)])
    assert (log.last_cross_at(6, 3.0), log.last_arrow_into(6, 3.0)) == (1.0, 1.5)
    assert (log.last_cross_at(np.int64(0), 3.0), log.last_arrow_into(True, 3.0)) == (2.0, None)
    for read in (log.last_cross_at, log.last_arrow_into):
        for bad in (-1, -2, 7, 2**70):
            with pytest.raises(DomainError, match=f"site {bad} not on the log's torus"):
                read(bad, 3.0)
        for bad in (7.5, 3.0, "3", None):
            with pytest.raises(DomainError, match="is not an integer"):
                read(bad, 3.0)


def sort_key(m):
    """A mark's place in a log: (time, kind code, target, source, dot), -1 for none."""
    return (m.time, g.KIND_ORDER[m.kind], m.target, -1 if m.source is None else m.source,
            -1 if m.dot is None else m.dot)


def test_marks_in_any_order_give_the_same_columns():
    # distinct times order the marks alone; equal times fall to every key
    rng = np.random.default_rng(8)
    for flavor in (g.STANDARD, g.EQUAL_RATE, g.COUPLED):
        log = random_flavored_log(flavor, 9, rng)
        marks = list(log.marks)
        for ties in ([], [g.Mark(m.time, g.CROSS, m.target) for m in marks[::7]]):
            shuffled = marks + ties
            expected = column_bytes(log.with_marks(sorted(shuffled, key=sort_key)))
            for _ in range(3):
                rng.shuffle(shuffled)
                assert column_bytes(log.with_marks(shuffled)) == expected


# ------------------------------------------- index, dual and sterile, both engines


@functools.cache
def replay_log(seed):
    """The standard log that the replay benchmark samples at ``seed``."""
    rng = np.random.default_rng(seed)
    return g.sample_event_log(Params(2.0, 1.0, 1.0, 1), Torus(1000, 1), 20.0, rng)


def compiled_module():
    module = _engine.load()
    if module is None:
        pytest.skip("compiled engine unavailable")
    return module


def on_both_engines(monkeypatch, call):
    """``call()`` on the Python engine, then on the compiled one: each its
    result, or the type, message and partial tree of the error it raised."""
    module = compiled_module()
    outcomes = []
    for load in (lambda: None, lambda: module):
        monkeypatch.setattr(_engine, "load", load)
        try:
            outcomes.append(call())
        except CoopSimError as exc:
            outcomes.append((type(exc), str(exc), getattr(exc, "partial", None)))
    return outcomes


def site_indexes(log, monkeypatch):
    """The per-site index of ``log`` built by the numpy fallback, then by the
    counting pass of the compiled engine."""
    def build():
        log._index = None
        return log._site_index()

    return on_both_engines(monkeypatch, build)


def tie_logs():
    """Hand logs with equal-time marks at one site, sites without marks, and no marks."""
    ties = [
        g.Mark(1.0, g.CROSS, 2),
        g.Mark(1.0, g.ARROW, 2, 1),
        g.Mark(1.0, g.DOT_ARROW, 2, 3, 2),
        g.Mark(1.0, g.D_ARROW, 2, 3),
        g.Mark(1.0, g.CROSS, 4),
        g.Mark(2.0, g.ARROW, 2, 3),
        g.Mark(0.5, g.D_ARROW, 4, 5),
        g.Mark(3.0, g.CROSS, 2),
    ]
    return [hand_log(ties), hand_log([g.Mark(1.0, g.CROSS, 3), g.Mark(1.0, g.CROSS, 3)]),
            hand_log([g.Mark(1.0, g.ARROW, 6, 0)]), hand_log([])]


def test_site_index_engines_give_the_same_arrays(monkeypatch):
    rng = np.random.default_rng(41)
    logs = [random_flavored_log(flavor, side, rng)
            for flavor in (g.STANDARD, g.EQUAL_RATE, g.COUPLED) for side in (5, 17, 60)]
    logs += [replay_log(3), *tie_logs()]
    for log in logs:
        python, compiled = site_indexes(log, monkeypatch)
        assert python.view is None and compiled.view is not None
        for a, b in zip(python[:-1], compiled[:-1]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert not b.flags.writeable


def test_site_index_holds_each_sites_marks_in_log_order(engine):
    for log in tie_logs():
        log._index = None
        index = log._site_index()
        crosses, arrows = log.kind == 0, log.kind != 0
        for x in range(log.side):
            at = log.target == x
            cross_range = slice(*index.cross_ptr[x:x + 2])
            arrow_range = slice(*index.arrow_ptr[x:x + 2])
            assert index.cross_time[cross_range].tolist() == log.time[crosses & at].tolist()
            assert index.arrow_time[arrow_range].tolist() == log.time[arrows & at].tolist()
            assert index.arrow_source[arrow_range].tolist() == log.source[arrows & at].tolist()
            assert index.arrow_feeds[arrow_range].tolist() == (log.dot != x)[arrows & at].tolist()


def test_dual_engines_give_the_same_nodes_on_the_replay_logs(monkeypatch):
    for seed in (3, 505):
        log = replay_log(seed)
        for site in range(0, 1000, 100):
            for depth in (2.0, 3.0):
                python, compiled = on_both_engines(
                    monkeypatch, lambda: g.build_dual(log, site, log.t_start + depth))
                assert python == compiled
                assert repr(python.nodes) == repr(compiled.nodes)


@pytest.mark.parametrize(
    "check",
    [
        test_dual_of_empty_log_is_the_single_root_path,
        test_dual_stops_at_a_cross,
        test_dual_single_arrow_hand_trace,
        test_dual_child_order_follows_real_time_from_the_stopping_cross,
        test_dual_multiplicity_keeps_distinct_paths,
        test_dual_ignores_self_dotted_arrows,
        test_dual_hierarchy_well_formed_on_random_logs,
        test_dual_membership_equals_forward_reachability,
        test_dual_validation_and_budget,
        test_dual_boundary_marks,
        test_dual_matches_rescan_reference,
        test_dual_budget_partial_is_hierarchy_prefix,
        test_dual_pinned_side_200_tree,
        test_classify_sterile_hand_patterns,
        test_classify_sterile_decidability_without_history,
        test_classify_sterile_rejects_non_dot_marks,
        test_classify_sterile_rejects_negative_index,
    ],
    ids=lambda check: check.__name__.removeprefix("test_"),
)
def test_dual_and_sterile_checks_hold_on_each_engine(engine, check):
    check()


def test_dual_budget_partial_is_the_same_beyond_the_first_buffer(monkeypatch):
    # the query has more segments than coop_dual's first buffer holds rows
    log = replay_log(12)
    assert 70_000 > _engine.DUAL_ROWS
    for max_nodes in (1, 17, 70_000):
        python, compiled = on_both_engines(
            monkeypatch, lambda: g.build_dual(log, 500, log.t_start + 3.0, max_nodes=max_nodes))
        assert python[0] is BudgetExhausted and len(python[2]) == max_nodes
        assert python == compiled


def test_dual_walk_in_one_row_buffers_gives_the_same_nodes(monkeypatch):
    # every buffer starts at one entry, so each walk runs out of room and
    # is walked again many times; no write may pass the room it was given
    compiled_module()
    rng = np.random.default_rng(43)
    cases = []
    for flavor in (g.STANDARD, g.EQUAL_RATE, g.COUPLED):
        for _ in range(4):
            log = random_flavored_log(flavor, int(rng.integers(5, 16)), rng)
            cases.append((log, int(rng.integers(0, log.side)), float(rng.uniform(0.1, 4.0))))
    expected = [dual_outcome(indexed_dual, *case, 5_000) for case in cases]
    monkeypatch.setattr(_engine, "DUAL_ROWS", 1)
    monkeypatch.setattr(_engine, "DUAL_STACK", 1)
    assert [dual_outcome(indexed_dual, *case, 5_000) for case in cases] == expected
    assert any(len(nodes) > 10 for nodes in expected if nodes != "budget")


def test_dual_sourceless_arrow_raises_the_same_error(monkeypatch):
    sourceless = [g.Mark(1.0, g.ARROW, 3), g.Mark(2.0, g.ARROW, 3), g.Mark(1.5, g.ARROW, 3, 4)]
    below = [g.Mark(2.0, g.ARROW, 3, 4), g.Mark(1.0, g.ARROW, 4)]
    self_dotted = [g.Mark(2.0, g.DOT_ARROW, 3, None, 3)]
    cases = [
        # the feeding arrows are met latest first
        (sourceless, 1_000, DomainError, "arrow into site 3 at time 2.0 has no source"),
        (sourceless, 1, DomainError, "arrow into site 3 at time 2.0 has no source"),
        (below, 2, DomainError, "arrow into site 4 at time 1.0 has no source"),
        # the budget is spent before the child's arrows are met
        (below, 1, BudgetExhausted, "dual tree exceeded 1 segments"),
    ]
    for marks, max_nodes, error, message in cases:
        log = hand_log(marks, flavor=g.STANDARD, t_end=5.0)
        python, compiled = on_both_engines(
            monkeypatch, lambda: g.build_dual(log, 3, 4.0, max_nodes=max_nodes))
        assert python[:2] == (error, message)
        assert python == compiled
    # a self-dotted arrow never feeds, so its missing source does not matter
    log = hand_log(self_dotted, flavor=g.STANDARD, t_end=5.0)
    python, compiled = on_both_engines(monkeypatch, lambda: g.build_dual(log, 3, 4.0))
    assert python == compiled and len(python.nodes) == 1


def sterile_outcomes(log, indices):
    outcomes = []
    for i in indices:
        try:
            outcomes.append(g.classify_sterile(log, i))
        except CoopSimError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def test_classify_sterile_engines_agree(monkeypatch):
    log = replay_log(3)
    dots = np.flatnonzero(log.kind == g.KIND_ORDER[g.DOT_ARROW]).tolist()
    python, compiled = on_both_engines(monkeypatch, lambda: sterile_outcomes(log, dots))
    assert python == compiled
    assert 0 < sum(o is True for o in python) and any(isinstance(o, tuple) for o in python)
    marks = [
        g.Mark(0.4, g.CROSS, 2),
        g.Mark(0.5, g.DOT_ARROW, 0, 1, 2),
        g.Mark(0.6, g.ARROW, 4, 3),
        g.Mark(0.8, g.C_PLUS_DOT_ARROW, 5, 4, 3),
        g.Mark(1.2, g.DOT_ARROW, 0, 1),
        g.Mark(1.3, g.DOT_ARROW, 6, 5, 4),
        g.Mark(1.9, g.D_PLUS_ARROW, 2, 1),
        g.Mark(2.5, g.C_PLUS_DOT_ARROW, 2, 1, 0),
        g.Mark(3.0, g.DOT_ARROW, 1, 0, 2),
        g.Mark(3.5, g.DOT_ARROW, 5, 4, 3),
        # the ages s - u = 1 and s - v = 2 and 1 exactly: none is sterile
        g.Mark(4.0, g.CROSS, 8),
        g.Mark(3.5, g.ARROW, 8, 7),
        g.Mark(5.0, g.DOT_ARROW, 10, 9, 8),
        g.Mark(4.6, g.CROSS, 11),
        g.Mark(3.0, g.ARROW, 11, 10),
        g.Mark(5.0, g.DOT_ARROW, 9, 10, 11),
        g.Mark(4.8, g.CROSS, 7),
        g.Mark(4.0, g.ARROW, 7, 6),
        g.Mark(5.0, g.DOT_ARROW, 5, 6, 7),
    ]
    for history in (0.0, 0.5, 2.0):
        small = hand_log(marks, flavor=g.COUPLED, side=12, t_end=5.0, history=history)
        every = [-1, *range(len(small)), len(small)]
        python, compiled = on_both_engines(monkeypatch, lambda: sterile_outcomes(small, every))
        assert python == compiled
        assert {type(o) for o in python} == {bool, tuple}


def test_dual_and_sterile_take_any_integer_and_time(engine):
    marks = [g.Mark(2.0, g.ARROW, 3, 4), g.Mark(1.0, g.CROSS, 4), g.Mark(2.5, g.DOT_ARROW, 1, 0, 6)]
    log = hand_log(marks, flavor=g.STANDARD, t_end=5.0)
    plain = g.build_dual(log, 3, 3.0)
    for x, t in ((np.int64(3), np.float64(3.0)), (np.int32(3), 3), (3, np.float32(3.0))):
        tree = g.build_dual(log, x, t, max_nodes=np.int64(10))
        assert tree == plain and repr(tree) == repr(plain)
    for node in plain.nodes:
        assert type(node.site) is int and type(node.sigma_start) is float
        assert type(node.sigma_stop) is float and type(node.stopped_by_cross) is bool
        assert all(type(i) is int for i in node.index)
    assert repr(g.build_dual(log, True, 3.0)) == repr(g.build_dual(log, 1, 3.0))
    # budgets beyond an int64 either way
    assert g.build_dual(log, 3, 3.0, max_nodes=2**70) == plain
    for max_nodes in (-2**70, 0):
        with pytest.raises(BudgetExhausted) as info:
            g.build_dual(log, 3, 3.0, max_nodes=max_nodes)
        assert info.value.partial == ()
    for bad in (7.5, 3.0, "3", None):
        with pytest.raises(DomainError, match="is not an integer"):
            g.build_dual(log, bad, 3.0)
    with pytest.raises(DomainError, match="is not a number"):
        g.build_dual(log, 3, "soon")
    dot = log.marks.index(marks[2])
    assert g.classify_sterile(log, np.int64(dot)) is g.classify_sterile(log, dot)
    with pytest.raises(DomainError, match="is not an integer"):
        g.classify_sterile(log, float(dot))


def test_dual_node_is_a_named_tuple_with_the_dataclass_repr():
    node = g.DualNode(3, (1, 2), 0.5, 4.0, False)
    assert node == (3, (1, 2), 0.5, 4.0, False)
    assert repr(node) == (
        "DualNode(site=3, index=(1, 2), sigma_start=0.5, sigma_stop=4.0, stopped_by_cross=False)"
    )


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
