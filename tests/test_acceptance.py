"""Top-level acceptance checks, one test per shipped guarantee.

Each test prints a single ``[PASS]``/``[FAIL]`` line naming the guarantee
it exercises (visible with ``pytest -s`` and in the captured output of
any failing test), then asserts.  Statistical checks run at frozen seeds
piloted to sit well inside their tolerance bands, so reruns are exact.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from coopsim import graphical as g
from coopsim import percolation as pb
from coopsim.cli import main as cli_main
from coopsim.errors import InclusionViolation
from coopsim.lattice import Torus, product_measure, run, survival_estimate
from coopsim.mean_field import (
    BISTABLE,
    classify_regime,
    derivative,
    dulac_divergence,
    integrate,
    interior_root_probe,
    transition_curve,
)
from coopsim.params import Params, equal_rate_benefit

from engine_agreement import distributional_equivalence_check
from mark_edits import sterile_births_blocked, without_self_dotted

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def report(num: int, label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] {num:02d} {label}", flush=True)
    assert not failures, f"{label}: " + "; ".join(failures)


# --------------------------------------------------------------------- 01


def test_01_mean_field_attractors_from_pinned_starts():
    failures = []
    cases = [
        (Params(2.0, 1.0, 0.7, 1), (0.3, 0.3), (0.0, 1.0 - 1.0 / 2.7)),
        (Params(2.0, 1.0, 0.5, 1), (0.6, 0.01), (GOLDEN, 0.0)),
        (Params(2.0, 1.0, 0.5, 1), (0.01, 0.5), (0.0, 0.6)),
    ]
    for p, start, target in cases:
        final = integrate(start, p, 500.0, until_converged=True).final
        err = max(abs(final.x - target[0]), abs(final.y - target[1]))
        if err > 1e-6:
            failures.append(f"{start} -> {final} missed {target} by {err:.2e}")
    report(1, "mean-field trajectories settle on the predicted attractors", failures)


# --------------------------------------------------------------------- 02


def test_02_transition_curve_property_suite():
    failures = []
    for beta in (1.5, 2.0, 4.0):
        grid = np.linspace(1e-6, 10.0, 200)
        vals = [transition_curve(bc, beta) for bc in grid]
        if not all(a <= b + 1e-15 for a, b in zip(vals, vals[1:])):
            failures.append(f"not monotone at beta={beta}")
        if not all(v < bc for v, bc in zip(vals, grid)):
            failures.append(f"curve not below identity at beta={beta}")
        if not transition_curve(1e-6, beta) < 1e-3:
            failures.append(f"curve too large near zero at beta={beta}")
    report(2, "defection-threshold curve is monotone, sub-identity, small at 0", failures)


# --------------------------------------------------------------------- 03


def test_03_scaled_divergence_negative_on_interior():
    failures = []
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = Params(rng.uniform(1.01, 5.0), rng.uniform(0.0, 4.0), rng.uniform(0.0, 2.0), 1)
        u = rng.uniform(1e-6, 1.0 - 2e-6, 10_000)
        v = rng.uniform(1e-6, 1.0, 10_000) * (1.0 - u - 1e-6)
        bad = sum(1 for x, y in zip(u, v) if y > 0 and dulac_divergence((x, y), p) >= 0.0)
        if bad:
            failures.append(f"{bad} nonnegative values at {p}")
    report(3, "rescaled field divergence stays negative across the interior", failures)


# --------------------------------------------------------------------- 04


def test_04_no_interior_fixed_points_under_random_parameters():
    # This guarantee is structurally unsatisfiable: whenever the defection
    # bonus falls below the transition curve the system is bistable and a
    # genuine interior saddle exists at x = beta_d / beta_c (unit tests pin
    # it analytically), and random parameter draws hit that region with
    # high probability.  The check runs faithfully and is expected to fail.
    failures = []
    rng = np.random.default_rng(4)
    params = [
        Params(rng.uniform(1.2, 5.0), rng.uniform(0.1, 4.0), rng.uniform(0.0, 2.0), 1)
        for _ in range(10)
    ]
    start_rng = np.random.default_rng(44)
    margin = 0.02
    grid_axis = np.linspace(margin, 1.0 - margin, 40)
    for p in params:
        starts = []
        while len(starts) < 100:
            x, y = start_rng.uniform(0.01, 0.99, 2)
            if x + y < 0.99:
                starts.append((x, y))
        probes = interior_root_probe(p, starts)
        hits = [pr for pr in probes if pr.strictly_interior]
        if hits:
            failures.append(
                f"interior root {tuple(hits[0].root)} found at {p}"
            )
        residual = min(
            sum(abs(v) for v in derivative((x, y), p))
            for x in grid_axis
            for y in grid_axis
            if x + y < 1.0 - margin
        )
        if not residual > 0.0:
            failures.append(f"grid residual hit zero at {p}")
    report(4, "Newton probes find no interior fixed point", failures)


# --------------------------------------------------------------------- 05


def test_05_closed_form_monte_carlo_matches():
    failures = []
    for (t_hold, d), seed in (((1.0, 1), 51), ((1.0, 2), 52), ((5.0, 1), 53)):
        freq, se = pb.estimate_a1(t_hold, d, 100_000, np.random.default_rng(seed))
        z = (freq - pb.prob_a1(t_hold, d)) / se
        if abs(z) > 3.0:
            failures.append(f"clearing event (d={d}, T={t_hold}): z={z:+.2f}")
    for (beta, beta_c), seed in (
        ((0.3, math.log(2.0) - 0.3), 54),
        ((0.3, 0.7), 55),
    ):
        freq, se = g.estimate_sterile(beta, beta_c, 100_000, np.random.default_rng(seed))
        z = (freq - g.sterile_probability(beta, beta_c)) / se
        if abs(z) > 3.0:
            failures.append(f"sterile marks (sum={beta + beta_c:.4f}): z={z:+.2f}")
    freq, se = pb.estimate_c_plus_absence(2, 1, 0.001, 100_000, np.random.default_rng(56))
    z = (freq - pb.c_plus_absence_prob(2, 1, 0.001)) / se
    if abs(z) > 3.0:
        failures.append(f"rival-free environment: z={z:+.2f}")
    report(5, "closed-form probabilities reproduced by Monte Carlo within 3 sigma", failures)


# --------------------------------------------------------------------- 06


def test_06_isolation_estimate_dominates_lower_bound():
    failures = []
    p = Params(2.0, 0.0, 1.0, 1)
    freq, se = pb.estimate_a2(p, 5.0, 0.001, 1, 100_000, np.random.default_rng(61))
    bound = pb.bound_a2(5.0, 0.001, 1, p)
    if not freq >= bound - 3.0 * se:
        failures.append(f"estimate {freq:.5f} under bound {bound:.5f}")
    report(6, "isolation-event estimate sits above its analytic lower bound", failures)


# --------------------------------------------------------------------- 07


def test_07_inert_mark_deletions_change_nothing():
    failures = []
    rng = np.random.default_rng(7)
    for i in range(100):
        beta = rng.uniform(0.5, 3.0)
        beta_d = rng.uniform(0.1, 2.0)
        p = Params(beta, equal_rate_benefit(beta_d, 1), beta_d, 1)
        log = g.sample_event_log(p, Torus(30, 1), 20.0, rng, flavor=g.EQUAL_RATE)
        seed_cfg = product_measure(30, 1, 0.3, 0.3, rng)
        warmed = g.evolve_from_log(seed_cfg, log, t_from=-log.history, t_to=0.0)
        plain = g.evolve_from_log(warmed, log)
        dropped = g.evolve_from_log(warmed, without_self_dotted(log))
        if plain.sites != dropped.sites:
            failures.append(f"self-dotted deletion changed run {i}")
        blocked = g.evolve_from_log(warmed, sterile_births_blocked(log))
        if plain.sites != blocked.sites:
            failures.append(f"sterile blocking changed run {i}")
        if failures:
            break
    report(7, "provably inert marks never alter final configurations", failures)


# --------------------------------------------------------------------- 08


def test_08_coupled_runs_never_break_the_pair_order():
    failures = []
    rng = np.random.default_rng(8)
    pair_choices = list(g.ALLOWED_PAIRS)
    for i in range(100):
        beta = rng.uniform(0.5, 3.0)
        bc1 = rng.uniform(0.0, 3.0)
        bc2 = rng.uniform(0.0, bc1)
        bd2 = rng.uniform(0.0, 2.0)
        bd1 = rng.uniform(0.0, bd2)
        first = Params(beta, bc1, bd1, 1)
        second = Params(beta, bc2, bd2, 1)
        picks = rng.integers(0, len(pair_choices), 20)
        c1 = Torus(20, 1, [pair_choices[j][0] for j in picks])
        c2 = Torus(20, 1, [pair_choices[j][1] for j in picks])
        log = g.sample_event_log(first, c1, 20.0, rng, flavor=g.COUPLED, p2=second)
        try:
            f1, f2 = g.coupled_evolve(c1, c2, log)
        except InclusionViolation as exc:  # pragma: no cover - defect path
            failures.append(f"run {i}: {exc}")
            break
        if any((a, b) not in g.ALLOWED_PAIRS for a, b in zip(f1.sites, f2.sites)):
            failures.append(f"run {i}: final pair outside the allowed set")
            break
    report(8, "coupled processes respect the pair order at every event", failures)


# --------------------------------------------------------------------- 09


def _two_site_generator(p: Params) -> tuple[np.ndarray, dict]:
    """Exact 9-state generator for the side-2 ring (neighbor multiplicity 2).

    The extra cooperator benefit is inert here: the dot sites of any
    dot-arrow into an empty target are the two copies of the target itself.
    """
    states = list(itertools.product((0, 1, 2), repeat=2))
    index = {s: i for i, s in enumerate(states)}
    q = np.zeros((9, 9))
    for s in states:
        for site in (0, 1):
            other = s[1 - site]
            if s[site] != 0:
                t = list(s)
                t[site] = 0
                q[index[s], index[tuple(t)]] += 1.0
            elif other == 1:
                t = list(s)
                t[site] = 1
                q[index[s], index[tuple(t)]] += p.beta
            elif other == 2:
                t = list(s)
                t[site] = 2
                q[index[s], index[tuple(t)]] += p.beta + p.beta_d
    np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
    return q, index


@pytest.mark.slow
def test_09_event_engine_matches_mark_engine_and_exact_law():
    failures = []
    p = Params(2.0, 1.0, 1.0, 1)
    verdict = distributional_equivalence_check(
        p, Torus.from_state_string("cdcde"), 2.0, 100_000, np.random.default_rng(57)
    )
    if not verdict.passed:
        failures.append(f"engines disagree: p-values {verdict.p_values}")

    q, index = _two_site_generator(p)
    e0 = np.zeros(9)
    e0[index[(1, 2)]] = 1.0
    rng = np.random.default_rng(58)
    for t_probe in (0.5, 2.0):
        exact = e0 @ expm(q * t_probe)
        counts = np.zeros(9)
        n = 100_000
        for _ in range(n):
            torus = Torus.from_state_string("cd", dim=1)
            run(torus, p, t_probe, rng, sample_interval=t_probe)
            counts[index[tuple(torus.sites)]] += 1
        tv = 0.5 * np.abs(counts / n - exact).sum()
        if not tv < 0.01:
            failures.append(f"two-site law at t={t_probe}: TV={tv:.4f}")
    report(9, "both engines reproduce the exact transient laws", failures)


# --------------------------------------------------------------------- 10


@pytest.mark.slow
def test_10_benefit_direction_at_desk_scale():
    failures = []
    weak = survival_estimate(
        Params(4.0, 1.5, 1.0, 1), 100, 200.0, 200, 0.05, 0.55, 2026
    )
    if not weak.freq_d_wins >= 0.90:
        failures.append(f"low benefit: defectors won only {weak.freq_d_wins:.2%}")
    strong = survival_estimate(
        Params(4.0, 50.0, 1.0, 1), 100, 200.0, 200, 0.12, 0.55, 2027
    )
    outnumbered = np.count_nonzero(strong.counts[:, 0] > strong.counts[:, 1]) / len(strong.counts)
    if not outnumbered >= 0.90:
        failures.append(f"high benefit: cooperators ahead in only {outnumbered:.2%}")
    report(10, "whoever the benefit favors dominates at desk scale", failures)


# --------------------------------------------------------------------- 11


def test_11_percolation_field_properties():
    failures = []
    rng = np.random.default_rng(110)
    for i in range(100):
        u = rng.random((13, 33))
        fields = [
            pb.percolate(eps, 12, 16, sources="all", uniforms=u)
            for eps in (0.02, 0.05, 0.10)
        ]
        for lo, hi in zip(fields, fields[1:]):
            if not np.all(lo.wet >= hi.wet):
                failures.append(f"field {i}: wet set grew as noise grew")
        mid = fields[1]
        for level in (2, 5, 9):
            for z in range(-level, level + 1, 2):
                if pb.dry_path_exists(mid, (z, level)) and not pb.dry_path_exists(
                    mid, (z, level), graph="H"
                ):
                    failures.append(f"field {i}: dry reach lost under saturation")
        if pb.max_dry_level(mid) > pb.max_dry_level(mid, graph="H"):
            failures.append(f"field {i}: saturation lowered the dry reach")
        if failures:
            break

    tops = np.array(
        [
            pb.max_dry_level(pb.percolate(0.05, 12, 18, sources="all", rng=rng))
            for _ in range(300)
        ]
    )
    freqs = [float(np.mean(tops >= n)) for n in range(5)]
    if not all(a >= b for a, b in zip(freqs, freqs[1:])):
        failures.append(f"dry-reach frequencies not decreasing: {freqs}")
    if not (freqs[0] > freqs[2] and freqs[0] > 0.5):
        failures.append(f"dry-reach trend carries no signal: {freqs}")
    report(11, "percolation fields couple and decay as required", failures)


# --------------------------------------------------------------------- 12


def test_12_cli_replay_is_byte_identical(tmp_path):
    failures = []
    runs = {
        "survival": [
            "simulate", "--beta", "4", "--beta-c", "1", "--beta-d", "1",
            "--side", "20", "--t-end", "5", "--replicas", "10", "--seed", "7",
        ],
        "sterile": [
            "sterile", "--beta", "0.3", "--beta-c", "0.7",
            "--replicas", "2000", "--seed", "5",
        ],
        "field": [
            "blocks", "perc", "--epsilon", "0.05", "--levels", "10",
            "--width", "12", "--seed", "3",
        ],
    }
    for name, args in runs.items():
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        if cli_main(args + ["--out", str(a)]) != 0 or cli_main(args + ["--out", str(b)]) != 0:
            failures.append(f"{name}: nonzero exit")
            continue
        if a.read_bytes() != b.read_bytes():
            failures.append(f"{name}: replay differed")
    report(12, "seeded command-line runs replay byte-for-byte", failures)


# --------------------------------------------------------------------- 13


@pytest.mark.slow
def test_13_cooperators_invade_on_the_lattice_but_not_in_the_mean_field():
    # The invasion preset's parameters: cooperators at 1% among defectors
    # near their equilibrium.  The README reports 0.33 at seed 7; 0.19 is
    # that less three binomial standard errors at 100 replicas (0.047).
    failures = []
    p, start = Params(4.0, 50.0, 1.0, 1), (0.01, 0.7)
    lattice_run = survival_estimate(p, 100, 200.0, 100, *start, 2031, jobs=2)
    if not lattice_run.freq_c_wins >= 0.19:
        failures.append(f"lattice: cooperators won only {lattice_run.freq_c_wins:.2%}")
    mean_field = integrate(start, p, 200.0).final
    if not mean_field.x < 1e-12:
        failures.append(f"mean field kept x = {mean_field.x:.3g} at t = 200")
    if classify_regime(p) != BISTABLE:
        failures.append(f"mean field regime is {classify_regime(p)}, not bistable")
    if not start[0] < p.beta_d / p.beta_c:
        failures.append(f"x0 = {start[0]} is not below the saddle at {p.beta_d / p.beta_c}")
    report(13, "cooperators invade from 1% on the lattice and die out in the mean field", failures)
