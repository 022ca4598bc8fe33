"""Engine-agreement check: the event engine against mark-set evolution.

A test instrument, not part of the package: both engines run independent
replicas from one start, and the three occupancy-count laws at a probe
time are compared by two-sample chi-square tests.  The replicas draw in
sequence from the caller's generator, so a frozen seed gives the same
p-values on every run.

It also holds the exact law on a small ring, which every engine and mark
flavor is checked against: the process's generator over all
configurations, its matrix exponential, and a chi-square test of
replica counts against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.linalg import expm

from coopsim import lattice
from coopsim.errors import DomainError
from coopsim.graphical import STANDARD, evolve_from_log, sample_event_log
from coopsim.lattice import Torus
from coopsim.params import Params


@dataclass(frozen=True, slots=True)
class EquivalenceReport:
    """Two-sample chi-square comparison of the two engines' count laws."""

    statistics: tuple[float, float, float]  # per tracked state: c, d, e
    p_values: tuple[float, float, float]
    dofs: tuple[int, int, int]
    passed: bool


def _chi2_two_sample(counts_a: np.ndarray, counts_b: np.ndarray) -> tuple[float, float, int]:
    """Two-sample chi-square on histograms with adaptive bin merging."""
    values = np.union1d(counts_a, counts_b)
    hist_a = np.array([(counts_a == v).sum() for v in values], dtype=float)
    hist_b = np.array([(counts_b == v).sum() for v in values], dtype=float)
    # merge sparse adjacent bins so expected counts stay chi-square friendly
    merged_a: list[float] = []
    merged_b: list[float] = []
    acc_a = acc_b = 0.0
    for a, b in zip(hist_a, hist_b):
        acc_a += a
        acc_b += b
        if acc_a + acc_b >= 10.0:
            merged_a.append(acc_a)
            merged_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a or acc_b:
        if merged_a:
            merged_a[-1] += acc_a
            merged_b[-1] += acc_b
        else:
            merged_a.append(acc_a)
            merged_b.append(acc_b)
    a = np.asarray(merged_a)
    b = np.asarray(merged_b)
    if len(a) < 2:
        return 0.0, 1.0, 0
    n_a, n_b = a.sum(), b.sum()
    pooled = (a + b) / (n_a + n_b)
    expected_a = pooled * n_a
    expected_b = pooled * n_b
    stat = float(((a - expected_a) ** 2 / expected_a).sum()
                 + ((b - expected_b) ** 2 / expected_b).sum())
    dof = len(a) - 1
    return stat, float(stats.chi2.sf(stat, dof)), dof


def distributional_equivalence_check(
    p: Params,
    init: Torus,
    t_probe: float,
    replicas: int,
    rng: np.random.Generator,
) -> EquivalenceReport:
    """Compare the event-driven engine to mark-set evolution statistically.

    Both engines run ``replicas`` independent trials from the same initial
    configuration; the three occupancy-count distributions at ``t_probe``
    are compared by two-sample chi-square tests, each at level 0.01 / 3, so
    the three together keep a Bonferroni family-wise level of 0.01.
    """
    if replicas < 2:
        raise DomainError("need at least two replicas per engine")
    counts_a = np.empty((replicas, 3), dtype=np.int64)
    counts_b = np.empty((replicas, 3), dtype=np.int64)
    for i in range(replicas):
        torus = init.copy()
        lattice.run(torus, p, t_probe, rng, sample_interval=max(t_probe, 1e-9))
        counts_a[i] = torus.counts()
    if t_probe == 0:
        counts_b[:] = init.counts()
    else:
        for i in range(replicas):
            log = sample_event_log(p, init, t_probe, rng, flavor=STANDARD, history=0.0)
            final = evolve_from_log(init, log)
            counts_b[i] = final.counts()
    stats_out = []
    ps = []
    dofs = []
    for k in range(3):
        stat, p_value, dof = _chi2_two_sample(counts_a[:, k], counts_b[:, k])
        stats_out.append(stat)
        ps.append(p_value)
        dofs.append(dof)
    level = 0.01 / 3.0
    return EquivalenceReport(
        statistics=tuple(stats_out),
        p_values=tuple(ps),
        dofs=tuple(dofs),
        passed=all(pv >= level for pv in ps),
    )


def ring_generator(ring: int, p: Params) -> tuple[np.ndarray, dict]:
    """Generator of the process on a d=1 ring of ``ring`` >= 3 sites, over
    all 3**ring configurations, written straight from the paper's rates:
    an occupied site dies at rate 1; an empty site gains a cooperator at
    rate beta/2 + beta_c/4 * (cooperator neighbors of y) through each
    cooperator neighbor y, and a defector at rate (beta + beta_d)/2
    through each defector neighbor."""
    states = list(itertools.product((lattice.EMPTY, lattice.COOPERATOR, lattice.DEFECTOR), repeat=ring))
    index = {s: i for i, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for s in states:
        for x in range(ring):
            t = list(s)
            if s[x] != lattice.EMPTY:
                t[x] = lattice.EMPTY
                q[index[s], index[tuple(t)]] += 1.0
                continue
            for y in ((x - 1) % ring, (x + 1) % ring):
                if s[y] == lattice.COOPERATOR:
                    k = (s[(y - 1) % ring] == lattice.COOPERATOR) + (s[(y + 1) % ring] == lattice.COOPERATOR)
                    rate = p.beta / 2 + p.beta_c / 4 * k
                elif s[y] == lattice.DEFECTOR:
                    rate = (p.beta + p.beta_d) / 2
                else:
                    continue
                t[x] = s[y]
                q[index[s], index[tuple(t)]] += rate
    np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
    return q, index


def ring_law(start: Torus, p: Params, t: float) -> tuple[np.ndarray, dict]:
    """The law at time ``t`` of the process from the d=1 ring ``start``, as
    probabilities over configurations, with the configurations' index."""
    q, index = ring_generator(start.n_sites, p)
    return expm(t * q)[index[tuple(start.sites)]], index


def exact_law_pvalue(counts: np.ndarray, law: np.ndarray) -> tuple[float, int]:
    """Chi-square p-value of replica ``counts`` per configuration against
    ``law``, and the number of bins; bins expecting fewer than 5 replicas
    are pooled into one, which must itself expect at least 5."""
    expected = counts.sum() * law / law.sum()
    sparse = expected < 5.0
    observed = np.append(counts[~sparse], counts[sparse].sum())
    expected = np.append(expected[~sparse], expected[sparse].sum())
    assert expected[-1] >= 5.0
    return float(stats.chisquare(observed, expected).pvalue), len(observed)
