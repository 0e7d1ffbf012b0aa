"""End-to-end acceptance checks.

Each test is one acceptance gate: closed forms versus Monte Carlo,
bound sandwiches, optimality and equilibrium guarantees, kernel
normalization, qualitative orderings, and byte-level determinism.
Run with -v to get one pass/fail line per gate.
"""

import io
import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from ehrelay.analytic import (
    asymptotic_outage,
    outage_equal,
    outage_individual,
    outage_wf_best,
    wf_worst_bounds,
)
from ehrelay.auction import (
    B_MAX,
    interior_target,
    run_auction,
    select_price,
)
from ehrelay.cli import SweepSpec, run_sweep, write_csv
from ehrelay.engine import run_experiment
from ehrelay.model import SystemConfig, harvest, power_from_snr_db
from ehrelay.strategies import allocate
from oracles import (
    bessel_k,
    bessel_k_quadrature,
    block_of,
    brute_force_max_served,
    conditioned_sum_pdf,
    golden_section_max,
    load_script,
    payoff,
    prob_decoding_count,
)

worst_case_equivalence_check = load_script("diagnostics").worst_case_equivalence_check

SNR_GRID = (0.0, 10.0, 20.0, 30.0, 40.0)


def cfg(pairs, snr_db, rate=2.0, **kw):
    return SystemConfig(
        pairs=pairs, rate=rate, source_power=power_from_snr_db(snr_db), **kw
    )


def three_sigma(p, trials):
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def test_single_pair_average_outage_matches_closed_form():
    # 1e6 trials per point, 1e7 at the highest SNR; must finish < 2 min
    start = time.perf_counter()
    for snr in SNR_GRID:
        trials = 10_000_000 if snr == 40.0 else 1_000_000
        config = cfg(1, snr)
        want = outage_individual(config).average
        report = run_experiment(config, "individual", trials, seed=11, workers=4)
        assert abs(report.average - want) <= three_sigma(want, trials), snr
    assert time.perf_counter() - start < 120.0


def test_forty_db_outage_anchor_points():
    assert 0.7e-2 <= outage_individual(cfg(1, 40.0)).average <= 1.5e-2
    assert 1.5e-3 <= outage_equal(cfg(10, 40.0)).average <= 4.5e-3


def test_pooled_closed_forms_match_monte_carlo():
    trials = 1_000_000
    for pairs in (2, 3, 5):
        for snr in SNR_GRID:
            config = cfg(pairs, snr)
            eq = outage_equal(config)
            report = run_experiment(config, "equal", trials, seed=17, workers=4)
            for want, got in (
                (eq.average, report.average),
                (eq.best, report.best),
                (eq.worst, report.worst),
            ):
                assert abs(got - want) <= three_sigma(want, trials), (pairs, snr)
            wf = run_experiment(config, "waterfill", trials, seed=17, workers=4)
            want = outage_wf_best(config)
            assert abs(wf.best - want) <= three_sigma(want, trials), (pairs, snr)


def test_worst_case_bounds_bracket_monte_carlo():
    trials = 200_000
    for pairs in (3, 5, 10, 20):
        for snr in SNR_GRID:
            config = cfg(pairs, snr)
            b = wf_worst_bounds(config)
            assert b.quad_error < 1e-7
            # closed-form upper with no slack must reproduce the integral
            assert abs(b.upper_closed - b.upper_integral) <= max(
                1e-9, 50.0 * b.quad_error
            )
            report = run_experiment(config, "waterfill", trials, seed=29, workers=4)
            band = 3.0 * max(
                report.worst_stderr, math.sqrt(b.upper_integral / trials)
            )
            assert report.worst + band >= b.lower, (pairs, snr)
            assert report.worst - band <= b.upper_integral, (pairs, snr)


def test_paired_worst_case_equivalence_has_no_violations():
    for pairs in (2, 5, 20):
        assert worst_case_equivalence_check(cfg(pairs, 20.0), 1_000_000, seed=5) == 0


def test_greedy_allocation_serves_maximal_subsets():
    rng = np.random.default_rng(101)
    draws = {pairs: ([], []) for pairs in range(1, 7)}
    for _ in range(10_000):
        pairs = int(rng.integers(1, 7))
        config = SystemConfig(pairs=pairs, rate=0.5, source_power=2.0)
        h2 = rng.exponential(size=pairs) + config.decode_threshold  # all decode
        g2 = rng.exponential(size=pairs) * 10.0 ** rng.uniform(-1.0, 1.0)
        draws[pairs][0].append(h2)
        draws[pairs][1].append(g2)
    violations = 0
    for pairs, (h2, g2) in draws.items():
        # one block per pair count through the batched water-filling kernel
        h2, g2 = np.array(h2), np.array(g2)
        config = SystemConfig(pairs=pairs, rate=0.5, source_power=2.0)
        decoded, n, budget = harvest(h2, config)
        served = allocate("waterfill", block_of(h2, g2, config.snr_threshold), decoded, n, budget, config)
        required = config.snr_threshold / g2
        for t in range(h2.shape[0]):
            if served[t].sum() != brute_force_max_served(list(required[t]), budget[t]):
                violations += 1
    assert violations == 0


def test_high_snr_decay_slopes_and_asymptotic_ratios():
    fit_grid = (45.0, 50.0, 55.0, 60.0)
    for metric in ("average", "worst"):
        values = [getattr(outage_equal(cfg(3, s)), metric) for s in fit_grid]
        slope = np.polyfit([s / 10.0 for s in fit_grid], np.log10(values), 1)[0]
        assert abs(slope + 1.0) <= 0.1, metric
    for snr in (50.0, 55.0, 60.0):
        config = cfg(1, snr)
        exact = outage_individual(config).average
        approx = asymptotic_outage("individual", "average", config)
        assert abs(approx / exact - 1.0) <= 0.10, snr
    config = cfg(2, 50.0)
    ind, eq = outage_individual(config), outage_equal(config)
    pairs_of_values = [
        (ind.average, asymptotic_outage("individual", "average", config)),
        (ind.best, asymptotic_outage("individual", "best", config)),
        (ind.worst, asymptotic_outage("individual", "worst", config)),
        (eq.average, asymptotic_outage("equal", "average", config)),
        (eq.best, asymptotic_outage("equal", "best", config)),
        (eq.worst, asymptotic_outage("equal", "worst", config)),
    ]
    for exact, approx in pairs_of_values:
        assert 0.8 <= approx / exact <= 1.25


def test_auction_reaches_certified_equilibrium_without_profitable_deviation():
    rng = np.random.default_rng(211)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        g2 = rng.exponential(size=n) * 10.0 ** rng.uniform(-1.0, 1.0)
        total_power = 10.0 ** rng.uniform(-2.0, 2.0)
        price = select_price(g2, total_power)
        reserve = 0.01 * total_power
        state = run_auction(g2, total_power, price, reserve)
        assert state.converged and state.iterations <= 500
        assert state.residual <= 1e-8
        targets = interior_target(price, g2)
        interior = (targets > 0.0) & (targets < total_power)
        if float(targets[interior].sum()) < total_power:
            gap = np.abs(state.allocation[interior] - targets[interior])
            assert gap.size == 0 or float(gap.max()) <= 1e-6
        # unilateral deviations over the feasible bid interval gain nothing
        for i in range(n):
            current = payoff(i, state.bids, price, total_power, g2, reserve)

            def alt(b, i=i):
                bids = state.bids.copy()
                bids[i] = b
                return payoff(i, bids, price, total_power, g2, reserve)

            best = alt(golden_section_max(alt, 0.0, B_MAX, iters=120))
            assert best - current <= 1e-8


def test_bessel_matches_independent_quadrature_oracle():
    orders = (0, 1, 2, 3, 5, 8, 13, 20, 25)
    args = (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
    for n in orders:
        for x in args:
            want = bessel_k_quadrature(n, x)
            assert abs(bessel_k(n, x) / want - 1.0) <= 1e-8, (n, x)
    # three-term recurrence consistency, relative to the largest term
    for n in range(1, 25):
        for x in (1e-3, 0.1, 1.0, 10.0, 50.0):
            lo, mid, hi = bessel_k(n - 1, x), bessel_k(n, x), bessel_k(n + 1, x)
            if math.isinf(hi):
                continue
            scale = max(hi, lo + 2.0 * n / x * mid)
            assert abs(hi - lo - 2.0 * n / x * mid) <= 1e-9 * scale, (n, x)


def test_distribution_kernels_normalize_and_fit():
    eps = 0.5
    for pairs in (2, 5, 10):
        total = math.fsum(prob_decoding_count(pairs, eps, n) for n in range(pairs + 1))
        assert abs(total - 1.0) <= 1e-12
    rng = np.random.default_rng(307)
    for n in (2, 5, 10):
        mass, _ = scipy.integrate.quad(
            lambda y: conditioned_sum_pdf(n, eps, y), n * eps, np.inf
        )
        assert abs(mass - 1.0) <= 1e-6
        # sample the sum by conditioning raw exponential draws, no shortcuts
        draws = rng.exponential(size=500_000)
        kept = draws[draws > eps]
        samples = kept[: (len(kept) // n) * n].reshape(-1, n).sum(axis=1)[:50_000]
        edges = np.quantile(samples, np.linspace(0.0, 1.0, 26))
        edges[0], edges[-1] = n * eps, np.inf
        observed, _ = np.histogram(samples, bins=edges)
        expected = np.array(
            [
                scipy.integrate.quad(
                    lambda y: conditioned_sum_pdf(n, eps, y), lo, hi
                )[0]
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        ) * len(samples)
        stat = float(((observed - expected) ** 2 / expected).sum())
        p_value = scipy.stats.chi2.sf(stat, df=len(observed) - 1)
        assert p_value >= 0.01, n


def test_success_count_ordering_under_path_loss():
    # low rate, 20 pairs, variances from distance-2 quartic path loss
    gaps = []
    for snr in (10.0, 15.0, 20.0, 25.0):
        config = cfg(
            20, snr, rate=0.5, h_variance=0.0625, g_variance=0.0625
        )
        means = {
            name: run_experiment(config, name, 2000, seed=1, workers=4).mean_success
            for name in ("equal", "auction", "waterfill")
        }
        assert means["waterfill"] >= means["auction"] >= means["equal"], snr
        gaps.append(means["auction"] - means["equal"])
    assert float(np.mean(gaps)) >= 1.0


def test_sweep_csv_is_byte_deterministic():
    spec = SweepSpec(
        pairs=(2, 5),
        rate=1.0,
        snr_db=(10.0, 20.0),
        strategies=("equal", "waterfill", "auction"),
        metrics=("average", "success"),
        trials=1500,
        seed=7,
    )

    def render(workers):
        buf = io.StringIO()
        write_csv(run_sweep(spec, workers=workers), buf)
        return buf.getvalue().encode()

    first = render(1)
    assert render(3) == first
    assert render(1) == first
