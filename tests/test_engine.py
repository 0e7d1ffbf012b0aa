"""Monte Carlo engine: determinism, batched/per-draw agreement, statistics."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from ehrelay.analytic import outage_individual, wf_worst_bounds
from ehrelay import engine
from ehrelay.cli import SweepSpec, run_sweep
from ehrelay.engine import run_experiment, run_group
from ehrelay.model import SystemConfig, harvest, power_from_snr_db, sample_block
from ehrelay.strategies import STRATEGY_NAMES, Block, allocate
from oracles import reference_draw


def cfg(pairs=3, rate=0.5, snr_db=20.0, **kw):
    return SystemConfig(
        pairs=pairs, rate=rate, source_power=power_from_snr_db(snr_db), **kw
    )


def evaluate_block(h2, g2, config, name):
    """Served mask of ``name`` on one block of draws."""
    return allocate(name, Block(h2, g2, config.snr_threshold), *harvest(h2, config), config)


def test_no_decode_means_all_outage():
    config = cfg(pairs=2, rate=2.0, snr_db=0.0)
    served = evaluate_block(np.array([[0.1, 0.2]]), np.ones((1, 2)), config, "equal")
    assert not served.any()


def test_success_count_consistent_with_outage():
    config = cfg()
    trials = 50
    h2, g2 = sample_block(0, 0, trials, config)
    decoded = h2 > config.decode_threshold
    for name in STRATEGY_NAMES:
        served = evaluate_block(h2, g2, config, name)
        assert not (served & ~decoded).any()
        report = run_experiment(config, name, trials, seed=0)
        assert report.mean_success == served.sum() / trials
        assert report.average == pytest.approx(1.0 - served.mean())
        # M (1 - average) is the mean served count, up to a few roundings of order M 2^-53
        gap = config.pairs * (1.0 - report.average) - report.mean_success
        assert abs(gap) <= 4 * config.pairs * 2.0**-53


def test_block_evaluation_deterministic():
    config = cfg()
    h2, g2 = sample_block(9, 0, 200, config)
    a_served = evaluate_block(h2, g2, config, "waterfill")
    b_served = evaluate_block(*sample_block(9, 0, 200, config), config, "waterfill")
    assert np.array_equal(a_served, b_served)


def test_individual_outage_equals_direct_condition():
    # outage iff h2 <= eps or eta (P h2 - a) g2 < a, no allocation needed
    config = cfg(pairs=4)
    h2, g2 = sample_block(21, 0, 25_000, config)
    decoded = h2 > config.decode_threshold
    direct = ~decoded | (
        config.eta * (config.source_power * h2 - config.snr_threshold) * g2
        < config.snr_threshold
    )
    served = evaluate_block(h2, g2, config, "individual")
    assert np.array_equal(~served, direct)


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_vectorized_blocks_match_per_draw(name, monkeypatch):
    # run_experiment's batched blocks must agree with the scalar per-draw
    # reference exactly; below 8 pairs both add up the budget bit for bit
    monkeypatch.setattr(engine, "BLOCK_SIZE", 16)
    config = cfg(pairs=3, snr_db=15.0)
    trials = 64
    report = run_experiment(config, name, trials, seed=5)
    fails_best = 0
    fails_worst = 0
    outage_total = 0
    success_total = 0
    for block in range(4):
        h2, g2 = sample_block(5, block, 16, config)
        budget = harvest(h2, config)[2]
        served = evaluate_block(h2, g2, config, name)
        for t in range(16):
            ref = reference_draw(h2[t], g2[t], config, name)
            assert budget[t] == ref.budget
            assert np.array_equal(served[t], ref.served)
            fails_best += int(not ref.served.any())
            fails_worst += int(not ref.served.all())
            outage_total += int((~ref.served).sum())
            success_total += int(ref.served.sum())
    assert report.best == pytest.approx(fails_best / trials)
    assert report.worst == pytest.approx(fails_worst / trials)
    assert report.average == pytest.approx(outage_total / (trials * config.pairs))
    assert report.mean_success == pytest.approx(success_total / trials)


@pytest.mark.parametrize("workers", [1, 2])
def test_price_policy_reaches_the_auction_kernel(workers, monkeypatch):
    # at this point the certified price serves fewer pairs than the
    # max-winners one, so a policy dropped on the way down would show
    monkeypatch.setattr(engine, "BLOCK_SIZE", 16)
    config = cfg(pairs=3, snr_db=10.0)
    trials = 64
    default = run_experiment(config, "auction", trials, seed=5, workers=workers)
    certified = run_experiment(config, "auction", trials, seed=5, workers=workers, price_policy="certified")
    assert certified.mean_success < default.mean_success
    served = [
        reference_draw(h2[t], g2[t], config, "auction", price_policy="certified").served
        for h2, g2 in (sample_block(5, block, 16, config) for block in range(4))
        for t in range(16)
    ]
    counts = np.array([int(row.sum()) for row in served])
    assert certified.mean_success == counts.sum() / trials
    assert certified.best == float((counts == 0).sum()) / trials
    assert certified.worst == float((counts < config.pairs).sum()) / trials


def test_trials_one_is_the_single_trial():
    config = cfg(pairs=2)
    report = run_experiment(config, "equal", 1, seed=3)
    h2, g2 = sample_block(3, 0, 1, config)
    res = reference_draw(h2[0], g2[0], config, "equal")
    outage = ~res.served
    assert report.average == pytest.approx(outage.mean())
    assert report.best == float(outage.all())
    assert report.worst == float(outage.any())
    assert report.mean_success == float(res.served.sum())


@pytest.mark.parametrize("workers", [1, 2])
def test_run_group_matches_run_experiment(workers, monkeypatch):
    # one draw per block serves every SNR and strategy of the group; each
    # report must equal the one-point run's bit for bit
    monkeypatch.setattr(engine, "BLOCK_SIZE", 50)  # 130 trials in blocks of 50, 50, 30
    configs = [cfg(pairs=3, snr_db=s) for s in (10.0, 15.0, 20.0)]
    group = run_group(configs, STRATEGY_NAMES, 130, seed=4, workers=workers)
    assert set(group) == {(i, s) for i in range(3) for s in STRATEGY_NAMES}
    for (i, name), report in group.items():
        assert report == run_experiment(configs[i], name, 130, seed=4, workers=workers)


def test_run_group_rejects_mixed_groups():
    for other in (cfg(pairs=2), cfg(h_variance=0.5), cfg(g_variance=2.0)):
        with pytest.raises(ValueError, match="share pairs"):
            run_group([cfg(), other], ("equal",), 10, seed=0)


@pytest.mark.parametrize("other", [cfg(rate=1.0), cfg(eta=0.5)])
def test_run_group_refuses_configs_that_differ_beyond_snr(other):
    # the water-filling order of a block depends on the rate, and the
    # harvest on eta: only the source power may vary within a group
    with pytest.raises(ValueError, match="rate, eta"):
        run_group([cfg(snr_db=10.0), other], ("waterfill",), 10, seed=0)


def test_run_sweep_draws_once_per_block_and_pair_count(monkeypatch):
    drawn = []

    def counting_sample_block(seed, block_index, size, config):
        drawn.append((config.pairs, block_index))
        return sample_block(seed, block_index, size, config)

    monkeypatch.setattr("ehrelay.engine.sample_block", counting_sample_block)
    spec = SweepSpec(
        pairs=(2, 3),
        snr_db=(10.0, 15.0, 20.0),
        strategies=("equal", "waterfill"),
        trials=40_000,  # three blocks of the default size
    )
    assert len(run_sweep(spec)) == 12
    assert sorted(drawn) == [(p, b) for p in (2, 3) for b in range(3)]


@pytest.mark.parametrize("name", ["equal", "waterfill", "auction"])
def test_worker_count_invariance(name):
    config = cfg(pairs=3, snr_db=15.0)
    trials = 3000 if name == "auction" else 50_000
    r1 = run_experiment(config, name, trials, seed=7, workers=1)
    r3 = run_experiment(config, name, trials, seed=7, workers=3)
    assert r1 == r3  # frozen dataclass equality: bit-identical fields


def test_rerun_determinism(monkeypatch):
    monkeypatch.setattr(engine, "BLOCK_SIZE", 512)  # many blocks
    config = cfg(pairs=2)
    r1 = run_experiment(config, "maxmin", 10_000, seed=2)
    r2 = run_experiment(config, "maxmin", 10_000, seed=2)
    assert r1 == r2


def test_metric_ordering_per_run():
    for name in STRATEGY_NAMES:
        trials = 2000 if name == "auction" else 30_000
        report = run_experiment(cfg(), name, trials, seed=1)
        assert 0.0 <= report.best <= report.average + 1e-12
        assert report.average <= report.worst + 1e-12
        assert report.worst <= 1.0


def test_single_pair_individual_matches_closed_form():
    config = cfg(pairs=1, rate=2.0, snr_db=20.0)
    want = outage_individual(config).average
    report = run_experiment(config, "individual", 200_000, seed=13)
    band = 3.0 * math.sqrt(want * (1.0 - want) / report.trials)
    assert abs(report.average - want) <= band


def test_waterfill_worst_within_analytic_bounds():
    config = cfg(pairs=3, rate=2.0, snr_db=20.0)
    b = wf_worst_bounds(config)
    report = run_experiment(config, "waterfill", 200_000, seed=19)
    band = 3.0 * report.worst_stderr
    assert report.worst + band >= b.lower
    assert report.worst - band <= b.upper_integral


def test_waterfill_success_dominates_others_per_draw():
    config = cfg(pairs=4, snr_db=12.0)
    h2, g2 = sample_block(31, 0, 400, config)
    wf = evaluate_block(h2, g2, config, "waterfill").sum(axis=1)
    for other in ("individual", "equal", "maxmin", "auction"):
        assert (wf >= evaluate_block(h2, g2, config, other).sum(axis=1)).all()


def test_binomial_stderr_formula():
    report = run_experiment(cfg(pairs=2), "equal", 10_000, seed=23)
    for p, se in ((report.best, report.best_stderr), (report.worst, report.worst_stderr)):
        assert se == pytest.approx(math.sqrt(p * (1.0 - p) / report.trials), rel=1e-9)


def test_report_metadata():
    report = run_experiment(cfg(pairs=2), "equal", 500, seed=42)
    assert report.strategy == "equal"
    assert report.trials == 500
    assert report.seed == 42
    assert dataclasses.is_dataclass(report)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_experiment(cfg(), "equal", 0, seed=0)
    with pytest.raises(ValueError):
        run_experiment(cfg(), "nope", 10, seed=0)
    with pytest.raises(ValueError):
        run_experiment(cfg(), "equal", 10, seed=0, workers=0)


@pytest.mark.parametrize("pairs", [1, 5, 20, 171])
def test_report_reads_every_field_from_the_histogram(pairs):
    # the average and the mean served count are their exact rational means
    # rounded once; the other fields keep the float formulas of the trials' sums
    rng = np.random.default_rng(pairs)
    for trials in (1, 7, engine.BLOCK_SIZE):
        served = rng.integers(0, pairs + 1, trials)
        report = engine._report("equal", 3, np.bincount(served, minlength=pairs + 1))
        assert (report.strategy, report.trials, report.seed) == ("equal", trials, 3)
        total = int(served.sum())
        assert report.average == float(Fraction(pairs * trials - total, pairs * trials))
        assert report.mean_success == float(Fraction(total, trials))
        for p, se in ((report.best, report.best_stderr), (report.worst, report.worst_stderr)):
            assert se == math.sqrt(max(p * (1.0 - p), 0.0) / trials)
        assert report.best == int((served == 0).sum()) / trials
        assert report.worst == int((served < pairs).sum()) / trials
        if trials == 1:
            assert math.isnan(report.mean_success_stderr) and math.isnan(report.average_stderr)
            continue
        s1, s2 = float(served.sum()), float((served.astype(float) ** 2).sum())
        var = max(s2 - s1 * s1 / trials, 0.0) / (trials - 1)
        assert report.mean_success_stderr == math.sqrt(var / trials)
        # the outage fraction is 1 - k/M; (x / M) * M may miss x by one ulp (M = 171 does here)
        assert report.average_stderr == report.mean_success_stderr / pairs
        assert report.average_stderr * pairs == pytest.approx(
            report.mean_success_stderr, rel=2.0**-52, abs=0.0
        )


def test_run_group_refuses_more_than_max_workers(monkeypatch):
    # refused before any pool is built
    monkeypatch.setattr(engine, "ThreadPoolExecutor", None)
    with pytest.raises(ValueError, match="workers"):
        run_experiment(cfg(), "equal", 10, seed=0, workers=engine.MAX_WORKERS + 1)
