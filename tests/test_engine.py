"""Monte Carlo engine: determinism, batched/per-draw agreement, statistics."""

import dataclasses
import decimal
import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ehrelay.analytic import outage_individual, wf_worst_bounds
from ehrelay import engine, strategies
from ehrelay.cli import SweepSpec, run_sweep
from ehrelay.engine import run_experiment, run_group
from ehrelay.model import SystemConfig, harvest, power_from_snr_db, sample_block
from ehrelay.strategies import STRATEGY_NAMES, Block, allocate
from oracles import block_of, reference_draw


def cfg(pairs=3, rate=0.5, snr_db=20.0, **kw):
    return SystemConfig(
        pairs=pairs, rate=rate, source_power=power_from_snr_db(snr_db), **kw
    )


def evaluate_block(h2, g2, config, name):
    """Served count per trial of ``name`` on one block of draws."""
    return allocate(name, block_of(h2, g2, config.snr_threshold), *harvest(h2, config), config)


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
        assert served.shape == (trials,) and served.dtype == np.uint8
        assert (served <= decoded.sum(axis=1)).all()
        report = run_experiment(config, name, trials, seed=0)
        assert report.mean_success == served.sum() / trials
        assert report.average == pytest.approx(1.0 - served.mean() / config.pairs)
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
    assert np.array_equal(served, (~direct).sum(axis=1))


def test_individual_below_unit_eta_matches_per_draw():
    # each pair spends eta times its own surplus: the count of the per-draw
    # reference at every trial, bit for bit (a product is the same either way round)
    config = cfg(pairs=4, snr_db=25.0, eta=0.37)
    h2, g2 = sample_block(22, 0, 2000, config)
    served = evaluate_block(h2, g2, config, "individual")
    want = [reference_draw(h2[t], g2[t], config, "individual").served.sum() for t in range(2000)]
    assert served.tolist() == want and 0 < served.sum() < 4 * 2000


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
            assert served[t] == ref.served.sum()
            fails_best += int(not ref.served.any())
            fails_worst += int(not ref.served.all())
            outage_total += int((~ref.served).sum())
            success_total += int(ref.served.sum())
    assert report.best == pytest.approx(fails_best / trials)
    assert report.worst == pytest.approx(fails_worst / trials)
    assert report.average == pytest.approx(outage_total / (trials * config.pairs))
    assert report.mean_success == pytest.approx(success_total / trials)


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

    def counting_sample_block(seed, block_index, size, config, **kwargs):
        drawn.append((config.pairs, block_index))
        return sample_block(seed, block_index, size, config, **kwargs)

    monkeypatch.setattr("ehrelay.strategies.sample_block", counting_sample_block)
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
    wf = evaluate_block(h2, g2, config, "waterfill")
    for other in ("individual", "equal", "maxmin", "auction"):
        assert (wf >= evaluate_block(h2, g2, config, other)).all()


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
        s1, s2 = int(served.sum()), int((served.astype(np.int64) ** 2).sum())
        var = Fraction(trials * s2 - s1 * s1, trials * trials * (trials - 1))
        assert report.mean_success_stderr == math.sqrt(float(var))
        # the outage fraction is 1 - k/M; (x / M) * M may miss x by one ulp (M = 171 does here)
        assert report.average_stderr == report.mean_success_stderr / pairs
        assert report.average_stderr * pairs == pytest.approx(
            report.mean_success_stderr, rel=2.0**-52, abs=0.0
        )


@pytest.mark.parametrize(
    "counts", [[0] * 19 + [1, 9_830_400, 0], [0] * 170 + [5, 10**8], [0, 0, 1, 2**20, 1], [3, 0, 7]]
)
def test_success_stderr_within_one_ulp_of_exact(counts):
    # when the served count barely varies, the float s2 - s1^2/t cancels (it
    # read 3.9e8 ulp off on the first histogram); the integer form rounds once
    counts = np.array(counts)
    k = np.arange(len(counts))
    t, s1, s2 = int(counts.sum()), int(k @ counts), int((k * k) @ counts)
    var = Fraction(t * s2 - s1 * s1, t * t * (t - 1))
    with decimal.localcontext() as context:
        context.prec = 40
        want = float((decimal.Decimal(var.numerator) / var.denominator).sqrt())
    got = engine._report("equal", 0, counts).mean_success_stderr
    assert abs(got - want) <= math.ulp(want)


def test_run_group_refuses_more_than_max_workers(monkeypatch):
    # refused before any helper thread (or the lock they share) is made
    monkeypatch.setattr(engine, "threading", None)
    with pytest.raises(ValueError, match="workers"):
        run_experiment(cfg(), "equal", 10, seed=0, workers=engine.MAX_WORKERS + 1)


def _fresh_block_reports(configs, strategies, trials, seed, size):
    """run_group's reports, rebuilt with a fresh Block and fresh arrays for
    every (block, SNR): nothing is reused from one block or SNR to the next."""
    pairs = configs[0].pairs
    counts = np.zeros((len(configs), len(strategies), pairs + 1), dtype=np.int64)
    for b in range(-(-trials // size)):
        h2, g2 = sample_block(seed, b, min(size, trials - b * size), configs[0])
        for i, config in enumerate(configs):
            block = block_of(h2, g2, config.snr_threshold)
            harvested = harvest(block.h2, config)
            for j, name in enumerate(strategies):
                counts[i, j] += np.bincount(allocate(name, block, *harvested, config), minlength=pairs + 1)
    return {(i, name): engine._report(name, seed, counts[i, j])
            for i in range(len(configs)) for j, name in enumerate(strategies)}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("pairs", [2, 5, 20])
def test_run_group_reuses_one_block_per_worker(pairs, workers, monkeypatch):
    # 130 trials in blocks of 50, 50 and 30: each worker's Block holds full
    # blocks and the partial last one, and every SNR overwrites its scratch
    monkeypatch.setattr(engine, "BLOCK_SIZE", 50)
    configs = [cfg(pairs=pairs, snr_db=s, h_variance=2.5, g_variance=0.3) for s in (10.0, 25.0, 40.0)]
    fresh = _fresh_block_reports(configs, STRATEGY_NAMES, 130, seed=8, size=50)
    made = []
    init = Block.__init__

    def counting_init(self, capacity, pairs, snr_threshold):
        made.append(capacity)
        init(self, capacity, pairs, snr_threshold)

    monkeypatch.setattr(Block, "__init__", counting_init)
    group = run_group(configs, STRATEGY_NAMES, 130, seed=8, workers=workers)
    assert group == fresh
    assert 1 <= len(made) <= workers and set(made) == {50}


def test_run_group_peak_memory_does_not_grow_with_blocks(monkeypatch):
    # a worker's Block is filled again for every block, so four blocks need
    # no more memory at their peak than one block, give or take one draw
    monkeypatch.setattr(engine, "BLOCK_SIZE", 4096)
    configs = [cfg(pairs=5, snr_db=s) for s in (10.0, 20.0, 30.0)]

    def peak(trials):
        tracemalloc.start()
        try:
            run_group(configs, STRATEGY_NAMES, trials, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4096)  # the first run also holds what its imports and caches keep
    one = peak(4096)
    draws = 2 * 4096 * 5 * np.dtype(float).itemsize
    assert one > 6 * draws // 2  # the Block's buffers are traced
    assert peak(4 * 4096) <= one + draws
    assert peak(3 * 4096 + 5) <= one + draws  # a partial last block


def record_block_threads(monkeypatch, before_draw=lambda b: None):
    """Patch the sample_block that Block.draw calls to log (block, thread) at each call,
    then run ``before_draw(block)`` and draw as usual."""
    log = []

    def recording_sample_block(seed, block_index, size, config, **kwargs):
        log.append((block_index, threading.get_ident()))
        before_draw(block_index)
        return sample_block(seed, block_index, size, config, **kwargs)

    monkeypatch.setattr(strategies, "sample_block", recording_sample_block)
    return log


@pytest.mark.parametrize("trials, workers", [(30, 4), (50, 256), (130, 1)])
def test_run_group_runs_on_the_caller_alone(trials, workers, monkeypatch):
    # a one-block group, and any group at workers=1, starts no thread
    monkeypatch.setattr(engine, "BLOCK_SIZE", 50)
    log = record_block_threads(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("run_group started a thread")

    monkeypatch.setattr(threading, "Thread", refuse)
    configs = [cfg(snr_db=s) for s in (10.0, 20.0)]
    group = run_group(configs, STRATEGY_NAMES, trials, seed=6, workers=workers)
    assert group == _fresh_block_reports(configs, STRATEGY_NAMES, trials, seed=6, size=50)
    assert log == [(b, threading.get_ident()) for b in range(-(-trials // 50))]


@pytest.mark.parametrize("workers", [2, 4])
def test_run_group_caller_and_helpers_share_the_blocks(workers, monkeypatch):
    # five blocks: each is run once, by at most min(workers, 5) threads, the
    # caller among them (a slow draw keeps the helpers from taking them all)
    monkeypatch.setattr(engine, "BLOCK_SIZE", 50)
    log = record_block_threads(monkeypatch, lambda b: time.sleep(0.02))
    configs = [cfg(snr_db=s) for s in (10.0, 20.0)]
    group = run_group(configs, STRATEGY_NAMES, 230, seed=6, workers=workers)
    assert group == _fresh_block_reports(configs, STRATEGY_NAMES, 230, seed=6, size=50)
    assert sorted(b for b, _ in log) == list(range(5))
    threads = {t for _, t in log}
    assert len(threads) <= min(workers, 5) and threading.get_ident() in threads


def test_run_group_with_two_workers_runs_blocks_on_two_threads(monkeypatch):
    # every draw waits for one on another thread: four blocks pass only if two
    # threads run them at once, and no third thread takes one
    monkeypatch.setattr(engine, "BLOCK_SIZE", 50)
    barrier = threading.Barrier(2, timeout=10.0)
    log = record_block_threads(monkeypatch, lambda b: barrier.wait())
    run_group([cfg()], ("equal",), 200, seed=6, workers=2)
    assert sorted(b for b, _ in log) == list(range(4))
    assert len({t for _, t in log}) == 2


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_run_group_error_stops_every_thread(workers, monkeypatch):
    # block 2 of 8 raises: the error reaches the caller, and once it is raised
    # no thread takes another block; a block another thread took before that
    # (at most one per thread) waits until the error is raised, then runs
    monkeypatch.setattr(engine, "BLOCK_SIZE", 50)
    failed = threading.Event()

    def before_draw(b):
        if b == 2:
            failed.set()
            raise MemoryError("block 2")
        if b > 2:
            assert failed.wait(timeout=10.0)
            time.sleep(0.05)

    log = record_block_threads(monkeypatch, before_draw)
    with pytest.raises(MemoryError, match="block 2"):
        run_group([cfg()], ("equal",), 400, seed=6, workers=workers)
    started = {b for b, _ in log}
    assert set(range(3)) <= started <= set(range(2 + workers))
    assert len(log) == len(started)


def test_run_group_sums_every_block_once_under_thread_switching(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows:
    # a block lost or counted twice would change the reports
    monkeypatch.setattr(engine, "BLOCK_SIZE", 16)
    configs = [cfg(snr_db=s) for s in (10.0, 20.0)]
    want = run_group(configs, ("equal", "waterfill"), 16 * 40 + 5, seed=6, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_group(configs, ("equal", "waterfill"), 16 * 40 + 5, seed=6, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert got == want
