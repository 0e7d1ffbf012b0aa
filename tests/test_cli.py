"""Config parsing, sweep assembly, CSV determinism, exit codes."""

import contextlib
import dataclasses
import errno
import io
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ehrelay
from ehrelay.analytic import MAX_QUAD_ERROR, outage_equal, wf_worst_bounds
from ehrelay.cli import (
    ANALYTIC_ROWS,
    CLIError,
    CSV_COLUMNS,
    PRESETS,
    SweepSpec,
    dump_config,
    main,
    parse_config,
    run_sweep,
    write_csv,
)
from ehrelay.model import SystemConfig, power_from_snr_db
from ehrelay.strategies import STRATEGY_NAMES

SMALL = SweepSpec(
    pairs=(1, 2),
    snr_db=(0.0, 10.0),
    strategies=("individual", "equal"),
    metrics=("average", "worst"),
    trials=400,
    seed=3,
)


def test_empty_config_gives_defaults():
    spec = parse_config("")
    assert spec == SweepSpec()
    assert spec.mode == "mc"


def test_parse_basic_keys():
    spec = parse_config(
        "pairs = 2,5\n"
        "rate = 1.5\n"
        "snr_db = 0:40:10\n"
        "strategies = equal,waterfill\n"
        "metrics = worst\n"
        "trials = 1234\n"
        "seed = 9\n"
        "mode = all\n"
    )
    assert spec.pairs == (2, 5)
    assert spec.snr_db == (0.0, 10.0, 20.0, 30.0, 40.0)
    assert spec.strategies == ("equal", "waterfill")
    assert spec.trials == 1234


def test_comments_and_blank_lines_ignored():
    spec = parse_config("# header\n\nseed = 4  # trailing\n")
    assert spec.seed == 4


def test_snr_range_is_inclusive():
    assert parse_config("snr_db = 0:1:0.25\n").snr_db == (0.0, 0.25, 0.5, 0.75, 1.0)
    # stop not on the grid: last point below stop
    grid = parse_config("snr_db = 0:1:0.3\n").snr_db
    assert grid == pytest.approx((0.0, 0.3, 0.6, 0.9))


def test_snr_comma_list():
    assert parse_config("snr_db = 5,15,25\n").snr_db == (5.0, 15.0, 25.0)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("bogus = 1\n", "line 1: unknown key"),
        ("seed 4\n", "line 1: expected 'key = value'"),
        ("seed = 1\nseed = 2\n", "line 2: duplicate key 'seed' (first set on line 1)"),
        ("trials = many\n", "line 1: invalid value for trials"),
        ("snr_db = 10:0:5\n", "stop must be >= start"),
        ("snr_db = 0:10:0\n", "step must be positive"),
        ("snr_db = 0:10\n", "expected start:stop:step"),
        ("snr_db = 0:10:0.0009\n", "more than 10000 grid points"),
        ("strategies = equal,magic\n", "unknown strategy 'magic'"),
        ("mode = fast\n", "unknown mode 'fast'"),
        ("price_policy = random\n", "line 1: unknown key 'price_policy'"),
        ("path_loss_exponent = 3\n", "path_loss_exponent requires distances"),
        ("distance_source_relay = 2\n", "distance_relay_destination is required"),
        (
            "h_variance = 0.5\ndistance_source_relay = 2\ndistance_relay_destination = 2\n",
            "conflicts with distance-based variances",
        ),
    ],
)
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(CLIError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_distance_variances_default_cubic():
    spec = parse_config(
        "distance_source_relay = 2\ndistance_relay_destination = 4\n"
    )
    assert spec.h_variance == pytest.approx(2.0**-3)
    assert spec.g_variance == pytest.approx(4.0**-3)


def test_distance_variances_custom_exponent():
    spec = parse_config(
        "distance_source_relay = 2\n"
        "distance_relay_destination = 2\n"
        "path_loss_exponent = 4\n"
    )
    assert spec.h_variance == pytest.approx(2.0**-4)
    assert spec.g_variance == pytest.approx(2.0**-4)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_dump_parse_round_trip_presets(name):
    assert parse_config(dump_config(PRESETS[name])) == PRESETS[name]


def test_dump_parse_round_trip_custom():
    spec = dataclasses.replace(
        SMALL, rate=0.75, eta=0.9, h_variance=0.5
    )
    assert parse_config(dump_config(spec)) == spec


def test_success_preset_covers_all_strategies():
    preset = PRESETS["fig-success-count"]
    assert preset.strategies == STRATEGY_NAMES
    assert preset.metrics == ("success",)
    assert preset.h_variance == preset.g_variance == 0.0625


def test_sweep_row_order_and_columns():
    rows = run_sweep(SMALL)
    assert len(rows) == 2 * 2 * 2 * 2  # snr x pairs x strategy x metric
    assert all(tuple(r.keys()) == CSV_COLUMNS for r in rows)
    keys = [
        (r["snr_db"], r["pairs"], r["strategy"], r["metric"]) for r in rows
    ]
    assert keys == sorted(
        keys,
        key=lambda k: (
            float(k[0]),
            int(k[1]),
            SMALL.strategies.index(k[2]),
            SMALL.metrics.index(k[3]),
        ),
    )
    assert all(r["method"] == "mc" for r in rows)
    assert all(r["seed"] == "3" for r in rows)


def test_mode_all_adds_analytic_methods():
    spec = SweepSpec(
        pairs=(2,),
        snr_db=(30.0,),
        strategies=("equal",),
        metrics=("average",),
        trials=200,
        mode="all",
    )
    methods = [r["method"] for r in run_sweep(spec)]
    assert methods == ["mc", "exact", "asymptotic"]


def test_wf_bounds_rows():
    spec = SweepSpec(
        pairs=(3,),
        snr_db=(20.0,),
        strategies=("waterfill",),
        metrics=("worst",),
        trials=1,
        mode="bounds",
    )
    methods = [r["method"] for r in run_sweep(spec)]
    assert methods == ["bound-lower", "bound-upper-integral", "bound-upper-closed"]
    values = [float(r["value"]) for r in run_sweep(spec)]
    assert values[0] <= values[1] <= values[2] * (1 + 1e-9)


def test_run_sweep_rejects_bad_eta():
    with pytest.raises(CLIError, match="eta"):
        run_sweep(dataclasses.replace(SMALL, eta=1.5))


@pytest.mark.parametrize(
    "strategy, metric, group",
    [(s, m, group) for (s, group), rows in ANALYTIC_ROWS.items() for m in rows.metrics],
)
def test_analytic_rows_finite_at_large_pair_counts(strategy, metric, group):
    # 89 is where the equal/best asymptotic coefficient first overflowed a
    # float.  At 100 dB every exact best case lies below the normal floats
    # (the individual one is average^M, about 1e-668 at 89 pairs) and is
    # refused, naming the first such point
    for snr in (0.0, 30.0, 100.0):
        spec = SweepSpec(pairs=(89, 171), snr_db=(snr,), strategies=(strategy,),
                         metrics=(metric,), trials=1, mode=group)
        if (metric, group, snr) == ("best", "exact", 100.0):
            message = f"the exact {strategy} best outage at snr 100.0 dB, 89 pairs underflows"
            with pytest.raises(CLIError, match=message):
                run_sweep(spec)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # out-of-regime asymptotics at 0 dB
            rows = run_sweep(spec)
        assert len(rows) == 2 * len(ANALYTIC_ROWS[strategy, group].labels)
        assert all(math.isfinite(float(r["value"])) for r in rows)


@pytest.mark.parametrize(
    "text, message",
    [
        # the reserve, the certified margin and the price rule are fixed: even
        # their values are refused
        ("xi_fraction = 0.01\n", "unknown key 'xi_fraction'"),
        ("price_margin = 0.05\nprice_policy = certified\n", "unknown key 'price_margin'"),
        ("price_policy = certified\n", "unknown key 'price_policy'"),
    ],
)
def test_main_refuses_bad_auction_settings_in_config(text, message, tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text("strategies = auction\ntrials = 10\n" + text)
    for extra in (["--dump-config"], []):
        assert main(["--config", str(path)] + extra) == 2
        assert message in capsys.readouterr().err


def test_main_equal_best_asymptotic_beyond_ninety_nine_pairs(capsys):
    argv = ["--pairs", "120", "--strategy", "equal", "--metric", "best", "--mode", "asymptotic"]
    assert main(argv + ["--snr", "60"]) == 0
    (row,) = capsys.readouterr().out.splitlines()[1:]
    assert row.split(",")[5] == "0.0"  # eps^120 underflows
    assert main(argv + ["--snr", "30"]) == 0
    value = float(capsys.readouterr().out.splitlines()[1].split(",")[5])
    assert 0.0 < value < 1e-100


def test_main_refuses_equal_asymptotics_past_their_pair_bound(monkeypatch, capsys):
    # the equal-power best case adds M terms one by one, so 10^20 pairs would
    # never return: the group stops at 10^5 pairs, refused before any work
    argv = ["--snr", "60", "--strategy", "equal", "--metric", "best", "--mode", "asymptotic"]
    assert main(argv + ["--pairs", "100000"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    monkeypatch.setattr("ehrelay.cli.asymptotic_outage", None)
    assert main(argv + ["--pairs", "100000000000000000000"]) == 2
    assert capsys.readouterr().err == (
        "error: pairs 100000000000000000000 exceeds 100000, the largest pair count of the equal asymptotic rows\n"
    )


@pytest.mark.parametrize("strategy", ["individual", "equal"])
def test_main_refuses_an_asymptotic_value_that_overflows(strategy, monkeypatch, capsys):
    # at 0 dB eps = 15, and the best-case asymptotic raises it (or a
    # negative single-pair term) to the 300th power; the refusal names the
    # point and, in mode all, comes before any Monte Carlo draw
    argv = f"--strategy {strategy} --metric best --mode".split()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # out of the high-SNR regime
        assert main(argv + "asymptotic --pairs 300 --snr 0".split()) == 2
        err = capsys.readouterr().err
        assert f"asymptotic {strategy} best outage at snr 0.0 dB, 300 pairs overflows" in err
        monkeypatch.setattr("ehrelay.cli.run_group", None)
        assert main(argv + "all --pairs 100 --snr -30 --trials 10".split()) == 2
    assert "at snr -30.0 dB, 100 pairs overflows" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["individual", "equal", "waterfill"])
def test_main_refuses_an_exact_value_that_underflows(strategy, monkeypatch, capsys):
    # at 171 pairs, 40 dB each best case lies below 1e-308 and used to be
    # written as 0.0; the refusal names the point and, in mode all, comes
    # before any Monte Carlo draw
    argv = f"--pairs 171 --snr 40 --strategy {strategy} --metric best --mode".split()
    assert main(argv + ["exact"]) == 2
    err = capsys.readouterr().err
    assert f"error: the exact {strategy} best outage at snr 40.0 dB, 171 pairs underflows: 0.0 lies below" in err
    monkeypatch.setattr("ehrelay.cli.run_group", None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # out-of-regime asymptotics
        assert main(argv + ["all", "--trials", "10"]) == 2
    assert "at snr 40.0 dB, 171 pairs underflows" in capsys.readouterr().err


def test_run_sweep_regime_warnings_name_its_caller():
    # 10 dB is outside the asymptotics' high-SNR regime: each warning names
    # this file, not the closure in run_sweep that evaluated the closed form
    spec = dataclasses.replace(SMALL, snr_db=(10.0,), pairs=(3,), strategies=("equal",),
                               metrics=("best",), mode="asymptotic")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = run_sweep(spec)
    assert [row["method"] for row in rows] == ["asymptotic"]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "outside the high-SNR regime" in str(caught[0].message)
    assert caught[0].filename == __file__


def test_run_sweep_rejects_exact_for_auction():
    spec = dataclasses.replace(SMALL, strategies=("auction",), mode="exact")
    with pytest.raises(CLIError, match="no exact method"):
        run_sweep(spec)


def test_run_sweep_exact_rows_at_scaled_variances():
    spec = dataclasses.replace(SMALL, mode="exact", strategies=("equal",), h_variance=0.5, g_variance=0.5)
    rows = run_sweep(spec)
    assert len(rows) == len(spec.snr_db) * len(spec.pairs) * len(spec.metrics)
    for row in rows:
        power = power_from_snr_db(float(row["snr_db"]))
        config = SystemConfig(pairs=int(row["pairs"]), rate=2.0, source_power=power, h_variance=0.5, g_variance=0.5)
        assert row["method"] == "exact"
        assert row["value"] == repr(getattr(outage_equal(config), row["metric"]))


def test_mode_all_writes_every_analytic_group_at_scaled_variances():
    spec = dataclasses.replace(SMALL, pairs=(3,), snr_db=(20.0,), strategies=("equal", "waterfill"),
                               metrics=("worst",), mode="all", h_variance=1 / 16, g_variance=1 / 16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # 20 dB at 1/16 is out of the high-SNR regime
        methods = [(row["strategy"], row["method"]) for row in run_sweep(spec)]
    assert methods == [
        ("equal", "mc"), ("equal", "exact"), ("equal", "asymptotic"),
        ("waterfill", "mc"), ("waterfill", "asymptotic-lower"), ("waterfill", "asymptotic-upper"),
        ("waterfill", "bound-lower"), ("waterfill", "bound-upper-integral"), ("waterfill", "bound-upper-closed"),
    ]


def test_exact_rows_come_from_the_closed_form_table(monkeypatch):
    config = SystemConfig(pairs=2, rate=2.0, source_power=power_from_snr_db(30.0))

    def point(f, *args):
        return f(*args, config)

    for rows in ANALYTIC_ROWS.values():
        for metric in rows.metrics:
            values = rows.form(point, metric)
            assert len(values) == len(rows.labels)
            assert all(isinstance(v, float) for v in values)
    # the sweep calls the closed form through the module's name, once per point
    calls = []

    def counting_outage_equal(config):
        calls.append(config.source_power)
        return outage_equal(config)

    monkeypatch.setattr("ehrelay.cli.outage_equal", counting_outage_equal)
    spec = SweepSpec(snr_db=(20.0, 30.0), metrics=("average", "best", "worst"), mode="exact")
    rows = run_sweep(spec)
    assert len(calls) == 2
    want = outage_equal(config)
    assert [r["value"] for r in rows[3:]] == [repr(getattr(want, m)) for m in spec.metrics]


def test_one_pair_writes_no_pooled_asymptotics():
    spec = SweepSpec(
        pairs=(1,),
        snr_db=(30.0,),
        strategies=("individual", "equal", "waterfill"),
        metrics=("best", "worst"),
        trials=50,
        mode="all",
    )
    rows = [(r["strategy"], r["metric"], r["method"]) for r in run_sweep(spec)]
    assert rows == [
        ("individual", "best", "mc"), ("individual", "best", "exact"), ("individual", "best", "asymptotic"),
        ("individual", "worst", "mc"), ("individual", "worst", "exact"), ("individual", "worst", "asymptotic"),
        ("equal", "best", "mc"), ("equal", "best", "exact"),
        ("equal", "worst", "mc"), ("equal", "worst", "exact"),
        ("waterfill", "best", "mc"), ("waterfill", "best", "exact"),
        ("waterfill", "worst", "mc"),
        ("waterfill", "worst", "bound-lower"),
        ("waterfill", "worst", "bound-upper-integral"),
        ("waterfill", "worst", "bound-upper-closed"),
    ]


@pytest.mark.parametrize("strategy, metric", [("equal", "average"), ("waterfill", "worst")])
def test_pooled_asymptotics_refuse_one_pair(strategy, metric, capsys):
    argv = ["--pairs", "1,2", "--mode", "asymptotic", "--strategy", strategy, "--metric", metric, "--snr", "30"]
    for extra in (["--dump-config"], []):
        assert main(argv + extra) == 2
        assert f"pairs 1 is below 2, the fewest pair count of the {strategy} asymptotic rows" in capsys.readouterr().err
    # the individual asymptotics exist at one pair
    assert main(["--pairs", "1", "--mode", "asymptotic", "--strategy", "individual", "--snr", "30"]) == 0


def test_csv_bytes_reproducible(tmp_path):
    def render(workers):
        buf = io.StringIO()
        write_csv(run_sweep(SMALL, workers=workers), buf)
        return buf.getvalue()

    first = render(1)
    assert render(1) == first
    assert render(2) == first
    assert first.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_main_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    out.write_text("old row\n" * 1000)  # replaced, however long
    rc = main(
        [
            "--snr",
            "10",
            "--pairs",
            "2",
            "--strategy",
            "equal",
            "--metric",
            "average",
            "--trials",
            "300",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith("10.0,2,equal,average,mc,")


def test_main_exact_best_case_at_64_pairs(capsys):
    # both values are about 1e-145 and 3e-174; a cancelling sum read 1.0 here
    argv = "--pairs 64 --snr 40 --mode exact --strategy equal,waterfill --metric best"
    assert main(argv.split()) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[2], r[4]) for r in rows] == [("equal", "exact"), ("waterfill", "exact")]
    assert all(0.0 < float(r[5]) < 1e-140 for r in rows)


def test_main_wf_bounds_finite_at_huge_eps_over_eta(capsys):
    # the budget grid underflows to w = 0; the integral bound read nan there
    argv = "--pairs 3 --eta 1e-300 --snr 30 --mode bounds --strategy waterfill --metric worst"
    assert main(argv.split()) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    values = {r[4]: float(r[5]) for r in rows}
    assert list(values) == ["bound-lower", "bound-upper-integral", "bound-upper-closed"]
    assert all(math.isfinite(v) for v in values.values())
    assert values["bound-lower"] <= values["bound-upper-integral"] * (1 + 1e-12)


def _bound_rows(out):
    """(pairs, method) -> value of the bound rows of a CSV."""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    return {(int(r[1]), r[4]): float(r[5]) for r in rows}


def test_main_wf_bounds_at_a_rate_near_the_largest_float(capsys):
    # eps/eta = 1.5e308 passes the ratio rule, but M/(M-1) times it overflows:
    # the closed bound's tail read inf * 0 = nan
    argv = "--eta 1e-310 --snr 30 --pairs 2,3 --mode bounds --strategy waterfill --metric worst"
    assert main(argv.split()) == 0
    values = _bound_rows(capsys.readouterr().out)
    assert len(values) == 6 and all(0.0 <= v <= 1.0 for v in values.values())
    for pairs in (2, 3):
        assert values[pairs, "bound-lower"] <= values[pairs, "bound-upper-integral"] * (1 + 1e-12)


def test_main_wf_bounds_at_a_tiny_budget_rate(tmp_path, capsys):
    # at 3000 dB and h_variance 1e6 the rate is 1.5e-305: 745 w overflows and
    # the y-rule started at log 0; at 1e8 (1.5e-307) w = S/rate itself
    # overflows on the grid, and the point is refused by name
    argv = "--snr 3000 --pairs 3 --mode bounds --strategy waterfill --metric worst".split()
    path = tmp_path / "sweep.cfg"
    path.write_text("h_variance = 1e6\n")
    assert main(["--config", str(path), *argv]) == 0
    values = _bound_rows(capsys.readouterr().out)
    assert all(math.isfinite(v) and 0.0 < v < 1e-300 for v in values.values())
    assert values[3, "bound-lower"] <= values[3, "bound-upper-integral"] * (1 + 1e-8)
    path.write_text("h_variance = 1e8\n")
    assert main(["--config", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert err == "error: the bounds waterfill worst outage at snr 3000.0 dB, 3 pairs overflows\n"


def test_main_refuses_a_non_finite_analytic_value(monkeypatch, capsys):
    # eps/eta = 1.5e308 is finite, but the asymptotic forms overflow to inf,
    # -inf and nan there; the refusal names the point before any draw
    monkeypatch.setattr("ehrelay.cli.run_group", None)
    argv = ("--eta 1e-310 --snr 30 --mode all --trials 10 --pairs 2 --strategy individual,equal,waterfill "
            "--metric average,best,worst")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # out-of-regime asymptotics
        assert main(argv.split()) == 2
    assert capsys.readouterr().err == (
        "error: the asymptotic individual average outage at snr 30.0 dB, 2 pairs is -inf, "
        "not a finite float\n"
    )
    assert main("--eta 1e-310 --snr 30 --pairs 2 --mode asymptotic --strategy equal --metric best".split()) == 2
    assert "equal best outage at snr 30.0 dB, 2 pairs is nan, not a finite float" in capsys.readouterr().err


def test_main_flags_override_config(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text(dump_config(SMALL))
    rc = main(["--config", str(path), "--trials", "99", "--dump-config"])
    assert rc == 0
    spec = parse_config(capsys.readouterr().out)
    assert spec == dataclasses.replace(SMALL, trials=99)


def test_main_preset_dump_round_trips(capsys):
    rc = main(["--preset", "fig-wf-bounds", "--dump-config"])
    assert rc == 0
    assert parse_config(capsys.readouterr().out) == PRESETS["fig-wf-bounds"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--strategy", "nonsense"],
        ["--mode", "exact", "--strategy", "auction"],
        ["--pairs", "1025", "--mode", "exact", "--strategy", "equal", "--metric", "average", "--snr", "10"],
        ["--snr", "abc"],
        ["--workers", "0"],
        ["--eta", "2.0"],
        ["--trials", "0"],
        ["--seed", "-1"],
        ["--rate", "600"],
        ["--snr", "1e6"],
        ["--snr=-1e6"],
        ["--trials", "many"],
        ["--seed", "1.5"],
        ["--rate", "inf"],
        ["--eta", "nan"],
        ["--mode", "nonsense"],
        # epsilon/eta rounds to 0 (the threshold, or epsilon, underflows) or to inf
        ["--pairs", "2", "--rate", "1e-300", "--snr", "30", "--mode", "asymptotic"],
        ["--pairs", "3", "--rate", "1e-300", "--mode", "bounds", "--strategy", "waterfill", "--metric", "worst"],
        ["--rate", "1e-16", "--snr", "3080"],
        ["--pairs", "3", "--eta", "5e-324", "--snr", "30", "--mode", "bounds", "--strategy", "waterfill",
         "--metric", "worst"],
        ["--pairs", "3", "--eta", "5e-324", "--snr", "30", "--mode", "asymptotic"],
    ],
)
def test_main_exit_code_2_on_bad_input(argv, capsys):
    assert main(argv + ["--dump-config"] if "--workers" not in argv else argv) == 2
    assert "error:" in capsys.readouterr().err
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--workers", "257", "--trials", "10"], ["--workers", "50000", "--trials", "1000000000"]]
)
def test_main_refuses_more_than_max_workers(argv, monkeypatch, capsys):
    # refused before the sweep (and its helper threads) starts
    monkeypatch.setattr("ehrelay.cli.run_sweep", None)
    assert main(argv) == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        # epsilon/eta = 0.015 at 30 dB: divided by 1e-600 it rounds to inf, by 1e600 to 0
        "h_variance = 1e-300\ng_variance = 1e-300\n",
        "h_variance = 1e300\ng_variance = 1e300\n",
        "eta = 5e-324\ng_variance = 0.5\n",  # eta g_variance rounds to 0
    ],
)
@pytest.mark.parametrize("mode", ["mc", "all"])
def test_main_refuses_variances_whose_scaled_ratio_leaves_float_range(text, mode, tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"snr_db = 30\nmode = {mode}\n{text}")
    for extra in (["--dump-config"], []):
        assert main(["--config", str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snr 30.0 dB, rate 2.0, eta ")
        assert ": (epsilon/h_variance)/(eta g_variance) = " in err


def test_main_refuses_negative_seed_in_config(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text("seed = -3\n")
    for extra in (["--dump-config"], []):
        assert main(["--config", str(path)] + extra) == 2
        assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "distance_source_relay = 1e-300\ndistance_relay_destination = 1\ntrials = 10\n",
            "line 1: distance_source_relay 1e-300 to the power -3.0 overflows",
        ),
        (
            "trials = 10\ndistance_source_relay = 2\ndistance_relay_destination = 0.5\npath_loss_exponent = 1e308\n",
            "line 3: distance_relay_destination 0.5 to the power -1e+308 overflows",
        ),
    ],
)
def test_main_refuses_a_distance_whose_variance_overflows(text, message, tmp_path, capsys):
    with pytest.raises(CLIError) as err:
        parse_config(text)
    assert str(err.value) == message
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    assert main(["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, flags, point",
    [
        ("", ["--snr", "3080"], "snr 3080.0 dB, 3 pairs, h_variance 1.0"),
        ("h_variance = 1e308\n", [], "snr 30.0 dB, 3 pairs, h_variance 1e+308"),
    ],
)
@pytest.mark.parametrize("mode", ["mc", "all"])
def test_main_refuses_a_relay_budget_that_can_overflow(text, flags, point, mode, tmp_path, capsys):
    # drawn, these budgets overflow to inf: the auction's residual turns nan and the
    # other strategies serve on an infinite budget
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    argv = ["--config", str(path), "--pairs", "3", "--strategy", "equal,auction", "--trials", "2000", *flags]
    assert main(argv + ["--mode", mode]) == 2
    assert capsys.readouterr().err == (
        f"error: {point}: the relay budget can overflow a float (1024 pairs P_s h_variance exceeds the largest float)\n"
    )
    # a sweep that draws no channels has no budget (its exact rows would lie
    # below the normal floats here and be refused for that)
    assert main(argv + ["--mode", "asymptotic", "--strategy", "equal", "--metric", "best"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


def test_main_runs_every_strategy_below_the_budget_bound(capsys):
    # 1024 * 3 * 10^304.7 is still a float
    argv = ["--snr", "3047", "--pairs", "3", "--strategy", ",".join(STRATEGY_NAMES), "--metric", "average,success"]
    assert main(argv + ["--trials", "200"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[2], r[3]) for r in rows] == [(s, m) for s in STRATEGY_NAMES for m in ("average", "success")]
    assert [float(r[5]) for r in rows] == [0.0, 3.0] * len(STRATEGY_NAMES)


def test_pair_limit_applies_only_to_closed_forms():
    spec = dataclasses.replace(SMALL, pairs=(1025,), snr_db=(30.0,), metrics=("average",), trials=5)
    # every group capped at 1024 pairs refuses in its own mode, naming the first
    # group the sweep would write past its bound
    for mode, strategies, metrics, group in (
        ("all", SMALL.strategies, ("average",), "individual exact"),
        ("exact", SMALL.strategies, ("average",), "individual exact"),
        ("exact", ("equal",), ("average",), "equal exact"),
        ("exact", ("waterfill",), ("best",), "waterfill exact"),
        ("bounds", ("waterfill",), ("worst",), "waterfill bounds"),
    ):
        message = f"pairs 1025 exceeds 1024, the largest pair count of the {group} rows"
        with pytest.raises(CLIError, match=message):
            run_sweep(dataclasses.replace(spec, mode=mode, strategies=strategies, metrics=metrics))
    # the refusal quotes the pair count past the bound, not the largest one asked for
    with pytest.raises(CLIError, match="pairs 1025 exceeds 1024, the largest pair count of the equal exact rows"):
        run_sweep(dataclasses.replace(spec, mode="exact", strategies=("equal",), pairs=(1025, 100_001)))
    # Monte Carlo and the individual asymptotics have no pair cap here
    assert run_sweep(dataclasses.replace(spec, mode="mc"))
    assert run_sweep(dataclasses.replace(spec, mode="asymptotic"))


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_main_refuses_snr_grid_too_fine():
    # run in a child capped at 1 GB and 60 s, so that building the grid
    # (about 1e13 points) ends in a MemoryError instead of a hang
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(ehrelay.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "ehrelay", "--snr", "0:10:1e-12", "--dump-config"],
        env=env, preexec_fn=_limit_memory, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "grid points" in proc.stderr


def test_main_config_and_preset_conflict(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text("seed = 1\n")
    rc = main(["--config", str(path), "--preset", "fig-wf-bounds"])
    assert rc == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_main_missing_config_file(capsys):
    assert main(["--config", "/nonexistent/sweep.cfg"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_main_config_not_utf8(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_bytes(b"\xff\xfe")
    assert main(["--config", str(path)]) == 2
    assert f"error: cannot read {path}:" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["/nonexistent/x.csv", "."])
def test_main_refuses_unwritable_out_before_the_sweep(out, monkeypatch, capsys):
    # a missing directory, and a directory: refused before the sweep runs
    monkeypatch.setattr("ehrelay.cli.run_sweep", None)
    assert main(["--trials", "10", "--out", out]) == 2
    assert f"error: cannot write {out}:" in capsys.readouterr().err


def _engine_failure(*args, **kwargs):
    raise RuntimeError("did not converge")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("--trials 0", 2, "trials must be >= 1"),
        # refused or failed after --out is opened: once the analytic values or the draws exist
        ("--pairs 300 --snr 0 --mode asymptotic --strategy equal --metric best", 2, "300 pairs overflows"),
        ("--pairs 171 --snr 40 --mode exact --metric best", 2, "171 pairs underflows"),
        ("--snr 10 --trials 10", 3, "did not converge"),
    ],
    ids=["invalid", "overflow", "underflow", "engine-failure"],
)
def test_main_refused_sweep_leaves_out_as_it_was(argv, code, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("ehrelay.cli.run_group", _engine_failure)
    out = tmp_path / "sweep.csv"
    out.write_text("kept\n")
    assert main([*argv.split(), "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert out.read_text() == "kept\n"


def test_main_refuses_bounds_past_the_quadrature_error_limit(tmp_path, monkeypatch, capsys):
    # a bound whose quadrature error passes MAX_QUAD_ERROR is refused, not
    # written next to a warning; the refusal names the point
    def rough(config):
        bounds = wf_worst_bounds(config)
        return dataclasses.replace(bounds, quad_error=10 * MAX_QUAD_ERROR) if config.pairs == 5 else bounds

    monkeypatch.setattr("ehrelay.cli.wf_worst_bounds", rough)
    out = tmp_path / "sweep.csv"
    out.write_text("kept\n")
    argv = "--pairs 4,5 --snr 20,30 --strategy waterfill --metric worst --mode bounds --out".split()
    assert main([*argv, str(out)]) == 2
    assert ("error: the bounds waterfill worst outage at snr 20.0 dB, 5 pairs has quadrature error 1.00e-06, "
            "above 1e-07") in capsys.readouterr().err
    assert out.read_text() == "kept\n"
    # at the limit itself the bounds are written
    monkeypatch.setattr("ehrelay.cli.wf_worst_bounds",
                        lambda config: dataclasses.replace(wf_worst_bounds(config), quad_error=MAX_QUAD_ERROR))
    assert main([*argv, str(out)]) == 0
    assert out.read_text().count("bound-lower") == 4


class _FailingFile(io.FileIO):
    """A file whose writes raise ``error`` while it is set."""

    error: OSError | None = None

    def write(self, data):
        if self.error is not None:
            raise self.error
        return super().write(data)


@pytest.mark.parametrize(
    "error",
    [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))],
    ids=["full", "broken-pipe"],
)
@pytest.mark.parametrize("target", ["out", "stdout", "dump-config"])
def test_main_refuses_a_failed_write(target, error, tmp_path, monkeypatch, capsys):
    # the rows (or the dumped config) exist, but writing, flushing or closing
    # them fails: one error line naming where they went, exit 2, no traceback
    out = tmp_path / "sweep.csv"
    stream = None

    def failing_stream(path, mode="w", newline=None):
        nonlocal stream
        raw = _FailingFile(path, mode)
        raw.error = error
        stream = io.TextIOWrapper(io.BufferedWriter(raw), newline=newline)
        return stream

    monkeypatch.setattr("ehrelay.cli.open", failing_stream, raising=False)
    argv = ["--snr", "30", "--trials", "10"] + {
        "out": ["--out", str(out)], "stdout": [], "dump-config": ["--dump-config"]}[target]
    with contextlib.nullcontext() if target == "out" else contextlib.redirect_stdout(failing_stream(os.devnull)):
        rc = main(argv)
    where = out if target == "out" else "standard output"
    assert (rc, capsys.readouterr().err) == (2, f"error: cannot write {where}: {error}\n")
    # main closes a file it opened; standard output is the caller's to close
    assert stream.closed == (target == "out")
    stream.buffer.raw.error = None
    stream.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [["--out", "/dev/full"], [], ["--dump-config"]], ids=["out", "stdout", "dump-config"])
def test_main_write_to_a_full_device_exits_2(argv):
    # in a fresh interpreter, so that its flush of stdout at exit is seen too
    env = dict(os.environ, PYTHONPATH=str(Path(ehrelay.__file__).resolve().parent.parent))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ehrelay", "--snr", "30", "--trials", "10", *argv],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    where = "/dev/full" if argv[:1] == ["--out"] else "standard output"
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write {where}: [Errno 28] No space left on device\n")


def test_main_closed_pipe_exits_2():
    # the reader quits after the header, as `| head -1` does; the rows are
    # far more than a pipe buffers, so a later write finds the pipe closed
    env = dict(os.environ, PYTHONPATH=str(Path(ehrelay.__file__).resolve().parent.parent))
    argv = ["--snr", "0:40:0.05", "--pairs", "2,3", "--strategy", "individual,equal",
            "--metric", "average,best,worst", "--mode", "exact"]
    with subprocess.Popen(
        [sys.executable, "-m", "ehrelay", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().decode().rstrip() == ",".join(CSV_COLUMNS)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert err == "error: cannot write standard output: [Errno 32] Broken pipe\n"


_COLD_START = """
import sys
{prelude}
import ehrelay.cli
loaded_at_import = "scipy.special" in sys.modules
assert ehrelay.cli.main(sys.argv[1:]) == 0
print(loaded_at_import, "scipy.special" in sys.modules, "scipy" in sys.modules)
"""


def _cold_start(argv: list[str], out: Path, prelude: str = "") -> list[str]:
    """Run main in a fresh interpreter; whether scipy.special was loaded at
    import and after the run, and whether scipy was."""
    env = dict(os.environ, PYTHONPATH=str(Path(ehrelay.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START.format(prelude=prelude), *argv, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_scipy_special_loads_only_for_the_bessel_bound(tmp_path):
    # in child processes: the filterwarnings setting names a scipy warning
    # class, so the pytest process has scipy.special loaded already
    argv = ["--snr", "30", "--trials", "200", "--mode", "all", "--strategy", "equal,waterfill,auction",
            "--metric", "average,best"]
    assert _cold_start(argv, tmp_path / "all.csv") == ["False", "False", "True"]
    assert "bound-" not in (tmp_path / "all.csv").read_text()
    # the closed-form worst-case bound is the one user of the Bessel kernel
    argv = ["--snr", "0,30", "--pairs", "5", "--strategy", "waterfill", "--metric", "worst", "--mode", "bounds"]
    assert _cold_start(argv, tmp_path / "cold.csv") == ["False", "True", "True"]
    warm = _cold_start(argv, tmp_path / "warm.csv", prelude="import scipy.special")
    assert warm == ["True", "True", "True"]
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


def test_main_exit_code_3_on_engine_failure(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("did not converge")

    monkeypatch.setattr("ehrelay.cli.run_group", boom)
    rc = main(["--snr", "10", "--trials", "10"])
    assert rc == 3
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pairs, trials",
    [("100000000000000000000", "2000"), ("1152921504606846976", "1"), ("562949953421312", "16385")],
)
def test_main_exit_code_2_when_a_block_is_past_numpys_size_limit(pairs, trials, monkeypatch, capsys):
    # past a dimension of 2^63 - 1 numpy refuses the shape, and past 2^63 - 1
    # bytes the array: either way the sweep is refused before any draw
    def no_draw(*args, **kwargs):
        raise AssertionError("a draw was started")

    monkeypatch.setattr("ehrelay.cli.run_group", no_draw)
    rc = main(["--snr", "10", "--pairs", pairs, "--trials", trials])
    assert rc == 2
    rows = min(int(trials), 16384)
    assert capsys.readouterr().err == (
        f"error: {pairs} pairs: a block of draws ({rows} x {pairs} floats) has more bytes than numpy can address\n"
    )


@pytest.mark.parametrize("workers", ["1", "2"])
def test_main_exit_code_2_when_a_block_cannot_be_allocated(workers, monkeypatch, capsys):
    # numpy's message names the shape that did not fit; run_group re-raises it
    message = "Unable to allocate 24.4 GiB for an array with shape (16384, 200000) and data type float64"

    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("ehrelay.engine.BLOCK_SIZE", 16)
    monkeypatch.setattr("ehrelay.strategies.sample_block", too_large)
    rc = main(["--snr", "10", "--trials", "64", "--workers", workers])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
