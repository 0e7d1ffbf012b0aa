"""Config parsing, sweep assembly, CSV determinism, exit codes."""

import dataclasses
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
from ehrelay.analytic import outage_equal
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
    assert spec.price_policy == "max-winners"


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
        ("price_policy = random\n", "unknown price policy"),
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
        SMALL, rate=0.75, eta=0.9, h_variance=0.5, price_policy="certified"
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
    # 171 is the closed forms' pair cap; 89 is where the equal/best
    # asymptotic coefficient first overflowed a float
    spec = SweepSpec(pairs=(89, 171), snr_db=(0.0, 30.0, 100.0), strategies=(strategy,),
                     metrics=(metric,), trials=1, mode=group)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # out-of-regime asymptotics at 0 dB
        rows = run_sweep(spec)
    assert len(rows) == 6 * len(ANALYTIC_ROWS[strategy, group].labels)
    assert all(math.isfinite(float(r["value"])) for r in rows)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("price_policy", "cheapest", "unknown price_policy"),
    ],
)
def test_run_sweep_refuses_bad_auction_settings(field, value, match, monkeypatch):
    # refused before any channel is drawn, whether or not the sweep runs the auction
    monkeypatch.setattr("ehrelay.cli.run_group", None)
    for strategies in (("auction",), ("equal",)):
        spec = dataclasses.replace(SMALL, strategies=strategies, **{field: value})
        with pytest.raises(CLIError, match=match):
            run_sweep(spec)


@pytest.mark.parametrize(
    "text, message",
    [
        # the reserve and the certified margin are fixed: even their values are refused
        ("xi_fraction = 0.01\n", "unknown key 'xi_fraction'"),
        ("price_margin = 0.05\nprice_policy = certified\n", "unknown key 'price_margin'"),
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
        assert "pooled asymptotics require at least two pairs" in capsys.readouterr().err
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
        ["--pairs", "172", "--mode", "exact", "--strategy", "equal", "--metric", "average", "--snr", "10"],
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
    # refused before the sweep (and its thread pool) starts
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
    # a sweep that draws no channels has no budget
    assert main(argv + ["--mode", "exact", "--strategy", "equal", "--metric", "best"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


def test_main_runs_every_strategy_below_the_budget_bound(capsys):
    # 1024 * 3 * 10^304.7 is still a float
    argv = ["--snr", "3047", "--pairs", "3", "--strategy", ",".join(STRATEGY_NAMES), "--metric", "average,success"]
    assert main(argv + ["--trials", "200"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[2], r[3]) for r in rows] == [(s, m) for s in STRATEGY_NAMES for m in ("average", "success")]
    assert [float(r[5]) for r in rows] == [0.0, 3.0] * len(STRATEGY_NAMES)


def test_pair_limit_applies_only_to_closed_forms():
    spec = dataclasses.replace(SMALL, pairs=(172,), snr_db=(30.0,), metrics=("average",), trials=5)
    # every group capped at 171 pairs refuses in its own mode, with one message
    message = "pairs 172 exceeds 171, the largest pair count the closed forms support"
    for mode, strategies, metrics in (
        ("all", SMALL.strategies, ("average",)),
        ("exact", SMALL.strategies, ("average",)),
        ("bounds", ("waterfill",), ("worst",)),
    ):
        with pytest.raises(CLIError, match=message):
            run_sweep(dataclasses.replace(spec, mode=mode, strategies=strategies, metrics=metrics))
    # Monte Carlo and the asymptotics divide by no factorial
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


def test_main_refused_sweep_leaves_out_as_it_was(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    out.write_text("kept\n")
    assert main(["--trials", "0", "--out", str(out)]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_main_exit_code_2_when_a_block_cannot_be_allocated(workers, monkeypatch, capsys):
    # numpy's message names the shape that did not fit; the pool re-raises it
    message = "Unable to allocate 24.4 GiB for an array with shape (16384, 200000) and data type float64"

    def too_large(*args):
        raise MemoryError(message)

    monkeypatch.setattr("ehrelay.engine.BLOCK_SIZE", 16)
    monkeypatch.setattr("ehrelay.engine.sample_block", too_large)
    rc = main(["--snr", "10", "--trials", "64", "--workers", workers])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
