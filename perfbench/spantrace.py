"""Outside-in span tracing of the ehrelay layers.

The tracer replaces public functions of the loaded ``ehrelay`` modules
with timing wrappers.  A wrapper is installed under every module-level
name that refers to the original function object, so calls through
names imported with ``from .x import f`` are traced as well.  Nothing
under ``src/`` is edited, and :meth:`Tracer.uninstall` restores every
name.

Each call becomes one span kept in memory:
``(id, name, start, end, parent, thread, value)``.  ``parent`` is the
innermost open span of the same thread; a span opened on an engine pool
thread with nothing open on that thread takes the innermost open span of
the sweep thread (the one that called :meth:`Tracer.install`), which is
blocked in ``run_experiment`` while the pool works.  ``value`` carries a
per-call quantity read from the arguments or the result (bytes drawn,
trials, auction iterations, quadrature error).

:func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import math
import sys
import threading
import time
import warnings

STRATEGIES = ("individual", "equal", "waterfill", "maxmin", "auction")

# (module, function, what to record as the span value)
TARGETS = (
    ("ehrelay.cli", "run_sweep", None),
    ("ehrelay.cli", "write_csv", None),
    ("ehrelay.engine", "run_experiment", "experiment"),
    ("ehrelay.model", "sample_block", "drawn_mb"),
    ("ehrelay.model", "harvest", None),
    ("ehrelay.strategies", "allocate", None),
    ("ehrelay.auction", "winner_maximizing_price", None),
    ("ehrelay.auction", "iteration_spectral_radius", None),
    ("ehrelay.auction", "predict_allocation", None),
    ("ehrelay.auction", "run_auction", "iterations"),
    ("ehrelay.auction", "select_price", None),
    ("ehrelay.auction", "contraction_modulus", None),
    ("ehrelay.analytic", "outage_individual", "analytic"),
    ("ehrelay.analytic", "outage_equal", "analytic"),
    ("ehrelay.analytic", "outage_wf_best", "analytic"),
    ("ehrelay.analytic", "wf_worst_bounds", "analytic"),
    ("ehrelay.analytic", "asymptotic_outage", "analytic"),
    ("ehrelay.specfun", "gamma_exp_integral", None),
)

# strategy a closed form belongs to, for tagging its warnings
_ANALYTIC_STRATEGY = {
    "outage_individual": "individual",
    "outage_equal": "equal",
    "outage_wf_best": "waterfill",
    "wf_worst_bounds": "waterfill",
}


class Tracer:
    """In-memory span recorder; install around one traced sweep."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.warnings: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._stack()
        for module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items() if n == "ehrelay" or n.startswith("ehrelay.")]
        for module_name, function, record in TARGETS:
            original = getattr(sys.modules[module_name], function)
            wrapper = self._wrap(original, f"{module_name.rsplit('.', 1)[1]}.{function}", record)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, original, name: str, record: str | None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._root_stack[-1] if tracer._root_stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            caught = None
            start = time.perf_counter()
            try:
                if record == "analytic":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = original(*args, **kwargs)
                else:
                    result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = tracer._value(record, name, args, kwargs, result, caught)
            tracer.spans.append((span_id, name, start, end, parent, threading.get_ident(), value))
            return result

        traced.__wrapped__ = original
        return traced

    def _value(self, record, name, args, kwargs, result, caught):
        if record == "drawn_mb":
            h2, g2 = result
            return (h2.nbytes + g2.nbytes) / 1e6
        if record == "experiment":
            strategy = args[1] if len(args) > 1 else kwargs["strategy"]
            return (strategy, result.trials)
        if record == "iterations":
            return result.iterations
        if record == "analytic":
            function = name.split(".", 1)[1]
            if caught:
                config = next(a for a in (*args, *kwargs.values()) if hasattr(a, "source_power"))
                strategy = _ANALYTIC_STRATEGY.get(function) or args[0]
                for w in caught:
                    self.warnings.append({
                        "snr_db": round(10.0 * math.log10(config.source_power), 9),
                        "pairs": config.pairs,
                        "strategy": strategy,
                        "function": function,
                        "category": w.category.__name__,
                        "message": str(w.message),
                    })
            if function == "wf_worst_bounds":
                return result.quad_error
            return None
        return None

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: id,name,start_s,end_s,parent,thread."""
        threads: dict[int, int] = {}
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("id,name,start_s,end_s,parent,thread\n")
            for span_id, name, start, end, parent, thread, _ in self.spans:
                tid = threads.setdefault(thread, len(threads))
                fh.write(f"{span_id},{name},{start!r},{end!r},{parent},{tid}\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _self_time(spans: list[tuple], name: str, children: dict[int, list[tuple[float, float]]]) -> float:
    """Span time of ``name`` minus the union of its direct children."""
    total = 0.0
    for span_id, span, start, end, *_ in spans:
        if span != name:
            continue
        inside = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ()) if e > start and s < end]
        total += (end - start) - _union_length(inside)
    return total


def layer_metrics(tracer: Tracer, rows: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` from one traced sweep."""
    spans = tracer.spans
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for _, name, start, end, parent, _, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        children.setdefault(parent, []).append((start, end))

    def values(name):
        return [s[6] for s in spans if s[1] == name]

    out: dict[str, tuple[float, str]] = {}

    def count(metric, name):
        out[metric] = (calls.get(name, 0), "count")

    def seconds(metric, name):
        out[metric] = (busy.get(name, 0.0), "s")

    count("model.sample_block.calls", "model.sample_block")
    seconds("model.sample_block.busy_s", "model.sample_block")
    out["model.sample_block.mb"] = (math.fsum(values("model.sample_block")), "MB")
    count("model.harvest.calls", "model.harvest")

    count("engine.run_experiment.calls", "engine.run_experiment")
    seconds("engine.run_experiment.s", "engine.run_experiment")
    out["engine.self_s"] = (_self_time(spans, "engine.run_experiment", children), "s")
    trials = {s: 0 for s in STRATEGIES}
    seconds_by = {s: 0.0 for s in STRATEGIES}
    for _, name, start, end, _, _, value in spans:
        if name == "engine.run_experiment":
            strategy, n = value
            trials[strategy] += n
            seconds_by[strategy] += end - start
    out["engine.trials"] = (sum(trials.values()), "count")
    for s in STRATEGIES:
        rate = trials[s] / seconds_by[s] if seconds_by[s] > 0 else 0.0
        out[f"engine.{s}.trials_per_s"] = (rate, "1/s")

    count("strategies.allocate.calls", "strategies.allocate")
    seconds("strategies.allocate.busy_s", "strategies.allocate")

    for fn in ("winner_maximizing_price", "iteration_spectral_radius", "predict_allocation", "run_auction"):
        count(f"auction.{fn}.calls", f"auction.{fn}")
        seconds(f"auction.{fn}.busy_s", f"auction.{fn}")
    out["auction.run_auction.iterations"] = (sum(values("auction.run_auction")), "count")
    count("auction.select_price.calls", "auction.select_price")
    count("auction.contraction_modulus.calls", "auction.contraction_modulus")

    for fn in ("outage_individual", "outage_equal", "outage_wf_best", "wf_worst_bounds", "asymptotic_outage"):
        count(f"analytic.{fn}.calls", f"analytic.{fn}")
        seconds(f"analytic.{fn}.busy_s", f"analytic.{fn}")
    out["analytic.wf_worst_bounds.quad_error_max"] = (max(values("analytic.wf_worst_bounds"), default=0.0), "abs")
    out["analytic.warnings"] = (len(tracer.warnings), "count")

    count("specfun.gamma_exp_integral.calls", "specfun.gamma_exp_integral")
    seconds("specfun.gamma_exp_integral.busy_s", "specfun.gamma_exp_integral")

    seconds("cli.run_sweep.s", "cli.run_sweep")
    out["cli.self_s"] = (_self_time(spans, "cli.run_sweep", children), "s")
    seconds("cli.write_csv.s", "cli.write_csv")
    out["cli.rows"] = (rows, "count")
    return out
