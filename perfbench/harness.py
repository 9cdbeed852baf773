"""Measurement loop, correctness gate and metric report of the benchmark.

One run makes a workload's input pairs from the seed, then times the
library's public entry points in a closed loop with a single caller: the
next product starts when the previous one returns. Engines are interleaved
per pair, and the starting engine rotates each round, so host drift during
a run hits every engine alike. All engines run with the default
``AlgoParams(delta, seed)``, so changed defaults show end to end.

Untraced run (``trace=False``): the end-to-end metrics, with every time
scaled to reference host speed by ``hostprobe`` (see there why). Traced run
(``trace=True``): the same loop with every product made once untraced and
once under the span tracer, giving per-layer self times, peak allocations,
work counts and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field

from minplus import basic, blocking, cli, matrix, oracle, recursive

import hostprobe
import tracing
import workloads

ENGINES = ("naive", "basic", "recursive")

END_TO_END = (
    ("setup_s", "s"),
    ("basic_s", "s"),
    ("recursive_s", "s"),
    ("naive_peak_mib", "MiB"),
    ("basic_peak_mib", "MiB"),
    ("recursive_peak_mib", "MiB"),
    ("peak_rss_mib", "MiB"),
)

BASIC_COUNTS = (
    ("basic.candidate_density", "ratio"),
    ("basic.small_pair_frac", "ratio"),
    ("basic.sampled_cols", "count"),
    ("basic.cols_with_blocks", "count"),
    ("basic.sample_use_frac", "ratio"),
    ("basic.block_products", "count"),
    ("basic.fallback_pairs", "count"),
    ("basic.collision_checks", "count"),
    ("basic.collisions_found", "count"),
    ("basic.poly_degree_ops", "count"),
)

ACTIVE_LEVELS = (1, 2, 4, 8)

RECURSIVE_COUNTS = tuple((f"recursive.active_pairs.l{l}", "count") for l in ACTIVE_LEVELS) + (
    ("recursive.tail_pairs", "count"),
    ("recursive.fallback_pairs", "count"),
    ("recursive.collision_checks", "count"),
    ("recursive.collisions_found", "count"),
    ("recursive.poly_degree_ops", "count"),
)

_COUNTER_FIELDS = ("block_products", "fallback_pairs", "collision_checks", "collisions_found", "poly_degree_ops")
_COUNT_NAMES = {name for name, _ in BASIC_COUNTS + RECURSIVE_COUNTS}


def _call_layers() -> list[str]:
    """Layers inside the blocked engines, whose call counts vary with the
    input (entry points and set-up are called a fixed number of times)."""
    return [lay.name for lay in tracing.LAYERS
            if lay.engine in ("basic", "recursive") and lay.function != f"{lay.engine}_minplus"]


def per_layer_metrics() -> tuple[tuple[str, str], ...]:
    """Names and units of every metric the traced run reports."""
    out = [(f"{lay.name}.self_s", "s") for lay in tracing.LAYERS]
    out += [(f"{name}.calls", "count") for name in _call_layers()]
    out += [(f"{name}.peak_mib", "MiB") for name in tracing.PEAK_LAYERS]
    out += list(BASIC_COUNTS) + list(RECURSIVE_COUNTS)
    out += [(f"trace_overhead.{e}_s", "s") for e in ENGINES]
    return tuple(out)


def call_engine(engine: str, a, b, params, counters=None, level_trace=None):
    """One product through the library's public entry point (looked up at
    call time, so the tracer's patches apply)."""
    if engine == "naive":
        return oracle.minplus_naive(a.base, b.base)
    if engine == "basic":
        return basic.basic_minplus(a, b, params, counters)
    return recursive.recursive_minplus(a, b, params, counters=counters, level_trace=level_trace)


@dataclass
class Product:
    engine: str
    pair: int
    start: float
    seconds: float
    result: object = None
    counters: object = None
    level_trace: list | None = None
    error: str | None = None


@dataclass
class Run:
    w: workloads.Workload
    seed: int
    pairs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def params(self, index: int) -> basic.AlgoParams:
        return basic.AlgoParams(delta=self.w.delta, seed=workloads.engine_seed(self.seed, index))

    def product(self, engine: str, index: int, level_trace: list | None = None) -> Product:
        a, b = self.pairs[index]
        params = self.params(index)
        counters = basic.Counters() if engine != "naive" else None
        t0 = time.perf_counter()
        try:
            res = call_engine(engine, a, b, params, counters, level_trace)
        except Exception:  # a failed product is counted, not fatal
            return Product(engine, index, t0, time.perf_counter() - t0, error=traceback.format_exc())
        return Product(engine, index, t0, time.perf_counter() - t0, res, counters, level_trace)

    def gate(self, products: list[Product]) -> None:
        """Correctness gate, outside any timed region: every blocked product
        must equal the naive product of the same pair bitwise and pass the
        strict counter bounds; an exception is a failure too. Every call
        passes a whole round, which holds the naive product of its pair."""
        refs = {p.pair: p.result for p in products if p.engine == "naive" and p.error is None}
        for p in products:
            self.attempted += 1
            bad = None
            if p.error is not None:
                bad = p.error.strip().splitlines()[-1]
            elif p.engine != "naive":
                ref = refs.get(p.pair)
                if ref is None:
                    bad = "no naive product of the same pair to compare with"
                elif p.result != ref:
                    bad = "result differs from the naive product"
                else:
                    params = self.params(p.pair)
                    rec = cli.RunRecord(p.engine, self.w.n, params.delta, params.seed, params.alpha, params.beta,
                                        params.gamma, params.c0, p.seconds * 1e3, p.counters.as_dict())
                    violations = cli.strict_violations(rec, params)
                    if violations:
                        bad = "strict: " + "; ".join(violations)
            if bad is not None:
                self.failed += 1
                self.problems.append(f"{p.engine} pair {p.pair}: {bad}")


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _tail_percentile(xs) -> tuple[int, float] | None:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    xs = sorted(xs)
    for p in (99, 95, 90):
        if len(xs) * (100 - p) / 100 >= 10:
            return p, xs[min(len(xs) - 1, math.ceil(len(xs) * p / 100) - 1)]
    return None


def setup(run: Run, tracer: tracing.Tracer | None = None,
          probe: hostprobe.HostProbe | None = None) -> list[list[tuple[float, float]]]:
    """Make the run's pairs ``setup_reps`` times; returns per repetition the
    start and duration of each timed step. Untraced, each pair is a step,
    and with a ``probe`` host speed is sampled before each pair and after
    the last, so a slow spell inside a repetition is caught. Traced, the
    whole repetition is one step, under one span."""
    reps = []
    for rep in range(run.w.setup_reps):
        steps = []
        if tracer is not None:
            t0 = time.perf_counter()
            with tracer.product_scope("setup", ("setup", rep)):
                pairs = workloads.make_pairs(run.w, run.seed)
            steps.append((t0, time.perf_counter() - t0))
        else:
            pairs = []
            for index in range(run.w.pairs):
                if probe is not None:
                    probe.sample()
                t0 = time.perf_counter()
                pairs.append(workloads.make_pair(run.w, run.seed, index))
                steps.append((t0, time.perf_counter() - t0))
        reps.append(steps)
    if probe is not None:
        probe.sample()
    run.pairs = pairs
    return reps


def memory_pass(run: Run, tracer: tracing.Tracer | None = None) -> dict[str, float]:
    """One untimed product per engine on pair 0 under tracemalloc: peak bytes
    allocated during the product, in MiB. It also warms every code path
    before anything is timed. Under a tracer the peaks are recorded per span
    instead, since the tracer resets tracemalloc's peak at every span; the
    returned dict is then empty."""
    peaks = {}
    products = []
    tracemalloc.start()
    try:
        for e in ENGINES:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            if tracer is None:
                p = run.product(e, 0)
                peaks[e] = tracing.mib(tracemalloc.get_traced_memory()[1] - base)
            else:
                with tracer.product_scope(e, ("memory", e), track_memory=True):
                    p = run.product(e, 0)
            products.append(p)
    finally:
        tracemalloc.stop()
    run.gate(products)
    return peaks


def timed_loop(run: Run, seconds: float, tracer: tracing.Tracer | None = None,
               probe: hostprobe.HostProbe | None = None):
    """Closed loop over the pairs for ``seconds`` (at least one round).
    With a ``probe``, host speed is sampled before each untraced product and
    after the last, outside the timed products.

    Returns per-engine product lists: ``plain`` always, ``traced``
    when a tracer is given (then each engine's product is made once each
    way per round, in alternating order).
    """
    plain = {e: [] for e in ENGINES}
    traced = {e: [] for e in ENGINES}
    t_end = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < t_end:
        index = r % len(run.pairs)
        shift = r % len(ENGINES)
        round_products = []
        for e in ENGINES[shift:] + ENGINES[:shift]:
            modes = (False,) if tracer is None else ((True, False) if r % 2 else (False, True))
            for with_trace in modes:
                if with_trace:
                    with tracer.product_scope(e, ("timed", r, e)):
                        p = run.product(e, index, [] if e == "recursive" else None)
                else:
                    if probe is not None:
                        probe.sample()
                    p = run.product(e, index)
                (traced if with_trace else plain)[e].append(p)
                round_products.append(p)
        run.gate(round_products)
        for p in round_products:
            p.result = None  # checked; drop the matrix
        r += 1
    if probe is not None:
        probe.sample()
    return plain, traced


def workload_properties(run: Run, index: int = 0) -> dict[str, float]:
    """Candidate density and sampling figures of one pair, from the public
    ``candidate_sets`` and ``sample_r`` with the product's own params."""
    a, b = run.pairs[index]
    params = run.params(index)
    n = run.w.n
    cands = blocking.candidate_sets(a, b, params.block_len(n))
    sizes = cands.sizes
    small = sizes <= params.t_beta(n)
    sampled = with_blocks = 0
    if not small.all():
        r_cols, needed = basic.sample_r(cands, params)
        sampled, with_blocks = len(r_cols), sum(1 for v in needed.gamma.values() if len(v))
    return {
        "basic.candidate_density": float(sizes.mean()) / cands.grid.n_blocks,
        "basic.small_pair_frac": float(small.mean()),
        "basic.sampled_cols": float(sampled),
        "basic.cols_with_blocks": float(with_blocks),
        "basic.sample_use_frac": with_blocks / sampled if sampled else 0.0,
    }


def _layer_report(tracer: tracing.Tracer) -> dict[str, float]:
    """Per layer: median self time and calls over the traced products of its
    engine (the set-up repetitions for set-up layers), and peak allocation
    from the engine's traced memory product."""
    per_product = tracer.self_times()
    products: dict[str, list] = {}
    for key in per_product:
        if key[0] == "timed":
            products.setdefault(key[2], []).append(key)
        elif key[0] == "setup":
            products.setdefault("setup", []).append(key)
    out = {}
    for lay in tracing.LAYERS:
        recs = [per_product[k].get(lay.name, [0, 0, 0]) for k in products.get(lay.engine, [])]
        out[f"{lay.name}.self_s"] = _median([r[0] / 1e9 for r in recs])
        out[f"{lay.name}.calls"] = _median([r[1] for r in recs])
    for name in tracing.PEAK_LAYERS:
        engine = name.split(".")[0]
        rec = per_product.get(("memory", engine), {}).get(name, [0, 0, 0])
        out[f"{name}.peak_mib"] = tracing.mib(rec[2])
    return out


def _count_report(run: Run, traced: dict[str, list]) -> dict[str, float]:
    """Median over traced products of the exact work counts."""
    props = {}
    for index in sorted({p.pair for p in traced["basic"]}):
        for k, v in workload_properties(run, index).items():
            props.setdefault(k, []).append(v)
    out = {k: _median(v) for k, v in props.items()}
    for e in ("basic", "recursive"):
        ok = [p for p in traced[e] if p.error is None]
        for f in _COUNTER_FIELDS:
            if f"{e}.{f}" in _COUNT_NAMES:
                out[f"{e}.{f}"] = _median([getattr(p.counters, f) for p in ok])
    rec = [p for p in traced["recursive"] if p.error is None]
    for l in ACTIVE_LEVELS:
        out[f"recursive.active_pairs.l{l}"] = _median(
            [sum(len(s.active) for s in p.level_trace if s.block_len == l) for p in rec])
    out["recursive.tail_pairs"] = _median(
        [sum(len(s.pending) for s in p.level_trace if s.block_len == 1) for p in rec])
    return out


def measure(w: workloads.Workload, seed: int, seconds: float, trace: bool, spans_dir: str, out=sys.stdout) -> dict:
    """One benchmark run; prints a readable report to ``out`` and returns
    the result object (``correct``, ``attempted``, ``failed``, ``metrics``).
    A traced run writes its spans as JSON lines under ``spans_dir``."""
    run = Run(w, seed)
    tracer = probe = None
    if trace:
        tracer = tracing.Tracer({"matrix": matrix, "oracle": oracle, "blocking": blocking, "basic": basic,
                                 "recursive": recursive, "workloads": workloads})
    else:
        probe = hostprobe.HostProbe()
    with tracer if tracer is not None else contextlib.nullcontext():
        setup_times = setup(run, tracer, probe)
        peaks = memory_pass(run, tracer)
        plain, traced = timed_loop(run, seconds, tracer, probe)
    props = workload_properties(run)
    print(f"workload {w.name}: n={w.n} delta={w.delta} pairs={w.pairs} seed={seed} "
          f"candidate_density={props['basic.candidate_density']:.4f} "
          f"small_pair_frac={props['basic.small_pair_frac']:.4f}", file=out)

    counts: dict[str, int] = {}
    if not trace:
        spec = END_TO_END
        values = {"setup_s": _median([sum(probe.normalise(t0, dt) for t0, dt in rep) for rep in setup_times])}
        counts["setup_s"] = len(setup_times)
        print(f"  host probe: median {_median(probe.seconds) * 1e3:.3f} ms over {len(probe.seconds)} samples, "
              f"reference {hostprobe.PROBE_REF_S * 1e3:.3f} ms", file=out)
        print(f"  unscaled setup_s {_median([sum(dt for _, dt in rep) for rep in setup_times]):.6f} s", file=out)
        for e in ENGINES:
            ok = [p for p in plain[e] if p.error is None]
            # naive's time is numpy memory traffic, which the probe does not
            # track: it stays unscaled and is reported, not a JSON metric
            xs = [p.seconds if e == "naive" else probe.normalise(p.start, p.seconds) for p in ok]
            values[f"{e}_s"] = _median(xs)
            counts[f"{e}_s"] = len(xs)
            tail = _tail_percentile(xs)
            if tail is not None:
                print(f"  {e}_s p{tail[0]} = {tail[1]:.6f} s", file=out)
            if e != "naive":
                print(f"  unscaled {e}_s = {_median([p.seconds for p in ok]):.6f} s", file=out)
            values[f"{e}_peak_mib"] = peaks[e]
            counts[f"{e}_peak_mib"] = 1
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        counts["peak_rss_mib"] = 1
    else:
        spec = per_layer_metrics()
        values = _layer_report(tracer)
        values.update(_count_report(run, traced))
        for e in ENGINES:
            t = [p.seconds for p in traced[e] if p.error is None]
            u = [p.seconds for p in plain[e] if p.error is None]
            values[f"trace_overhead.{e}_s"] = _median(t) - _median(u)
            counts[f"trace_overhead.{e}_s"] = min(len(t), len(u))
        unbalanced = tracer.unbalanced_products()
        if unbalanced:
            run.failed += len(unbalanced)
            run.problems += [f"trace: spans of product {k} do not add up" for k in unbalanced]
        os.makedirs(spans_dir, exist_ok=True)
        tracer.write(os.path.join(spans_dir, f"spans-{w.name}-seed{seed}.jsonl"))
        print("  layer -> end-to-end metric | mechanism workloads | bypass workloads", file=out)
        for lay in tracing.LAYERS:
            print(f"  {lay.name} -> {lay.moves} | {lay.mechanism} | {lay.bypass}", file=out)

    metrics = {name: (values[name], unit) for name, unit in spec}
    for name, (value, unit) in metrics.items():
        n = counts.get(name)
        suffix = f" ({n} samples)" if n is not None else ""
        print(f"  {name} = {value:.6g} {unit}{suffix}", file=out)
    if not trace:
        print(f"  naive_s = {values['naive_s']:.6g} s ({counts['naive_s']} samples; unscaled, not a JSON metric)",
              file=out)
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"  failed_frac = {failed_frac:.6g} fraction ({run.failed} of {run.attempted} products)", file=out)
    for msg in run.problems:
        print(f"  FAILED {msg}", file=out)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
