"""Smoke test of the benchmark harness at tiny n.

Runs each generator, one product per engine, and checks that every metric
named in BENCHMARK.json is printed with its unit. Run from the repository
root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import run

run._import_library()

import harness  # noqa: E402
import hostprobe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from minplus import basic, recursive  # noqa: E402

ROOT = os.path.dirname(run.HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
    BENCH = json.load(fh)

TINY = (
    workloads.Workload("walk-tiny", "walk", 16, 2, pairs=2, setup_reps=2),
    workloads.Workload("valley-tiny", "valley", 32, 2, pairs=2, setup_reps=2),
)

_LINE = re.compile(r"^  (\S+) = (\S+) (\S+)")


@pytest.mark.parametrize("trace", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_every_metric_printed_with_unit(w, trace, tmp_path):
    out = io.StringIO()
    result = harness.measure(w, seed=3, seconds=0.0, trace=trace, spans_dir=str(tmp_path), out=out)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(harness.ENGINES)

    spec = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    printed = {}
    for line in out.getvalue().splitlines():
        m = _LINE.match(line)
        if m:
            printed[m.group(1)] = m.group(3)
    assert {k: printed.get(k) for k in spec} == spec
    assert "failed_frac" in printed
    if trace:
        assert list(tmp_path.glob("spans-*.jsonl"))


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_generators_are_seeded(w):
    first = workloads.make_pairs(w, 5)
    again = workloads.make_pairs(w, 5)
    other = workloads.make_pairs(w, 6)
    assert all(a1 == a2 and b1 == b2 for (a1, b1), (a2, b2) in zip(first, again))
    assert any(a1 != a2 or b1 != b2 for (a1, b1), (a2, b2) in zip(first, other))


def test_valley_centers_move_at_most_one_column():
    c = workloads.valley_centers(512, np.random.default_rng(0))
    assert abs(int(c.max()) - int(c.min())) <= 512 // 16
    assert int(abs(c[1:] - c[:-1]).max()) <= 1


def test_tracer_patches_every_binding_and_skips_missing_names():
    orig = basic.build_segments
    empty = types.ModuleType("empty")
    with tracing.Tracer({"basic": basic, "recursive": empty}):
        assert recursive.build_segments is basic.build_segments
        assert basic.build_segments is not orig
        assert basic.build_segments.__wrapped__ is orig
    assert basic.build_segments is orig and recursive.build_segments is orig


def test_exits_without_result_when_source_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk-64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_spans_that_do_not_nest_are_flagged():
    tracer = tracing.Tracer({})
    with tracer.product_scope("basic", ("ok",)):
        pass
    with tracer.product_scope("basic", ("bad",)):
        pass
    root = len(tracer.spans) - 1
    t0, t1 = tracer.spans[root][1], tracer.spans[root][2]
    tracer.spans.append(["basic.basic.build_segments", t0, t1 + 1, root, ("bad",), 0])
    assert tracer.unbalanced_products() == [("bad",)]


def test_host_probe_scales_by_the_samples_around_the_midpoint():
    probe = hostprobe.HostProbe()
    for t0, factor in ((0.0, 2), (1.0, 2), (2.0, 4)):  # one sample point a second
        for k in range(hostprobe.REPS):
            probe.starts.append(t0 + k * 1e-3)
            probe.seconds.append(factor * hostprobe.PROBE_REF_S)
    assert probe.normalise(0.1, 0.8) == pytest.approx(0.8 / 2)
    # samples on both sides count alike: the median of 2x and 4x is 3x
    assert probe.normalise(1.1, 0.8) == pytest.approx(0.8 / 3)


def test_host_probe_sample_records_each_probe():
    probe = hostprobe.HostProbe()
    assert probe.normalise(0.0, 0.5) == 0.5  # nothing sampled: unscaled
    probe.sample()
    assert len(probe.starts) == len(probe.seconds) == hostprobe.REPS
    assert probe.starts == sorted(probe.starts) and min(probe.seconds) > 0
