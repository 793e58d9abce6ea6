"""Tests of the benchmark itself, at a few percent of its size.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import run, tracing  # noqa: E402
from perfbench.repeat import layer_metrics, run_repeat  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, summary_digest  # noqa: E402

TINY = 0.03


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload(name):
    handler = signal.getsignal(signal.SIGALRM)
    report = run_repeat(name, seed=5, trace=False, scale=TINY)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert report["problems"] == []
    assert report["probe_samples"] > 0
    modelled = report["modelled"]
    assert modelled["offered"] > 0
    assert 0.0 < modelled["served_frac"] <= 1.0
    assert modelled["served_frac"] + modelled["failed_frac"] == pytest.approx(1.0)
    assert report["host"]["wall_s"] >= report["host"]["run_s"] > 0
    # The same seed reproduces the same simulated summary.
    assert run_repeat(name, seed=5, trace=False, scale=TINY)["digest"] == report["digest"]


def _owners():
    """Every class and module the tracing module could patch."""
    return [
        value for value in vars(tracing).values()
        if isinstance(value, (type, types.ModuleType)) and value is not tracing.json
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracer_restores_every_patch_and_keeps_the_digest(name):
    untraced = run_repeat(name, seed=9, trace=False, scale=TINY)["digest"]
    before = {owner: dict(vars(owner)) for owner in _owners()}
    tracer = Tracer().install()
    patched = sum(
        1 for owner in before for attr in vars(owner)
        if hasattr(getattr(owner, attr), "__wrapped__")
    )
    assert patched >= 20
    try:
        workload = WORKLOADS[name](9, TINY)
        workload.setup()
        summary = workload.execute()
        workload.report(summary)
    finally:
        tracer.restore()
    for owner, attributes in before.items():
        after = dict(vars(owner))
        assert after.keys() == attributes.keys(), owner
        for attr, value in attributes.items():
            assert after[attr] is value, "%s.%s not restored" % (owner, attr)
    assert summary_digest(summary) == untraced


def test_self_time_never_exceeds_the_enclosing_span():
    tracer = Tracer(max_spans=1_000_000).install()
    try:
        workload = WORKLOADS["federated"](4, TINY)
        workload.setup()
        summary = workload.execute()
        workload.report(summary)
    finally:
        tracer.restore()
    spans = {span.span_id: span for span in tracer.spans}
    covered = {span_id: 0.0 for span_id in spans}
    for span in spans.values():
        if span.parent_id:
            parent = spans[span.parent_id]
            assert parent.start <= span.start <= span.end <= parent.end
            covered[span.parent_id] += span.end - span.start
    for span_id, span in spans.items():
        assert covered[span_id] <= (span.end - span.start) + 1e-9, span.name
    for layer, totals in tracer.layers.items():
        assert -1e-9 <= totals.self_s <= totals.total_s + 1e-9, layer
    # Every traced layer sits inside the event loop's run() except set-up
    # and roll-up work, so the loop's own self time is what the children leave.
    runtime = tracer.layers["runtime"]
    inside = sum(
        span.end - span.start for span in spans.values()
        if span.parent_id and spans[span.parent_id].name == "PartitionedEventLoop.run"
    )
    assert runtime.self_s == pytest.approx(runtime.total_s - inside, abs=1e-6)
    metrics = layer_metrics(tracer, workload.facts(summary), workload.export_s)
    assert set(metrics) == set(run.PER_LAYER) - {"trace.overhead_s"}
    assert metrics["datapath.calibrations"] == len(workload.service_cache)


def test_run_prints_every_end_to_end_metric_last(capsys):
    code = run.main(
        ["--workload", "steady", "--seed", "2", "--seconds", "0.1", "--trace", "0",
         "--scale", str(TINY)]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPEATS
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {metric["name"] for metric in benchmark["end_to_end"]}
    assert set(run.PER_LAYER) == {metric["name"] for metric in benchmark["per_layer"]}
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        units = run.END_TO_END if metric in benchmark["end_to_end"] else run.PER_LAYER
        assert units[metric["name"]] == metric["unit"]


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), env=env, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
