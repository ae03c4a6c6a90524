"""Self-test of the benchmark: every workload on a tiny dataset, in seconds.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import aeloc  # noqa: E402
import harness  # noqa: E402
from tracer import MODULE_NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _aeloc_functions():
    """Every function attribute of the aeloc package and its traced modules."""
    modules = [aeloc, *(getattr(aeloc, name) for name in MODULE_NAMES)]
    return {
        (mod.__name__, attr): obj
        for mod in modules
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result, tracer = harness.run_workload(
        workload, 3, 0.0, False, tmp_path / "work", scale=harness.TINY
    )
    assert tracer is None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_run_reports_every_layer_and_restores_aeloc(workload, tmp_path):
    before = _aeloc_functions()
    result, tracer = harness.run_workload(
        workload, 3, 0.0, True, tmp_path / "work", scale=harness.TINY
    )
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert tracer.spans
    after = _aeloc_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_wraps_aliases_imported_by_name():
    tracer = harness.Tracer()
    tracer.install(aeloc)
    try:
        assert aeloc.calibration.apply_filter is aeloc.signals.apply_filter
        assert aeloc.pipeline.pair_delay is aeloc.signals.pair_delay
        assert aeloc.cli.read_waveform_pair is aeloc.signals.read_waveform_pair
        assert aeloc.simulator.write_waveform_pair is aeloc.signals.write_waveform_pair
        assert aeloc.grnn.fmt is aeloc.util.fmt
        assert aeloc.signals.apply_filter is not inspect.unwrap(aeloc.signals.apply_filter)
    finally:
        tracer.restore()
    assert aeloc.signals.apply_filter is inspect.unwrap(aeloc.signals.apply_filter)


def test_failed_check_reports_no_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "PLATEAU_HZ", (60_000.0, 70_000.0))
    with pytest.raises(harness.CheckFailed) as info:
        harness.run_workload("paper-chain", 3, 0.0, False, tmp_path / "work", harness.TINY)
    assert info.value.result["correct"] is False
    assert info.value.result["metrics"] == {}
