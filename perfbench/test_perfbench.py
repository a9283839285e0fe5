"""The benchmark's own tests: every workload at tiny size.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()


def _measure(workload, trace=False, seed=3):
    return run.measure(workload, seed, 0.0, trace, workloads.TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    res = _measure(workload, trace)
    line = run.result_line(res, SPEC)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in listed] == list(line["metrics"])
    for m in listed:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    assert line["attempted"] >= 1
    assert line["correct"] is True
    if not trace:
        # end-to-end metrics are never 0 (bounds are shares of a median)
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_known_defect_is_reported_not_excluded():
    res = _measure("paper-kernels", trace=True)
    assert res["correct"] is True
    assert res["failed"] == res["known_defect_failures"] > 0
    assert res["metrics"]["kernel.scanul1.int8.mismatches"] > 0
    assert res["metrics"]["kernel.batched_scanul1.int8.mismatches"] > 0
    assert res["metrics"]["error_ratio"] > 0


def test_perturbed_arrival_stream_trips_the_input_digest(monkeypatch):
    from repro.serve import traffic

    original = traffic.generate_arrivals

    def shifted(spec, seed):
        arrivals = original(spec, seed)
        first = arrivals[0]
        arrivals[0] = traffic.Arrival(
            index=first.index, t_ns=first.t_ns + 1.0, n=first.n,
            deadline_ns=first.deadline_ns + 1.0,
        )
        return arrivals

    monkeypatch.setattr(traffic, "generate_arrivals", shifted)
    with pytest.raises(run.InputDigestError):
        _measure("open-steady")


def test_planted_wrong_serve_result_raises_error_ratio(monkeypatch):
    from repro.serve import service

    original = service.group_scan_values

    def corrupt(xs, **kwargs):
        values, host_s = original(xs, **kwargs)
        values[0] = values[0] + 1
        return values, host_s

    monkeypatch.setattr(service, "group_scan_values", corrupt)
    res = _measure("open-steady")
    assert res["correct"] is False
    assert res["failed"] > 0
    assert res["metrics"]["oracle_ok_ratio"] < 1.0


def test_planted_wrong_kernel_result_raises_error_ratio(monkeypatch):
    from repro.core.api import ScanContext

    original = ScanContext.scan

    def corrupt(self, x, **kwargs):
        res = original(self, x, **kwargs)
        if kwargs.get("algorithm") == "mcscan":
            res.values[-1] += 1
        return res

    monkeypatch.setattr(ScanContext, "scan", corrupt)
    res = _measure("paper-kernels")
    assert res["correct"] is False
    assert res["failed"] > res["known_defect_failures"]
    assert res["metrics"]["oracle_ok_ratio"] < 1.0 - 2 / len(workloads.KERNEL_NAMES) + 1e-9


def test_same_seed_same_inputs_and_simulated_outputs():
    a = _measure("closed-mix", seed=5)
    b = _measure("closed-mix", seed=5)
    c = _measure("closed-mix", seed=6)
    assert a["inputs_digest"] == b["inputs_digest"] != c["inputs_digest"]
    assert a["sim_digest"] == b["sim_digest"] != c["sim_digest"]


def test_host_metrics_are_the_median_over_sessions():
    rounds = [
        workloads.Round(ops=1, host_s=t, call_s=[t], sim_span_ns=1.0, device_ns=1.0)
        for t in (1.0, 1.0, 3.0, 3.0, 2.0, 2.0)
    ]
    m = run.e2e_metrics(rounds, [1.0], 6, [(0, 2, 1.0), (2, 4, 1.0), (4, 6, 1.0)])
    assert m["host_flush_ms_p95"] == m["host_flush_ms_p50"] == 2000.0
    assert m["host_ops_per_s"] == 0.5
    # each session's times are given at the host speed of that session
    m = run.e2e_metrics(rounds, [1.0], 6, [(0, 2, 1.0), (2, 4, 3.0), (4, 6, 2.0)])
    assert m["host_flush_ms_p50"] == 1000.0 and m["host_ops_per_s"] == 1.0

    scale = dataclasses.replace(workloads.TINY, closed_host_rounds=4, max_setup_repeats=2)
    res = run.measure("closed-mix", 3, 0.0, False, scale)
    assert len(res["setups_s"]) == 2
    assert res["sessions"] == [(0, 2), (2, 4)]
    assert res["correct"] is True and res["rounds"] == 4


def test_stratified_sizes_repeat_the_same_work_per_block():
    lo, hi = 128 * 1024, 384 * 1024
    for seed in (0, 1):
        sizes = [workloads._stratified(seed, r, 2, lo, hi, 1024) for r in range(8)]
        strata = sorted((n - lo) * workloads.STRATA // (hi - lo) for n in sizes)
        assert strata == list(range(workloads.STRATA))


def test_tracer_rebinds_functions_imported_by_name():
    from repro.serve import numerics, service
    from tracer import Tracer

    original = service.group_scan_values
    tracer = Tracer().install()
    try:
        assert service.group_scan_values is not original
        assert numerics.group_scan_values is service.group_scan_values
        service.group_scan_values(
            [np.ones(4, dtype=np.float16)],
            algorithm="scanu",
            in_dtype=workloads.ScanContext(workloads.CONFIG)._as_plan_dtype("fp16"),
        )
    finally:
        tracer.uninstall()
    assert service.group_scan_values is original
    calls, total, self_s = tracer.stat("serve:group_scan_values", "setup")
    assert calls == 1 and total >= self_s > 0


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "open-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
