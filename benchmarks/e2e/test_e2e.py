"""Tests of the end-to-end benchmark itself.

Run with ``python -m pytest benchmarks/e2e`` from the repository root.
The command-line tests use ``--quick`` (one round per workload).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calib  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CPUS = sorted(os.sched_getaffinity(0))[:1]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Metrics on the simulated clock: a pure function of the seed.
SIM_METRICS = ("sim_us_per_request", "recovery_sim_p50_ms",
               "overhead_sim_pct")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def quick_runs():
    """Two quick runs of every workload with the same seed."""
    return {w: [run_cli("--workload", w, "--seed", "3", "--quick")
                for _ in range(2)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(quick_runs, workload):
    report, result = quick_runs[workload][0]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 7
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in report), (name, report)


def _simulated(report):
    return [line for line in report
            if line.split()[:1] and line.split()[0] in SIM_METRICS]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_metrics_repeat_for_one_seed(quick_runs, workload):
    (report_1, first), (report_2, second) = quick_runs[workload]
    assert first["metrics"]["sim_us_per_request"] \
        == second["metrics"]["sim_us_per_request"]
    assert _simulated(report_1) == _simulated(report_2)
    assert len(_simulated(report_1)) >= 2


def test_trace_prints_every_per_layer_metric():
    report, result = run_cli("--workload", "serve", "--seed", "1",
                             "--quick", "--trace", "1")
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["vm.run.self_ms"]["value"] > 0
    assert any(line.strip().startswith("layer") for line in report)


def test_different_seeds_give_different_inputs(tmp_path):
    import workloads
    bench = workloads.Bench(str(tmp_path), CPUS)

    def digest(seed, workload):
        h = hashlib.sha256()
        for spec in bench.round_specs(workload, seed, 0):
            h.update(repr(spec.tokens).encode())
        return h.hexdigest()

    for workload in WORKLOADS:
        assert digest(1, workload) == digest(1, workload)
        assert digest(1, workload) != digest(2, workload)


def _wrapped_targets():
    import trace
    out = {}
    for module, attribute, _, _ in trace.TARGETS:
        owner, attr = trace._resolve(module, attribute)
        out[(module, attribute)] = vars(owner)[attr]
    return out


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    import trace
    import workloads
    bench = workloads.Bench(str(tmp_path), CPUS)
    before = _wrapped_targets()
    tracer = trace.Tracer(str(tmp_path))
    tracer.install()
    try:
        assert _wrapped_targets() != before
        spec = next(s for s in bench.round_specs("recover_par", 1, 0)
                    if s.app == "bc")
        record = bench.run_session(spec, tracer)
    finally:
        tracer.uninstall()
    after = _wrapped_targets()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not record.error
    layers = tracer.layers()
    assert layers["vm.run"]["calls"] > 0
    assert layers["diagnosis"]["calls"] == 1
    if workloads.PAR_WORKERS > 1:
        assert layers["parallel.worker"]["calls"] > 0


def test_calib_imports_nothing_from_repro():
    code = ("import sys; import calib; calib.kernel_seconds(calib.pin(1)); "
            "print(sorted(m for m in sys.modules if m.startswith('repro')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                         stdout=subprocess.PIPE, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_calibration_guard_rejects_a_live_child():
    calib.check_quiet()
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(30)"])
    try:
        with pytest.raises(calib.CalibrationError, match="children"):
            calib.kernel_seconds(CPUS)
    finally:
        child.kill()
        child.wait(timeout=10)
    calib.check_quiet()
