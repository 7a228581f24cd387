"""End-to-end benchmark of the First-Aid reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 1            # all workloads
    python3 benchmarks/e2e/run.py --workload serve --seed 1 --seconds 25
    python3 benchmarks/e2e/run.py --seed 1 --trace 1  # per-layer trace
    python3 benchmarks/e2e/run.py --seed 1 --quick    # one round each
    python3 benchmarks/e2e/run.py --seed 1 --out A.jsonl
    python3 benchmarks/e2e/run.py --compare A.jsonl B.jsonl

Without ``--workload`` every workload runs in its own fresh
interpreter, one at a time, and the recovery diagnoses of ``recover``
and ``recover_par`` are compared session by session.  A single-workload
run prints its report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics listed in BENCHMARK.json, or its per-layer metrics with
``--trace 1``.  It exits 1 when a correctness check failed and 3 when
the host was not quiet enough to calibrate (no JSON then).

See README.md in this directory for the workloads, the metrics and the
calibrated clock.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
#: Fresh-interpreter set-ups whose median is ``setup_s``.
SETUP_PROBES = 5

#: Numbers reported next to the gated ones, with their units.
REPORTED_UNITS = {
    "session_p90_ms": "ms", "recovery_p50_ms": "ms", "recovery_p90_ms": "ms",
    "recovery_sim_p50_ms": "ms", "overhead_sim_pct": "%",
    "fail_rate": "ratio", "failures": "count", "sessions": "count",
    "rounds": "count",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def bootstrap() -> None:
    """Put the checkout's ``src`` first on the import path, or stop:
    the benchmark measures the sources it sits next to, never an
    installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro sources at {SRC}")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------

def setup_probe(seed: int) -> None:
    """One set-up in this fresh interpreter: import repro, compile the
    seven programs, run one warm-up session per app.  Input generation
    is not timed."""
    cpus = calib.pin(1)
    calib.kernel_seconds(cpus)
    before = calib.kernel_seconds(cpus)
    start = time.perf_counter()
    bootstrap()
    import workloads
    bench = workloads.Bench(str(OUT), cpus)
    paused = time.perf_counter()
    specs = bench.warmup_specs(seed)
    resumed = time.perf_counter()
    bench.warm_up(specs)
    raw = time.perf_counter() - start - (resumed - paused)
    factor = calib.factor(before, calib.kernel_seconds(cpus))
    print(json.dumps({"raw_s": raw, "factor": factor}))


def measure_setup(seed: int, probes: int) -> list:
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--seed",
             str(seed)], stdout=subprocess.PIPE, text=True, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------

def _emit(names: list, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in names}


def run_workload(args, spec: dict) -> int:
    bootstrap()
    import workloads
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT)
    cpus = calib.pin(workloads.PROCESSES[args.workload])
    try:
        setup = measure_setup(args.seed, 1 if args.quick else SETUP_PROBES)
        started = time.perf_counter()
        bench = workloads.Bench(workdir, cpus)
        bench.warm_up(bench.warmup_specs(args.seed))
        warm_s = time.perf_counter() - started
        seconds = args.seconds / 2 if args.trace else args.seconds
        phase = bench.run_phase(args.workload, args.seed, seconds,
                                args.quick)
        phases = [phase]
        tracer = None
        if args.trace:
            # The traced phase repeats the untraced one's inputs; the
            # difference in throughput is the tracing overhead.
            import trace
            tracer = trace.Tracer(workdir)
            tracer.install()
            try:
                phases.append(bench.run_phase(args.workload, args.seed,
                                              seconds, args.quick, tracer))
            finally:
                tracer.uninstall()
        values = workloads.end_to_end(phase)
        values.update(bench.post_checks(args.workload, args.seed, phase))
        for traced_phase in phases[1:]:
            bench.post_checks(args.workload, args.seed, traced_phase)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values["setup_s"] = statistics.median(
        s["raw_s"] * s["factor"] for s in setup)
    values["setup_s.raw"] = statistics.median(s["raw_s"] for s in setup)
    records = [r for each in phases for r in each.records]
    failed = [r for r in records if r.error]
    if tracer is not None:
        traced = workloads.end_to_end(phases[1])
        overhead = (values["requests_per_s"]
                    / traced["requests_per_s"] - 1) * 100
        layer_values = tracer.metrics(overhead)
        tracer.dump(str(OUT / f"trace-{args.workload}.json"),
                    {"workload": args.workload, "seed": args.seed})
        metrics = _emit(spec["per_layer"], layer_values)
    else:
        metrics = _emit(spec["end_to_end"], values)

    print(f"== {args.workload}  seed {args.seed}  "
          f"{values['rounds']} rounds, {values['sessions']} sessions, "
          f"set-up {warm_s:.2f} s raw")
    for m in spec["end_to_end"]:
        raw = values.get(m["name"] + ".raw")
        print(f"  {m['name']:<22}{values[m['name']]:>14.4f} {m['unit']:<6}"
              + (f"  raw {raw:.4f}" if raw is not None else ""))
    for name, unit in REPORTED_UNITS.items():
        if name in values:
            raw = values.get(name + ".raw")
            print(f"  {name:<22}{values[name]:>14.4f} {unit:<6}"
                  + (f"  raw {raw:.4f}" if raw is not None else ""))
    if tracer is not None:
        print("  per-layer self time, traced phase (calibrated):")
        for line in tracer.table():
            print("    " + line)
        print(f"  trace.overhead_pct {layer_values['trace.overhead_pct']:.2f}"
              f" %  trace.unattributed_share "
              f"{layer_values['trace.unattributed_share']:.4f}")
    for r in failed[:10]:
        print(f"  FAILED round {r.round} {r.app} {r.role}: {r.error}")

    result = {"correct": not failed, "attempted": len(records),
              "failed": len(failed), "metrics": metrics}
    side = OUT / (f"{args.workload}-seed{args.seed}"
                  + ("-trace" if args.trace else "") + ".json")
    with open(side, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "quick": args.quick,
                   "values": values,
                   "phases": [[r.to_json() for r in each.records]
                              for each in phases],
                   "host": {"nproc": os.cpu_count(), "cpus": cpus,
                            "python": platform.python_version(),
                            "c_ref_s": calib.C_REF_S}}, handle)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({"workload": args.workload,
                                     "seed": args.seed,
                                     "trace": args.trace,
                                     "quick": args.quick,
                                     "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if not failed else 1


# ---------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------

def run_all(args, spec: dict) -> int:
    status = 0
    for workload in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        if args.out:
            cmd += ["--out", args.out]
        code = subprocess.run(cmd).returncode
        if code != 0:
            print(f"!! {workload['name']} exited with {code}")
            status = 1
    if status == 0:
        status = cross_check(args)
    print("all workloads correct" if status == 0
          else "FAILED: see the messages above")
    return status


def cross_check(args) -> int:
    """recover and recover_par must reach identical diagnoses on every
    session both ran."""
    suffix = "-trace" if args.trace else ""
    keys = {}
    for workload in ("recover", "recover_par"):
        with open(OUT / f"{workload}-seed{args.seed}{suffix}.json") as fh:
            phases = json.load(fh)["phases"]
        keys[workload] = {(index, s["round"], s["app"]): s["key"]
                          for index, sessions in enumerate(phases)
                          for s in sessions}
    common = keys["recover"].keys() & keys["recover_par"].keys()
    differ = sorted(k for k in common
                    if keys["recover"][k] != keys["recover_par"][k])
    print(f"diagnosis keys: {len(common)} sessions compared between "
          f"recover and recover_par, {len(differ)} differ")
    return 1 if differ or not common else 0


# ---------------------------------------------------------------------
# comparing two sets of runs
# ---------------------------------------------------------------------

def _load_set(path: str) -> dict:
    runs = {}
    with open(path) as handle:
        for line in handle:
            run = json.loads(line)
            if run["trace"]:
                continue
            for name, metric in run["result"]["metrics"].items():
                runs.setdefault(run["workload"], {}).setdefault(
                    name, []).append(metric["value"])
    return runs


def _summary(values: list) -> tuple:
    """Median, quartiles, and the quartile and max-min spreads as
    shares of the median."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return (median, q1, q3, (q3 - q1) / median,
            (max(values) - min(values)) / median)


def verdict(a: list, b: list, better: str, bound: float) -> str:
    """better / worse / within bound, or unresolved when either side's
    quartile spread exceeds the bound (unless every run of B beats every
    run of A)."""
    med_a, _, _, spread_a, _ = _summary(a)
    med_b, _, _, spread_b, _ = _summary(b)
    worse_by = (med_b - med_a) / med_a * (1 if better == "lower" else -1)
    all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if max(spread_a, spread_b) > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound or all_better:
        return "better"
    return "within bound"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a, b = _load_set(path_a), _load_set(path_b)
    side = f"{'median':>10}{'q1..q3':>21}{'iqr':>7}{'max-min':>8}"
    print(f"{'':<32}{'A':<46}B")
    print(f"{'workload':<12}{'metric':<20}{side}{side}{'bound':>7}  verdict")
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            va = a.get(name, {}).get(metric["name"])
            vb = b.get(name, {}).get(metric["name"])
            if not va or not vb:
                continue
            result = verdict(va, vb, metric["better"], metric["bound"])
            if result in ("worse", "unresolved"):
                status = 1
            row = f"{name:<12}{metric['name']:<20}"
            for values in (va, vb):
                med, q1, q3, iqr, full = _summary(values)
                row += (f"{med:>10.4g}{q1:>10.4g}..{q3:<9.4g}"
                        f"{iqr:>7.1%}{full:>8.1%}")
            print(f"{row}{metric['bound']:>7.0%}  {result}")
    return status


# ---------------------------------------------------------------------

def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round per workload, for tests")
    parser.add_argument("--out", help="append each result to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.out:
        args.out = os.path.abspath(args.out)
    if args.compare:
        return compare(*args.compare, spec)
    try:
        if args.setup_probe:
            setup_probe(args.seed)
            return 0
        if args.workload:
            return run_workload(args, spec)
    except calib.CalibrationError as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
