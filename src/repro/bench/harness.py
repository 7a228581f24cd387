"""Shared experiment plumbing: session runners, workload spacing, and
the cached three-configuration overhead sweep."""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.base import App, Workload
from repro.apps.registry import get_app, real_bug_apps
from repro.baselines.restart import RestartRuntime, RestartSessionResult
from repro.baselines.rx import RxRuntime, RxSessionResult
from repro.checkpoint.manager import DEFAULT_INTERVAL, CheckpointManager
from repro.core.fleet import fleet_identity
from repro.core.runtime import FirstAidConfig, FirstAidRuntime, SessionResult
from repro.heap.extension import ExtensionMode
from repro.obs.telemetry import Telemetry
from repro.process import Process
from repro.vm.program import Program
from repro.workloads import ALLOC_INTENSIVE, SPEC_INT2000, build_kernel

#: Failure-window length used to space triggers so each one is a
#: separate failure (3 checkpoint intervals, as in diagnosis).
WINDOW_INSTRS = 3 * DEFAULT_INTERVAL


def host_info() -> Dict[str, object]:
    """The host a bench record was measured on: the CPU cores this
    process may run on and the Python version."""
    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def spaced_workload(app: App, triggers: int = 2,
                    seed: int = 42) -> Workload:
    """A workload whose triggers are far enough apart that each one
    fires outside the previous failure region."""
    spacing = max(40, int(WINDOW_INSTRS * 1.4 / app.REQUEST_COST_HINT))
    return app.workload(normal_before=40, triggers=triggers,
                        normal_between=spacing, normal_after=40,
                        seed=seed)


def run_first_aid(app: App, workload: Optional[Workload] = None,
                  triggers: int = 2,
                  config: Optional[FirstAidConfig] = None
                  ) -> Tuple[FirstAidRuntime, SessionResult, Workload]:
    wl = workload or spaced_workload(app, triggers)
    runtime = FirstAidRuntime(app.program(), input_tokens=wl.tokens,
                              config=config or FirstAidConfig())
    session = runtime.run()
    return runtime, session, wl


def run_rx(app: App, workload: Optional[Workload] = None,
           triggers: int = 2) -> Tuple[RxRuntime, RxSessionResult,
                                       Workload]:
    wl = workload or spaced_workload(app, triggers)
    runtime = RxRuntime(app.program(), input_tokens=wl.tokens)
    session = runtime.run()
    return runtime, session, wl


def run_restart(app: App, workload: Optional[Workload] = None,
                triggers: int = 2) -> Tuple[RestartRuntime,
                                            RestartSessionResult,
                                            Workload]:
    wl = workload or spaced_workload(app, triggers)
    runtime = RestartRuntime(app.program(), wl)
    session = runtime.run()
    return runtime, session, wl


# ---------------------------------------------------------------------
# overhead sweep (Figure 6, Tables 6-7)
# ---------------------------------------------------------------------

@dataclass
class Subject:
    """One program in the overhead experiments."""

    name: str
    group: str       # "app" | "spec" | "alloc"
    program: Program
    tokens: List[int]


@dataclass
class OverheadRun:
    """Measurements of one (subject, configuration) run."""

    time_s: float
    instrs: int
    peak_heap_bytes: int
    peak_metadata_bytes: int
    bytes_per_checkpoint: float = 0.0
    bytes_per_second: float = 0.0
    checkpoints: int = 0
    keyframes: int = 0
    #: Real bytes held by the live checkpoint history at run end
    #: (deduped page payloads), not the cow_pages * page_size estimate.
    retained_bytes: int = 0
    #: Selected telemetry counters from the run's metrics registry
    #: (instructions, heap ops, checkpoint work); see overhead_run.
    metrics: Dict[str, float] = field(default_factory=dict)


_SUBJECTS: Optional[List[Subject]] = None
_RUN_CACHE: Dict[Tuple[str, str], OverheadRun] = {}


def overhead_subjects() -> List[Subject]:
    """The paper's Figure 6 population: the seven real-bug apps, the
    SPEC INT2000 kernels, and the four allocation-intensive kernels."""
    global _SUBJECTS
    if _SUBJECTS is None:
        subjects: List[Subject] = []
        for app in real_bug_apps():
            requests = max(120, 220_000 // app.REQUEST_COST_HINT)
            wl = app.normal_workload(requests=requests)
            subjects.append(Subject(app.name, "app", app.program(),
                                    wl.tokens))
        for profile in SPEC_INT2000 + ALLOC_INTENSIVE:
            subjects.append(Subject(profile.name, profile.group,
                                    build_kernel(profile), []))
        _SUBJECTS = subjects
    return _SUBJECTS


def overhead_run(subject: Subject, config: str) -> OverheadRun:
    """Run a subject under one configuration (cached):

    * ``"off"``  -- original allocator, no checkpointing;
    * ``"ext"``  -- allocator extension in normal mode (empty pool);
    * ``"full"`` -- extension + periodic checkpointing.
    """
    key = (subject.name, config)
    if key in _RUN_CACHE:
        return _RUN_CACHE[key]
    mode = ExtensionMode.OFF if config == "off" else ExtensionMode.NORMAL
    process = Process(subject.program, input_tokens=subject.tokens,
                      mode=mode)
    telemetry = Telemetry()
    process.attach_telemetry(telemetry)
    run = OverheadRun(0.0, 0, 0, 0)
    if config == "full":
        manager = CheckpointManager(process, telemetry=telemetry)
        manager.run()
        stats = manager.stats
        run.bytes_per_checkpoint = stats.bytes_per_checkpoint
        run.bytes_per_second = stats.bytes_per_second(
            process.costs.instr_ns)
        run.checkpoints = stats.checkpoints_taken
        run.keyframes = stats.keyframes_taken
        run.retained_bytes = manager.retained_bytes()
    else:
        process.run()
    run.time_s = process.clock.now_s
    run.instrs = process.instr_count
    run.peak_heap_bytes = process.allocator.peak_heap_bytes
    run.peak_metadata_bytes = process.extension.peak_metadata_bytes
    snap = telemetry.metrics.snapshot()
    run.metrics = {
        name: value
        for group in ("counters", "gauges")
        for name, value in snap[group].items()
        if name.startswith(("vm.", "heap.", "checkpoint."))
    }
    _RUN_CACHE[key] = run
    return run


def clear_overhead_cache() -> None:
    """Testing hook."""
    _RUN_CACHE.clear()
    global _SUBJECTS
    _SUBJECTS = None


# ---------------------------------------------------------------------
# experiment sessions: one runner, one digest, one fork map
# ---------------------------------------------------------------------

@dataclass
class SessionDigest:
    """Everything observable about one First-Aid session, split into
    behavior (must be byte-identical across execution backends) and
    timing (legitimately differs: parallel batches charge
    max-over-workers, serial charges the sum).

    ``equivalence_key()`` is the behavior half; the parallel benchmark
    asserts it matches between ``workers=1`` and ``workers=N``.  The
    fleet experiments read the fleet-member view, outside both keys.
    """

    app: str
    workers: int
    reason: str
    recoveries: int
    succeeded: Tuple[bool, ...]
    verdicts: Tuple[str, ...]
    bug_types: Tuple[Tuple[str, ...], ...]
    rollbacks: Tuple[int, ...]
    patch_points: Tuple[Tuple[str, ...], ...]
    validation_consistent: Tuple[Optional[bool], ...]
    validation_reasons: Tuple[Tuple[str, ...], ...]
    #: full bug reports rendered with every timestamp masked
    reports: Tuple[Optional[str], ...]
    #: degradation-ladder rung that resolved each failure (all 1s on
    #: the no-escalation path, and always with supervisor=False)
    rungs: Tuple[int, ...] = ()
    # -- timing (excluded from the equivalence key) --
    recovery_time_ns: Tuple[int, ...] = ()
    validation_time_ns: Tuple[int, ...] = ()
    recovery_wall_s: Tuple[float, ...] = ()
    validation_wall_s: Tuple[float, ...] = ()
    clock_ns: int = 0
    wall_s: float = 0.0
    worker_failures: int = 0
    # -- search policy (repro.search).  Probe counts are excluded from
    #    both keys: the point of the bandit policy's skip is doing less
    #    work for the same diagnosis. --
    search_policy: str = "fixed"
    checkpoints: Tuple[Optional[int], ...] = ()
    evidence: Tuple[Tuple[str, ...], ...] = ()
    probes_executed: Tuple[int, ...] = ()
    probes_consumed: Tuple[int, ...] = ()
    probes_pruned: Tuple[int, ...] = ()
    # -- fleet-member view (excluded from both keys) --
    label: str = ""
    pid: int = 0
    canary: bool = True
    #: patch key -> (trigger_count, validated) over the session's pool
    #: at exit; trigger counts include what the store merged in.
    pool: Dict[str, Tuple[int, bool]] = field(default_factory=dict)
    #: patch key -> preventions this process's own policy counted.
    local_triggers: Dict[str, int] = field(default_factory=dict)
    #: Simulated time of the first failure event (a crash, or a guard
    #: hit under sampling); 0 without one.
    first_failure_ns: int = 0
    #: First sampled-guard hit; 0 when sampling is off or never hit.
    first_detection_ns: int = 0
    #: Guard hits that ended in a validated patch before any crash.
    sampled_prevented: int = 0
    #: Recoveries from a crash-family failure (any monitor other than
    #: ``sampled-detection``).
    crashes: int = 0

    def equivalence_key(self) -> Tuple:
        return (self.app, self.reason, self.recoveries, self.succeeded,
                self.verdicts, self.bug_types, self.rollbacks,
                self.patch_points, self.validation_consistent,
                self.validation_reasons, self.reports, self.rungs)

    def diagnosis_key(self) -> Tuple:
        """The diagnosis content that must be byte-identical across
        *search policies* (fixed/bandit): verdicts, bug types,
        chosen checkpoints, full evidence (sites and details), patch
        points, validation outcomes.  Excludes rollback/probe counts
        and the report text (which narrates the probes themselves)."""
        return (self.app, self.reason, self.recoveries, self.succeeded,
                self.verdicts, self.bug_types, self.checkpoints,
                self.evidence, self.patch_points,
                self.validation_consistent, self.validation_reasons,
                self.rungs)

    @property
    def survived(self) -> bool:
        return all(self.succeeded) and self.reason != "died"

    @property
    def patches(self) -> int:
        return len(self.pool)

    @property
    def validated_patches(self) -> int:
        return sum(1 for _, validated in self.pool.values() if validated)

    @property
    def patched_triggers(self) -> int:
        """How often the pool's preventive changes fired at their
        call-sites, summed over the pool."""
        return sum(count for count, _ in self.pool.values())


def run_app_session(app_name: str, triggers: int = 2, seed: int = 42,
                    workload: Optional[Workload] = None,
                    **config) -> SessionDigest:
    """Run one app under ``FirstAidConfig(**config)`` and digest the
    session.  The workload is :func:`spaced_workload` unless
    ``workload`` overrides it.  Top-level (and addressed by app
    *name*) so the call ships to a forked process as plain keyword
    arguments (:func:`run_sessions`).

    Every config field takes :class:`FirstAidConfig`'s default, so the
    VM tier is the compiled one production runs unless the caller
    passes ``vm_tier="reference"``."""
    app = get_app(app_name)
    if workload is None:
        workload = spaced_workload(app, triggers, seed)
    cfg = FirstAidConfig(**config)
    started = time.perf_counter()
    runtime, session, _ = run_first_aid(app, workload, config=cfg)
    wall = time.perf_counter() - started
    recs = session.recoveries
    stats = runtime.process.extension.sampling_stats
    label, canary = fleet_identity(cfg, runtime.process.program.name)
    digest = SessionDigest(
        app=app_name,
        workers=cfg.workers,
        reason=session.reason,
        recoveries=len(recs),
        succeeded=tuple(r.succeeded for r in recs),
        verdicts=tuple(r.diagnosis.verdict.name if r.diagnosis else ""
                       for r in recs),
        bug_types=tuple(
            tuple(b.value for b in r.diagnosis.bug_types)
            if r.diagnosis else () for r in recs),
        rollbacks=tuple(r.diagnosis.rollbacks if r.diagnosis else 0
                        for r in recs),
        patch_points=tuple(
            tuple(p.describe() for p in r.diagnosis.patches)
            if r.diagnosis else () for r in recs),
        validation_consistent=tuple(
            r.validation.consistent if r.validation else None
            for r in recs),
        validation_reasons=tuple(
            tuple(r.validation.reasons) if r.validation else ()
            for r in recs),
        reports=tuple(
            r.report.render(redact_times=True) if r.report else None
            for r in recs),
        rungs=tuple(r.rung for r in recs),
        search_policy=cfg.search_policy,
        checkpoints=tuple(
            r.diagnosis.checkpoint.index
            if r.diagnosis and r.diagnosis.checkpoint else None
            for r in recs),
        evidence=tuple(_evidence_digest(r.diagnosis) for r in recs),
        probes_executed=tuple(_search_stat(r.diagnosis,
                                           "probes_executed")
                              for r in recs),
        probes_consumed=tuple(_search_stat(r.diagnosis,
                                           "probes_consumed")
                              for r in recs),
        probes_pruned=tuple(_search_stat(r.diagnosis, "probes_pruned")
                            for r in recs),
        recovery_time_ns=tuple(r.recovery_time_ns for r in recs),
        validation_time_ns=tuple(
            r.validation.time_ns if r.validation else 0 for r in recs),
        recovery_wall_s=tuple(r.wall_s for r in recs),
        validation_wall_s=tuple(
            r.validation.wall_s if r.validation else 0.0 for r in recs),
        clock_ns=runtime.process.clock.now_ns,
        wall_s=wall,
        worker_failures=(runtime.executor.worker_failures
                         if runtime.executor else 0),
        label=label,
        pid=os.getpid(),
        canary=canary,
        pool={p.key: (p.trigger_count, p.validated)
              for p in runtime.pool.patches()},
        local_triggers=dict(runtime.policy.local_triggers),
        first_failure_ns=min((r.failure.time_ns for r in recs),
                             default=0),
        first_detection_ns=stats.first_detection_ns if stats else 0,
        sampled_prevented=runtime.sampled_prevented,
        crashes=sum(1 for r in recs
                    if r.failure.monitor != "sampled-detection"),
    )
    runtime.close()
    return digest


def _evidence_digest(diagnosis) -> Tuple[str, ...]:
    """Byte-comparable rendering of one diagnosis' evidence, in bug
    identification order."""
    if diagnosis is None:
        return ()
    out = []
    for bug_type in diagnosis.bug_types:
        ev = diagnosis.evidence[bug_type]
        sites = ";".join(site.render() for site in ev.sites)
        out.append(f"{bug_type.value}|{sites}|{';'.join(ev.details)}")
    return tuple(out)


def _search_stat(diagnosis, key: str) -> int:
    if diagnosis is None or not diagnosis.search_info:
        return 0
    return diagnosis.search_info.get(key, 0)


def _run_spec(spec: dict) -> SessionDigest:
    return run_app_session(**spec)


def run_sessions(specs: List[dict],
                 parallel: bool) -> List[SessionDigest]:
    """One digested session per spec (:func:`run_app_session` keyword
    arguments), in spec order.  With ``parallel`` every spec runs at
    once in its own forked OS process; without, one after another in
    this process."""
    if parallel and specs:
        return _fork_map(_run_spec, specs, len(specs))
    return [_run_spec(spec) for spec in specs]


def _fork_map(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]`` across ``workers`` forked
    processes.  ``fn`` must be module-level: it ships by name."""
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor
    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else None)
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(fn, items))


def _overhead_task(key: Tuple[str, str]) -> Tuple[Tuple[str, str],
                                                  OverheadRun]:
    name, config = key
    subject = next(s for s in overhead_subjects() if s.name == name)
    return key, overhead_run(subject, config)


def overhead_sweep(configs: Tuple[str, ...] = ("off", "ext", "full"),
                   workers: int = 1) -> Dict[Tuple[str, str],
                                             OverheadRun]:
    """Run (and cache) every (subject, configuration) overhead cell.
    With ``workers > 1`` the independent cells fan out across worker
    processes; results merge into the cache in deterministic key order
    either way, so downstream tables are identical."""
    keys = [(s.name, c) for s in overhead_subjects() for c in configs]
    missing = [k for k in keys if k not in _RUN_CACHE]
    if workers > 1 and missing:
        for key, run in _fork_map(_overhead_task, missing, workers):
            _RUN_CACHE[key] = run
    else:
        for key in missing:
            _overhead_task(key)
    return {k: _RUN_CACHE[k] for k in keys}


# ---------------------------------------------------------------------
# throughput binning (Figure 4)
# ---------------------------------------------------------------------

def throughput_series(entries: List[Tuple[int, int]],
                      bin_seconds: float = 1.0,
                      total_seconds: Optional[float] = None
                      ) -> List[float]:
    """Bin (time_ns, bytes) output entries into MB/s per bin."""
    if not entries and total_seconds is None:
        return []
    end_s = total_seconds if total_seconds is not None else \
        entries[-1][0] / 1e9 + bin_seconds
    n_bins = max(1, int(end_s / bin_seconds) + 1)
    bins = [0.0] * n_bins
    for t_ns, value in entries:
        idx = int(t_ns / 1e9 / bin_seconds)
        if 0 <= idx < n_bins:
            bins[idx] += value
    return [b / (bin_seconds * 1e6) for b in bins]
