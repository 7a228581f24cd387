"""Shared experiment plumbing: session runners, workload spacing, and
the cached three-configuration overhead sweep."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.base import App, Workload
from repro.apps.registry import all_apps, real_bug_apps
from repro.baselines.restart import RestartRuntime, RestartSessionResult
from repro.baselines.rx import RxRuntime, RxSessionResult
from repro.checkpoint.manager import DEFAULT_INTERVAL, CheckpointManager
from repro.core.runtime import FirstAidConfig, FirstAidRuntime, SessionResult
from repro.heap.extension import ExtensionMode
from repro.obs.telemetry import Telemetry
from repro.process import Process
from repro.vm.program import Program
from repro.workloads import ALLOC_INTENSIVE, SPEC_INT2000, build_kernel

#: Failure-window length used to space triggers so each one is a
#: separate failure (3 checkpoint intervals, as in diagnosis).
WINDOW_INSTRS = 3 * DEFAULT_INTERVAL


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
# backend-equivalence session digests (parallel recovery engine)
# ---------------------------------------------------------------------

@dataclass
class SessionDigest:
    """Everything observable about one First-Aid session, split into
    behavior (must be byte-identical across execution backends) and
    timing (legitimately differs: parallel batches charge
    max-over-workers, serial charges the sum).

    ``equivalence_key()`` is the behavior half; the parallel benchmark
    asserts it matches between ``workers=1`` and ``workers=N``.
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
    #    both keys: the whole point of bandit search is doing less work
    #    for the same diagnosis. --
    search_policy: str = "fixed"
    checkpoints: Tuple[Optional[int], ...] = ()
    evidence: Tuple[Tuple[str, ...], ...] = ()
    probes_executed: Tuple[int, ...] = ()
    probes_consumed: Tuple[int, ...] = ()
    probes_pruned: Tuple[int, ...] = ()

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


def run_app_session(app_name: str, triggers: int = 2,
                    workers: int = 1,
                    telemetry: bool = False,
                    supervisor: bool = True,
                    vm_tier: str = "reference",
                    search_policy: str = "fixed",
                    rollout: bool = False,
                    store_path: Optional[str] = None,
                    sampling_rate: int = 0) -> SessionDigest:
    """Run one app under First-Aid and digest the session.  Top-level
    (and addressed by app *name*) so the call itself can ship to a
    worker process when benchmark sessions fan out.

    ``rollout`` (with a ``store_path``) turns on staged rollout for
    the session; the rollout bench gates that the digest's
    equivalence/diagnosis keys match the rollout-off run exactly --
    staged distribution must never change what a session diagnoses.

    ``sampling_rate`` arms GWP-ASan-style sampled guards (DESIGN.md
    §15); the sampling bench gates that ``sampling_rate=0`` digests
    stay byte-identical to this function's defaults."""
    import time as _time

    app = {a.name: a for a in all_apps()}[app_name]
    wl = spaced_workload(app, triggers)
    config = FirstAidConfig(workers=workers, telemetry=telemetry,
                            supervisor=supervisor, vm_tier=vm_tier,
                            search_policy=search_policy,
                            rollout=rollout, store_path=store_path,
                            sampling_rate=sampling_rate)
    started = _time.perf_counter()
    runtime, session, _ = run_first_aid(app, wl, config=config)
    wall = _time.perf_counter() - started
    recs = session.recoveries
    digest = SessionDigest(
        app=app_name,
        workers=workers,
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
        search_policy=search_policy,
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


def _session_task(spec: Tuple[str, int, int]) -> SessionDigest:
    name, triggers, workers = spec
    return run_app_session(name, triggers=triggers, workers=workers)


def fan_out_sessions(app_names: List[str], triggers: int = 2,
                     workers: int = 1,
                     fan_workers: int = 1) -> List[SessionDigest]:
    """Digest one session per app.  With ``fan_workers > 1`` whole
    sessions run in worker processes concurrently; results always merge
    in app order, so the output is backend-independent."""
    specs = [(name, triggers, workers) for name in app_names]
    if fan_workers <= 1:
        return [_session_task(spec) for spec in specs]
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor
    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else None)
    with ProcessPoolExecutor(max_workers=fan_workers,
                             mp_context=ctx) as pool:
        return list(pool.map(_session_task, specs))


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
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else None)
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=ctx) as pool:
            for key, run in pool.map(_overhead_task, missing):
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
