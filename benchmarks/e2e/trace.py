"""Outside-in layer trace for the end-to-end benchmark.

:class:`Tracer` wraps the public functions of each layer of ``repro``
from this file, so no code under ``src/repro`` changes.  While a
session is being timed, each wrapped call records a span: name, parent
span, start and duration.  A span's self time is its duration minus
the time its child spans cover.  Hot leaf calls (``malloc``, ``free``,
block compilation) call no other wrapped function; they are summed per
parent span name instead of stored one by one.

Forked recovery workers inherit the wrappers.  On the worker side,
:func:`repro.parallel.tasks.run_task` appends its duration to a file
per worker pid under the run's scratch directory, and the files are
merged when the run ends.  Spans stay in memory until then.

Per-layer values are reported per traced session, with host times
calibrated by the session's own factor (see :mod:`calib`).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from importlib import import_module
from typing import Dict, List

perf_ns = time.perf_counter_ns

SPAN, LEAF, WORKER = "span", "leaf", "worker"

#: (module, attribute, span name, kind), one per wrapped function.  The
#: ``encode_state`` and ``run_task`` entries patch the name in the
#: module that calls it, because those modules bound it at import.
TARGETS = (
    ("repro.core.runtime", "FirstAidRuntime.__init__", "runtime.init",
     SPAN),
    ("repro.core.runtime", "FirstAidRuntime.run", "runtime.run", SPAN),
    ("repro.core.runtime", "FirstAidRuntime.close", "runtime.close", SPAN),
    ("repro.vm.machine", "Machine.run", "vm.run", SPAN),
    ("repro.vm.compile", "CompiledFunction.compile_block", "vm.compile",
     LEAF),
    ("repro.heap.extension", "AllocatorExtension.malloc", "heap.malloc",
     LEAF),
    ("repro.heap.extension", "AllocatorExtension.free", "heap.free", LEAF),
    ("repro.heap.extension", "AllocatorExtension.check_sampled_guards",
     "sampling.sweep", SPAN),
    ("repro.checkpoint.manager", "CheckpointManager.take_checkpoint",
     "checkpoint.capture", SPAN),
    ("repro.checkpoint.manager", "CheckpointManager.rollback_to",
     "checkpoint.restore", SPAN),
    ("repro.core.diagnosis", "DiagnosticEngine.diagnose", "diagnosis",
     SPAN),
    ("repro.core.diagnosis", "DiagnosticEngine.diagnose_sampled",
     "diagnosis", SPAN),
    ("repro.core.validation", "ValidationEngine.validate", "validation",
     SPAN),
    ("repro.supervisor.ladder", "RecoverySupervisor.handle", "supervisor",
     SPAN),
    ("repro.search.state", "analyze_program", "search.analyze", SPAN),
    ("repro.parallel.executor", "ForkExecutor.submit", "parallel.submit",
     SPAN),
    ("repro.parallel.executor", "_ForkBatch.result", "parallel.wait",
     SPAN),
    ("repro.parallel.executor", "ForkExecutor.close", "parallel.close",
     SPAN),
    ("repro.core.diagnosis", "encode_state", "parallel.encode", SPAN),
    ("repro.core.validation", "encode_state", "parallel.encode", SPAN),
    ("repro.parallel.executor", "run_task", "parallel.worker", WORKER),
    ("repro.store.store", "SharedPatchStore.publish", "store.publish",
     SPAN),
    ("repro.store.store", "SharedPatchStore.sync_into", "store.sync",
     SPAN),
    ("repro.store.base", "SharedStateChannel.load", "store.load", SPAN),
    ("repro.obs.health", "HealthChannel.publish", "health.publish", SPAN),
)

#: Worker tasks executed in the parent: serial validation batches and
#: tasks rescued from a dead or hung worker.
IN_PROCESS = "parallel.task"


def _capture_bytes(counts, result):
    counts["checkpoint.capture.bytes"] += result.space_bytes


def _diagnosis_probes(counts, result):
    info = result.search_info or {}
    counts["diagnosis.probes_executed"] += info.get("probes_executed", 0)
    counts["diagnosis.probes_consumed"] += info.get("probes_consumed", 0)


def _escalations(counts, result):
    if result.rung > 1:
        counts["supervisor.escalations"] += 1


def _encode_bytes(counts, result):
    # encode_state's payload: (machine, (heap bytes, dirty pages), ...)
    counts["parallel.encode.bytes"] += len(result[1][0])


#: Counters read off a wrapped call's return value.
HOOKS = {
    "checkpoint.capture": _capture_bytes,
    "diagnosis": _diagnosis_probes,
    "supervisor": _escalations,
    "parallel.encode": _encode_bytes,
}


def _resolve(module: str, attribute: str):
    owner = import_module(module)
    *outer, attr = attribute.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def layer_names() -> List[str]:
    names = []
    for _, _, name, kind in TARGETS:
        if name not in names:
            names.append(name)
    return names + [IN_PROCESS]


class Tracer:
    """Span recorder; :meth:`install` and :meth:`uninstall` bracket the
    traced phase, :meth:`begin`/:meth:`pause`/:meth:`end` each timed
    session."""

    def __init__(self, workdir: str):
        self.pid = os.getpid()
        self.worker_dir = os.path.join(workdir, "trace-workers")
        self.recording = False
        self.session = -1
        #: (raw_ns, factor) per traced session
        self.sessions: List[tuple] = []
        #: (id, parent id or 0, name, session, start_ns, dur_ns, self_ns)
        self.spans: List[tuple] = []
        #: (leaf name, parent span name, session) -> [calls, ns]
        self.leaves: Dict[tuple, list] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        #: (pid, start_ns, dur_ns) per worker-side task, merged from the
        #: per-pid files by :meth:`uninstall`
        self.worker_tasks: List[tuple] = []
        self._stack: List[list] = []
        self._next_id = 0
        self._saved: List[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn):
        tracer, stack, spans = self, self._stack, self.spans
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            frame = [name, 0, tracer._next_id]
            parent = stack[-1][2] if stack else 0
            stack.append(frame)
            start = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[2], parent, name, tracer.session,
                              start, dur, dur - frame[1]))
            if hook is not None:
                hook(tracer.counts, result)
            return result
        return wrapper

    def _leaf(self, name, fn):
        tracer, stack, leaves = self, self._stack, self.leaves

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            start = perf_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_ns() - start
                if stack:
                    top = stack[-1]
                    top[1] += dur
                    key = (name, top[0], tracer.session)
                else:
                    key = (name, "", tracer.session)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [1, dur]
                else:
                    agg[0] += 1
                    agg[1] += dur
        return wrapper

    def _worker(self, name, fn):
        tracer = self
        in_process = self._span(IN_PROCESS, fn)

        def wrapper(program, task):
            if os.getpid() == tracer.pid:
                return in_process(program, task)
            # A forked worker: its inherited copy of the tracer records
            # nothing in memory; only the task's duration is kept.
            tracer.recording = False
            start = perf_ns()
            result = fn(program, task)
            dur = perf_ns() - start
            path = os.path.join(tracer.worker_dir, f"{os.getpid()}.log")
            with open(path, "a") as handle:
                handle.write(f"{start} {dur}\n")
            return result
        return wrapper

    # -- install --------------------------------------------------------

    def install(self) -> None:
        os.makedirs(self.worker_dir, exist_ok=True)
        wrap = {SPAN: self._span, LEAF: self._leaf, WORKER: self._worker}
        for module, attribute, name, kind in TARGETS:
            owner, attr = _resolve(module, attribute)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap[kind](name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for entry in sorted(os.listdir(self.worker_dir)):
            pid = int(entry.split(".")[0])
            with open(os.path.join(self.worker_dir, entry)) as handle:
                for line in handle:
                    start, dur = line.split()
                    self.worker_tasks.append((pid, int(start), int(dur)))

    # -- sessions -------------------------------------------------------

    def begin(self) -> None:
        self.session += 1
        self.recording = True

    def pause(self) -> None:
        self.recording = False
        self._stack.clear()

    def end(self, raw_s: float, factor: float, runtime) -> None:
        """Close the session with its calibration factor and read the
        counters the runtime's planes keep on themselves."""
        self.sessions.append((int(raw_s * 1e9), factor))
        if runtime is None:
            return
        counts = self.counts
        for channel in (runtime.store, runtime.health):
            if channel is not None:
                counts["store.commits"] += channel.commits
                counts["store.noop_mutations"] += channel.noop_mutations
        if runtime.executor is not None:
            counts["parallel.worker_failures"] += \
                runtime.executor.worker_failures
        stats = runtime.process.extension.sampling_stats
        if stats is not None:
            counts["sampling.guarded"] += stats.sampled_allocs

    # -- results --------------------------------------------------------

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls and calibrated self ms, summed over the
        traced sessions."""
        table = {name: {"calls": 0, "self_ms": 0.0}
                 for name in layer_names()}
        factors = [f for _, f in self.sessions]
        for _, _, name, session, _, _, self_ns in self.spans:
            row = table[name]
            row["calls"] += 1
            row["self_ms"] += self_ns * factors[session] / 1e6
        for (name, _, session), (calls, ns) in self.leaves.items():
            row = table[name]
            row["calls"] += calls
            row["self_ms"] += ns * factors[session] / 1e6
        # Worker time runs beside the parent, on other cores; it is
        # calibrated with the phase's mean factor.
        raw_total = sum(raw for raw, _ in self.sessions) or 1
        mean_factor = sum(raw * f for raw, f in self.sessions) / raw_total
        row = table["parallel.worker"]
        for _, _, dur in self.worker_tasks:
            row["calls"] += 1
            row["self_ms"] += dur * mean_factor / 1e6
        return table

    def unattributed_share(self) -> float:
        """Share of the timed session windows no top-level span covers."""
        windows = sum(raw for raw, _ in self.sessions)
        covered = sum(s[5] for s in self.spans if s[1] == 0)
        return (windows - covered) / windows

    def metrics(self, overhead_pct: float) -> Dict[str, float]:
        """Every per-layer number, per traced session."""
        n = len(self.sessions)
        out: Dict[str, float] = {}
        for name, row in self.layers().items():
            out[f"{name}.calls"] = row["calls"] / n
            out[f"{name}.self_ms"] = row["self_ms"] / n
        counts = self.counts
        for name in ("checkpoint.capture.bytes", "diagnosis.probes_executed",
                     "diagnosis.probes_consumed", "supervisor.escalations",
                     "parallel.encode.bytes", "parallel.worker_failures",
                     "store.commits", "sampling.guarded"):
            out[name] = counts[name] / n
        executed = counts["diagnosis.probes_executed"]
        out["diagnosis.probe_yield"] = (
            counts["diagnosis.probes_consumed"] / executed
            if executed else 0.0)
        writes = counts["store.commits"] + counts["store.noop_mutations"]
        out["store.noop_share"] = (counts["store.noop_mutations"] / writes
                                   if writes else 0.0)
        out["trace.overhead_pct"] = overhead_pct
        out["trace.unattributed_share"] = self.unattributed_share()
        return out

    def table(self) -> List[str]:
        """The per-layer table: self time, calls and share of the
        calibrated session time, busiest layer first."""
        layers = self.layers()
        wall_ms = sum(raw * f for raw, f in self.sessions) / 1e6
        n = len(self.sessions)
        lines = [f"{'layer':<22}{'self ms':>12}{'ms/session':>12}"
                 f"{'calls':>10}{'share':>8}"]
        for name, row in sorted(layers.items(),
                                key=lambda kv: -kv[1]["self_ms"]):
            lines.append(
                f"{name:<22}{row['self_ms']:>12.1f}"
                f"{row['self_ms'] / n:>12.3f}{row['calls']:>10}"
                f"{row['self_ms'] / wall_ms:>8.1%}")
        lines.append(f"{'unattributed':<22}"
                     f"{self.unattributed_share():>50.1%}")
        return lines

    def dump(self, path: str, meta: dict) -> None:
        """Write every span, leaf aggregate and worker task as JSON."""
        names = layer_names()
        index = {name: i for i, name in enumerate(names)}
        payload = dict(meta)
        payload.update({
            "names": names,
            "sessions": self.sessions,
            "span_fields": ["id", "parent", "name", "session", "start_ns",
                            "dur_ns", "self_ns"],
            "spans": [(i, p, index[name], s, start, dur, self_ns)
                      for i, p, name, s, start, dur, self_ns in self.spans],
            "leaf_fields": ["name", "parent", "session", "calls", "ns"],
            "leaves": [(name, parent, s, calls, ns)
                       for (name, parent, s), (calls, ns)
                       in self.leaves.items()],
            "worker_fields": ["pid", "start_ns", "dur_ns"],
            "workers": self.worker_tasks,
        })
        with open(path, "w") as handle:
            json.dump(payload, handle)
