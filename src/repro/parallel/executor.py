"""Execution backends for re-execution tasks.

Two backends run :class:`~repro.parallel.tasks.ReexecTask` batches:

* :class:`SerialExecutor` executes tasks in-process, lazily, on first
  request -- the A/B control.  A consumer that stops early (the serial
  decision order) never pays for tasks it did not ask for.
* :class:`ForkExecutor` fans tasks out across worker processes via a
  fork-context :class:`~concurrent.futures.ProcessPoolExecutor`.  All
  tasks in a batch dispatch speculatively up front; results are merged
  **in deterministic task order**, never completion order.

Order-independent merge is safe because every task is a deterministic
function of its own payload (DESIGN.md §8): the same checkpoint, the
same journal, and the same entropy salt produce bit-identical outcomes
whether executed first or last, here or in a worker.

Failure bounding: if a worker dies mid-batch (or the pool breaks), the
affected tasks transparently re-execute in-process via the very same
:func:`~repro.parallel.tasks.run_task` the workers run, the
``parallel.worker_failures`` counter records each rescued task, and the
broken pool is discarded so the next batch starts a fresh one.  A
diagnosis is never lost to a dead worker.

Simulated-time accounting lives in :func:`schedule_ns`: a batch on
``workers`` spare cores costs the busiest lane (max-over-workers), not
the sum -- the spare-core semantics the paper uses for validation
(Section 5) applied uniformly.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

from repro.parallel.tasks import ReexecTask, TaskOutcome, run_task
from repro.vm.program import Program


def schedule_ns(times: Sequence[int], workers: int) -> int:
    """Simulated duration of a task batch on ``workers`` spare cores.

    Tasks are assigned round-robin in task order; the busiest lane
    determines the batch duration.  One worker degenerates to the
    serial sum, so serial accounting is the ``workers=1`` special case
    of the same rule.
    """
    if workers <= 1:
        return sum(times)
    lanes = [0] * workers
    for i, t in enumerate(times):
        lanes[i % workers] += t
    return max(lanes)


# ---------------------------------------------------------------------
# worker-side plumbing
# ---------------------------------------------------------------------

_WORKER_PROGRAM: Optional[Program] = None
_IN_WORKER = False


def _init_worker(program: Program) -> None:
    global _WORKER_PROGRAM, _IN_WORKER
    _WORKER_PROGRAM = program
    _IN_WORKER = True


#: How long a chaos-hung worker actually sleeps.  Short enough that a
#: discarded pool's stragglers drain quickly at interpreter exit, long
#: enough to outlive any sane task timeout.
HANG_SLEEP_S = 3.0


def _worker_run(task: ReexecTask) -> TaskOutcome:
    if task.fail_marker and _IN_WORKER:
        # Fault-injection hook: die like a crashed worker (no Python
        # teardown, no exception back over the pipe).  The guard on
        # _IN_WORKER lets the serial-fallback path run the same task
        # in-process without re-dying.
        os._exit(43)
    if task.hang_marker and _IN_WORKER:
        # Chaos hook: hang past the executor's task timeout; the
        # consumer's deadline fires and the task is rescued in-process
        # (where the marker is ignored).
        time.sleep(HANG_SLEEP_S)
    assert _WORKER_PROGRAM is not None
    return run_task(_WORKER_PROGRAM, task)


# ---------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------

class _ExecutorBase:
    """Shared telemetry plumbing for both backends."""

    name = "serial"
    workers = 1

    def __init__(self, program: Program, telemetry=None):
        from repro.obs.telemetry import Telemetry
        self.program = program
        self.telemetry = telemetry or Telemetry.disabled()
        metrics = self.telemetry.metrics
        self._m_tasks = metrics.counter("parallel.tasks")
        self._m_batches = metrics.counter("parallel.batches")
        self._m_discarded = metrics.counter("parallel.tasks_discarded")
        self._m_failures = metrics.counter("parallel.worker_failures")
        #: tasks rescued in-process after a worker death
        self.worker_failures = 0

    def _note_submit(self, tasks: List[ReexecTask]) -> None:
        self._m_batches.inc()
        self._m_tasks.inc(len(tasks))
        # Zero-width per-task spans: they document the dispatch in the
        # trace without adding width, so phase_breakdown() still
        # partitions recovery time exactly.
        for task in tasks:
            with self.telemetry.span("parallel.task", label=task.label,
                                     kind=task.kind, backend=self.name):
                pass

    def note_discarded(self, count: int) -> None:
        """Speculative tasks whose results the decision path never
        consumed.  They cost spare cores, not critical-path time, so
        they only show up as a counter."""
        if count > 0:
            self._m_discarded.inc(count)

    def close(self) -> None:
        pass


class _SerialBatch:
    """Lazy in-process batch: a task executes on first request."""

    def __init__(self, program: Program, tasks: List[ReexecTask]):
        self._program = program
        self.tasks = tasks
        self._results: Dict[int, TaskOutcome] = {}

    @property
    def executed(self) -> int:
        return len(self._results)

    def result(self, index: int) -> TaskOutcome:
        out = self._results.get(index)
        if out is None:
            out = run_task(self._program, self.tasks[index])
            self._results[index] = out
        return out


class SerialExecutor(_ExecutorBase):
    """In-process backend with the same batch protocol as the fork
    backend -- the serial half of every serial-vs-parallel A/B."""

    name = "serial"
    workers = 1

    def submit(self, tasks: Sequence[ReexecTask]) -> _SerialBatch:
        tasks = list(tasks)
        self._note_submit(tasks)
        return _SerialBatch(self.program, tasks)


class _ForkBatch:
    """All tasks submitted up front; results merged by task index."""

    def __init__(self, executor: "ForkExecutor",
                 tasks: List[ReexecTask]):
        self._ex = executor
        self.tasks = tasks
        try:
            pool = executor._ensure_pool()
            self._futures: List[Optional[object]] = [
                pool.submit(_worker_run, task) for task in tasks]
        except Exception:
            # Pool already broken at submit time (BrokenProcessPool,
            # RuntimeError): fall back wholesale.  A KeyboardInterrupt
            # or SystemExit propagates; the runtime closes the pool.
            executor._discard_pool()
            self._futures = [None] * len(tasks)
        #: every dispatched task runs (speculation has no brake), so a
        #: batch's waste is executed - consumed.
        self.executed = len(tasks)

    def result(self, index: int) -> TaskOutcome:
        future = self._futures[index]
        if future is None:
            return self._ex._rescue(self.tasks[index])
        try:
            return future.result(timeout=self._ex.task_timeout_s)
        except FutureTimeout:
            # A hung worker: discard the pool (its stragglers drain in
            # the background) and rescue this task in-process, where
            # run_task executes the identical pure function.
            self._ex.worker_timeouts += 1
            self._ex._m_timeouts.inc()
            self._ex._discard_pool()
            self._futures[index] = None
            return self._ex._rescue(self.tasks[index])
        except (BrokenProcessPool, OSError, EOFError, CancelledError):
            # CancelledError: a prior failure in this batch discarded
            # the pool with cancel_futures=True, so later indices of
            # the same batch surface as cancelled -- rescue them the
            # same way instead of letting the cancellation escape.
            self._ex._discard_pool()
            self._futures[index] = None
            return self._ex._rescue(self.tasks[index])


class ForkExecutor(_ExecutorBase):
    """Worker-process backend."""

    name = "fork"

    def __init__(self, workers: int, program: Program, telemetry=None,
                 task_timeout_s: Optional[float] = None):
        super().__init__(program, telemetry)
        self.workers = max(1, int(workers))
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Host-side deadline per task result (None waits forever).
        #: Configure via FirstAidConfig.worker_timeout_s when chaos may
        #: hang workers; a fired deadline rescues the task in-process.
        self.task_timeout_s = task_timeout_s
        #: tasks rescued in-process after a hung worker's deadline
        self.worker_timeouts = 0
        self._m_timeouts = \
            self.telemetry.metrics.counter("parallel.worker_timeouts")
        self.telemetry.metrics.gauge("parallel.workers").set(self.workers)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            methods = mp.get_all_start_methods()
            ctx = mp.get_context("fork" if "fork" in methods else None)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx,
                initializer=_init_worker, initargs=(self.program,))
        return self._pool

    def submit(self, tasks: Sequence[ReexecTask]) -> _ForkBatch:
        tasks = list(tasks)
        self._note_submit(tasks)
        return _ForkBatch(self, tasks)

    def _rescue(self, task: ReexecTask) -> TaskOutcome:
        """Serial-fallback re-execution after a worker death.  Runs the
        identical pure function the worker would have run, so the
        outcome -- and therefore the diagnosis -- is unchanged."""
        self.worker_failures += 1
        self._m_failures.inc()
        return run_task(self.program, task)

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def make_executor(workers: int, program: Program,
                  telemetry=None,
                  task_timeout_s: Optional[float] = None
                  ) -> Optional[ForkExecutor]:
    """The runtime's backend selector: ``None`` for ``workers <= 1``
    (the engines keep their legacy live-process serial paths, which
    stay bit-compatible with the seed), a :class:`ForkExecutor`
    otherwise."""
    if workers and workers > 1:
        return ForkExecutor(workers, program, telemetry,
                            task_timeout_s=task_timeout_s)
    return None
