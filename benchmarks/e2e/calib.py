"""Host-speed calibration for the end-to-end benchmark.

On the host this benchmark was built on, each core switches between
speed phases about 1.8x apart, often several times a second, and the
two cores do so independently (their kernel times correlate at about
0.1).  Raw wall clock therefore swings far more between identical runs
than any change worth detecting.  Every host time the benchmark gates
is reported as::

    t_calibrated = t_raw * C_REF_S / c

where ``c`` is the mean of :func:`kernel_seconds` timed right before
and right after the measured window, and ``C_REF_S`` is a constant.
Because the phases are per core, a run pins itself with :func:`pin` to
as many cores as its processes can use, and the kernel runs once on
each of them.

The kernel imports nothing from ``repro``, so no change to the system
under test can move it.  It allocates nothing: every value it touches
is a cached small int, read from a preallocated list and dict, and it
runs with the garbage collector disabled.  It may only be timed while
the process has one thread and no live child process; otherwise
background work could hide inside a calibration window, and
:class:`CalibrationError` marks the run invalid.
"""

from __future__ import annotations

import gc
import os
import time

#: Calibrated seconds are expressed on a host whose kernel takes this
#: long.  Set once from the median kernel time measured on the
#: recording host (results/host.json); changing it rescales every
#: calibrated number, so it never changes.
C_REF_S = 0.004

_PERM = [(i * 167 + 13) & 255 for i in range(256)]
_MAP = {i: _PERM[i ^ 85] for i in range(256)}
_REPS = [0] * 420


class CalibrationError(RuntimeError):
    """The process was not quiet enough to time the kernel."""


def _kernel() -> int:
    perm = _PERM
    table = _MAP
    x = 0
    for _ in _REPS:
        for j in perm:
            x = table[perm[x ^ j]]
    return x


def live_children(pid: int) -> list:
    """Pids whose parent is ``pid``.  Scans ``/proc/<pid>/stat``
    because ``/proc/self/task/*/children`` needs a kernel option
    (CONFIG_PROC_CHILDREN) that not every host has."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited between listdir and open
        # The command name may hold spaces and parentheses; the fields
        # after its closing parenthesis are state, then ppid.
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def check_quiet() -> None:
    """Raise :class:`CalibrationError` unless this process has exactly
    one thread and no child process (running or unreaped)."""
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        raise CalibrationError(
            f"calibration window with {threads} threads")
    children = live_children(os.getpid())
    if children:
        raise CalibrationError(
            f"calibration window with live children {children}")


def wait_quiet(timeout_s: float = 5.0) -> float:
    """Block until :func:`check_quiet` passes and return how long that
    took (0.0 when the process was already quiet).  A thread or worker
    that has been joined can linger for a moment before the kernel
    drops it; callers add the wait to the measured window, so work
    left running in the background is paid for, never hidden."""
    try:
        check_quiet()
        return 0.0
    except CalibrationError:
        pass
    start = time.perf_counter()
    while True:
        time.sleep(0.001)
        try:
            check_quiet()
            return time.perf_counter() - start
        except CalibrationError:
            if time.perf_counter() - start > timeout_s:
                raise


def pin(processes: int) -> list:
    """Restrict this process (and the workers it forks later) to the
    first ``processes`` cores it may use; returns them."""
    cpus = sorted(os.sched_getaffinity(0))[:processes]
    os.sched_setaffinity(0, cpus)
    return cpus


def kernel_seconds(cpus: list) -> float:
    """The calibration kernel's mean time over ``cpus``: one timed run
    on each, after the quiet check.  The affinity mask is restored."""
    check_quiet()
    mask = os.sched_getaffinity(0)
    enabled = gc.isenabled()
    gc.disable()
    total = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            _kernel()
            total += time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, mask)
        if enabled:
            gc.enable()
    return total / len(cpus)


def factor(before: float, after: float) -> float:
    """Multiplier turning raw seconds measured between two kernel runs
    into calibrated seconds."""
    return C_REF_S / ((before + after) / 2.0)
