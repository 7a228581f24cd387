"""On-site bug reports (paper Section 5, Figure 5).

A report bundles, beyond the usual core dump: the diagnosis log, the
runtime patch information, memory allocation/deallocation traces in the
buggy region with and without the patch, and the illegal-access trace.
``render()`` produces the textual layout of Figure 5.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.diagnosis import Diagnosis
from repro.core.patches import RuntimePatch
from repro.core.validation import ValidationResult
from repro.heap.extension import IllegalAccess, MMTraceEntry
from repro.obs.recorder import FlightRecording
from repro.util.events import EventLog


@dataclass
class BugReport:
    program_name: str
    diagnosis: Diagnosis
    recovery_time_ns: int
    validation: Optional[ValidationResult] = None
    diagnosis_log: Optional[EventLog] = None
    #: Bounded flight-recorder snapshot taken at failure time (last-N
    #: events and allocations) -- replaces attaching unbounded traces
    #: to the report.
    flight: Optional[FlightRecording] = None
    notes: List[str] = field(default_factory=list)

    # -- derived views ---------------------------------------------------

    def patch_trigger_counts(self) -> Dict[int, int]:
        """patch_id -> triggers observed in the first validation run."""
        if self.validation and self.validation.iterations:
            return dict(self.validation.iterations[0].patch_triggers())
        return {p.patch_id: p.trigger_count
                for p in self.diagnosis.patches}

    def illegal_access_summary(self) -> Dict[int, Dict[str, object]]:
        """patch_id -> {reads, writes, by_function: {fn: #instrs}}."""
        summary: Dict[int, Dict[str, object]] = {}
        if not (self.validation and self.validation.iterations):
            return summary
        accesses = self.validation.iterations[0].illegal_accesses
        instrs_by_patch: Dict[int, Dict[str, set]] = defaultdict(
            lambda: defaultdict(set))
        for access in accesses:
            pid = access.patch_id if access.patch_id is not None else -1
            entry = summary.setdefault(
                pid, {"reads": 0, "writes": 0, "total": 0})
            entry["total"] += 1
            entry["writes" if access.is_write else "reads"] += 1
            instrs_by_patch[pid][access.instr_id[0]].add(access.instr_id)
        for pid, by_fn in instrs_by_patch.items():
            summary[pid]["by_function"] = {
                fn: len(instrs) for fn, instrs in sorted(by_fn.items())}
        return summary

    def mm_trace_diff(self, limit: int = 40) -> List[str]:
        """Side-by-side lines of unpatched vs patched mm traces
        (Figure 5 item 4)."""
        if not self.validation:
            return []
        orig = self.validation.baseline_mm_trace
        patched = (self.validation.iterations[0].mm_trace
                   if self.validation.iterations else [])
        lines = []
        for i in range(min(max(len(orig), len(patched)), limit)):
            left = orig[i].render() if i < len(orig) else ""
            right = patched[i].render() if i < len(patched) else ""
            marker = "|" if left.split(":")[0] != right.split(":")[0] \
                else "|"
            lines.append(f"{left:<42s} {marker} {right}")
        return lines

    # -- rendering ----------------------------------------------------------

    def render(self, mm_trace_limit: int = 20,
               redact_times: bool = False) -> str:
        """Figure 5 layout.  With ``redact_times`` every time-bearing
        field is masked: execution backends agree on *what* was
        diagnosed, patched, and validated byte-for-byte, while the
        simulated timestamps legitimately differ (max-over-workers vs
        serial sum), so equivalence checks compare redacted renders."""
        diag = self.diagnosis
        out: List[str] = ["Bug report:"]
        fault = diag.failure.fault if diag.failure else None
        out.append(f"1. Failure coredump: {fault.describe() if fault else 'n/a'}")
        if redact_times:
            recovery_s = validation_s = "---"
        else:
            recovery_s = f"{self.recovery_time_ns / 1e9:.3f}"
            validation_s = "{:.3f}".format(
                self.validation.time_ns / 1e9 if self.validation else 0.0)
        out.append(
            f"2. Diagnosis summary: recovery: "
            f"{recovery_s}(s); validation: "
            f"{validation_s}(s); rollbacks: {diag.rollbacks}")
        if diag.search_info:
            # Backend-invariant fields only: probes *consumed* and
            # skipped by the determinism rule are properties of the
            # serial decision path, identical under any executor;
            # probes *executed* (incl. discarded speculation)
            # legitimately differs serial-vs-fork and lives in
            # metrics/search_info instead.
            info = diag.search_info
            out.append(
                f"    search: policy={info['policy']}; probes "
                f"consumed: {info['probes_consumed']}; probes pruned: "
                f"{info['probes_pruned']}")
        if self.diagnosis_log is not None:
            for event in self.diagnosis_log.of_kind("diagnosis"):
                out.append(
                    f"    {event.render(redact_time=redact_times)}")

        triggers = self.patch_trigger_counts()
        bug_desc = ", ".join(b.value for b in diag.bug_types)
        out.append(
            f"3. Patch applied: {len(diag.patches)} patch(es) for "
            f"{bug_desc or 'no identified bug'}")
        for patch in diag.patches:
            count = triggers.get(patch.patch_id, 0)
            out.append(f"    Patch {patch.patch_id}: "
                       f"{patch.bug_type.patch_description} on callsite "
                       f"(triggered {count} times)")
            out.append(patch.point.render())

        out.append("4. Memory allocations/deallocations in buggy region "
                   "(without patch | with patch):")
        for line in self.mm_trace_diff(mm_trace_limit):
            out.append(f"    {line}")

        out.append("5. Illegal access trace in buggy region:")
        summary = self.illegal_access_summary()
        if not summary:
            out.append("    (validation disabled or no illegal accesses)")
        for pid in sorted(summary):
            entry = summary[pid]
            out.append(
                f"    Summary: patch {pid}: {entry['total']} accesses "
                f"({entry['reads']} read, {entry['writes']} write):")
            for fn, n_instr in entry.get("by_function", {}).items():
                out.append(
                    f"        from {n_instr} instruction(s) in {fn}")
        if self.flight is not None:
            out.append("6. Flight recorder (bounded, most recent last):")
            if redact_times:
                out.append("    (redacted)")
            else:
                for line in self.flight.render().splitlines():
                    out.append(f"    {line}")
        if self.notes:
            out.append("Notes:")
            out.extend(f"  - {note}" for note in self.notes)
        return "\n".join(out)
