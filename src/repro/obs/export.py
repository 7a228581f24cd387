"""JSONL export/import and the text report.

The export format is line-delimited JSON with a ``type`` field per
row::

    {"type": "meta", "program": ..., "time_ns": ...}
    {"type": "span", "span_id": 1, "name": "recovery", ...}
    {"type": "metrics", "time_ns": ..., "counters": {...}, ...}

Rows carry only simulated time, so exporting the same run twice yields
byte-identical files.  ``render_report`` turns a telemetry object (or a
loaded export) back into the human-readable report the
``python -m repro.obs`` CLI prints: the span tree, the Table 5 phase
breakdown per recovery, and the metrics snapshot.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List, Optional, Union

from repro.obs.telemetry import Telemetry
from repro.obs.tracing import Span, phase_breakdown, rebuild_tree


def export_jsonl(telemetry: Telemetry, fh: IO[str],
                 time_ns: Optional[int] = None,
                 meta: Optional[Dict[str, Any]] = None,
                 health: Optional[List[Any]] = None) -> int:
    """Write spans + a metrics snapshot (+ optional health beacons) as
    JSONL; returns rows written.  ``health`` items are either
    :class:`~repro.obs.health.HealthBeacon` objects or their
    ``to_json()`` payloads; rows are written in canonical (process id,
    seq) order so exporting the same fleet twice is byte-identical."""
    rows = 0
    if meta:
        fh.write(json.dumps({"type": "meta", **meta}, sort_keys=True)
                 + "\n")
        rows += 1
    for span in telemetry.tracer.spans():
        fh.write(json.dumps({"type": "span", **span.to_dict()},
                            sort_keys=True) + "\n")
        rows += 1
    fh.write(json.dumps({"type": "metrics",
                         **telemetry.metrics.snapshot(time_ns)},
                        sort_keys=True) + "\n")
    rows += 1
    if health:
        payloads = [b.to_json() if hasattr(b, "to_json") else dict(b)
                    for b in health]
        payloads.sort(key=lambda p: (str(p.get("process_id", "")),
                                     int(p.get("seq", 0))))
        for payload in payloads:
            fh.write(json.dumps({"type": "health", **payload},
                                sort_keys=True) + "\n")
            rows += 1
    return rows


def load_jsonl(fh: IO[str]) -> Dict[str, Any]:
    """Parse an export back into ``{"meta", "roots", "metrics",
    "health"}``."""
    meta: Dict[str, Any] = {}
    span_rows: List[Dict[str, Any]] = []
    metrics: Dict[str, Any] = {}
    health: List[Dict[str, Any]] = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        kind = row.pop("type", None)
        if kind == "meta":
            meta = row
        elif kind == "span":
            span_rows.append(row)
        elif kind == "metrics":
            metrics = row
        elif kind == "health":
            health.append(row)
    return {"meta": meta, "roots": rebuild_tree(span_rows),
            "metrics": metrics, "health": health}


# ---------------------------------------------------------------------
# text report
# ---------------------------------------------------------------------

def _render_phase_table(recoveries: List[Span]) -> List[str]:
    out: List[str] = []
    for i, recovery in enumerate(recoveries):
        phases = phase_breakdown(recovery)
        total = phases["recovery_ns"]
        out.append(f"  recovery #{i}: {total / 1e9:.3f} s total")
        for key, label in (("rollback_ns", "rollback"),
                           ("reexec_ns", "re-execution"),
                           ("diagnosis_ns", "diagnosis (analysis)"),
                           ("validation_ns", "validation (on-clock)")):
            ns = phases[key]
            share = 100.0 * ns / total if total else 0.0
            out.append(f"    {label:<22s} {ns / 1e9:9.3f} s  "
                       f"({share:5.1f}%)")
        clone_ns = sum(int(s.attrs.get("clone_time_ns", 0))
                       for s in recovery.walk()
                       if s.name == "validation.run")
        if clone_ns:
            out.append(f"    {'validation (off-path)':<22s} "
                       f"{clone_ns / 1e9:9.3f} s  (clone clock)")
        for span in recovery.walk():
            # Search-policy accounting rides on the diagnosis span
            # (repro.search): how many probes ran vs. were statically
            # pruned away, next to the phase costs they would have
            # added to.
            if span.name == "diagnosis" and "search_policy" in span.attrs:
                out.append(
                    f"    {'search':<22s} "
                    f"policy={span.attrs['search_policy']} "
                    f"executed={span.attrs.get('probes_executed', 0)} "
                    f"consumed={span.attrs.get('probes_consumed', 0)} "
                    f"pruned={span.attrs.get('probes_pruned', 0)}")
    return out


def _render_metrics_snapshot(metrics: Dict[str, Any]) -> List[str]:
    out: List[str] = []
    for section in ("counters", "gauges"):
        for name, value in sorted((metrics.get(section) or {}).items()):
            out.append(f"  {name:<36s} {value}")
    for name, h in sorted((metrics.get("histograms") or {}).items()):
        total = h.get("total", 0)
        mean = h.get("sum", 0) / total if total else 0.0
        line = f"  {name:<36s} total={total} mean={mean:.1f}"
        if "p50" in h:
            line += (f" p50={h['p50']:g} p95={h['p95']:g} "
                     f"p99={h['p99']:g}")
        out.append(line)
    return out


def render_report(source: Union[Telemetry, Dict[str, Any]],
                  title: str = "telemetry report") -> str:
    """Render spans + phase breakdown + metrics as text.

    ``source`` is either a live :class:`Telemetry` or the dict returned
    by :func:`load_jsonl`.
    """
    if isinstance(source, Telemetry):
        roots = source.tracer.roots
        metrics = source.metrics.snapshot()
        health: List[Dict[str, Any]] = []
    else:
        roots = source["roots"]
        metrics = source.get("metrics") or {}
        health = source.get("health") or []

    out: List[str] = [f"== {title} ==", "", "spans:"]
    if roots:
        out += [root.render(indent=1) for root in roots]
    else:
        out.append("  (no spans recorded)")

    recoveries = [r for r in roots if r.name == "recovery"]
    if recoveries:
        out += ["", "phase breakdown (Table 5):"]
        out += _render_phase_table(recoveries)

    out += ["", "metrics:"]
    rendered = _render_metrics_snapshot(metrics)
    out += rendered if rendered else ["  (no instruments)"]

    if health:
        from repro.obs.health import FleetHealthAggregator
        aggregator = FleetHealthAggregator()
        for payload in health:
            aggregator.add_payload(payload)
        out += ["", aggregator.report().render()]
    return "\n".join(out)
