"""First-Aid's telemetry subsystem.

Production memory-safety tooling lives or dies by cheap always-on
telemetry; the paper's whole evaluation (Tables 5-8) is a quantitative
breakdown of where recovery time and checkpoint traffic go.  This
package provides that observability surface as three cooperating
pieces, all stamped with *simulated* time so results are deterministic
across replays:

* :class:`~repro.obs.metrics.MetricsRegistry` -- counters, gauges, and
  fixed-bucket histograms registered by the VM, the allocator
  extension, the checkpoint manager, and the diagnosis/validation
  engines.
* :class:`~repro.obs.tracing.Tracer` -- hierarchical spans
  (``recovery`` -> ``rollback`` / ``reexec`` / ``diagnosis.iteration``
  / ``validation.run``) on the :class:`~repro.util.simclock.SimClock`,
  so every recovery yields a parseable phase breakdown mirroring the
  paper's Table 5 decomposition.
* :class:`~repro.obs.recorder.FlightRecorder` -- bounded ring buffers
  over recent events and allocation records, dumped into bug reports
  at failure time.

The :class:`~repro.obs.telemetry.Telemetry` facade bundles the three
and is what components accept.  Telemetry is off-by-default-cheap: a
disabled facade hands out no instruments, so the VM hot path performs
no extra Python calls.

``python -m repro.obs`` runs a demo fault-injection recovery and
renders the span tree, phase breakdown, and metrics snapshot; see
``--help``.
"""

from repro.obs.health import (
    FleetHealthAggregator,
    FleetHealthReport,
    HealthBeacon,
    HealthChannel,
    HealthFaultPlan,
    HealthState,
    aggregate_store,
    health_path,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.recorder import FlightRecorder, FlightRecording
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Counter",
    "FleetHealthAggregator",
    "FleetHealthReport",
    "Gauge",
    "HealthBeacon",
    "HealthChannel",
    "HealthFaultPlan",
    "HealthState",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "FlightRecorder",
    "FlightRecording",
    "Span",
    "Telemetry",
    "Tracer",
    "aggregate_store",
    "health_path",
]
