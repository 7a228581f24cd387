"""First-Aid core: the paper's primary contribution.

* :mod:`repro.core.bugtypes` -- the bug taxonomy (Table 1);
* :mod:`repro.core.changes` -- preventive/exposing environmental
  changes and the policies that apply them whole-heap or per-call-site;
* :mod:`repro.core.patches` -- runtime patches and the per-program
  patch pool (persisted through :mod:`repro.store`);
* :mod:`repro.core.heap_marking` -- the heap-marking technique that
  exposes pre-checkpoint bug manifestations (Section 4.1, Figure 3);
* :mod:`repro.core.diagnosis` -- the two-phase diagnostic engine;
* :mod:`repro.core.validation` -- patch validation under randomized
  allocation (Section 5);
* :mod:`repro.core.report` -- on-site bug reports (Figure 5);
* :mod:`repro.core.runtime` -- :class:`FirstAidRuntime`, the public
  entry point that ties checkpointing, monitoring, diagnosis, patching,
  and validation together.
"""

from repro.core.bugtypes import BugType
from repro.core.changes import (
    AllocChange,
    DiagnosticPolicy,
    FreeChange,
    exposing_change,
    preventive_change,
)
from repro.core.patches import PatchPolicy, PatchPool, RuntimePatch
from repro.core.diagnosis import Diagnosis, DiagnosticEngine, Verdict
from repro.core.validation import ValidationEngine, ValidationResult
from repro.core.report import BugReport
from repro.core.runtime import FirstAidConfig, FirstAidRuntime

__all__ = [
    "BugType",
    "AllocChange",
    "FreeChange",
    "DiagnosticPolicy",
    "preventive_change",
    "exposing_change",
    "RuntimePatch",
    "PatchPool",
    "PatchPolicy",
    "Diagnosis",
    "DiagnosticEngine",
    "Verdict",
    "ValidationEngine",
    "ValidationResult",
    "BugReport",
    "FirstAidConfig",
    "FirstAidRuntime",
]
