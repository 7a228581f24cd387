"""Sampled always-on detection (repro.sampling + heap/runtime wiring).

Covers the selector's determinism contract, every guard-hit family in
the allocator extension, the shared quarantine's per-origin eviction
accounting, the fast-path diagnosis end to end, the chaos
false-positive rejection, the rate-0 off-switch identity, and the
health-beacon byte-compat rules.
"""

import json
import os

import pytest

from repro.apps.registry import get_app
from repro.bench.harness import spaced_workload
from repro.chaos import ChaosPlan
from repro.core.bugtypes import BugType
from repro.core.runtime import FirstAidConfig, FirstAidRuntime
from repro.errors import SampledGuardFault
from repro.heap.allocator import LeaAllocator
from repro.heap.base import Memory
from repro.heap.extension import (
    PAD_POST,
    PAD_PRE,
    AllocatorExtension,
    ExtensionMode,
)
from repro.heap.quarantine import (
    ORIGIN_PATCH,
    ORIGIN_SAMPLED,
    DelayFreeQuarantine,
)
from repro.obs.health import FleetHealthAggregator, HealthBeacon
from repro.sampling import SampledDetection, SampleSelector, SamplingStats
from tests.conftest import site


# ---------------------------------------------------------------------
# selector
# ---------------------------------------------------------------------

class TestSelector:
    def test_pure_function_of_seed_rate_seq(self):
        a = SampleSelector(rate=64, entropy_seed=7)
        b = SampleSelector(rate=64, entropy_seed=7)
        picks = [s for s in range(20000) if a.picks(s)]
        assert picks == [s for s in range(20000) if b.picks(s)]
        assert picks  # the window is large enough to contain picks

    def test_rate_bounds(self):
        none = SampleSelector(rate=0)
        every = SampleSelector(rate=1)
        assert not any(none.picks(s) for s in range(1000))
        assert all(every.picks(s) for s in range(1000))

    def test_statistical_rate(self):
        selector = SampleSelector(rate=64, entropy_seed=1)
        hits = sum(selector.picks(s) for s in range(200_000))
        assert 0.5 / 64 < hits / 200_000 < 1.5 / 64

    def test_seeds_decorrelated_not_shifted(self):
        a = {s for s in range(50_000)
             if SampleSelector(64, entropy_seed=42).picks(s)}
        b = {s for s in range(50_000)
             if SampleSelector(64, entropy_seed=43).picks(s)}
        assert a != b
        assert {s + 1 for s in a} != b  # not a shift-by-one of seed 42


# ---------------------------------------------------------------------
# guard mechanics (extension level)
# ---------------------------------------------------------------------

def make_sampled_extension(rate: int = 1) -> AllocatorExtension:
    mem = Memory()
    ext = AllocatorExtension(mem, LeaAllocator(mem),
                             ExtensionMode.NORMAL)
    ext.attach_sampler(SampleSelector(rate=rate))
    return ext


class TestGuardMechanics:
    def test_promotion_adds_redzones(self):
        ext = make_sampled_extension()
        addr = ext.malloc(32, site(("alloc_fn", 1)))
        obj = ext.object_at(addr)
        assert obj.sampled
        assert obj.pad_pre == PAD_PRE and obj.pad_post == PAD_POST
        assert ext.sampling_stats.sampled_allocs == 1

    def test_overflow_caught_at_free(self):
        ext = make_sampled_extension()
        addr = ext.malloc(32, site(("alloc_fn", 1)))
        ext.mem.write_bytes(addr + 32, b'\x41')  # first post-redzone byte
        with pytest.raises(SampledGuardFault) as exc:
            ext.free(addr, site(("free_fn", 1)))
        det = exc.value.detection
        assert det.bug_type is BugType.BUFFER_OVERFLOW
        assert det.alloc_site == site(("alloc_fn", 1))
        assert det.offset == 32
        assert ext.sampling_stats.detections == 1

    def test_overflow_caught_by_boundary_sweep(self):
        ext = make_sampled_extension()
        addr = ext.malloc(16, site(("alloc_fn", 1)))
        ext.mem.write_bytes(addr + 16 + 3, b'\x41')
        with pytest.raises(SampledGuardFault) as exc:
            ext.check_sampled_guards()
        assert exc.value.detection.offset == 19
        assert ext.sampling_stats.guard_scans == 1

    def test_pre_redzone_blames_left_neighbor(self):
        ext = make_sampled_extension()
        a = ext.malloc(24, site(("overflower", 1)))
        b = ext.malloc(24, site(("victim", 1)))
        oa, ob = ext.object_at(a), ext.object_at(b)
        assert oa.block_addr < ob.block_addr  # sequential placement
        ext.mem.write_bytes(ob.block_addr, b'\x41')  # first pre-redzone byte
        with pytest.raises(SampledGuardFault) as exc:
            ext.check_sampled_guards()
        det = exc.value.detection
        assert det.bug_type is BugType.BUFFER_OVERFLOW
        assert det.alloc_site == site(("overflower", 1))
        assert det.alloc_seq == oa.alloc_seq

    def test_dangling_write_caught_after_free(self):
        ext = make_sampled_extension()
        addr = ext.malloc(32, site(("alloc_fn", 1)))
        ext.free(addr, site(("free_fn", 1)))
        assert ext.quarantine.contains(addr)  # promoted to delayed free
        assert ext.sampling_stats.sampled_frees == 1
        ext.mem.write_bytes(addr + 5, b'\x41')  # write through dangling pointer
        with pytest.raises(SampledGuardFault) as exc:
            ext.check_sampled_guards()
        det = exc.value.detection
        assert det.bug_type is BugType.DANGLING_WRITE
        assert det.free_site == site(("free_fn", 1))
        assert det.offset == 5

    def test_double_free_caught(self):
        ext = make_sampled_extension()
        addr = ext.malloc(32, site(("alloc_fn", 1)))
        ext.free(addr, site(("first_free", 1)))
        with pytest.raises(SampledGuardFault) as exc:
            ext.free(addr, site(("second_free", 1)))
        det = exc.value.detection
        assert det.bug_type is BugType.DOUBLE_FREE
        assert det.free_site == site(("first_free", 1))

    def test_suppressed_when_site_already_patched(self):
        ext = make_sampled_extension()
        ext.policy.has_patch = lambda bug_type, at: True
        addr = ext.malloc(32, site(("alloc_fn", 1)))
        ext.mem.write_bytes(addr + 32, b'\x41')
        ext.free(addr, site(("free_fn", 1)))  # swallowed, no raise
        assert ext.sampling_stats.suppressed == 1
        assert ext.sampling_stats.detections == 0

    def test_paused_extension_never_raises(self):
        ext = make_sampled_extension()
        addr = ext.malloc(32, site(("alloc_fn", 1)))
        ext.mem.write_bytes(addr + 32, b'\x41')
        ext.sampling_paused = True
        ext.free(addr, site(("free_fn", 1)))
        ext.check_sampled_guards()
        assert ext.sampling_stats.detections == 0

    def test_inactive_outside_normal_mode(self):
        mem = Memory()
        ext = AllocatorExtension(mem, LeaAllocator(mem),
                                 ExtensionMode.DIAGNOSTIC)
        ext.attach_sampler(SampleSelector(rate=1))
        addr = ext.malloc(32, site(("alloc_fn", 1)))
        assert not ext.object_at(addr).sampled


class TestSamplingStats:
    def test_event_counters_survive_restore_monotonically(self):
        stats = SamplingStats()
        stats.allocs = 10
        snap = stats.snapshot()
        stats.allocs = 14
        stats.detections = 1
        stats.first_detection_ns = 5000
        stats.restore(snap)
        assert stats.allocs == 10          # work counter rolls back
        assert stats.detections == 1       # event counter does not
        assert stats.first_detection_ns == 5000

    def test_first_detection_keeps_earliest(self):
        stats = SamplingStats()
        stats.detections = 1
        stats.first_detection_ns = 3000
        snap = stats.snapshot()
        stats.first_detection_ns = 3000
        stats.restore(snap)
        assert stats.first_detection_ns == 3000


# ---------------------------------------------------------------------
# shared quarantine: per-origin eviction accounting
# ---------------------------------------------------------------------

class TestQuarantineOrigins:
    def _quarantine(self, threshold):
        released = []
        q = DelayFreeQuarantine(released.append, threshold)
        return q, released

    def test_eviction_split_by_origin(self):
        q, released = self._quarantine(threshold=100)
        q.add(0x1000, 60, None, False, origin=ORIGIN_PATCH)
        q.add(0x2000, 60, None, True, origin=ORIGIN_SAMPLED)
        q.add(0x3000, 60, None, True, origin=ORIGIN_SAMPLED)
        # 180 bytes > 100: the two oldest evict, one per origin.
        assert released == [0x1000, 0x2000]
        assert q.evictions == 2
        assert q.evictions_by_origin == {ORIGIN_PATCH: 1,
                                         ORIGIN_SAMPLED: 1}

    def test_drain_counts_every_origin_once(self):
        q, _ = self._quarantine(threshold=10_000)
        q.add(0x1000, 10, None, False, origin=ORIGIN_PATCH)
        q.add(0x2000, 10, None, True, origin=ORIGIN_SAMPLED)
        q.drain()
        assert q.evictions == 2
        assert sum(q.evictions_by_origin.values()) == q.evictions

    def test_split_survives_snapshot_restore(self):
        q, _ = self._quarantine(threshold=16)
        q.add(0x1000, 10, None, True, origin=ORIGIN_SAMPLED)
        q.add(0x2000, 10, None, False, origin=ORIGIN_PATCH)  # evicts 1st
        snap = q.snapshot()
        q.add(0x3000, 10, None, False, origin=ORIGIN_PATCH)  # evicts 2nd
        q.restore(snap)
        assert q.evictions == 1
        assert q.evictions_by_origin == {ORIGIN_SAMPLED: 1}


# ---------------------------------------------------------------------
# end to end: fast path, chaos false positive, off-switch identity
# ---------------------------------------------------------------------

class TestFastPathEndToEnd:
    def test_guard_hit_prevents_the_crash(self):
        """pine's overflow at rate 1/64: the guard absorbs the bad
        write, the fast path validates a patch from the detection, and
        the session never sees a crash-family failure."""
        app = get_app("pine")
        wl = spaced_workload(app, triggers=1, seed=42)
        runtime = FirstAidRuntime(
            app.program(), input_tokens=wl.tokens,
            config=FirstAidConfig(sampling_rate=64))
        session = runtime.run()
        try:
            assert session.survived_all
            assert runtime.sampled_prevented >= 1
            assert all(r.failure.monitor == "sampled-detection"
                       for r in session.recoveries)
            assert any(p.validated for p in runtime.pool.patches())
        finally:
            runtime.close()

    def test_chaos_false_positive_rejected_und_undegraded(self):
        """An injected guard hit on an intact object must be rejected
        by validation (the unpatched baseline passes) and the session
        must continue un-degraded: no validated patch, no ladder
        escalation, workload completes."""
        app = get_app("pine")
        plan = ChaosPlan()
        plan.arm("sampled_false_positive", 1)
        runtime = FirstAidRuntime(
            app.program(),
            input_tokens=app.normal_workload(requests=60).tokens,
            config=FirstAidConfig(sampling_rate=1, chaos=plan))
        session = runtime.run()
        try:
            assert plan.fired["sampled_false_positive"] == 1
            assert session.survived_all and session.reason == "halt"
            assert len(session.recoveries) == 1
            notes = session.recoveries[0].notes
            assert any("rejected by validation" in n for n in notes)
            assert not any(p.validated for p in runtime.pool.patches())
        finally:
            runtime.close()


class TestRateZeroIdentity:
    def test_rate_zero_attaches_no_sampler(self, tmp_path):
        """The off-switch: at rate 0 nothing is attached -- no sampler,
        no stats, no ``sampling`` beacon section -- so every sampling
        branch is skipped and the session is the pre-sampling one.
        The same app at 1/64 has all three, so a leak (say, a rate-0
        selector attached anyway) fails here."""
        app = get_app("pine")
        wl = spaced_workload(app, triggers=1)
        surface = {}
        for rate in (0, 64):
            runtime = FirstAidRuntime(
                app.program(), input_tokens=wl.tokens,
                config=FirstAidConfig(
                    store_path=str(tmp_path / f"rate{rate}.json"),
                    process_label="p", sampling_rate=rate))
            runtime.run()
            runtime.close()
            ext = runtime.process.extension
            beacon = runtime.health.load().live_beacons()["p"]
            surface[rate] = (ext.sampler is not None,
                             ext.sampling_stats is not None,
                             "sampling" in beacon)
        assert surface == {0: (False, False, False),
                           64: (True, True, True)}


# ---------------------------------------------------------------------
# health plane byte-compat + serial/fork determinism
# ---------------------------------------------------------------------

class TestBeaconCompat:
    def _beacon(self, **kw):
        return HealthBeacon(process_id="p-0", app="a", seq=1,
                            time_ns=10, **kw)

    def test_empty_sampling_not_serialized(self):
        payload = self._beacon().to_json()
        assert "sampling" not in payload

    def test_sampling_round_trips(self):
        sampling = {"rate": 64, "allocs": 100, "sampled_allocs": 2,
                    "detections": 1}
        payload = self._beacon(sampling=sampling).to_json()
        assert payload["sampling"] == sampling
        assert HealthBeacon.from_json(payload).sampling == sampling

    def test_report_sections_only_with_sampled_beacons(self):
        agg = FleetHealthAggregator()
        agg.add_payload(self._beacon().to_json())
        report = agg.report()
        assert "sampling" not in report.fleet
        assert all("sampling" not in row for row in report.processes)
        assert "sampling:" not in report.render()

        agg2 = FleetHealthAggregator()
        agg2.add_payload(self._beacon(sampling={
            "rate": 64, "allocs": 128, "sampled_allocs": 2,
            "detections": 1, "suppressed": 0, "prevented": 1}).to_json())
        report2 = agg2.report()
        assert report2.fleet["sampling"]["allocs"] == 128
        assert report2.processes[0]["sampling"]["rate"] == 64
        assert "sampling:" in report2.render()


class TestSerialVsFork:
    def test_sampled_fleet_reports_identical(self, tmp_path):
        """A sampled leader's fleet, forked vs serial: byte-identical
        aggregated health reports.  Holds only if sample selection is
        a pure function of (seed, rate, alloc_seq) -- no hash(), no
        RNG object state, nothing host-dependent."""
        from repro.bench.fleet import run_fleet
        from repro.obs.health import aggregate_store
        fork_store = os.path.join(tmp_path, "fork.json")
        serial_store = os.path.join(tmp_path, "serial.json")
        fork = run_fleet("pine", fork_store, procs=2, triggers=1,
                         leader_sampling_rate=64)
        serial = run_fleet("pine", serial_store, procs=2, triggers=1,
                           leader_sampling_rate=64, parallel=False)
        fork_report = aggregate_store(fork_store).to_json()
        serial_report = aggregate_store(serial_store).to_json()
        assert json.dumps(fork_report, sort_keys=True) \
            == json.dumps(serial_report, sort_keys=True)
        leader = next(r for r in fork_report["processes"]
                      if r["process_id"] == "leader-0")
        assert leader["sampling"]["detections"] >= 1
        follower = next(r for r in fork_report["processes"]
                        if r["process_id"].startswith("follower"))
        assert "sampling" not in follower

        # The members' digests agree too: same behavior and the same
        # fleet view; only the pid tells a forked member apart.
        view = ("label", "canary", "pool", "local_triggers",
                "first_failure_ns", "first_detection_ns",
                "sampled_prevented", "crashes")
        members = zip([fork.leader, *fork.followers],
                      [serial.leader, *serial.followers])
        for forked, inline in members:
            assert forked.equivalence_key() == inline.equivalence_key()
            assert [getattr(forked, f) for f in view] \
                == [getattr(inline, f) for f in view]
            assert forked.pid != inline.pid == os.getpid()
        assert fork.leader.first_detection_ns > 0
