"""Sampled always-on detection (repro.sampling + heap/runtime wiring).

Covers the selector's determinism contract, every guard-hit family of
the guards the allocator extension carries, the fast-path diagnosis
end to end, the chaos false-positive rejection, one diagnosis across
workers and search policy, the rate-0 off-switch identity, and the
health-beacon byte-compat rules.
"""

import json
import os

import pytest

from repro.apps.registry import get_app
from repro.bench.harness import run_app_session, spaced_workload
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
from repro.obs.health import FleetHealthAggregator, HealthBeacon
from repro.sampling import SampledGuards, SampleSelector, SamplingStats
from repro.util.simclock import CostModel, SimClock
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

def make_sampled_extension(rate: int = 1, clock=None) -> AllocatorExtension:
    mem = Memory()
    ext = AllocatorExtension(mem, LeaAllocator(mem),
                             ExtensionMode.NORMAL, clock=clock)
    ext.guards = SampledGuards(rate)
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
        ext.guards.paused = True
        ext.free(addr, site(("free_fn", 1)))
        ext.check_sampled_guards()
        assert ext.sampling_stats.detections == 0

    def test_inactive_outside_normal_mode(self):
        mem = Memory()
        ext = AllocatorExtension(mem, LeaAllocator(mem),
                                 ExtensionMode.DIAGNOSTIC)
        ext.guards = SampledGuards(rate=1)
        addr = ext.malloc(32, site(("alloc_fn", 1)))
        assert not ext.object_at(addr).sampled

    @staticmethod
    def _sweep_charge(corrupt: bool) -> int:
        clock = SimClock()
        ext = make_sampled_extension(clock=clock)
        ext.policy.has_patch = lambda bug_type, at: True
        addrs = [ext.malloc(32, site(("alloc_fn", i))) for i in range(4)]
        if corrupt:
            ext.mem.write_bytes(addrs[0] + 32, b'\x41')
        before = clock.now_ns
        ext.check_sampled_guards()
        return clock.now_ns - before

    def test_sweep_charges_each_scanned_byte_once(self):
        """A swallowed hit (here: suppressed, the site already has a
        patch) lets the sweep go on; the bytes scanned before it must
        not be charged a second time at the end of the sweep."""
        clean = self._sweep_charge(corrupt=False)
        assert clean == CostModel().fill_cost(4 * (PAD_PRE + PAD_POST))
        assert self._sweep_charge(corrupt=True) == clean


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


class TestAcrossWorkersAndPolicy:
    @pytest.mark.parametrize("false_positive", [False, True],
                             ids=["guard", "false_positive"])
    @pytest.mark.parametrize("app", ["mutt", "pine", "squid"])
    def test_guard_hits_keep_one_diagnosis(self, app, false_positive):
        """A guard hit -- real, or the injected false positive that
        validation rejects -- is diagnosed the same serially, at two
        workers and under the bandit search policy: the guards live in
        the recovering process, never in a worker."""
        seen = []
        for workers, policy in ((1, "fixed"), (2, "fixed"),
                                (2, "bandit")):
            config = dict(sampling_rate=64, workers=workers,
                          search_policy=policy)
            plan = None
            if false_positive:
                plan = ChaosPlan()
                plan.arm("sampled_false_positive", 1)
                config.update(sampling_rate=1, chaos=plan)
            digest = run_app_session(app, triggers=2, seed=11, **config)
            if plan is not None:
                assert plan.fired["sampled_false_positive"] == 1
            assert digest.first_detection_ns > 0
            seen.append((digest.diagnosis_key(), digest.first_detection_ns,
                         digest.sampled_prevented))
        assert seen[0] == seen[1] == seen[2]


class TestRateZeroIdentity:
    def test_rate_zero_attaches_no_sampler(self, tmp_path):
        """The off-switch: at rate 0 nothing is attached -- no guards,
        no ``sampling`` beacon section -- so every sampling branch is
        skipped and the session is the pre-sampling one.  The same app
        at 1/64 has both, so a leak (say, rate-0 guards attached
        anyway) fails here."""
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
            surface[rate] = (ext.guards is not None,
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
