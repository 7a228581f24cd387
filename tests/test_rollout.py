"""Health-gated staged patch rollout (repro.rollout, DESIGN.md §14):
canary assignment, the store's stage lattice, the promotion
controller's pure policy, and the runtime's stage-filtered adoption."""

import random

import pytest

from repro.core.bugtypes import BugType
from repro.core.patches import PatchPool
from repro.obs.health import (
    LATENCY_BOUNDS,
    HealthBeacon,
    HealthChannel,
    health_path,
)
from repro.obs.metrics import Histogram
from repro.rollout import (
    CANARY,
    FLEET_WIDE,
    ROLLED_BACK,
    STAGED,
    VALIDATING,
    PromotionController,
    RolloutConfig,
    canary_bucket,
    evaluate,
    is_canary,
    pick_labels,
    stage_of,
)
from repro.store import SharedPatchStore
from repro.store.store import StoreState
from repro.util.callsite import CallSite

APP = "roll-app"


def make_patch(pool=None, frames=(("f", 1),), validated=False,
               triggers=0):
    pool = pool or PatchPool(APP)
    patch = pool.new_patch(BugType.BUFFER_OVERFLOW,
                           CallSite.intern(frames))
    patch.validated = validated
    patch.trigger_count = triggers
    return patch


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "roll.store.json")


@pytest.fixture
def store(store_path):
    return SharedPatchStore(store_path, APP)


def beacon(pid, key, time_ns=10_000_000, canary=True, adopted_ns=0,
           post=0, diagnosed=0, reason="halt", gave_up=0, seq=1,
           latency_ns=None):
    entry = {"triggers": 1, "validated": True, "created_time_ns": 0,
             "diagnosed": diagnosed, "adopted_ns": adopted_ns,
             "post_adopt_failures": post}
    return HealthBeacon(process_id=pid, app=APP, seq=seq,
                        time_ns=time_ns, reason=reason,
                        gave_up=gave_up, patches={key: entry},
                        canary=canary,
                        latency_ns=latency_ns or {})


def staged_state(key, stage=STAGED):
    return StoreState(program=APP, generation=1, patches={
        key: {"rollout": {"stage": stage, "since_ns": 0}}})


CFG = RolloutConfig(min_observe_ns=1_000_000, max_failure_rate=0.0,
                    max_latency_p99_ns=1_000_000_000,
                    min_canary_processes=1)


class TestCanaryAssignment:
    def test_bucket_deterministic_and_bounded(self):
        for label in ("node-0", "node-1", "web-7", ""):
            b = canary_bucket(label)
            assert b == canary_bucket(label)
            assert 0.0 <= b < 1.0

    def test_monotonic_in_fraction(self):
        """Growing the cohort never evicts a member."""
        labels = [f"node-{i}" for i in range(200)]
        previous = set()
        for fraction in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            cohort = {l for l in labels if is_canary(l, fraction)}
            assert previous <= cohort
            previous = cohort
        assert previous == set(labels)       # fraction 1.0: everyone

    def test_fraction_roughly_honored(self):
        labels = [f"node-{i}" for i in range(2000)]
        got = sum(is_canary(l, 0.25) for l in labels) / len(labels)
        assert 0.15 < got < 0.35

    def test_pick_labels_casts_disjoint_cohorts(self):
        canaries, others = pick_labels(3, 4, 0.25)
        assert len(canaries) == 3 and len(others) == 4
        assert all(is_canary(l, 0.25) for l in canaries)
        assert not any(is_canary(l, 0.25) for l in others)
        # pure: the same call casts the same fleet
        assert (canaries, others) == pick_labels(3, 4, 0.25)


class TestStageLattice:
    def test_stage_of_defaults_to_fleet_wide(self):
        assert stage_of({}) == FLEET_WIDE
        assert stage_of({"rollout": "garbage"}) == FLEET_WIDE
        assert stage_of({"rollout": {"stage": "nonsense"}}) == FLEET_WIDE
        assert stage_of({"rollout": {"stage": STAGED}}) == STAGED

    def test_publish_with_stage_wraps_new_records(self, store):
        patch = make_patch()
        state = store.publish([patch], stage=STAGED)
        assert stage_of(state.patches[patch.key]) == STAGED
        # plain merge into the record never touches the envelope
        state = store.publish([make_patch(triggers=9)])
        assert stage_of(state.patches[patch.key]) == STAGED
        assert state.patches[patch.key]["trigger_count"] == 9

    def test_set_stage_is_advance_only(self, store):
        patch = make_patch()
        store.publish([patch], stage=STAGED)
        store.set_stage(patch.key, VALIDATING, time_ns=5)
        # a lagging controller asking for CANARY must not regress
        state = store.set_stage(patch.key, CANARY, time_ns=9)
        assert stage_of(state.patches[patch.key]) == VALIDATING
        assert state.patches[patch.key]["rollout"]["since_ns"] == 5

    def test_set_stage_ignores_legacy_and_missing(self, store):
        legacy = make_patch()
        store.publish([legacy])              # no envelope: fleet-wide
        state = store.set_stage(legacy.key, CANARY)
        assert "rollout" not in state.patches[legacy.key]
        state = store.set_stage("no-such-key", CANARY)
        assert "no-such-key" not in state.patches
        with pytest.raises(ValueError):
            store.set_stage(legacy.key, "warp-speed")

    def test_rollback_tombstones_and_blocks_replain_publish(
            self, store):
        patch = make_patch()
        store.publish([patch], stage=STAGED)
        state = store.rollback([patch.key], time_ns=77, reason="hurts")
        assert patch.key not in state.patches
        assert patch.key in state.retracted
        assert state.rolled_back[patch.key]["reason"] == "hurts"
        assert state.rolled_back[patch.key]["time_ns"] == 77
        assert state.stages()[patch.key] == "rolled_back"
        # a plain publish cannot resurrect a condemned key ...
        state = store.publish([patch], stage=STAGED)
        assert patch.key not in state.patches
        # ... only an explicit restage (fresh re-diagnosis) can, and
        # the rollback record survives as history
        state = store.publish([patch], stage=STAGED, restage=True)
        assert stage_of(state.patches[patch.key]) == STAGED
        assert state.rolled_back[patch.key]["count"] == 1
        state = store.rollback([patch.key])
        assert state.rolled_back[patch.key]["count"] == 2

    def test_sync_into_stage_filtering(self, store):
        staged = make_patch(frames=(("s", 1),))
        wide = make_patch(frames=(("w", 2),))
        store.publish([staged], stage=STAGED)
        store.publish([wide])                # legacy: fleet-wide
        non_canary = PatchPool(APP)
        changed, _ = store.sync_into(non_canary, canary=False)
        assert changed
        assert [p.key for p in non_canary.patches()] == [wide.key]
        canary_pool = PatchPool(APP)
        store.sync_into(canary_pool, canary=True)
        assert {p.key for p in canary_pool.patches()} \
            == {staged.key, wide.key}
        legacy_pool = PatchPool(APP)
        store.sync_into(legacy_pool)         # rollout off: everything
        assert len(legacy_pool) == 2
        blocked_pool = PatchPool(APP)
        store.sync_into(blocked_pool, canary=True,
                        blocked={staged.key})
        assert [p.key for p in blocked_pool.patches()] == [wide.key]


class TestPromotionPolicy:
    KEY = "buffer-overflow@f+1"

    def test_holds_staged_without_cohort_evidence(self):
        assert evaluate(staged_state(self.KEY), [], CFG) == []

    def test_promotes_staged_to_canary_on_adoption(self):
        cfg = RolloutConfig(min_observe_ns=10**18,
                            min_canary_processes=2)
        beacons = [beacon("c-0", self.KEY), beacon("c-1", self.KEY)]
        [decision] = evaluate(staged_state(self.KEY), beacons, cfg)
        assert (decision.from_stage, decision.to_stage) \
            == (STAGED, CANARY)

    def test_cascades_to_fleet_wide_when_gates_clear(self):
        beacons = [beacon("c-0", self.KEY, time_ns=50_000_000)]
        decisions = evaluate(staged_state(self.KEY), beacons, CFG)
        assert [d.to_stage for d in decisions] \
            == [CANARY, VALIDATING, FLEET_WIDE]

    def test_holds_canary_inside_observation_window(self):
        beacons = [beacon("c-0", self.KEY, time_ns=500_000)]
        decisions = evaluate(staged_state(self.KEY), beacons, CFG)
        assert [d.to_stage for d in decisions] == [CANARY]

    def test_rolls_back_on_post_adopt_failures(self):
        beacons = [beacon("c-0", self.KEY, post=1),
                   beacon("c-1", self.KEY)]
        decisions = evaluate(staged_state(self.KEY, CANARY), beacons,
                             CFG)
        assert [d.to_stage for d in decisions] == [ROLLED_BACK]
        assert "failure rate" in decisions[0].reason

    def test_rolls_back_on_dead_canary(self):
        beacons = [beacon("c-0", self.KEY, reason="died")]
        decisions = evaluate(staged_state(self.KEY, VALIDATING),
                             beacons, CFG)
        assert [d.to_stage for d in decisions] == [ROLLED_BACK]
        assert "unhealthy" in decisions[0].reason

    def test_rolls_back_on_latency_tail(self):
        hist = Histogram("latency_ns", LATENCY_BOUNDS)
        for _ in range(100):
            hist.observe(5_000_000_000)      # way past the 1s ceiling
        beacons = [beacon("c-0", self.KEY, time_ns=50_000_000,
                          latency_ns=hist.to_snapshot())]
        decisions = evaluate(staged_state(self.KEY, VALIDATING),
                             beacons, CFG)
        assert [d.to_stage for d in decisions] == [ROLLED_BACK]
        assert "latency" in decisions[0].reason

    def test_fleet_wide_records_are_settled(self):
        beacons = [beacon("c-0", self.KEY, post=3)]
        assert evaluate(staged_state(self.KEY, FLEET_WIDE), beacons,
                        CFG) == []

    def test_origin_diagnosis_earns_cohort_membership(self):
        """A non-canary process that diagnosed the patch itself counts
        as evidence (it runs the patch longest)."""
        beacons = [beacon("origin", self.KEY, canary=False,
                          diagnosed=1, time_ns=50_000_000)]
        decisions = evaluate(staged_state(self.KEY), beacons, CFG)
        assert decisions[0].to_stage == CANARY
        non_member = [beacon("spectator", self.KEY, canary=False)]
        assert evaluate(staged_state(self.KEY), non_member, CFG) == []

    def test_decisions_invariant_under_beacon_order(self):
        state = StoreState(program=APP, generation=1, patches={
            "k-a": {"rollout": {"stage": STAGED, "since_ns": 0}},
            "k-b": {"rollout": {"stage": CANARY, "since_ns": 0}},
        })
        beacons = [beacon(f"c-{i}", "k-a", time_ns=50_000_000,
                          post=i % 2) for i in range(4)]
        beacons += [beacon(f"d-{i}", "k-b", time_ns=50_000_000)
                    for i in range(3)]
        baseline = [d.render() for d in evaluate(state, beacons, CFG)]
        for seed in range(5):
            shuffled = list(beacons)
            random.Random(seed).shuffle(shuffled)
            replay = [d.render()
                      for d in evaluate(state, shuffled, CFG)]
            assert replay == baseline


class TestPromotionController:
    def controller(self, store_path):
        store = SharedPatchStore(store_path, APP)
        channel = HealthChannel(health_path(store_path), APP)
        return store, channel, PromotionController(store, channel, CFG)

    def test_tick_applies_and_is_idempotent(self, store_path):
        store, channel, controller = self.controller(store_path)
        good = make_patch(frames=(("good", 1),))
        bad = make_patch(frames=(("bad", 2),))
        store.publish([good, bad], stage=STAGED)
        channel.publish(beacon("c-0", good.key, time_ns=50_000_000))
        channel.publish(beacon("c-1", bad.key, time_ns=50_000_000,
                               post=2, seq=1))
        decided = controller.tick(time_ns=50_000_000)
        # good: staged->canary->validating->fleet_wide; bad: the
        # staged->canary step precedes its condemnation
        assert controller.promotions == 4
        assert controller.rollbacks == 1
        state = store.load()
        assert stage_of(state.patches[good.key]) == FLEET_WIDE
        assert bad.key in state.rolled_back
        assert len(decided) == 5             # 3 + staged->canary + rb
        # the settled store decides nothing new
        assert controller.tick(time_ns=60_000_000) == []

    def test_scrambled_beacon_is_counted_not_fatal(self, store_path):
        store, channel, controller = self.controller(store_path)
        patch = make_patch()
        store.publish([patch], stage=STAGED)
        channel.publish(beacon("c-0", patch.key, time_ns=50_000_000))

        def corrupt(state):
            for payload in state.beacons.values():
                payload.pop("format", None)
            return state

        channel._mutate(corrupt)
        assert controller.tick(time_ns=50_000_000) == []
        assert controller.beacon_errors == 1


OVERFLOW_SERVER = """
int victim = 0;
int target = 0;
int handle(int n) {
    int buf = malloc(32);
    int i = 0;
    while (i < n) { store1(buf + i, 65); i = i + 1; }
    free(buf);
    return 0;
}
int main() {
    int hole = malloc(32);
    victim = malloc(48);
    target = malloc(48);
    store(target, 0);
    store(victim, target);
    free(hole);
    while (1) {
        int op = input();
        if (op == 0) { halt(); }
        handle(op);
        int p = load(victim);
        store(p, load(p) + 1);
        output(1);
    }
}
"""


def workload(triggers=1, spacing=60, prelude=20):
    tokens = [8] * prelude
    for _ in range(triggers):
        tokens += [64] + [8] * spacing
    return tokens + [0]


class TestRuntimeIntegration:
    def runtime(self, store_path, label, **kw):
        from repro.core.runtime import FirstAidConfig, FirstAidRuntime
        from repro.lang import compile_program
        program = compile_program(OVERFLOW_SERVER, "srv")
        defaults = dict(checkpoint_interval=2000, validate=True,
                        store_path=store_path, rollout=True,
                        process_label=label)
        defaults.update(kw)
        return FirstAidRuntime(program, input_tokens=workload(1),
                               config=defaults and FirstAidConfig(
                                   **defaults))

    def srv_store(self, store_path):
        return SharedPatchStore(store_path, "srv")

    def srv_patch(self, frames=(("injected_bad", 0),)):
        pool = PatchPool("srv")
        return pool.new_patch(BugType.DOUBLE_FREE,
                              CallSite.intern(frames))

    def test_non_canary_never_adopts_staged(self, tmp_path):
        store_path = str(tmp_path / "srv.store.json")
        store = self.srv_store(store_path)
        store.publish([self.srv_patch()], stage=STAGED)
        rt = self.runtime(store_path, "shielded", canary_fraction=0.0)
        session = rt.run()
        rt.close()
        # the staged patch never entered the pool; the process hit the
        # real bug and recovered on its own
        assert not rt.fleet.canary
        assert all(p.key != self.srv_patch().key
                   for p in rt.pool.patches())
        assert len(session.recoveries) == 1

    def test_canary_adopts_staged_and_attributes_failures(
            self, tmp_path):
        store_path = str(tmp_path / "srv.store.json")
        store = self.srv_store(store_path)
        bad = self.srv_patch()
        store.publish([bad], stage=STAGED)
        rt = self.runtime(store_path, "exposed", canary_fraction=1.0)
        session = rt.run()
        rt.close()
        assert rt.fleet.canary
        assert any(p.key == bad.key for p in rt.pool.patches())
        assert rt.fleet.adopted_ns[bad.key] == 0
        # the real bug struck while the injected patch was live: the
        # canary evidence the controller condemns it on
        assert rt.fleet.post_adopt_failures[bad.key] \
            == len(session.recoveries) == 1

    def test_rolled_back_key_never_readopted_mid_session(
            self, tmp_path):
        store_path = str(tmp_path / "srv.store.json")
        store = self.srv_store(store_path)
        bad = self.srv_patch()
        store.publish([bad], stage=STAGED)
        rt = self.runtime(store_path, "exposed", canary_fraction=1.0)
        rt.run(max_steps=1)                  # initial sync only
        assert any(p.key == bad.key for p in rt.pool.patches())
        # the fleet condemns the patch while this session is running
        store.rollback([bad.key], time_ns=5, reason="hurts")
        rt.fleet.sync()
        assert all(p.key != bad.key for p in rt.pool.patches())
        assert bad.key in rt.fleet.rolled_back_keys
        assert any(e.kind == "rollout.blocked" for e in rt.events)
        # even a peer restaging it cannot smuggle it back into THIS
        # session: the block is session-permanent
        store.publish([bad], stage=FLEET_WIDE, restage=True)
        rt.fleet.sync()
        assert all(p.key != bad.key for p in rt.pool.patches())
        rt.close()

    def test_rollout_off_store_has_no_envelopes(self, tmp_path):
        store_path = str(tmp_path / "srv.store.json")
        rt = self.runtime(store_path, None, rollout=False)
        rt.run()
        rt.close()
        state = self.srv_store(store_path).load()
        assert state.patches
        assert all("rollout" not in p for p in state.patches.values())
        assert state.rolled_back == {}
