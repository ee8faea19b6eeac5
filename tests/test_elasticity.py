"""Elastic autoscaling: runtime re-partitioning over the control plane.

Covers the elasticity subsystem end to end: slot routing (elastic-off
stays byte-identical to plain hashing), scale/greedy policies as pure
functions, the two-phase cut/install protocol on every engine that
supports it, the abort path, the decline ledger, adaptive watermarks,
and the metrics rollups across a lane-count change.  The hypothesis
property pins the migration invariant: a rebalance moves *exactly* the
state of keys whose lane changed -- no more, no less -- while the sink's
multiset and exact punctuation sequence are preserved.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Flow, Schema, StreamTuple
from repro.api import avg, count
from repro.core.feedback import RebalancePunctuation
from repro.elasticity import (
    ElasticConfig,
    GreedySlotPolicy,
    Observations,
    RebalanceAction,
    RebalanceRouter,
    ScaleAction,
    ScalePolicy,
    ScriptedPolicy,
    scale_assignments,
)
from repro.elasticity.rebalance import key_digest
from repro.engine import create_engine, fork_available
from repro.errors import EngineError, FeedbackError, PlanError
from repro.stream.queues import DataQueue

SCHEMA = Schema([
    ("ts", "timestamp", True), ("sensor", "int"), ("value", "float"),
])


def rows(n, *, keys=(0, 1, 2, 3), dt=0.05):
    return [
        (i * dt, StreamTuple(
            SCHEMA, (i * dt, keys[i % len(keys)], float(i))
        ))
        for i in range(n)
    ]


def shard_flow(
    n=2, *, n_rows=200, keys=(0, 1, 2, 3), dt=0.05, every=1.0,
    width=1.0, pipeline=None, **flow_kwargs,
):
    flow = Flow("elastic", **flow_kwargs)
    lane_pipeline = pipeline or (
        lambda lane: lane.window(count(), on="ts", width=width, by="sensor")
    )
    (flow.source(SCHEMA, rows(n_rows, keys=keys, dt=dt), name="src")
         .punctuate(on="ts", every=every)
         .shard(n, key="sensor", name="region", pipeline=lane_pipeline)
         .collect("sink", keep_punctuation=True))
    return flow


def sink_rows(result):
    return sorted(
        tuple(t.values)
        for t in result.sink("sink").results
        if not t.is_punctuation
    )


def sink_punct_patterns(result):
    return [p.pattern for p in result.sink("sink").punctuations]


def slot_of(key, num_slots):
    return key_digest((key,)) % num_slots


def move_for(key, num_slots, fanout):
    """A RebalanceAction relocating ``key``'s slot to the other lane."""
    slot = slot_of(key, num_slots)
    dest = (slot % fanout + 1) % fanout
    return RebalanceAction.moving({slot: dest}), slot, dest


# ---------------------------------------------------------------- routing


class TestRouter:
    def test_identity_matches_plain_hashing(self):
        # Elastic-off stays byte-identical: the identity table routes
        # every key exactly where digest % fanout always did.
        for fanout in (2, 3, 4, 8):
            router = RebalanceRouter.identity(fanout, 16)
            for key in range(200):
                digest = key_digest((key,))
                assert (
                    router.lane_of_key(key) == digest % fanout
                ), f"key {key} fanout {fanout}"

    def test_with_assignments_and_lanes_in_use(self):
        router = RebalanceRouter.identity(2, 4)
        assert router.lanes_in_use == frozenset({0, 1})
        moved = router.with_assignments({0: 1, 2: 1, 4: 1, 6: 1})
        assert moved.lanes_in_use == frozenset({1})
        assert router.table != moved.table  # original untouched

    def test_scale_assignments_minimal_moves(self):
        table = tuple(s % 4 for s in range(16))
        down = scale_assignments(table, 2)
        # Every slot on a parked lane moves; no slot already on a
        # surviving lane moves unless leveling requires it.
        new_table = list(table)
        for slot, dest in down.items():
            new_table[slot] = dest
        assert set(new_table) == {0, 1}
        counts = [new_table.count(lane) for lane in (0, 1)]
        assert max(counts) - min(counts) <= 1
        assert scale_assignments(table, 4) == {}  # already there

    def test_scale_assignments_bounds(self):
        table = tuple(s % 4 for s in range(16))
        with pytest.raises(PlanError):
            scale_assignments(table, 0)
        with pytest.raises(PlanError):
            scale_assignments(table, 17)


# ---------------------------------------------------------------- policies


def obs(table, loads, *, fanout=None, min_lanes=1, max_lanes=None):
    fanout = fanout if fanout is not None else max(table) + 1
    return Observations(
        group="g", fanout=fanout, table=tuple(table),
        slot_loads=tuple(loads),
        lane_occupancy=(0,) * fanout,
        min_lanes=min_lanes,
        max_lanes=fanout if max_lanes is None else max_lanes,
    )


class TestGreedySlotPolicy:
    def test_balanced_is_left_alone(self):
        policy = GreedySlotPolicy(imbalance=1.25)
        assert policy.decide(obs([0, 1, 0, 1], [5, 5, 5, 5])) is None
        assert policy.decide(obs([0, 1, 0, 1], [0, 0, 0, 0])) is None

    def test_hot_slot_moves_to_coolest_lane(self):
        action = GreedySlotPolicy(imbalance=1.1).decide(
            obs([0, 1, 0, 1], [90, 1, 10, 1])
        )
        assert isinstance(action, RebalanceAction)
        # Slot 0 is the hottest movable slot on lane 0; lane 1 is cold.
        assert dict(action.assignments) == {0: 1}

    def test_monster_key_is_never_relocated_alone(self):
        # One slot carries the whole lane: moving it just moves the
        # hotspot, so the policy must decline.
        policy = GreedySlotPolicy(imbalance=1.1)
        assert policy.decide(obs([0, 1, 0, 1], [100, 1, 0, 1])) is None

    def test_max_moves_caps_a_decision(self):
        action = GreedySlotPolicy(imbalance=1.1, max_moves=1).decide(
            obs([0, 1, 0, 1, 0, 1], [50, 0, 40, 0, 30, 0])
        )
        assert isinstance(action, RebalanceAction)
        assert len(action.assignments) == 1

    def test_scale_to_load_requests_more_lanes(self):
        policy = GreedySlotPolicy(scale_to_load=100)
        action = policy.decide(
            obs([0] * 8, [40] * 8, fanout=4)
        )  # 320 total on 1 active lane -> wants ceil(320/100) = 4
        assert action == ScaleAction(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            GreedySlotPolicy(imbalance=0.5)
        with pytest.raises(ValueError):
            GreedySlotPolicy(max_moves=0)


class TestElasticConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"min_lanes": 0},
        {"min_lanes": 3, "max_lanes": 2},
        {"interval": 0.0},
        {"slots_per_lane": 0},
        {"queue_headroom": 0.0},
        {"min_capacity": 1},
        {"min_capacity": 8, "max_capacity": 4},
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ElasticConfig(**kwargs)

    def test_elastic_wants_a_config(self):
        plan = shard_flow().build()
        with pytest.raises(EngineError, match="ElasticConfig"):
            create_engine("simulated", plan, elastic={"interval": 1.0})

    def test_elastic_and_checkpoints_refuse_to_combine(self):
        plan = shard_flow().build()
        with pytest.raises(EngineError, match="checkpoint"):
            create_engine(
                "simulated", plan,
                elastic=ElasticConfig(), checkpoint_every=1.0,
            )


# ------------------------------------------------------------- punctuation


class TestRebalancePunctuation:
    def test_phase_validation(self):
        with pytest.raises(FeedbackError):
            RebalancePunctuation(1, "migrate")

    def test_immutable(self):
        marker = RebalancePunctuation(1, "cut", issuer="region")
        with pytest.raises(AttributeError):
            marker.phase = "install"
        assert marker.is_punctuation


# ---------------------------------------------------------------- declines


class TestDeclines:
    @pytest.mark.skipif(
        not fork_available(), reason="multiprocess needs fork"
    )
    def test_multiprocess_engine_declines(self):
        result = shard_flow().run(
            "multiprocess", elastic=ElasticConfig()
        )
        assert any(
            what == "engine" and "multiprocess" in why
            for what, why in result.metrics.elastic_declines
        )
        assert sink_rows(result) == sink_rows(shard_flow().run("simulated"))

    def test_plan_without_shard_regions_declines(self):
        flow = Flow("flat")
        (flow.source(SCHEMA, rows(40), name="src")
             .punctuate(on="ts", every=1.0)
             .collect("sink"))
        result = flow.run("simulated", elastic=ElasticConfig())
        assert ("plan", "no shard regions to rebalance") in (
            result.metrics.elastic_declines
        )

    def test_single_lane_shard_declines_as_planless(self):
        # shard(1) compiles inline -- no partition, no merge, no shard
        # group -- so elasticity sees a plan with nothing to rebalance.
        result = shard_flow(1).run("simulated", elastic=ElasticConfig())
        assert ("plan", "no shard regions to rebalance") in (
            result.metrics.elastic_declines
        )

    def test_non_migratable_member_declines(self):
        # Aggregating by an attribute set that misses the partition key
        # leaves no keyed extraction path; the region must decline and
        # run statically rather than corrupt state.
        flow = shard_flow(
            2,
            pipeline=lambda lane: lane.window(
                avg("value"), on="ts", width=1.0
            ),
        )
        result = flow.run(
            "simulated",
            elastic=ElasticConfig(
                interval=0.5,
                policy=ScriptedPolicy([RebalanceAction.moving({0: 1})]),
            ),
        )
        declines = dict(result.metrics.elastic_declines)
        assert "region" in declines
        assert "sensor" in declines["region"]
        assert result.metrics.shard_metrics["region"].rebalances == 0


# ----------------------------------------------------- the rebalance protocol


class TestRebalanceParity:
    def test_simulated_migration_preserves_everything(self):
        baseline = shard_flow().run("simulated")
        action, slot, dest = move_for(0, 2 * 4, 2)
        elastic = shard_flow().run(
            "simulated",
            elastic=ElasticConfig(
                interval=1.0, slots_per_lane=4,
                policy=ScriptedPolicy([None, action]),
            ),
        )
        assert sink_rows(elastic) == sink_rows(baseline)
        assert (
            sink_punct_patterns(elastic) == sink_punct_patterns(baseline)
        )
        group = elastic.metrics.shard_metrics["region"]
        assert group.rebalances == 1

    def test_elastic_off_is_byte_identical(self):
        # No elastic= -> not a single marker, counter or stash in the
        # path: ordered output matches exactly, and the armed-but-idle
        # identity run matches too (identity table == plain hashing).
        plain = shard_flow().run("simulated")
        again = shard_flow().run("simulated")
        idle = shard_flow().run(
            "simulated",
            elastic=ElasticConfig(policy=ScriptedPolicy([])),
        )

        def ordered(r):
            return [tuple(t.values) for t in r.sink("sink").results]

        assert ordered(plain) == ordered(again) == ordered(idle)

    @pytest.mark.parametrize("engine", ["threaded", "asyncio"])
    def test_concurrent_engine_parity(self, engine):
        import time

        baseline = shard_flow().run("simulated")
        action, _, _ = move_for(0, 2 * 4, 2)

        def paced_flow():
            # Pace the stream *upstream* of the partition (wall-clock
            # engines replay the source as fast as possible): ~200ms of
            # partition lifetime against a 5ms ticker, so the scripted
            # move lands and the install round-trips mid-stream.
            def pace(t):
                time.sleep(0.001)
                return True

            flow = Flow("elastic", page_size=1)
            (flow.source(SCHEMA, rows(200), name="src")
                 .punctuate(on="ts", every=1.0)
                 .where(pace, name="pace")
                 .shard(2, key="sensor", name="region",
                        pipeline=lambda lane: lane.window(
                            count(), on="ts", width=1.0, by="sensor"
                        ))
                 .collect("sink", keep_punctuation=True))
            return flow

        elastic = paced_flow().run(
            engine,
            elastic=ElasticConfig(
                interval=0.005, slots_per_lane=4,
                policy=ScriptedPolicy([action]),
            ),
        )
        assert sink_rows(elastic) == sink_rows(baseline)
        assert (
            sink_punct_patterns(elastic) == sink_punct_patterns(baseline)
        )
        assert result_rebalances(elastic) >= 1

    def test_scale_down_parks_a_lane(self):
        baseline = shard_flow(
            2, keys=(0, 4)  # one key per lane under identity routing
        ).run("simulated")
        elastic = shard_flow(2, keys=(0, 4)).run(
            "simulated",
            elastic=ElasticConfig(
                interval=1.0, min_lanes=1,
                policy=ScriptedPolicy([None, ScaleAction(1)]),
            ),
        )
        assert sink_rows(elastic) == sink_rows(baseline)
        group = elastic.metrics.shard_metrics["region"]
        assert group.rebalances == 1
        active = [lane.active for lane in group.lanes]
        assert active.count(False) == 1
        # The parked lane is excluded from skew and from the
        # peak-occupancy rollup (satellite: no stale edges).
        assert group.skew() >= 1.0
        assert len(elastic.metrics.inactive_edges) > 0
        for edge_key in elastic.metrics.inactive_edges:
            assert "->" in edge_key  # "producer->consumer[port]" keys
            assert edge_key in elastic.metrics.queue_metrics
        live_peak = elastic.metrics.peak_queue_occupancy()
        all_peaks = max(
            q.peak_occupancy
            for q in elastic.metrics.queue_metrics.values()
        )
        assert 0 <= live_peak <= all_peaks
        assert "(parked)" in elastic.metrics.shard_report()


def result_rebalances(result):
    return result.metrics.shard_metrics["region"].rebalances


class _ExplodingPolicy(ScalePolicy):
    def decide(self, observations):
        raise RuntimeError("policy exploded")


class TestTickFailure:
    @pytest.mark.parametrize("engine", ["threaded", "asyncio"])
    def test_raising_tick_aborts_the_run(self, engine):
        """One rule on both concurrent engines: a raising tick aborts the
        run at once instead of waiting for the plan to drain."""
        import asyncio
        import time

        data = rows(200)

        async def paced():  # ~4s of stream
            for arrival, tup in data:
                await asyncio.sleep(0.02)
                yield arrival, tup

        flow = Flow("tick-abort")
        (flow.from_async_iterable(SCHEMA, paced, name="src")
             .shard(2, key="sensor", name="region",
                    pipeline=lambda lane: lane.window(
                        count(), on="ts", width=1.0, by="sensor"))
             .collect("sink"))
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="policy exploded"):
            flow.run(
                engine, timeout=30.0,
                elastic=ElasticConfig(
                    interval=0.01, policy=_ExplodingPolicy()
                ),
            )
        assert time.monotonic() - start < 2.0


# ---------------------------------------------------------- minimal migration


class TestMinimalMigration:
    @given(
        data=st.data(),
        n_keys=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_exactly_the_moved_keys_migrate(self, data, n_keys):
        """A rebalance migrates the state of exactly the keys whose
        lane changed -- the minimal set -- and preserves the sink's
        multiset and punctuation sequence."""
        num_slots = 2 * 4
        keys = tuple(range(n_keys))
        moved_slots = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=num_slots - 1),
                min_size=1, max_size=4,
            )
        )
        table = RebalanceRouter.identity(2, 4).table
        moves = {
            slot: (table[slot] + 1) % 2 for slot in sorted(moved_slots)
        }
        action = RebalanceAction.moving(moves)

        # One wide window so each key holds exactly one open state
        # entry at the cut, and page_size=1 so every key's state is in
        # place (not buffered in an open page) by the first tick.
        flow_kwargs = dict(
            n_rows=120, keys=keys, dt=0.05, every=100.0, width=100.0,
            page_size=1,
        )
        baseline = shard_flow(**flow_kwargs).run("simulated")
        elastic = shard_flow(**flow_kwargs).run(
            "simulated",
            elastic=ElasticConfig(
                interval=1.0, slots_per_lane=4,
                policy=ScriptedPolicy([action]),
            ),
        )
        assert sink_rows(elastic) == sink_rows(baseline)
        assert (
            sink_punct_patterns(elastic) == sink_punct_patterns(baseline)
        )
        expected = {
            key for key in keys
            if slot_of(key, num_slots) in moves
        }
        report = elastic.metrics.shard_metrics["region"]
        assert report.rebalances == 1
        # One open window per key at the cut, so migrated state entries
        # == distinct keys whose slot moved: the minimal set, exactly.
        assert report.keys_migrated == len(expected)


# ------------------------------------------------------- adaptive watermarks


class TestAdaptiveWatermarks:
    def test_queue_resize_validation(self):
        unbounded = DataQueue("q")
        with pytest.raises(EngineError):
            unbounded.resize(16)
        bounded = DataQueue("q", capacity=32)
        with pytest.raises(EngineError):
            bounded.resize(0)
        with pytest.raises(EngineError):
            bounded.resize(16, low_water=16)
        bounded.resize(16)
        assert bounded.capacity == 16
        assert bounded.low_water == 8

    def test_capacities_track_drain_rate(self):
        plan = shard_flow(2, n_rows=400, dt=0.01).build(
            queue_capacity=64
        )
        engine = create_engine(
            "simulated", plan,
            elastic=ElasticConfig(
                interval=0.25, adapt_queues=True,
                policy=ScriptedPolicy([]),
                min_capacity=8,
            ),
        )
        result = engine.run()
        assert engine.elastic.ticks > 1
        assert engine.elastic.queue_resizes > 0
        assert sink_rows(result) == sink_rows(
            shard_flow(2, n_rows=400, dt=0.01).run("simulated")
        )
        for edge in plan.edges:
            if edge.queue.bounded:
                assert edge.queue.capacity >= 8


# ------------------------------------------------- metrics across composites


class TestFusedLaneMetrics:
    def test_fused_stage_metrics_carry_their_lane(self):
        flow = Flow("fuse-lane")
        (flow.source(SCHEMA, rows(80), name="src")
             .punctuate(on="ts", every=1.0)
             .shard(2, key="sensor", name="region",
                    pipeline=lambda lane: lane
                    .where(lambda t: t["value"] >= 0.0)
                    .extend([("d", "float")], lambda t: (t["value"],)))
             .collect("sink"))
        result = flow.run("simulated", optimize=True)
        lane_stage_keys = [
            name for name in result.metrics.operator_metrics
            if name.startswith("region[") and "::" in name
        ]
        assert "region[0]::where+map::where" in lane_stage_keys
        assert "region[1]::where_2+map_2::map_2" in lane_stage_keys
        # Lane rollups resolve the composite: ingress counted per lane.
        group = result.metrics.shard_metrics["region"]
        assert len(group.lanes) == 2
        assert sum(lane.tuples_in for lane in group.lanes) > 0

    def test_unsharded_composites_keep_the_plain_key(self):
        flow = Flow("fuse-flat")
        (flow.source(SCHEMA, rows(40), name="src")
             .punctuate(on="ts", every=1.0)
             .where(lambda t: True, name="keep")
             .extend([("d", "float")], lambda t: (t["value"],), name="ext")
             .collect("sink"))
        result = flow.run("simulated", optimize=True)
        assert "keep+ext::keep" in result.metrics.operator_metrics
