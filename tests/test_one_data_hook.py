"""The one-data-hook rule: every engine path reaches the same body.

An operator defines at most one data hook -- ``on_page`` for
batch-native operators, ``on_tuple`` for per-tuple ones (reached through
the default ``on_page``).  ``Operator.__init_subclass__`` refuses a class
that defines both, or an ``on_tuple`` under an inherited batch
``on_page``: such an ``on_tuple`` would run on some engine paths and be
skipped on others.  These tests pin the refusal for every batch-native
built-in, the single meaning of an ``on_page`` override across the
metered, batched, harness and concurrent paths, and that a custom
per-tuple operator still runs everywhere.
"""

from __future__ import annotations

import pytest

import repro.operators as ops
from repro.api import Flow
from repro.engine.harness import OperatorHarness
from repro.engine.multiprocess import fork_available
from repro.engine.registry import create_engine
from repro.operators import Operator, Select
from repro.stream import Schema, StreamTuple

SCHEMA = Schema([("ts", "timestamp", True), ("seg", "int"), ("v", "float")])
ROWS = [
    (float(i), StreamTuple(SCHEMA, (float(i), i % 3, float(i))))
    for i in range(10)
]

#: Every exported operator class with a batch ``on_page`` of its own.
BATCH_NATIVE = sorted(
    (
        cls for name in ops.__all__
        if isinstance(cls := getattr(ops, name), type)
        and issubclass(cls, Operator)
        and cls.on_page is not Operator.on_page
    ),
    key=lambda cls: cls.__name__,
)


def test_batch_native_discovery_covers_the_library():
    names = {cls.__name__ for cls in BATCH_NATIVE}
    assert {
        "Select", "Project", "Map", "PassThrough", "Union", "Duplicate",
        "SymmetricHashJoin", "ImpatientJoin", "ThriftyJoin",
        "WindowAggregate", "Partition", "ShardMerge", "PriorityBuffer",
        "CollectSink", "PushSink", "FusedOperator", "Pace",
    } <= names
    # Per-tuple operators keep the default on_page.
    assert not names & {"Router", "Impute"}


@pytest.mark.parametrize("parent", BATCH_NATIVE, ids=lambda c: c.__name__)
def test_on_tuple_under_batch_on_page_is_refused(parent):
    with pytest.raises(TypeError, match="inherits a batch on_page"):
        type("Twin", (parent,), {"on_tuple": lambda self, port, tup: None})


@pytest.mark.parametrize(
    "parent", [Operator, *BATCH_NATIVE], ids=lambda c: c.__name__
)
def test_defining_both_hooks_is_refused(parent):
    with pytest.raises(TypeError, match="also defines on_page"):
        type("Both", (parent,), {
            "on_tuple": lambda self, port, tup: None,
            "on_page": lambda self, port, batch: None,
        })


def test_refusal_names_the_remedy():
    # Without the rule, this counting override ran on the metered and
    # harness paths but was skipped on uncosted and threaded runs (Select's
    # batch on_page never called it): one operator, two meanings.
    with pytest.raises(TypeError) as raised:

        class Counting(Select):
            def on_tuple(self, port_index, tup):
                pass

    message = str(raised.value)
    assert "Counting" in message
    assert "inherits a batch on_page from Select" in message
    assert "override on_page instead" in message


def test_one_hook_classes_are_accepted():
    class PerTuple(Operator):
        def on_tuple(self, port_index, tup):
            self.emit(tup)

    class Batch(Operator):
        def on_page(self, port_index, batch):
            self.emit_many(batch)

    class BatchUnderPerTuple(PerTuple):
        def on_page(self, port_index, batch):
            self.emit_many(batch)

    class RefinedSelect(Select):
        def on_page(self, port_index, batch):
            super().on_page(port_index, batch)

    assert PerTuple.on_page is Operator.on_page
    assert BatchUnderPerTuple.on_page is not Operator.on_page


class CountingSelect(Select):
    """A Select whose data hook counts the tuples it is handed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def on_page(self, port_index, batch):
        self.calls += len(batch)
        super().on_page(port_index, batch)


def run_probe(engine: str, tuple_cost: float) -> tuple[int, int]:
    flow = Flow("probe")
    (flow.source(SCHEMA, ROWS, name="src")
         .apply(lambda: CountingSelect(
             "probe", SCHEMA, lambda t: True, tuple_cost=tuple_cost))
         .collect("sink"))
    plan = flow.build()
    options = {} if engine == "simulated" else {"timeout": 30.0}
    create_engine(engine, plan, **options).run()
    return plan.operator("probe").calls, len(plan.operator("sink").results)


@pytest.mark.parametrize(
    "engine, tuple_cost",
    [
        ("simulated", 0.5),   # metered: per-element dispatch
        ("simulated", 0.0),   # uncosted: page batches
        ("threaded", 0.0),
        ("asyncio", 0.0),
    ],
    ids=["simulated-costed", "simulated", "threaded", "asyncio"],
)
def test_override_runs_on_every_engine_path(engine, tuple_cost):
    assert run_probe(engine, tuple_cost) == (10, 10)


def test_override_runs_in_the_harness():
    probe = CountingSelect("probe", SCHEMA, lambda t: True)
    harness = OperatorHarness(probe)
    for _, tup in ROWS:
        harness.push(tup)
    assert probe.calls == 10
    assert len(harness.emitted_tuples()) == 10


class Doubler(Operator):
    """A custom per-tuple operator: only ``on_tuple``."""

    def on_tuple(self, port_index, tup):
        self.emit(tup)
        self.emit(tup)


ENGINES = [
    "simulated",
    "threaded",
    "asyncio",
    pytest.param(
        "multiprocess",
        marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method unavailable"
        ),
    ),
]


@pytest.mark.parametrize("engine", ENGINES)
def test_custom_on_tuple_operator_runs_on_every_engine(engine):
    flow = Flow("custom")
    (flow.source(SCHEMA, ROWS, name="src")
         .apply(lambda: Doubler("double", SCHEMA))
         .collect("sink"))
    plan = flow.build()
    options = {} if engine == "simulated" else {"timeout": 60.0}
    create_engine(engine, plan, **options).run()
    got = sorted(tuple(t.values) for t in plan.operator("sink").results)
    assert got == sorted(2 * [tuple(t.values) for _, t in ROWS])


def test_operator_without_a_data_hook_fails_on_first_tuple():
    class Hookless(Operator):
        pass

    harness = OperatorHarness(Hookless("none", SCHEMA))
    with pytest.raises(NotImplementedError, match="neither on_page nor on_tuple"):
        harness.push(ROWS[0][1])
