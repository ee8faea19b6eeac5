"""Seeded inputs, flows, output oracles and the engine-leg runner.

Every workload is a *job*: a :class:`repro.Flow` over pre-generated
inputs plus an oracle that checks one run's sink output.  The engine
sees only the generated inputs; references are computed once per seed by
a pure-Python fold, outside every timed region.
"""

from __future__ import annotations

import gc
import math
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import FeedbackPunctuation, Flow, Pattern, Schema, StreamTuple
from repro.api import avg
from repro.core.correctness import check_correct_exploitation
from repro.durability import DirectoryCheckpointStore
from repro.engine.registry import create_engine

ENGINES = ("simulated", "threaded", "asyncio", "multiprocess")
#: Engines whose legs define ``feedback_avoided_frac`` (the multiprocess
#: leg's feedback crosses a process boundary and is reported on its own).
FEEDBACK_ENGINES = ("simulated", "threaded", "asyncio")
ENGINE_TIMEOUT_S = 60.0
#: Timed runs per engine even when ``--seconds`` is shorter than a round.
MIN_ROUNDS = 3
#: Iterations of :func:`calibrate`, and its median time on the reference
#: host (a 2-vCPU Xeon VM, Python 3.11) at which throughputs are reported.
CALIBRATION_ROUNDS = 20000
CALIBRATION_REF_S = 0.006

SCHEMA = Schema([("ts", "timestamp", True), ("key", "int"), ("v", "float")])
SERVED_SCHEMA = Schema([
    ("client", "str"), ("seq", "int"), ("x", "int"), ("at", "float"),
])
KEYS = 64
FEEDBACK_KEYS = 48
WINDOW_S = 1.0
TUPLES_PER_S = 1000
#: Checkpoint epochs per durable-shard run, at any input size.  Few, so
#: that file writes stay a minor share of the run: their cost does not
#: follow the host's CPU speed, which :func:`calibrate` measures.
CHECKPOINT_EPOCHS = 4
HEAVY_ROUNDS = 128

#: Source tuples per run on every workload (``--smoke`` uses the small one).
TUPLES, SMOKE_TUPLES = 4000, 300


# -- inputs --------------------------------------------------------------------


def keyed_rows(seed: int, n: int) -> list[tuple[float, StreamTuple]]:
    """``n`` tuples over 64 keys, 1000 per second of event time."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        ts = i / TUPLES_PER_S
        value = round(rng.uniform(0.0, 100.0), 3)
        rows.append((ts, StreamTuple(SCHEMA, (ts, rng.randrange(KEYS), value))))
    return rows


def served_messages(seed: int, n: int, start_seq: int = 0) -> list[dict]:
    rng = random.Random(seed * 7919 + start_seq)
    return [
        {"client": "c0", "seq": start_seq + i, "x": rng.randrange(1 << 20),
         "at": 0.0}
        for i in range(n)
    ]


# -- plan pieces (module level: forked workers must reach them) -----------------


def _w_low(t: StreamTuple) -> bool:
    return t["v"] >= 0.5


def _w_high(t: StreamTuple) -> bool:
    return t["v"] <= 99.5


def _w_key(t: StreamTuple) -> bool:
    return t["key"] >= 0


def _w_time(t: StreamTuple) -> bool:
    return t["ts"] >= 0.0


CHEAP_WHERES = (_w_low, _w_high, _w_key, _w_time)


def heavy(t: StreamTuple) -> bool:
    """Deliberately CPU-bound predicate (the durable-shard compute)."""
    x = t["key"] + 1
    for _ in range(HEAVY_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return (x ^ int(t["v"] * 1000)) % 8 != 0


def served_keep(t: Any) -> bool:
    return t["x"] % 8 != 0


def served_extend(t: Any) -> tuple[int]:
    return (t["x"] * 3 + 1,)


# -- oracles -------------------------------------------------------------------


def window_reference(rows: list, keep: Callable[[Any], bool]) -> Counter:
    """Pure fold of ``window(avg v, by key, width 1s)`` over kept rows."""
    totals: dict[tuple[int, int], list[float]] = {}
    for _, tup in rows:
        if not keep(tup):
            continue
        cell = totals.setdefault(
            (math.floor(tup["ts"] / WINDOW_S), tup["key"]), [0.0, 0]
        )
        cell[0] += tup["v"]
        cell[1] += 1
    return Counter(
        (window, key, total / count)
        for (window, key), (total, count) in totals.items()
    )


def multiset_failures(expected: Counter, actual: list) -> int:
    """Failed outputs: a mismatch is one missing plus one extra output."""
    got = Counter(tuple(t.values) for t in actual)
    return max(sum((expected - got).values()), sum((got - expected).values()))


@dataclass
class Check:
    attempted: int
    failed: int
    detail: dict[str, float] = field(default_factory=dict)


@dataclass
class Job:
    """One workload's flow, its input size and its oracle."""

    flow: Flow
    tuples: int
    check: Callable[[Any, Any], Check]
    expected_outputs: int
    #: Source elements between checkpoint markers (None: durability off).
    checkpoint_every: int | None = None


def _chain(flow: Flow, rows: list) -> Any:
    handle = flow.source(SCHEMA, rows, name="src").punctuate(
        on="ts", every=WINDOW_S
    )
    for predicate in CHEAP_WHERES:
        handle = handle.where(predicate)
    return handle.window(avg("v"), by="key", width=WINDOW_S, on="ts")


def _keep_all_cheap(tup: StreamTuple) -> bool:
    return all(p(tup) for p in CHEAP_WHERES)


def replay_chain(seed: int, n: int) -> Job:
    rows = keyed_rows(seed, n)
    flow = Flow("replay-chain")
    _chain(flow, rows).collect("sink")
    expected = window_reference(rows, _keep_all_cheap)

    def check(plan: Any, result: Any) -> Check:
        out = plan.operator("sink").results
        return Check(len(expected), multiset_failures(expected, out))

    return Job(flow, n, check, len(expected))


def feedback_guards(seed: int, n: int) -> Job:
    rows = keyed_rows(seed, n)
    keys = sorted(random.Random(seed ^ 0x5EED).sample(range(KEYS), FEEDBACK_KEYS))
    flow = Flow("feedback-guards")
    window = _chain(flow, rows)
    out_schema = window.schema
    patterns = [Pattern.from_mapping(out_schema, {"key": k}) for k in keys]
    covered = Pattern.from_mapping(out_schema, {"key": set(keys)})

    def inject_at_start(sink: Any) -> None:
        start = sink.on_start

        def on_start() -> None:
            start()
            for pattern in patterns:
                sink.inject_feedback(FeedbackPunctuation.assumed(pattern))

        sink.on_start = on_start

    window.collect("sink", configure=inject_at_start)
    reference = [
        StreamTuple(out_schema, values)
        for values in window_reference(rows, _keep_all_cheap).elements()
    ]
    key_set = set(keys)
    matching = sum(1 for _, tup in rows if tup["key"] in key_set)

    def check(plan: Any, result: Any) -> Check:
        out = plan.operator("sink").results
        report = check_correct_exploitation(reference, out, covered)
        drops = result.metrics.operator_metrics["src"].output_guard_drops
        return Check(
            len(reference),
            max(len(report.invented), len(report.wrongly_suppressed)),
            {"source_drop_frac": drops / matching},
        )

    return Job(flow, n, check, len(reference))


def durable_shard(seed: int, n: int) -> Job:
    rows = keyed_rows(seed, n)
    flow = Flow("durable-shard")
    (flow.source(SCHEMA, rows, name="src")
         .punctuate(on="ts", every=WINDOW_S)
         .shard(2, key="key", pipeline=lambda lane: lane
                .where(heavy)
                .window(avg("v"), by="key", width=WINDOW_S, on="ts"))
         .collect("sink"))
    expected = window_reference(rows, heavy)

    def check(plan: Any, result: Any) -> Check:
        out = plan.operator("sink").results
        failed = multiset_failures(expected, out)
        if result.metrics.checkpoint_epochs < 1:
            failed = len(expected)  # durability silently off
        return Check(len(expected), failed)

    return Job(flow, n, check, len(expected),
               checkpoint_every=max(1, n // CHECKPOINT_EPOCHS))


def served_floor(seed: int, n: int) -> Job:
    """The served flow's plan replayed from a list: the engine floor."""
    messages = served_messages(seed, n)
    rows = [
        (i / TUPLES_PER_S, StreamTuple(SERVED_SCHEMA, tuple(m.values())))
        for i, m in enumerate(messages)
    ]
    flow = Flow("served-floor")
    (flow.source(SERVED_SCHEMA, rows, name="src")
         .where(served_keep)
         .extend([("y", "int")], served_extend)
         .collect("sink"))
    expected = Counter(
        tuple(m.values()) + (m["x"] * 3 + 1,)
        for m in messages if m["x"] % 8 != 0
    )

    def check(plan: Any, result: Any) -> Check:
        out = plan.operator("sink").results
        return Check(len(expected), multiset_failures(expected, out))

    return Job(flow, n, check, len(expected))


BATCH_JOBS = {
    "replay-chain": replay_chain,
    "feedback-guards": feedback_guards,
    "durable-shard": durable_shard,
    "served-ingest": served_floor,
}


# -- leg runner ----------------------------------------------------------------


@dataclass
class Leg:
    """Every run of one job on one engine."""

    engine: str
    walls: list[float] = field(default_factory=list)
    builds: list[float] = field(default_factory=list)
    constructs: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    details: list[dict[str, float]] = field(default_factory=list)
    last_result: Any = None
    #: Per timed run, the mean of :func:`calibrate` just before and after.
    calibrations: list[float] = field(default_factory=list)

    def mean_wall(self) -> float:
        """Total run() wall time over timed runs, per run.

        ``tuples / mean_wall()`` is the leg's aggregate rate: all source
        tuples over all run time.  On a shared 2-vCPU host, run times are
        often bimodal (a fast and a ~1.7x slower contention state lasting
        seconds); the median then flips between the modes with their mix,
        while the aggregate rate moves smoothly with it.
        """
        return sum(self.walls) / len(self.walls) if self.walls else 0.0

    def host_speed(self) -> float:
        """How fast the host ran during this leg's timed runs, relative to
        the reference (1.0 = :data:`CALIBRATION_REF_S` per calibration)."""
        if not self.calibrations:
            return 0.0
        return CALIBRATION_REF_S * len(self.calibrations) / sum(self.calibrations)

    def rate(self, tuples: int) -> float:
        """Aggregate rate (source tuples per second of ``run()``) at the
        reference host speed: each run's wall time is scaled by the host
        speed measured around it before the walls are summed."""
        scaled = sum(
            wall * CALIBRATION_REF_S / calibration
            for wall, calibration in zip(self.walls, self.calibrations)
        )
        return tuples * len(self.walls) / scaled if scaled else 0.0

    def median_setup(self) -> float:
        return median([b + c for b, c in zip(self.builds, self.constructs)])


def median(values: list[float]) -> float:
    """The median, or 0.0 when every run failed."""
    return statistics.median(values) if values else 0.0


def calibrate() -> float:
    """Seconds a fixed pure-Python keyed fold takes right now.

    The shared host switches between a fast and a up to 2x slower state
    in spells of tens of milliseconds to about a second, and the mix
    drifts over minutes.  Timing this fold, which touches no code of the
    repository, around every timed run measures the state each run saw,
    so the throughputs can be reported at one reference host speed.
    """
    t0 = time.perf_counter()
    cells: dict[int, list] = {}
    for i in range(CALIBRATION_ROUNDS):
        key = i * 2654435761 % KEYS
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = [0.0, 0]
        cell[0] += i * 0.5
        cell[1] += 1
    sorted((key, total / count) for key, (total, count) in cells.items())
    return time.perf_counter() - t0


def run_once(job: Job, leg: Leg, workdir: Path, *, record: bool = True) -> float:
    """Build, construct and run ``job`` on ``leg.engine``; check the output.

    Returns the run's wall time (0.0 when it failed).  An engine error or
    timeout counts every expected output of the run as failed.
    """
    options: dict[str, Any] = {}
    if leg.engine != "simulated":
        options["timeout"] = ENGINE_TIMEOUT_S
    store_dir = None
    if job.checkpoint_every is not None:
        store_dir = tempfile.mkdtemp(prefix="ckpt-", dir=workdir)
        options["checkpoint_every"] = job.checkpoint_every
        options["checkpoint_store"] = DirectoryCheckpointStore(store_dir)
    # Every run starts from the same collector state; the engine's own
    # garbage is still collected inside the timed region.
    gc.collect()
    try:
        t0 = time.perf_counter()
        plan = job.flow.build()
        t1 = time.perf_counter()
        engine = create_engine(leg.engine, plan, **options)
        t2 = time.perf_counter()
        result = engine.run()
        t3 = time.perf_counter()
        verdict = job.check(plan, result)
    except Exception:  # noqa: BLE001 - a failed leg is reported, not fatal
        traceback.print_exc(file=sys.stderr)
        leg.attempted += job.expected_outputs
        leg.failed += job.expected_outputs
        return 0.0
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
    leg.attempted += verdict.attempted
    leg.failed += verdict.failed
    leg.details.append(verdict.detail)
    leg.last_result = result
    if record:
        leg.walls.append(t3 - t2)
        leg.builds.append(t1 - t0)
        leg.constructs.append(t2 - t1)
    return t3 - t2


def measure(job: Job, seconds: float, workdir: Path) -> dict[str, Leg]:
    """Share ``seconds`` of run time evenly over every engine.

    One untimed warm-up round first (its outputs are still checked).
    Then the engine with the least total run time so far runs next,
    until the budget is spent and every engine has at least
    ``MIN_ROUNDS`` timed runs.  A fast engine thus runs more often than
    a slow one, every engine's rate averages over the same span of host
    load, and the fine interleaving spreads host-load drift evenly.
    """
    legs = {engine: Leg(engine) for engine in ENGINES}
    for leg in legs.values():
        run_once(job, leg, workdir, record=False)
    # A leg leaves the schedule after a failed run (which records no
    # wall time, so it would otherwise stay the least-run leg forever).
    active = list(legs.values())
    deadline = time.perf_counter() + seconds
    while active and (time.perf_counter() < deadline
                      or min(len(leg.walls) for leg in active) < MIN_ROUNDS):
        leg = min(active, key=lambda leg: sum(leg.walls))
        before = calibrate()
        if run_once(job, leg, workdir):
            leg.calibrations.append((before + calibrate()) / 2)
        else:
            active.remove(leg)
    return legs
