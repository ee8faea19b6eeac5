"""The repository benchmark: four workloads on the public engine API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25   # every workload, one table
    python3 perfbench/run.py --smoke                      # tiny inputs, asserts names

Each run generates its inputs from ``--seed``, runs the workload's flow
on every engine (``Flow.build`` + ``create_engine`` + ``run()``, the
engine with the least run time so far next) for ``--seconds``, checks
every output against a reference, prints each metric by name with its
unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Throughput is an aggregate rate: all source tuples of the timed runs
over their total ``run()`` wall time, with each run's wall time scaled
to a reference host speed measured around it (``workloads.calibrate``;
the unscaled rate is the per-layer ``throughput_raw_tps.<engine>``).
``--trace 0`` reports the gated end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` first repeats the untraced measurement, then traces one run
per engine and reports the per-layer metrics (``perfbench/interactions
.json`` says which end-to-end metric each should move, and where it
should stay flat).  Spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import served  # noqa: E402
import workloads  # noqa: E402
from workloads import ENGINES, FEEDBACK_ENGINES  # noqa: E402

WORKLOADS = ("replay-chain", "feedback-guards", "served-ingest", "durable-shard")
#: served-ingest set-up trials (server start + admit + both handshakes).
SETUP_TRIALS = 7
#: Share of a served-ingest run's seconds given to the engine floors, to
#: each of the six steps, and to the fixed-rate latency phase.
SERVED_FLOOR_SHARE, SERVED_STEP_SHARE, SERVED_LATENCY_SHARE = 0.7, 0.03, 0.1
#: Traced runs per engine in a ``--trace 1`` run.
TRACED_RUNS = 3
#: Bound on the whole served leg, so a wedged server cannot hang the run.
SERVED_TIMEOUT_S = 120.0


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def mean_us(row: list[int] | None) -> float:
    """Mean self time per call, in microseconds."""
    return row[1] / row[0] / 1e3 if row else 0.0


class Run:
    """The measurements of one workload run, turned into metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> None:
        self.name, self.seed, self.seconds = name, seed, seconds
        self.trace, self.smoke = trace, smoke
        self.attempted = self.failed = 0
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.workdir = ROOT / ".bench_tmp"
        self.out_dir = ROOT / ".bench_out"
        self.workdir.mkdir(exist_ok=True)
        self.out_dir.mkdir(exist_ok=True)

    def execute(self) -> None:
        tuples = workloads.SMOKE_TUPLES if self.smoke else workloads.TUPLES
        job = workloads.BATCH_JOBS[self.name](self.seed, tuples)
        batch_seconds = self.seconds
        served_stats: dict = {}
        if self.name == "served-ingest":
            batch_seconds *= SERVED_FLOOR_SHARE
            served_stats = asyncio.run(self.serve())
        legs = workloads.measure(job, batch_seconds, self.workdir)
        for leg in legs.values():
            self.attempted += leg.attempted
            self.failed += leg.failed
        for engine in ENGINES:
            leg = legs[engine]
            self.e2e[f"throughput_tps.{engine}"] = leg.rate(job.tuples)
            wall = leg.mean_wall()
            self.layers[f"throughput_raw_tps.{engine}"] = (
                job.tuples / wall if wall else 0.0
            )
        self.layers["host.speed"] = workloads.median(
            [leg.host_speed() for leg in legs.values()]
        )
        setup = sum(leg.median_setup() for leg in legs.values())
        self.layers["setup.build_s"] = sum(
            workloads.median(leg.builds) for leg in legs.values()
        )
        self.layers["setup.engine_s"] = sum(
            workloads.median(leg.constructs) for leg in legs.values()
        )
        self.layers["setup.server_s"] = served_stats.get("setup_s", 0.0)
        self.e2e["setup_s"] = setup + self.layers["setup.server_s"]
        for engine in ENGINES:
            details = [d["source_drop_frac"] for d in legs[engine].details
                       if "source_drop_frac" in d]
            self.layers[f"guards.source_drop_frac.{engine}"] = (
                workloads.median(details)
            )
        if self.name == "feedback-guards":
            self.layers["feedback_avoided_frac"] = min(
                self.layers[f"guards.source_drop_frac.{e}"]
                for e in FEEDBACK_ENGINES
            )
        if self.trace:
            self.trace_legs(job, legs, served_stats)
        self.e2e["peak_rss_mb"] = peak_rss_mb()
        self.layers["failed_frac"] = self.failed / max(1, self.attempted)

    # -- served-ingest -------------------------------------------------------

    async def serve(self) -> dict:
        """Set-up trials, the step schedule, then the fixed-rate phase.

        Every phase's messages are generated up front; if the served leg
        errors or times out, each message of a phase not yet checked
        counts as a failed operation.
        """
        step_s = self.seconds * SERVED_STEP_SHARE
        latency_s = self.seconds * SERVED_LATENCY_SHARE
        plan = [(rate, step_s) for rate in served.STEP_RATES]
        plan.append((served.LATENCY_RATE, latency_s))
        if self.trace:
            plan.append((served.LATENCY_RATE, latency_s))
        phases, seq = [], 0
        for rate, duration in plan:
            count = max(20, int(rate * duration))
            phases.append((rate, workloads.served_messages(self.seed, count, seq)))
            seq += count
        stats: dict = {"phases": []}
        server = await served.ServerProcess.spawn(ROOT, self.out_dir)
        try:
            await asyncio.wait_for(
                self.drive(server, phases, stats), SERVED_TIMEOUT_S
            )
        except (Exception, asyncio.TimeoutError):  # noqa: BLE001 - counted
            traceback.print_exc(file=sys.stderr)
            for _, batch in phases[len(stats["phases"]):]:
                lost = sum(1 for m in batch if workloads.served_keep(m))
                self.attempted += lost
                self.failed += lost
        finally:
            await server.close()
        return stats

    async def drive(self, server: served.ServerProcess, phases: list,
                    stats: dict) -> None:
        async def run(connection: served.Connection, index: int
                      ) -> served.Phase:
            rate, batch = phases[index]
            phase = await connection.run_phase(batch, rate)
            stats["phases"].append(phase)
            self.attempted += phase.expected
            self.failed += phase.failed
            return phase

        setups = []
        for trial in range(SETUP_TRIALS):
            connection, elapsed = await served.open_server(server)
            setups.append(elapsed)
            if trial < SETUP_TRIALS - 1:
                await served.close_server(server, connection)
        stats["setup_s"] = statistics.median(setups)
        steps = len(served.STEP_RATES)
        stats["sustainable_rate"] = max(
            (p.rate for p in [await run(connection, i) for i in range(steps)]
             if p.sustained()),
            default=0.0,
        )
        stats["latency"] = await run(connection, steps)
        stats["server"] = await served.close_server(server, connection)
        if self.trace:
            await server.call("trace")
            connection, _ = await served.open_server(server)
            stats["traced_latency"] = await run(connection, steps + 1)
            stats["traced_server"] = await served.close_server(
                server, connection
            )

    # -- traced legs ---------------------------------------------------------

    def trace_legs(self, job, legs, served_stats: dict) -> None:
        """``TRACED_RUNS`` traced runs per engine, each paired with an
        untraced run right before it (host drift cancels in the ratio).

        Per-layer figures are per traced run (tables averaged over runs).
        """
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        tables = {engine: [] for engine in ENGINES}
        traced = {engine: workloads.Leg(engine) for engine in ENGINES}
        paired = {engine: workloads.Leg(engine) for engine in ENGINES}
        path = self.out_dir / f"spans-{self.name}-{self.seed}.jsonl"
        with path.open("w") as out:
            for _ in range(TRACED_RUNS):
                for engine in ENGINES:
                    tracer.set_active(False)
                    workloads.run_once(job, paired[engine], self.workdir)
                    tracer.set_active(True)
                    workloads.run_once(job, traced[engine], self.workdir)
                    spans = tracer.take()
                    layertrace.write_spans(out, spans, engine)
                    tables[engine].append(layertrace.self_times(spans))
        tracer.set_active(False)
        for engine, leg in traced.items():
            for run in (leg, paired[engine]):
                self.attempted += run.attempted
                self.failed += run.failed
            table = layertrace.merge_tables(tables[engine], TRACED_RUNS)
            wall, untraced = leg.mean_wall(), paired[engine].mean_wall()
            self.layers[f"trace.overhead_frac.{engine}"] = (
                wall / untraced - 1.0 if untraced and wall else 0.0
            )
            self.layers[f"engine.residual_frac.{engine}"] = residual(table, wall)
            print_shares(f"{self.name} {engine}", table)
            if engine == "simulated":
                self.layers["guards.self_share.simulated"] = guard_share(table)
        engines_table = layertrace.merge_tables(
            [t for per_engine in tables.values() for t in per_engine],
            TRACED_RUNS,
        )
        self.layers["engine.residual_frac"] = residual(
            engines_table, sum(leg.mean_wall() for leg in traced.values())
        )
        server_table = served_stats.get("traced_server", {}).get("spans", {})
        merged = layertrace.merge_tables([engines_table, server_table])
        results = [leg.last_result for leg in legs.values() if leg.last_result]
        self.layer_metrics(merged, results, served_stats)

    def layer_metrics(self, table: dict, results: list, served_stats: dict
                      ) -> None:
        get = table.get
        m = self.layers
        admit = get("source.admit")
        m["source.admits"] = admit[0] if admit else 0
        m["source.admit_us"] = mean_us(admit)
        polls = get("queue.get")
        m["engine.empty_poll_frac"] = polls[2] / polls[0] if polls else 0.0
        drain = get("control.drain")
        m["control.drains"] = drain[0] if drain else 0
        m["control.drain_us"] = mean_us(drain)
        m["control.hit_frac"] = drain[2] / drain[0] if drain else 0.0
        server = served_stats.get("server", {})
        m["control.pauses"] = sum(
            op.pauses_issued for r in results
            for op in r.metrics.operator_metrics.values()
        ) + server.get("pauses", 0)
        pages = get("operator.page")
        m["operators.pages"] = pages[0] if pages else 0
        m["operators.page_us"] = mean_us(pages)
        m["operators.tuples_per_page"] = pages[2] / pages[0] if pages else 0.0
        guard_rows = [get(n) for n in ("guards.blocks", "guards.filter")]
        guard_rows = [r for r in guard_rows if r]
        checks = sum(r[2] for r in guard_rows)
        m["guards.checks"] = checks
        m["guards.check_us"] = (
            sum(r[1] for r in guard_rows) / checks / 1e3 if checks else 0.0
        )
        m["guards.drop_frac"] = (
            sum(r[3] for r in guard_rows) / checks if checks else 0.0
        )
        m["guards.active_peak"] = max((r[4] for r in guard_rows), default=0)
        puts = get("queue.put")
        m["queues.puts"] = puts[0] if puts else 0
        m["queues.put_us"] = mean_us(puts)
        m["queues.get_us"] = mean_us(polls)
        m["queues.peak_occupancy"] = max(
            [r.metrics.peak_queue_occupancy() for r in results]
            + [server.get("queue_peak", 0)]
        )
        encode, decode = get("codec.encode"), get("codec.decode")
        m["codec.encode_us"] = mean_us(encode)
        m["codec.decode_us"] = mean_us(decode)
        m["codec.bytes_per_tuple"] = (
            encode[3] / encode[2] if encode and encode[2] else 0.0
        )
        snaps = get("durability.snapshot")
        m["durability.snapshots"] = snaps[0] if snaps else 0
        m["durability.snapshot_us"] = mean_us(snaps)
        epochs = sum(r.metrics.checkpoint_epochs for r in results)
        m["durability.snapshot_bytes"] = (
            sum(r.metrics.checkpoint_bytes for r in results) / epochs
            if epochs else 0.0
        )
        m["durability.store_us"] = mean_us(get("durability.store"))
        m["partition.route_us"] = mean_us(get("partition.page"))
        m["partition.skew"] = max(
            (g.skew() for r in results for g in r.metrics.shard_metrics.values()),
            default=0.0,
        )
        m["serving.wire_us"] = mean_us(get("serving.wire"))
        m["serving.codec_us"] = mean_us(get("serving.codec"))
        m["serving.admission_us"] = mean_us(get("serving.admission"))
        m["channels.put_wait_ms"] = mean_us(get("channels.put")) / 1e3
        m["channels.publish_us"] = mean_us(get("channels.publish"))
        m["channels.peak_backlog"] = server.get("backlog_peak", 0)
        latency: served.Phase | None = served_stats.get("latency")
        traced: served.Phase | None = served_stats.get("traced_latency")
        m["sustainable_rate"] = served_stats.get("sustainable_rate", 0.0)
        p50 = served.quantile(latency.latencies_ms, 0.5) if latency else 0.0
        m["latency_p50_ms"] = p50
        m["latency_p99_ms"] = (
            served.quantile(latency.latencies_ms, 0.99) if latency else 0.0
        )
        m["latency.samples"] = len(latency.latencies_ms) if latency else 0
        m["loadgen.lag_ms"] = (
            served.quantile(latency.lags_ms, 0.99) if latency else 0.0
        )
        m["trace.overhead_frac.served"] = (
            served.quantile(traced.latencies_ms, 0.5) / p50 - 1.0
            if traced and p50 else 0.0
        )
        m.setdefault("feedback_avoided_frac", 0.0)


def print_shares(title: str, table: dict) -> None:
    """Each layer's share of the leg's traced self time, largest first."""
    busy = sum(row[1] for row in table.values()) or 1
    shares = sorted(((row[1] / busy, name) for name, row in table.items()),
                    reverse=True)
    print(f"# self-time shares, {title}: " + ", ".join(
        f"{name} {share:.0%}" for share, name in shares if share >= 0.01))


def residual(table: dict, wall: float) -> float:
    """Share of a leg's wall time outside every timed layer's self time."""
    busy = sum(row[1] for row in table.values()) / 1e9
    return max(0.0, 1.0 - busy / wall) if wall else 0.0


def guard_share(table: dict) -> float:
    """Guard self time as a share of all operator-side self time."""
    busy = sum(row[1] for row in table.values())
    guards = sum(table[n][1] for n in ("guards.blocks", "guards.filter",
                                       "guards.inject") if n in table)
    return guards / busy if busy else 0.0


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def select(values: dict[str, float], specs: list[dict]) -> dict:
    """Exactly the declared metrics, in declared order, with their units."""
    return {
        spec["name"]: {"value": float(values[spec["name"]]),
                       "unit": spec["unit"]}
        for spec in specs
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[Run, dict]:
    run = Run(name, seed, seconds, trace, smoke)
    run.execute()
    spec = declared()
    metrics = select(run.e2e, spec["end_to_end"])
    layers = select(run.layers, spec["per_layer"]) if trace else {}
    return run, {"e2e": metrics, "layers": layers}


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']}")


def smoke() -> int:
    """Tiny inputs, every workload traced, no failure allowed.

    :func:`select` raises on any declared metric a workload did not
    compute, so reaching the end means every name was emitted.
    """
    problems = []
    for name in WORKLOADS:
        run, _ = run_workload(name, 1, 0.5, True, smoke=True)
        if run.failed:
            problems.append(f"{name}: {run.failed}/{run.attempted} failed")
        print(f"{name}: attempted {run.attempted}, failed {run.failed}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("smoke ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload; result keys become "
                             "WORKLOAD:METRIC")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    names = WORKLOADS if args.all else (args.workload,)
    if names == (None,):
        parser.error("give --workload NAME, --all or --smoke")
    print(f"# environment {json.dumps(environment())}")
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        run, out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += run.attempted
        failed += run.failed
        print_table(f"{name} end-to-end (seed {args.seed})", out["e2e"])
        print(f"  {'failed_frac':<36} {run.failed / max(1, run.attempted):>16.6g}"
              f" frac ({run.failed}/{run.attempted})")
        if args.trace:
            print_table(f"{name} per-layer (traced)", out["layers"])
        chosen = out["layers"] if args.trace else out["e2e"]
        if args.all:
            chosen = {f"{name}:{key}": v for key, v in chosen.items()}
        metrics.update(chosen)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
