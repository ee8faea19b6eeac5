"""served-ingest: a StreamServer in its own process, driven open-loop.

Run as ``python3 served.py serve OUT_DIR`` this module is the server
process: it hosts ``ingest -> where -> extend -> push`` behind a
:class:`repro.serving.StreamServer` and obeys one command per stdin line
(``start``, ``stop``, ``trace``, ``exit``), answering each with one JSON
line on stdout.  Imported, it is the benchmark side: an open-loop load
generator over one ingest websocket and one subscribe websocket.

The generator never slows down for the server: message ``i`` of a phase
is due at ``start + i / rate`` and is stamped with that *scheduled* time,
so a stall in the server (or in the generator) shows up as latency of
every message queued behind it.  How late sends actually went out is
recorded separately as ``loadgen.lag_ms``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

# ``repro`` and ``workloads`` are imported inside functions: the server
# process puts ``src/`` on the path only once it runs as ``__main__``.

FLOW = "served"
QUEUE_CAPACITY = 64
#: Latency limit on p99 for a step to count as sustained.
LATENCY_LIMIT_MS = 50.0
#: Offered rates (msg/s) of the step schedule, lowest first.
STEP_RATES = (1000, 2000, 3000, 4000, 6000, 8000)
#: The fixed offered rate of the latency phase (below sustainable_rate).
LATENCY_RATE = 1000
#: How long to wait for a phase's stragglers before counting them lost.
DRAIN_WAIT_S = 10.0


# -- server process ------------------------------------------------------------


def served_flow() -> Any:
    from repro import Flow
    from workloads import SERVED_SCHEMA, served_extend, served_keep

    flow = Flow(FLOW)
    (flow.ingest(SERVED_SCHEMA, name="in")
         .where(served_keep)
         .extend([("y", "int")], served_extend)
         .push("out"))
    return flow


async def serve_commands(out_dir: Path) -> None:
    from repro.serving import FlowSupervisor, StreamServer, TenantPolicy
    from layertrace import Tracer, install, self_times, write_spans

    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    tracer: Tracer | None = None
    server = flow = supervisor = None

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    while True:
        command = (await commands.readline()).decode().strip()
        if command in ("", "exit"):
            break
        if command == "trace":
            tracer = Tracer()
            install(tracer, serving=True)
            reply({})
        elif command == "start":
            flow = served_flow()
            supervisor = FlowSupervisor(queue_capacity=QUEUE_CAPACITY)
            supervisor.admit(
                flow, policy=TenantPolicy(rate=1e6, burst=1e6, max_flows=1)
            )
            server = StreamServer(supervisor)
            _, port = await server.start()
            reply({"port": port})
        elif command == "stop":
            await server.aclose(drain=True)
            metrics = supervisor.flows[0].result.metrics
            stats = {
                "pauses": sum(
                    m.pauses_issued for m in metrics.operator_metrics.values()
                ),
                "queue_peak": metrics.peak_queue_occupancy(),
                "backlog_peak": max(
                    flow.channel().peak_backlog, flow.hub().peak_backlog
                ),
            }
            if tracer is not None:
                spans = tracer.take()
                stats["spans"] = self_times(spans)
                with (out_dir / "spans-served-server.jsonl").open("w") as out:
                    write_spans(out, spans)
            reply(stats)


# -- benchmark side: the load generator ---------------------------------------


class ServerProcess:
    """The server subprocess and its line protocol."""

    def __init__(self, proc: asyncio.subprocess.Process) -> None:
        self.proc = proc

    @classmethod
    async def spawn(cls, root: Path, out_dir: Path) -> "ServerProcess":
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(Path(__file__).resolve()), "serve",
            str(out_dir),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            cwd=str(root),
        )
        return cls(proc)

    async def call(self, command: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(command.encode() + b"\n")
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(), timeout)
        if not line:
            raise RuntimeError(f"server process exited during {command!r}")
        return json.loads(line)

    async def close(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.stdin.write(b"exit\n")
                await self.proc.stdin.drain()
                await asyncio.wait_for(self.proc.wait(), 10.0)
            except (asyncio.TimeoutError, ConnectionError):
                self.proc.kill()
                await self.proc.wait()


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile by rank (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Phase:
    """One open-loop phase: offered rate, and what came back."""

    rate: float
    expected: int = 0
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)

    def sustained(self) -> bool:
        """All delivered, p99 under the limit, and no growing backlog."""
        if self.failed or len(self.latencies_ms) < self.expected:
            return False
        if quantile(self.latencies_ms, 0.99) > LATENCY_LIMIT_MS:
            return False
        half = len(self.latencies_ms) // 2
        early = statistics.median(self.latencies_ms[:half])
        late = statistics.median(self.latencies_ms[half:])
        return late <= 1.5 * early + 1.0


class Connection:
    """One ingest and one subscribe websocket on a started server."""

    def __init__(self, host: str, port: int) -> None:
        from repro.serving.client import WebSocketClient

        path = f"/v1/flows/{FLOW}/ws"
        self.ingest = WebSocketClient(host, port, path + "?mode=ingest")
        self.subscriber = WebSocketClient(host, port, path + "?mode=subscribe")
        self.arrivals: dict[int, tuple[float, dict]] = {}
        self.duplicates = 0
        self._receiver: asyncio.Task | None = None
        self._arrived = asyncio.Event()

    async def open(self) -> None:
        await self.subscriber.connect()
        await self.ingest.connect()
        self._receiver = asyncio.ensure_future(self._receive())

    async def _receive(self) -> None:
        while True:
            message = await self.subscriber.receive_json()
            if message is None:
                return
            now = time.perf_counter()
            seq = message["seq"]
            if seq in self.arrivals:
                self.duplicates += 1
            else:
                self.arrivals[seq] = (now, message)
            self._arrived.set()

    async def run_phase(self, messages: list[dict], rate: float) -> Phase:
        from workloads import served_extend, served_keep

        phase = Phase(rate)
        wanted = {m["seq"]: m for m in messages if served_keep(m)}
        phase.expected = len(wanted)
        start = time.perf_counter() + 0.01
        for index, message in enumerate(messages):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lags_ms.append((time.perf_counter() - due) * 1e3)
            message["at"] = due
            await self.ingest.send_json(message)
        deadline = time.perf_counter() + DRAIN_WAIT_S
        while not wanted.keys() <= self.arrivals.keys():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            self._arrived.clear()
            try:
                await asyncio.wait_for(self._arrived.wait(), remaining)
            except asyncio.TimeoutError:
                break
        duplicates, self.duplicates = self.duplicates, 0
        phase.failed = duplicates
        for seq, sent in wanted.items():
            arrival = self.arrivals.pop(seq, None)
            if arrival is None:
                phase.failed += 1
                continue
            received_at, echoed = arrival
            if echoed["y"] != served_extend(sent)[0] or echoed["x"] != sent["x"]:
                phase.failed += 1
                continue
            phase.latencies_ms.append((received_at - echoed["at"]) * 1e3)
        # Anything else that arrived was never expected (invented output).
        phase.failed += len(self.arrivals)
        self.arrivals.clear()
        return phase

    async def close(self) -> None:
        await self.ingest.close()
        if self._receiver is not None:
            try:
                await asyncio.wait_for(self._receiver, 10.0)
            except asyncio.TimeoutError:
                self._receiver.cancel()
                await asyncio.gather(self._receiver, return_exceptions=True)
        await self.subscriber.close()


async def open_server(server: ServerProcess) -> tuple[Connection, float]:
    """Start a server lifecycle and connect; returns the set-up time."""
    t0 = time.perf_counter()
    reply = await server.call("start")
    connection = Connection("127.0.0.1", reply["port"])
    await connection.open()
    return connection, time.perf_counter() - t0


async def close_server(server: ServerProcess, connection: Connection) -> dict:
    await connection.ingest.close()
    stats_task = asyncio.ensure_future(server.call("stop"))
    await connection.close()
    return await stats_task


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "serve":
        sys.exit("usage: served.py serve OUT_DIR")
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    asyncio.run(serve_commands(Path(sys.argv[2])))
