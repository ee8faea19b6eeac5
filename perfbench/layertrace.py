"""Outside-in layer tracing for the benchmark.

Spans are recorded from the benchmark's own code by wrapping the public
entry point of each layer (see :func:`install`); nothing under ``src/``
knows it is being traced.  A span is ``(name, start_ns, end_ns,
parent_id, span_id, a, b, c)``: the three integers carry a per-call count
(page length, guard checks, encoded bytes, ...) so ratios are measured
where the work happens.  Spans are kept in memory while a run lasts and
written out after it.

Self time is a span's duration minus the durations of its direct
children.  Parent links come from a per-thread stack, so spans nest
correctly on the threaded engine's operator threads and on the asyncio
loop (every wrapped call there is synchronous, except ``Channel.put``,
which is recorded as a parentless wait span).

Tracing costs time.  :meth:`Tracer.set_active` swaps the originals back
in, so a traced run can pair every traced run with an untraced one; the
difference is reported as ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import threading
import time
from collections import defaultdict
from typing import Any, Callable

_now = time.perf_counter_ns


class Tracer:
    """An in-memory span buffer plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: ``(owner, attribute, original, traced)`` for every patch.
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable[..., Any],
        counts: Callable[..., tuple[int, int, int]] | None = None,
        skip: Callable[..., bool] | None = None,
    ) -> Callable[..., Any]:
        """A traced stand-in for ``fn``.

        ``name`` may be a callable of the call's arguments (one entry
        point serving two layers); ``counts(result, *args)`` gives the
        span's three integers; ``skip(*args)`` bypasses the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if skip is not None and skip(*args):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1]
            stack.append(sid)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
            a = b = c = 0
            if counts is not None:
                a, b, c = counts(result, *args)
            label = name(*args) if callable(name) else name
            tracer.spans.append((label, start, end, parent, sid, a, b, c))
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable[..., Any]) -> Callable:
        """A traced stand-in for coroutine function ``fn`` (wait spans)."""
        tracer = self

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            start = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.spans.append(
                    (name, start, _now(), -1, next(tracer._ids), 1, 0, 0)
                )

        return traced

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        if isinstance(owner, type) and attr not in owner.__dict__:
            raise AttributeError(f"{owner.__name__} does not define {attr}")
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original, replacement))
        setattr(owner, attr, replacement)

    def set_active(self, active: bool) -> None:
        """Swap the traced stand-ins in (or the originals back)."""
        for owner, attr, original, replacement in self._patches:
            setattr(owner, attr, replacement if active else original)

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _page_counts(result: Any, op: Any, port: int, page: Any):
    return len(page), 0, 0


def _filter_counts(result: Any, guards: Any, batch: list):
    return len(batch), len(result[1]), len(guards)


def _blocks_counts(result: Any, guards: Any, element: Any):
    return 1, int(bool(result)), len(guards)


def _get_counts(result: Any, queue: Any):
    return int(result is None), 0, 0


def _encode_counts(result: Any, page: Any):
    return page.tuple_count(), len(pickle.dumps(result, protocol=5)), 0


def _empty_guards(guards: Any, *_: Any) -> bool:
    return not len(guards)


def _own_methods(base: type, attr: str) -> list[type]:
    """``base`` and every subclass that defines ``attr`` itself."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__ and not getattr(
            cls.__dict__[attr], "__isabstractmethod__", False
        ):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer, *, serving: bool = False) -> None:
    """Patch every layer's entry point to record spans into ``tracer``.

    Must run before engines are constructed (and, for the multiprocess
    engine, before it forks, so workers inherit the patches).
    """
    from repro.core.guards import GuardSet
    from repro.durability.coordinator import CheckpointCoordinator
    from repro.durability.store import CheckpointStore, DeliveryWriter
    from repro.engine import multiprocess
    from repro.engine.runtime import RuntimeCore
    from repro.operators.base import Operator
    from repro.operators.partition import Partition, ShardMerge
    from repro.stream.queues import DataQueue

    def page_layer(op: Any, *_: Any) -> str:
        return (
            "partition.page" if isinstance(op, (Partition, ShardMerge))
            else "operator.page"
        )

    t, w = tracer, tracer.wrap
    t.patch(RuntimeCore, "dispatch_source_element", w(
        "source.admit", RuntimeCore.dispatch_source_element))
    t.patch(RuntimeCore, "drain_control", w(
        "control.drain", RuntimeCore.drain_control,
        counts=lambda r, *_: (int(bool(r)), 0, 0)))
    t.patch(Operator, "process_page", w(
        page_layer, Operator.process_page, counts=_page_counts))
    t.patch(Operator, "inject_feedback", w(
        "guards.inject", Operator.inject_feedback))
    t.patch(GuardSet, "blocks", w(
        "guards.blocks", GuardSet.blocks, counts=_blocks_counts,
        skip=_empty_guards))
    t.patch(GuardSet, "filter_batch", w(
        "guards.filter", GuardSet.filter_batch, counts=_filter_counts,
        skip=_empty_guards))
    for attr in ("put", "put_many", "put_page"):
        t.patch(DataQueue, attr, w("queue.put", DataQueue.__dict__[attr]))
    t.patch(DataQueue, "get_page", w(
        "queue.get", DataQueue.get_page, counts=_get_counts))
    # The multiprocess engine binds the codec into its own namespace.
    t.patch(multiprocess, "encode_page", w(
        "codec.encode", multiprocess.encode_page, counts=_encode_counts))
    t.patch(multiprocess, "decode_page", w(
        "codec.decode", multiprocess.decode_page))
    t.patch(CheckpointCoordinator, "snapshot", w(
        "durability.snapshot", CheckpointCoordinator.snapshot))
    for cls in _own_methods(CheckpointStore, "record_state"):
        t.patch(cls, "record_state", w(
            "durability.store", cls.__dict__["record_state"]))
    for attr in ("append", "flush"):
        for cls in _own_methods(DeliveryWriter, attr):
            t.patch(cls, attr, w("durability.store", cls.__dict__[attr]))
    _ship_worker_spans(tracer, multiprocess.MultiprocessEngine)
    if serving:
        _install_serving(tracer)
    # Forked workers start with an empty buffer of their own.
    os.register_at_fork(after_in_child=lambda: tracer.spans.clear())


def _ship_worker_spans(tracer: Tracer, engine: type) -> None:
    """Carry forked workers' spans home inside their result payloads.

    ``_payload`` runs in each worker after its receiver thread joined, so
    every worker-side span is in the buffer; ``_merge`` runs in the
    coordinator and folds them into the coordinator's buffer, tagged with
    the worker's pid (span ids are only unique per process).
    """
    payload, merge = engine.__dict__["_payload"], engine.__dict__["_merge"]

    def traced_payload(self: Any, *args: Any) -> dict:
        result = payload(self, *args)
        result["perfbench_spans"] = (os.getpid(), tracer.take())
        return result

    def traced_merge(self: Any, payloads: list[dict]) -> Any:
        for item in payloads:
            pid, spans = item.pop("perfbench_spans", (0, []))
            tracer.spans.extend(
                (name, s, e, (pid, p), (pid, i), a, b, c)
                for name, s, e, p, i, a, b, c in spans
            )
        return merge(self, payloads)

    tracer.patch(engine, "_payload", traced_payload)
    tracer.patch(engine, "_merge", traced_merge)


def _install_serving(tracer: Tracer) -> None:
    from repro.serving import codec, server
    from repro.serving.tenancy import AdmissionController
    from repro.stream.channels import Broadcast, Channel

    t, w = tracer, tracer.wrap
    # ``ws_read`` awaits the socket, so its span would be mostly idle
    # time; the wire layer is timed on the synchronous encoder.
    t.patch(server, "ws_encode", w("serving.wire", server.ws_encode))
    t.patch(server, "tuple_to_json", w("serving.codec", server.tuple_to_json))
    t.patch(codec, "tuple_from_json", w(
        "serving.codec", codec.tuple_from_json))
    t.patch(AdmissionController, "reserve", w(
        "serving.admission", AdmissionController.reserve))
    t.patch(Broadcast, "publish", w("channels.publish", Broadcast.publish))
    t.patch(Channel, "put", tracer.wrap_async("channels.put", Channel.put))


def self_times(spans: list[tuple]) -> dict[str, list[int]]:
    """Per span name: ``[calls, self_ns, sum of a, sum of b, max of c]``."""
    child_ns: dict[Any, int] = defaultdict(int)
    for _, start, end, parent, *_rest in spans:
        child_ns[parent] += end - start
    table: dict[str, list[int]] = {}
    for name, start, end, _, sid, a, b, c in spans:
        row = table.setdefault(name, [0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += end - start - child_ns.get(sid, 0)
        row[2] += a
        row[3] += b
        row[4] = max(row[4], c)
    return table


def merge_tables(tables: list[dict[str, list[int]]], runs: int = 1
                 ) -> dict[str, list[float]]:
    """Sum :func:`self_times` tables, then average them over ``runs``."""
    merged: dict[str, list[float]] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, [0, 0, 0, 0, 0])
            for index in range(4):
                into[index] += row[index]
            into[4] = max(into[4], row[4])
    for row in merged.values():
        for index in range(4):
            row[index] /= runs
    return merged


def write_spans(handle: Any, spans: list[tuple], *prefix: Any) -> None:
    """One JSON array per line: ``prefix`` plus the span, as recorded."""
    for span in spans:
        handle.write(json.dumps(prefix + span) + "\n")
