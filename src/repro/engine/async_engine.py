"""Asyncio engine: coroutine-per-operator scheduling on one event loop.

The third execution backend over the shared runtime core, built for
network-facing sources and sinks (paper section 5 fixes NiagaraST's
runtime as thread-per-operator; related work on scalable data feeds --
Grover & Carey's AsterixDB ingestion, and the Röger & Mayer
parallelization survey, see PAPERS.md -- argues that ingesting from many
slow or remote endpoints should not burn an OS thread per operator).
This engine keeps the paper's architecture -- one worker per operator,
page queues between them, out-of-band high-priority control (section 5,
"control messages are given high priority and processed before pending
tuples") -- but the workers are coroutines multiplexed on one asyncio
event loop: thousands of idle sources cost nothing but a parked
``await``.

This module is only a *driver*.  The scheduling step -- drain control
before data, honour a pause, pick an input port, idle-flush and detect
completion -- is the sans-IO :class:`~repro.engine.notify.
NotificationPolicy` over :class:`~repro.engine.runtime.RuntimeCore`
(DESIGN.md section 3), the same step the threaded runtime drives.  Here
it is bound to an :class:`~repro.stream.waiters.AsyncioConditionWaiter`:
every state change notifies an ``asyncio.Condition``, a coroutine the
step tells to wait ``await``\\ s it (no polling; the only timed wait is
the arrival deadline of an in-flight control message), and a paused
producer parks the same way without occupying the loop.

Each coroutine holds the condition's lock while it calls the step --
free under cooperative scheduling, since only one coroutine executes at
a time -- and releases it exactly at its awaits: ``Condition.wait``, the
cooperative yield before every page and every source element, and
``emulate_costs`` sleeps (which therefore overlap across coroutines the
way the threaded engine's sleeps overlap across threads).  Because
notifications originate inside synchronous operator callbacks, "the lock
is held" always means "held by the running task", which is what makes a
plain synchronous ``notify_all`` legal (see :mod:`repro.stream.waiters`).

Sources that expose ``aevents()`` -- an *async* iterator of ``(arrival,
element)`` pairs, e.g. :class:`~repro.operators.source.
AsyncIterableSource` -- are consumed natively with ``await`` between
elements, so a slow network feed never blocks the loop; plain sources
fall back to their synchronous ``events()`` timeline.

Use :meth:`AsyncioEngine.run` from synchronous code (it owns a private
event loop via ``asyncio.run``), or ``await`` :meth:`AsyncioEngine.arun`
from inside an existing loop -- e.g. alongside an
:class:`~repro.operators.sink.AwaitableSink` that client coroutines
await concurrently with the run.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.engine.notify import DONE, WAIT, NotificationPolicy
from repro.engine.plan import QueryPlan
from repro.engine.runtime import RunResult
from repro.errors import EngineError
from repro.operators.base import Operator, SourceOperator
from repro.stream.clock import WallClock
from repro.stream.waiters import AsyncioConditionWaiter

__all__ = ["AsyncioEngine"]


class AsyncioEngine(NotificationPolicy):
    """Run a plan with one coroutine per operator on an asyncio loop.

    Parameters
    ----------
    timeout:
        Run-level watchdog: maximum wall-clock seconds for the whole
        plan to drain (worker waits themselves are untimed and purely
        notification-driven), mirroring the threaded runtime's join
        watchdog.  ``None`` disables the watchdog for always-on serving
        flows whose sources never end until drained by a supervisor.
    control_latency:
        Wall-clock seconds between sending a control message and its
        arrival (the simulator's feedback propagation delay, honoured
        here exactly as in the threaded runtime; default 0).
    emulate_costs:
        Charge each operator's cost model (``tuple_cost`` and friends)
        as ``asyncio.sleep`` outside the condition lock, so modeled CPU
        cost parallelises across operator coroutines the way it does
        across the threaded engine's threads.  Slept cost is recorded as
        ``busy_time``.
    """

    def __init__(
        self,
        plan: QueryPlan,
        *,
        timeout: float | None = 60.0,
        control_latency: float = 0.0,
        emulate_costs: bool = False,
        checkpoint_every: int | None = None,
        checkpoint_store: Any = None,
        recover_from: Any = None,
        ingestion_policy: str = "exactly-once",
        elastic: Any = None,
    ) -> None:
        super().__init__(
            plan, WallClock(), control_latency=control_latency,
            checkpoint_every=checkpoint_every,
            checkpoint_store=checkpoint_store,
            recover_from=recover_from,
            ingestion_policy=ingestion_policy,
            elastic=elastic,
        )
        self.timeout = timeout
        self.emulate_costs = emulate_costs
        self._init_notifications(AsyncioConditionWaiter())

    # The scheduling step (next_page/page_done, admit_source/finish_source,
    # costs, abort) and the wake-up hooks come from NotificationPolicy,
    # shared with the threaded runtime; what follows is only the driver.

    # -- coroutine bodies ----------------------------------------------------------

    async def _source_body(self, source: SourceOperator) -> None:
        aevents = getattr(source, "aevents", None)
        if aevents is not None:
            # Async-native source: await between elements on the loop --
            # a slow network feed parks this coroutine, nothing else.
            async for _arrival, element in self.source_aevents(
                source, aevents()
            ):
                if not await self._admit(source, element):
                    return
        else:
            for _arrival, element in self.source_events(source):
                if not await self._admit(source, element):
                    return
        async with self._waiter.condition:
            self.finish_source(source)

    async def _admit(self, source: SourceOperator, element: Any) -> bool:
        """Admit one element; False once the run aborted."""
        # Cooperative yield (or modeled-cost sleep) outside the lock, so
        # consumers interleave with the source.
        await asyncio.sleep(self.source_cost(source, element))
        condition = self._waiter.condition
        await condition.acquire()
        try:
            while not self.admit_source(source, element):
                # Backpressure: park until the consumer's resume arrives
                # (every control send notifies the condition).
                await self._waiter.wait(self.wait_timeout(source))
        finally:
            condition.release()
        return self._abort_error is None

    async def _operator_body(self, operator: Operator) -> None:
        condition = self._waiter.condition
        await condition.acquire()
        try:
            while (work := self.next_page(operator)) is not DONE:
                if work is WAIT:
                    await self._waiter.wait(self.wait_timeout(operator))
                    continue
                port, page = work
                # Cooperative yield (or modeled-cost sleep) with the lock
                # released, so sibling coroutines -- shard replicas,
                # upstream producers -- interleave per page the way the
                # threaded engine's threads get preempted.  Processing is
                # synchronous, so holding the lock through it is free.
                cost = self.page_cost(operator, port, page)
                condition.release()
                try:
                    await asyncio.sleep(cost)
                finally:
                    await condition.acquire()
                operator.process_page(port.index, page)
                self.page_done(operator)
        finally:
            if condition.locked():
                # Single-threaded loop: a held lock belongs to the
                # running task (us); a cancellation delivered exactly at
                # an internal re-acquire can land here without it.
                condition.release()

    async def _elastic_body(self) -> None:
        """Controller ticker task: observe/decide/apply every interval.

        Ticks run under the condition lock (the controller reads operator
        counters and enqueues control, like any callback); the task is
        cancelled by ``_arun`` once the workers drain.
        """
        interval = self.elastic.config.interval
        while True:
            await asyncio.sleep(interval)
            async with self._waiter.condition:
                if not self.elastic_tick():
                    return

    async def _action_body(self, when: float, action: Callable[[], None]) -> None:
        await asyncio.sleep(max(0.0, when - self.clock.now()))
        async with self._waiter.condition:
            self.run_action(action)

    # -- run -------------------------------------------------------------------------

    async def arun(self) -> RunResult:
        """Run the plan on the *current* event loop (async entry point)."""
        self._begin()
        try:
            return await self._arun()
        except BaseException as error:
            # Fail anyone parked on an unfinished operator (an
            # AwaitableSink's client coroutines) instead of leaving them
            # awaiting an on_finish that will never come.
            self._notify_run_aborted(error)
            raise

    async def _arun(self) -> RunResult:
        for op in self.plan:
            # One cooperative loop needs no queue mutexes, but queues
            # announce page-ready/close on the shared waiter seam so
            # consumer coroutines wake as soon as a producer's page lands.
            for edge in op.outputs:
                edge.queue.attach_waiter(self._waiter)
        async with self._waiter.condition:
            # on_start may inject feedback (notify_control), so it must
            # run under the same lock discipline as every callback.
            self._start_operators()
        workers = [
            asyncio.create_task(
                self._source_body(op) if isinstance(op, SourceOperator)
                else self._operator_body(op),
                name=f"op-{op.name}",
            )
            for op in self._executed_operators()
        ]
        actions = [
            asyncio.create_task(self._action_body(when, action))
            for when, action in self._actions
        ]
        if self.elastic is not None:
            actions.append(asyncio.create_task(
                self._elastic_body(), name="elastic-controller"
            ))
        try:
            await asyncio.wait_for(asyncio.gather(*workers), self.timeout)
        except asyncio.TimeoutError:
            raise EngineError(
                f"operator coroutines did not finish within "
                f"{self.timeout}s"
            ) from None
        finally:
            # An action whose time falls after the plan drained never
            # fires (and on failure nothing should linger on the loop).
            for task in actions:
                task.cancel()
            for task in workers:
                task.cancel()
            await asyncio.gather(*actions, *workers, return_exceptions=True)
        self._raise_run_error()
        return self.build_result(self.collect_metrics())

    def run(self) -> RunResult:
        """Run the plan to completion (synchronous entry point).

        Owns a private event loop via ``asyncio.run``.  From inside an
        already-running loop, blocking here would deadlock the loop on
        itself -- ``await engine.arun()`` instead.
        """
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.run(self.arun())
        raise EngineError(
            "AsyncioEngine.run() cannot block inside a running event "
            "loop; await engine.arun() instead"
        )
