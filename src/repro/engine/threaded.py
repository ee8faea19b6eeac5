"""Threaded runtime: the NiagaraST-faithful execution mode.

One Python thread per operator, exactly the paper's architecture (section
5): "Operators run as threads connected by inter-operator queues ...  each
operator has an object that it sleeps on when it has no work to do.  An
operator is awakened when a new data page or control message is sent to
it."

This module is only a *driver*.  The scheduling step -- drain control
before data, honour a pause, pick an input port, idle-flush and detect
completion -- is the sans-IO :class:`~repro.engine.notify.
NotificationPolicy` over :class:`~repro.engine.runtime.RuntimeCore` (see
DESIGN.md section 3), shared with the asyncio engine.  Each operator
thread takes the plan lock, asks the step for its next page, sleeps on a
``threading.Condition`` while the answer is "wait", and **processes the
page outside the lock**, emitting into per-queue-mutex-guarded
:class:`~repro.stream.queues.DataQueue`\\ s (see
``DataQueue.enable_thread_safety``); it re-takes the lock only for the
step's after-page bookkeeping.  Operators on disjoint data therefore
execute concurrently; with GIL-releasing work (hashing, C extensions) or
``emulate_costs`` sleeps, the plan scales across the shard replicas of a
``Partition``/``ShardMerge`` region (see ``BENCH_shard.json``).
Per-operator structures (guards, hash tables, window state) need no
locks: every mutation happens on the owning operator's thread -- feedback
is drained by the receiver's own thread, and a queue has exactly one
producer and one consumer thread.  Waits are purely
notification-driven, so idle operators consume no CPU; the run-level
``timeout`` is only a watchdog on thread joins.  Timing-sensitive
experiments use the simulator; this runtime exists to show the feedback
framework is not simulator-bound and to exercise real concurrency.

Backpressure (``queue_capacity`` / bounded :class:`~repro.stream.queues.
DataQueue`) parks a paused source or operator thread on the condition
until the consumer's *resume* is drained; see ``docs/backpressure.md``.

Operators' ``now()`` reports wall-clock seconds since the run started, so
sink arrival logs remain meaningful (if noisy).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.engine.notify import DONE, WAIT, NotificationPolicy
from repro.engine.plan import QueryPlan
from repro.engine.runtime import RunResult
from repro.errors import EngineError
from repro.operators.base import Operator, SourceOperator
from repro.stream.clock import WallClock
from repro.stream.waiters import ThreadConditionWaiter

__all__ = ["ThreadedRuntime"]


class ThreadedRuntime(NotificationPolicy):
    """Run a plan with one thread per operator and wake-up signalling.

    Parameters
    ----------
    timeout:
        Run-level watchdog: maximum wall-clock seconds to wait for each
        operator thread to finish (worker waits themselves are untimed and
        purely notification-driven).
    control_latency:
        Wall-clock seconds between sending a control message and its
        arrival, mirroring the simulator's feedback propagation delay
        (default 0: messages are visible immediately).
    emulate_costs:
        Charge each operator's cost model (``tuple_cost`` and friends)
        on the wall clock: the summed admission cost of a page is slept
        *outside* the plan lock before the page is processed (sources
        sleep per element).  This carries the repo's methodology -- cost
        models replace the paper's fixed testbed hardware -- onto the
        threaded engine: modeled CPU cost then parallelises across
        operator threads exactly as NiagaraST's real per-operator CPU
        time would, independent of the host's core count.  Slept cost is
        recorded as ``busy_time``.
    """

    def __init__(
        self,
        plan: QueryPlan,
        *,
        timeout: float = 60.0,
        control_latency: float = 0.0,
        emulate_costs: bool = False,
        clock: WallClock | None = None,
        checkpoint_every: int | None = None,
        checkpoint_store: Any = None,
        recover_from: Any = None,
        ingestion_policy: str = "exactly-once",
        elastic: Any = None,
    ) -> None:
        # ``clock`` lets a coordinating engine share one wall-clock epoch
        # across several runtimes (the multiprocess engine constructs it
        # before forking, so every worker's timestamps are comparable).
        super().__init__(
            plan, clock if clock is not None else WallClock(),
            control_latency=control_latency,
            checkpoint_every=checkpoint_every,
            checkpoint_store=checkpoint_store,
            recover_from=recover_from,
            ingestion_policy=ingestion_policy,
            elastic=elastic,
        )
        self.timeout = timeout
        self.emulate_costs = emulate_costs
        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        self._init_notifications(ThreadConditionWaiter(self._wakeup))

    # The scheduling step (next_page/page_done, admit_source/finish_source,
    # costs, abort) and the wake-up hooks come from NotificationPolicy,
    # shared with the asyncio engine; what follows is only the driver.

    def _run_action(self, action: Callable[[], None]) -> None:
        with self._lock:
            self.run_action(action)

    # -- thread bodies --------------------------------------------------------------

    def _source_body(self, source: SourceOperator) -> None:
        for _arrival, element in self.source_events(source):
            cost = self.source_cost(source, element)
            if cost > 0.0:
                time.sleep(cost)  # outside the lock: sources overlap
            with self._lock:
                while not self.admit_source(source, element):
                    # Backpressure: sleep until the consumer's resume
                    # arrives (every control send notifies).
                    self._wakeup.wait(self.wait_timeout(source))
                if self._abort_error is not None:
                    return
        with self._lock:
            self.finish_source(source)

    def _operator_body(self, operator: Operator) -> None:
        while True:
            with self._lock:
                while (work := self.next_page(operator)) is WAIT:
                    self._wakeup.wait(self.wait_timeout(operator))
            if work is DONE:
                return
            port, page = work
            # Page processing runs OUTSIDE the plan lock: emission goes
            # into mutex-guarded queues, per-operator state is only ever
            # touched by this thread, and control for this operator waits
            # until the next step (control-before-data is preserved per
            # page).  This is what lets shard replicas -- and any
            # operators on disjoint data -- execute concurrently instead
            # of serialising on the plan lock.
            cost = self.page_cost(operator, port, page)
            if cost > 0.0:
                time.sleep(cost)
            operator.process_page(port.index, page)
            with self._lock:
                self.page_done(operator)

    def _elastic_body(self, stop: threading.Event) -> None:
        """Controller ticker: observe/decide/apply every ``interval``.

        Ticks run under the plan lock -- the controller reads operator
        counters and enqueues control, both of which the operator
        threads also do under that lock -- so no new synchronisation is
        needed; the partition applies decisions from its own thread.
        """
        interval = self.elastic.config.interval
        while not stop.wait(interval):
            with self._lock:
                if not self.elastic_tick():
                    return

    def _guard_body(
        self, body: Callable[[Operator], None], operator: Operator
    ) -> None:
        """Thread target: run ``body`` and abort the run on exception.

        Without this, a thread dying mid-page would leave the rest of the
        plan waiting on data that never comes until the watchdog fires;
        instead the first error is captured, every sleeping body is woken
        to check the abort flag, and :meth:`run` re-raises it.
        """
        try:
            body(operator)
        except BaseException as error:  # noqa: BLE001 - re-raised in run()
            with self._lock:
                self.abort(error)

    # -- run -------------------------------------------------------------------------

    def run(self) -> RunResult:
        self._begin()
        try:
            return self._run()
        except BaseException as error:
            # Fail anyone parked on an unfinished operator (an
            # AwaitableSink's waiting client coroutines).
            self._notify_run_aborted(error)
            raise

    def _run(self) -> RunResult:
        executed = self._executed_operators()
        for op in executed:
            # Producers emit outside the plan lock; serialise each
            # queue's open-page/backlog hand-off with its own mutex, and
            # let the queue itself wake consumers when a page lands (the
            # shared waiter seam -- notified outside the mutex, so the
            # lock order is always waiter-after-queue, never inverted).
            # Input queues are prepared too: in a multiprocess worker a
            # consumer's input queue may be fed by a receiver thread
            # rather than a local producer thread.
            for edge in op.outputs:
                edge.queue.enable_thread_safety()
                edge.queue.attach_waiter(self._waiter)
            for port in op.inputs:
                if port is not None:
                    port.queue.enable_thread_safety()
                    port.queue.attach_waiter(self._waiter)
        self._start_operators()
        threads: list[threading.Thread] = []
        for op in executed:
            body = (
                self._source_body if isinstance(op, SourceOperator)
                else self._operator_body
            )
            threads.append(threading.Thread(
                target=self._guard_body, args=(body, op),
                name=f"op-{op.name}", daemon=True,
            ))
        timers: list[threading.Timer] = []
        for time, action in self._actions:
            timer = threading.Timer(time, self._run_action, args=(action,))
            timer.daemon = True
            timers.append(timer)
        ticker: threading.Thread | None = None
        ticker_stop = threading.Event()
        if self.elastic is not None:
            ticker = threading.Thread(
                target=self._elastic_body, args=(ticker_stop,),
                name="elastic-controller", daemon=True,
            )
            ticker.start()
        for thread in threads:
            thread.start()
        for timer in timers:
            timer.start()
        try:
            for thread in threads:
                thread.join(self.timeout)
                if thread.is_alive():
                    raise EngineError(
                        f"operator thread {thread.name} did not finish "
                        f"within {self.timeout}s"
                    )
        finally:
            # cancel() is a no-op on a callback that is already running:
            # join the timer threads too, so a late-firing action cannot
            # mutate state concurrently with result building or report
            # its error after we checked for one.
            for timer in timers:
                timer.cancel()
            for timer in timers:
                timer.join(self.timeout)
            if ticker is not None:
                ticker_stop.set()
                ticker.join(self.timeout)
        self._raise_run_error()
        return self.build_result(self.collect_metrics())
