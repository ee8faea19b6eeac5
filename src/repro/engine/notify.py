"""The scheduling step shared by the concurrent engines.

The threaded runtime and the asyncio engine run the same scheduling
*shape* -- one worker per operator sleeping on a condition, woken by
notifications, with timed waits only for the arrival deadline of an
in-flight ``control_latency`` message -- over two different condition
primitives.  :class:`NotificationPolicy` holds everything about that
shape which does not depend on the primitive, written once against the
:class:`~repro.stream.waiters.Waiter` seam:

* the **scheduling step**, sans-IO: it never takes a lock, waits or
  sleeps, it only tells its driver what to do next.
  :meth:`~NotificationPolicy.next_page` drains control (NiagaraST's
  "control before pending tuples"), honours a pause, picks an input port
  and returns ``(port, page)``, :data:`WAIT` or :data:`DONE`;
  :meth:`~NotificationPolicy.page_done` is the bookkeeping after a page;
  :meth:`~NotificationPolicy.admit_source` /
  :meth:`~NotificationPolicy.finish_source` are the source half;
  :meth:`~NotificationPolicy.page_cost` /
  :meth:`~NotificationPolicy.source_cost` price ``emulate_costs``;
* every :class:`~repro.engine.runtime.RuntimeCore` wake-up hook
  (``notify_control`` / ``notify_data`` / ``_on_finished`` /
  ``_on_paused`` / ``_on_resumed``) becomes ``waiter.notify_all()``;
* deferred control messages (sent but not yet *arrived* under
  ``control_latency``) are folded into a per-operator wake-up deadline,
  recomputed from scratch on every drain, which bounds that operator's
  next wait so delivery is never missed;
  :meth:`~NotificationPolicy.wait_timeout` turns it into the driver's
  next wait bound (None = sleep until notified -- no polling);
* the run's **abort flag**: the first failure of an operator worker or
  an elastic tick aborts the run; the step answers :data:`DONE` to every
  worker from then on, and the engine re-raises the error.

Idle flush is decided here, once: when an operator runs out of input it
seals its partially-filled output pages before it waits, and a source
whose feed reports ``wants_flush()`` seals them after each element.
Under sustained load pages fill before input runs dry, so batching is
unchanged; an always-on flow delivers results at input-idle time on
every concurrent engine (``docs/backpressure.md``).

A *driver* -- a thread body or a coroutine -- only holds the engine lock
around step calls, waits or yields where the step says so, and calls
``process_page`` between :meth:`next_page` and :meth:`page_done`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.engine.runtime import RuntimeCore
from repro.operators.base import InputPort, Operator, SourceOperator
from repro.stream.pages import Page
from repro.stream.waiters import Waiter

__all__ = ["DONE", "WAIT", "NotificationPolicy"]

#: :meth:`NotificationPolicy.next_page`: nothing to do yet; wait on the
#: waiter (bounded by :meth:`NotificationPolicy.wait_timeout`), then ask
#: again.
WAIT = "wait"
#: :meth:`NotificationPolicy.next_page`: the operator finished, or the run
#: aborted; the worker exits.
DONE = "done"


class NotificationPolicy(RuntimeCore):
    """Waiter-backed policy hooks plus the sans-IO scheduling step.

    Engines subclass it and call :meth:`_init_notifications` with their
    waiter during ``__init__``.  Every method here expects the caller to
    hold the engine lock.
    """

    _waiter: Waiter
    emulate_costs: bool

    def _init_notifications(self, waiter: Waiter) -> None:
        self._waiter = waiter
        #: ``waiter.notify_all`` minus its lock re-acquire, for callers
        #: that hold the engine lock (every step method does).
        self._notify_locked = waiter.condition.notify_all
        #: Earliest pending-but-unarrived control arrival per operator;
        #: bounds that operator's next wait so delivery is not missed.
        self._control_deadline: dict[str, float] = {}
        #: First error that aborted the run (re-raised by the engine).
        self._abort_error: BaseException | None = None

    # -- runtime surface seen by operators ----------------------------------------

    def notify_control(
        self, operator: Operator, at: float | None = None
    ) -> None:
        # ``at`` is a virtual-time hint only the simulator needs; arrival
        # gating happens in the core's drain via ``control_latency``.
        self._waiter.notify_all()

    def notify_data(self, operator: Operator) -> None:
        self._waiter.notify_all()

    # -- RuntimeCore policy hooks --------------------------------------------------

    def drain_control(self, operator: Operator) -> bool:
        # Deadlines are recomputed from scratch on every drain: the core
        # re-defers whatever is still in flight.
        self._control_deadline.pop(operator.name, None)
        return super().drain_control(operator)

    def _defer_control(self, operator: Operator, arrival: float) -> None:
        deadline = self._control_deadline.get(operator.name)
        if deadline is None or arrival < deadline:
            self._control_deadline[operator.name] = arrival

    def _on_finished(self, operator: Operator, at: float) -> None:
        self._waiter.notify_all()

    def _on_paused(self, operator: Operator, at: float) -> None:
        # The pause flushed open output pages; wake consumers to drain
        # them (that drain is what will eventually produce the resume).
        self._waiter.notify_all()

    def _on_resumed(self, operator: Operator, at: float) -> None:
        self._waiter.notify_all()

    # -- the scheduling step -------------------------------------------------------

    def next_page(self, operator: Operator) -> tuple[InputPort, Page] | str:
        """The operator's next unit of data work: ``(port, page)``.

        Returns :data:`WAIT` when there is nothing to do yet and
        :data:`DONE` once the operator finished or the run aborted.
        Arrived control is drained first, so control always precedes the
        page returned here.
        """
        if self._abort_error is not None:
            return DONE
        if self.drain_control(operator):
            # Feedback handling may have emitted (partial results,
            # flushes, a lane-stash replay); consumers must hear about
            # it, and a replayed stash may refill a lane queue past its
            # high-water mark.
            self.check_pressure(operator)
            self._notify_locked()
        if self.is_paused(operator):
            # Transitive pressure: while paused this operator pulls no
            # pages, so its own inputs back up and pause its producers.
            # Exhausted inputs may still finish it -- holding finish
            # hostage to a resume could deadlock the tail of the stream.
            self.check_input_completion(operator)
            return DONE if operator.finished else WAIT
        port = self._next_port_with_work(operator)
        if port is None:
            # Idle flush: out of input, so seal partial output pages
            # before waiting rather than holding results until a page
            # fills against input that may be seconds away.
            operator.flush_outputs()
            self.check_input_completion(operator)
            return DONE if operator.finished else WAIT
        operator.set_now(self.clock.now())
        return port, port.queue.get_page()

    def page_done(self, operator: Operator) -> None:
        """Bookkeeping after ``process_page``: completion and watermarks."""
        self.mark_done_ports(operator)
        self.check_relief(operator)
        self.check_pressure(operator)
        self._notify_locked()

    def admit_source(self, source: SourceOperator, element: Any) -> bool:
        """Offer one source element; False while the source is paused.

        On False the driver waits and offers the same element again.
        After an abort the element is dropped and True is returned; the
        driver stops once ``_abort_error`` is set.
        """
        if self._abort_error is not None:
            return True
        self.drain_control(source)
        if self.is_paused(source):
            return False
        self.dispatch_source_element(source, element)
        if source.wants_flush():
            source.flush_outputs()
        self.check_pressure(source)
        self._notify_locked()
        return True

    def finish_source(self, source: SourceOperator) -> None:
        """The source's timeline is exhausted: finish it.

        Same rule as the simulator: arrived control is delivered, but
        feedback still in flight toward an exhausted source is dropped --
        the stream is over and there is nothing left to exploit.
        """
        if self._abort_error is not None:
            return
        self.drain_control(source)
        self.finish_operator(source)
        self._notify_locked()

    def page_cost(self, operator: Operator, port: InputPort, page: Page) -> float:
        """Modeled seconds to spend on ``page`` (``emulate_costs``), booked
        as ``busy_time``; the driver sleeps it outside the lock."""
        if not (self.emulate_costs and operator.needs_metering):
            return 0.0
        cost = 0.0
        for element in page:
            cost += operator.admission_cost(port.index, element)
        operator.metrics.busy_time += cost
        return cost

    def source_cost(self, source: SourceOperator, element: Any) -> float:
        """Modeled seconds to spend admitting ``element``; see :meth:`page_cost`."""
        if not self.emulate_costs:
            return 0.0
        cost = source.cost_of(element)
        source.metrics.busy_time += cost
        return cost

    def wait_timeout(self, operator: Operator) -> float | None:
        """Bound for the operator's next wait, or None for "until notified".

        The only timed wait in a notification-driven engine: the arrival
        deadline of an in-flight (deferred) control message.
        """
        deadline = self._control_deadline.get(operator.name)
        if deadline is None:
            return None
        return max(0.0, deadline - self.clock.now())

    # -- abort, actions and the elastic ticker ---------------------------------

    def abort(self, error: BaseException) -> None:
        """Abort the run with ``error`` (the first error wins)."""
        if self._abort_error is None:
            self._abort_error = error
        self._notify_locked()

    def run_action(self, action: Callable[[], None]) -> None:
        """Fire a scheduled action; its error is re-raised after the run."""
        try:
            action()
        except BaseException as error:  # noqa: BLE001 - re-raised after run
            self._action_errors.append(error)
        self._notify_locked()

    def elastic_tick(self) -> bool:
        """One elastic controller tick; False once the run is aborted.

        A raising tick aborts the run, like a failing operator.
        """
        if self._abort_error is None:
            try:
                self.elastic.tick(self.clock.now())
            except BaseException as error:  # noqa: BLE001 - re-raised after run
                self.abort(error)
            else:
                self._notify_locked()
        return self._abort_error is None

    def _raise_run_error(self) -> None:
        """Re-raise the abort error, else the first action error."""
        if self._abort_error is not None:
            raise self._abort_error
        if self._action_errors:
            raise self._action_errors[0]
