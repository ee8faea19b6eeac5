"""Engine registry: execution engines addressable by name.

The paper's runtime (section 5) is one fixed NiagaraST deployment; the
reproduction instead treats engines as interchangeable scheduling
policies over the shared runtime core, so the same feedback semantics
can be exercised on virtual time, wall-clock threads, and the ROADMAP's
future backends.  The fluent API (``repro.api.Flow``) is engine-agnostic
*by name*, the way Beam/Flink-style builder APIs decouple pipeline
authorship from runners:
``flow.run(engine="simulated")`` looks the engine up here instead of
importing an engine class.  A new backend plugs in with one
``register_engine`` call and every Flow/``compile_query`` call site can
run on it unchanged.

An engine *factory* is any callable ``factory(plan, **options) -> engine``
where the returned engine exposes ``run() -> RunResult`` (in practice: a
:class:`~repro.engine.runtime.RuntimeCore` subclass).  Engines that also
expose ``at(time, action, *, owner=None)`` -- every ``RuntimeCore``
subclass inherits it -- support scheduled client actions, which is what
``Flow.run``'s declarative feedback injection rides on.

Built-in registrations:

============ ==================================================
simulated    :class:`~repro.engine.simulator.Simulator`
threaded     :class:`~repro.engine.threaded.ThreadedRuntime`
asyncio      :class:`~repro.engine.async_engine.AsyncioEngine`
multiprocess :class:`~repro.engine.multiprocess.MultiprocessEngine`
============ ==================================================
"""

from __future__ import annotations

from typing import Any, Callable

from repro.engine.async_engine import AsyncioEngine
from repro.engine.multiprocess import MultiprocessEngine
from repro.engine.plan import QueryPlan
from repro.engine.runtime import RunResult
from repro.engine.simulator import Simulator
from repro.engine.threaded import ThreadedRuntime
from repro.errors import EngineError

__all__ = [
    "available_engines",
    "create_engine",
    "engine_factory",
    "register_engine",
    "run_plan",
    "unregister_engine",
]

#: Any callable building a runnable engine over a validated plan.
EngineFactory = Callable[..., Any]

_registry: dict[str, EngineFactory] = {}


def register_engine(
    name: str, factory: EngineFactory, *, replace: bool = False
) -> None:
    """Register ``factory`` under ``name``.

    Double registration is an error unless ``replace=True`` -- silently
    shadowing an engine would redirect every ``flow.run(engine=name)``
    call site in the process.
    """
    if not name:
        raise EngineError("engine name must be non-empty")
    if not callable(factory):
        raise EngineError(
            f"engine factory for {name!r} must be callable, "
            f"got {factory!r}"
        )
    if name in _registry and not replace:
        raise EngineError(
            f"engine {name!r} is already registered "
            f"(pass replace=True to override)"
        )
    _registry[name] = factory


def unregister_engine(name: str) -> None:
    """Remove a registered engine; unknown names are an error."""
    if name not in _registry:
        raise EngineError(f"engine {name!r} is not registered")
    del _registry[name]


def available_engines() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    return tuple(sorted(_registry))


def engine_factory(name: str) -> EngineFactory:
    """The factory registered under ``name``; raise with the known names."""
    try:
        return _registry[name]
    except KeyError:
        known = ", ".join(sorted(_registry)) or "(none)"
        raise EngineError(
            f"unknown engine {name!r}; registered engines: {known}"
        ) from None


def create_engine(name: str, plan: QueryPlan, **options: Any) -> Any:
    """Instantiate the engine ``name`` over ``plan``.

    ``options`` pass straight to the factory (``control_latency=...``,
    ``max_events=...``, ``timeout=...`` -- whatever that engine accepts).
    """
    return engine_factory(name)(plan, **options)


def run_plan(
    plan: QueryPlan, *, engine: str = "simulated", **options: Any
) -> RunResult:
    """One-shot convenience: build the named engine and run ``plan``."""
    return create_engine(engine, plan, **options).run()


register_engine("simulated", Simulator)
register_engine("threaded", ThreadedRuntime)
register_engine("asyncio", AsyncioEngine)
register_engine("multiprocess", MultiprocessEngine)
