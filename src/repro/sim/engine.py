"""Deterministic discrete-event simulation engine.

The engine follows the classic process-interaction style popularised by
SimPy: simulation activities are Python generators that ``yield`` events
(timeouts, resource grants, other processes) and are resumed when those
events fire.  We implement our own small kernel rather than depending on
SimPy so the repository is self-contained and the scheduling semantics
are fully under test.

Determinism
-----------
Events scheduled for the same instant fire in FIFO order of scheduling
(a monotonically increasing sequence number breaks time ties), so a
simulation configured with a seeded RNG is exactly reproducible.

Two-lane scheduling
-------------------
The kernel keeps two queues: a FIFO *fast lane* (a deque) for events
scheduled with zero delay at the current instant, and the time-ordered
heap for genuinely future timestamps.  Most of a protocol simulation's
events are zero-delay bookkeeping — process start kicks, free-resource
grants, condition joins — and the fast lane turns each of those from an
O(log n) heap push/pop with tuple comparisons into a deque append/pop.

The split preserves firing order *by construction*.  Every entry in
either lane carries the same ``(time, priority, seq)`` key the pure
heap used; the fast lane is sorted by that key automatically (entries
are appended at the current instant with increasing seq), so the
scheduler pops whichever lane has the smaller head key and the merged
order is exactly the single-heap order.  Two supporting invariants:

* a fast-lane entry's timestamp always equals ``now`` — the lane only
  accepts zero-delay events, and it drains before the clock can
  advance (its head always compares smaller than any later heap entry);
* *urgent* events (process interrupts, priority 0) go to the heap even
  at zero delay, so they keep beating same-instant priority-1 events
  regardless of scheduling order, exactly as before.

``Simulator(two_lane=False)`` routes everything through the heap — the
reference kernel the differential tests compare against.

Typical usage::

    sim = Simulator()

    def worker(sim, results):
        yield sim.timeout(2.0)
        results.append(sim.now)

    out = []
    sim.process(worker(sim, out))
    sim.run()
    assert out == [2.0]
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "EngineStats",
    "Event",
    "Interrupt",
    "Join",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for engine-level misuse (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupted process may catch the exception and continue; the
    ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
_PENDING = 0  # created, not yet triggered
_TRIGGERED = 1  # scheduled on the event queue
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence in simulated time.

    Events carry a ``value`` (delivered to yielding processes) and an
    ``ok`` flag.  Failed events (``ok is False``) propagate their value
    as an exception into every process waiting on them, unless the
    failure is *defused* by a waiter that handles it.
    """

    __slots__ = ("sim", "_cb1", "_cbs", "_value", "ok", "_state", "_defused", "_abandon")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Single-waiter fast path: the overwhelmingly common case is one
        #: process (or condition) waiting per event, so the first callback
        #: lives in a slot and the overflow list is allocated lazily.
        self._cb1: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self.ok: bool = True
        self._state = _PENDING
        self._defused = False
        #: Optional hook invoked when the sole waiter detaches (process
        #: interrupt) — lets resource-like owners reclaim a grant that
        #: nobody will consume.
        self._abandon: Optional[Callable[["Event"], None]] = None

    # -- introspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("value of untriggered event")
        return self._value

    @property
    def callbacks(self) -> Optional[list[Callable[["Event"], None]]]:
        """Snapshot of pending callbacks; ``None`` once processed.

        Introspection only — mutating the returned list has no effect
        (the single-waiter slot is internal).
        """
        if self._state == _PROCESSED:
            return None
        out: list[Callable[["Event"], None]] = []
        if self._cb1 is not None:
            out.append(self._cb1)
        if self._cbs:
            out.extend(self._cbs)
        return out

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self.ok = True
        self._state = _TRIGGERED
        self.sim._enqueue(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self.ok = False
        self._state = _TRIGGERED
        self.sim._enqueue(self, delay)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    # -- engine internals ----------------------------------------------
    def _process_callbacks(self) -> None:
        cb1, cbs = self._cb1, self._cbs
        self._cb1 = None
        self._cbs = None
        self._state = _PROCESSED
        if cb1 is not None:
            cb1(self)
        if cbs:
            for cb in cbs:
                cb(self)
        if not self.ok and not self._defused:
            # Nobody caught the failure: surface it to the caller of run().
            raise self._value

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Invoke ``fn(event)`` when the event fires.

        If the event already fired, the callback runs immediately.
        """
        if self._state == _PROCESSED:
            fn(self)
        elif self._cb1 is None and not self._cbs:
            self._cb1 = fn
        elif self._cbs is None:
            self._cbs = [fn]
        else:
            self._cbs.append(fn)

    def _discard_callback(self, fn: Callable[["Event"], None]) -> None:
        """Detach a waiter (process interrupt); missing ``fn`` is a no-op.

        Equality, not identity: bound methods (``process._resume``) are
        re-created per access and compare equal without being the same
        object.
        """
        if self._cb1 == fn:
            self._cb1 = None
        elif self._cbs:
            try:
                self._cbs.remove(fn)
            except ValueError:  # pragma: no cover - defensive
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self.ok = True
        self._state = _TRIGGERED
        sim._enqueue(self, delay)

    def reset(self, delay: Optional[float] = None, value: Any = None) -> "Timeout":
        """Re-arm a *processed* timeout in place and return it.

        Retry/backoff loops fire the same timer over and over (the RPC
        retransmission ladder, drain polls); re-arming the object that
        just fired is cheaper than allocating a fresh ``Timeout`` per
        lap.  Only a processed timeout can be re-armed — a pending one
        still sits on the event heap.
        """
        if self._state != _PROCESSED:
            raise SimulationError("reset() on a timeout that has not fired yet")
        if delay is None:
            delay = self.delay
        elif delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        self.delay = delay
        self._value = value
        self.ok = True
        self._defused = False
        self._state = _TRIGGERED
        self.sim._enqueue(self, delay)
        return self


class _Start:
    """Pre-fired sentinel delivered to a generator's first resume.

    Shaped like a processed, successful event (``ok``/``_value`` are
    all ``_resume`` reads on the success path) without being one — the
    start kick needs no per-process event allocation.
    """

    __slots__ = ()
    ok = True
    _value = None


_START = _Start()


class _Kick:
    """Fast-lane entry that starts a process/task at the current instant.

    Replaces the per-process init :class:`Event`: the scheduler calls
    ``_process_callbacks`` on whatever it pops, and a kick's only job
    is to push the wrapped activity into its first generator segment.
    """

    __slots__ = ("proc",)

    def __init__(self, proc):
        self.proc = proc

    def _process_callbacks(self) -> None:
        self.proc._resume(_START)


class Process(Event):
    """A running simulation activity wrapping a generator.

    A process is itself an event: it fires when the generator returns
    (value = the generator's return value) or raises (failure).  Other
    processes may therefore ``yield`` a process to join it.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process at the current instant.  The kick takes
        # the same scheduling slot the old init-event enqueue did, so
        # firing order is unchanged — it just costs no Event allocation
        # and (on the fast lane) no heap traffic.
        sim._enqueue(_Kick(self), 0.0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is waiting on an event detaches it from that event (the
        event may still fire later and is ignored by this process).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self._waiting_on is self:
            raise SimulationError("process cannot interrupt itself synchronously")
        interrupt_ev = Event(self.sim)
        interrupt_ev.ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev._state = _TRIGGERED
        # Detach from whatever we were waiting on.
        target = self._waiting_on
        if target is not None:
            if target._state != _PROCESSED:
                target._discard_callback(self._resume)
            if target._abandon is not None:
                target._abandon(target)
        self._waiting_on = None
        self.sim._enqueue(interrupt_ev, 0.0, urgent=True)
        interrupt_ev.add_callback(self._resume)

    # -- engine internals ----------------------------------------------
    def _resume(self, event) -> None:
        # Trampoline: yielding an already-processed event used to recurse
        # (``add_callback`` on a processed event calls back immediately);
        # looping here resumes such targets iteratively, so long chains
        # of completed events cost stack-free sends instead of recursion.
        sim = self.sim
        gen = self._generator
        while True:
            self._waiting_on = None
            sim._active_process = self
            try:
                if event.ok:
                    target = gen.send(event._value)
                else:
                    event._defused = True
                    target = gen.throw(event._value)
            except StopIteration as stop:
                sim._active_process = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                sim._active_process = None
                self.fail(exc)
                return
            sim._active_process = None
            if not isinstance(target, Event):
                error = SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
                try:
                    gen.throw(error)
                except BaseException as exc:
                    self.fail(exc)
                    return
                raise error
            if target.sim is not sim:
                raise SimulationError("yielded event belongs to another simulator")
            if target._state == _PROCESSED:
                event = target
                continue
            self._waiting_on = target
            target.add_callback(self._resume)
            return


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from two simulators")
        self._pending_count = len(self.events)
        if not self.events:
            self.succeed(())
        else:
            for ev in self.events:
                ev.add_callback(self._check)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired.

    Its value is a tuple of the constituent values in construction
    order.  If any constituent fails, the condition fails with that
    exception.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event.ok:
            event.defuse()
            self.fail(event._value)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed(tuple(ev._value for ev in self.events))


class AnyOf(_Condition):
    """Fires as soon as one constituent event fires.

    Its value is ``(index, value)`` of the first event to fire.  If the
    same event object appears more than once, the index of its *first*
    occurrence is reported (both slots fire at the same instant with the
    same value, so the first occurrence is the meaningful one).
    """

    __slots__ = ("_index",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        events = tuple(events)
        # id -> construction index, first occurrence wins.  Precomputed
        # *before* callbacks can run (an already-fired constituent calls
        # _check synchronously inside super().__init__), replacing the
        # old O(n) ``tuple.index`` lookup per fire — which also reported
        # a wrong (albeit first-occurrence-by-scan) slot under aliasing.
        self._index: dict[int, int] = {}
        for i, ev in enumerate(events):
            self._index.setdefault(id(ev), i)
        super().__init__(sim, events)

    def _check(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event.ok:
            event.defuse()
            self.fail(event._value)
            return
        self.succeed((self._index[id(event)], event._value))


class Join(Event):
    """Completion event for a batch of lightweight tasks.

    Returned by :meth:`Simulator.spawn`; fires (value ``None``) when
    every spawned generator has run to completion, or fails with the
    first task exception.  Unlike :class:`AllOf` over processes, the
    join is told about completions directly — finishing a task costs no
    per-task completion event.
    """

    __slots__ = ("_pending_count",)

    def __init__(self, sim: "Simulator", count: int):
        super().__init__(sim)
        self._pending_count = count
        if count == 0:
            self.succeed(None)

    def _task_done(self) -> None:
        self._pending_count -= 1
        if self._pending_count == 0 and self._state == _PENDING:
            self.succeed(None)

    def _task_fail(self, exc: BaseException) -> None:
        if self._state == _PENDING:
            self.fail(exc)
        else:
            # Mirrors a leg Process failing after its AllOf resolved:
            # nobody can observe the failure, so it crashes the run.
            raise exc


class _Task:
    """Lightweight generator driver for :meth:`Simulator.spawn` legs.

    Unlike :class:`Process` a task is not itself an event — nothing can
    wait on (or interrupt) an individual leg, only the shared
    :class:`Join` — so a leg costs one slotted object and no completion
    event.  Tasks skip the ``_active_process`` bookkeeping too: spans
    only ever begin inside full processes.
    """

    __slots__ = ("sim", "_generator", "join")

    def __init__(self, sim: "Simulator", generator: Generator, join: Join):
        self.sim = sim
        self._generator = generator
        self.join = join
        sim._enqueue(_Kick(self), 0.0)

    def _resume(self, event) -> None:
        sim = self.sim
        gen = self._generator
        while True:
            try:
                if event.ok:
                    target = gen.send(event._value)
                else:
                    event._defused = True
                    target = gen.throw(event._value)
            except StopIteration:
                self.join._task_done()
                return
            except BaseException as exc:
                self.join._task_fail(exc)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"task {getattr(gen, '__name__', gen)!r} yielded "
                    f"non-event {target!r}"
                )
            if target.sim is not sim:
                raise SimulationError("yielded event belongs to another simulator")
            if target._state == _PROCESSED:
                event = target
                continue
            target.add_callback(self._resume)
            return


@dataclass
class EngineStats:
    """Event-loop accounting: how much work a simulation actually did.

    ``wall_seconds`` accumulates real (host) time spent inside
    :meth:`Simulator.run` — the number host-cost claims are measured
    against, not asserted from.
    """

    events_processed: int = 0
    peak_heap: int = 0
    wall_seconds: float = 0.0
    #: Lane split of scheduled events: zero-delay entries routed to the
    #: FIFO fast lane vs entries that paid for a real heap push.
    fast_lane_events: int = 0
    heap_events: int = 0

    @property
    def events_scheduled(self) -> int:
        """Total events scheduled (sum of the two lane counters).

        Derived rather than counted: ``_enqueue`` is the hottest call
        in the kernel and bumps exactly one lane counter per event.
        """
        return self.fast_lane_events + self.heap_events

    def as_dict(self) -> dict:
        return {
            "events_scheduled": self.events_scheduled,
            "events_processed": self.events_processed,
            "peak_heap": self.peak_heap,
            "wall_seconds": self.wall_seconds,
            "fast_lane_events": self.fast_lane_events,
            "heap_events": self.heap_events,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.events_scheduled} events scheduled "
            f"({self.fast_lane_events} fast-lane / {self.heap_events} heap), "
            f"{self.events_processed} processed, "
            f"peak heap {self.peak_heap}, "
            f"{self.wall_seconds:.3f}s wall"
        )


class Simulator:
    """The event loop: a heap of (time, priority, seq, event) entries.

    ``seed`` initialises the simulation-wide RNG used by stochastic
    components (e.g. randomised network-pipe arbitration); runs with the
    same seed are exactly reproducible.
    """

    def __init__(self, seed: int = 20070625, two_lane: bool = True):
        self.now: float = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        #: FIFO fast lane of ``(seq, event)`` pairs, all at time ``now``
        #: with normal priority.  ``None`` disables the lane (pure-heap
        #: reference kernel for the differential tests).
        self._fast: Optional[deque] = deque() if two_lane else None
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        self.stats = EngineStats()
        #: Per-simulation id streams (sessions, layout stateids, ...).
        #: Keeping these on the simulator — never module-global — makes
        #: identical-seed runs produce identical ids regardless of how
        #: many simulations ran earlier in the process (the same-seed-
        #: same-trace guarantee the torture replayer depends on).
        self._ids: dict[str, int] = {}
        import numpy as _np

        self.rng = _np.random.default_rng(seed)

    def next_id(self, kind: str) -> int:
        """Allocate the next id (1, 2, ...) from this sim's ``kind`` stream."""
        n = self._ids.get(kind, 0) + 1
        self._ids[kind] = n
        return n

    # -- event constructors ---------------------------------------------
    def event(self) -> Event:
        """Create an untriggered one-shot event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a process at the current instant."""
        return Process(self, generator, name)

    def spawn(self, *generators: Generator) -> Join:
        """Run ``generators`` as lightweight legs; join fires when all end.

        Cheaper than ``all_of([process(g) for g in generators])``: legs
        are not events (nothing can join or interrupt one individually),
        so each costs a small driver object instead of a full
        :class:`Process` plus a completion event plus an ``AllOf``
        callback chain.  Use for fire-and-join work like RPC transfer
        legs; use :meth:`process` when the activity itself must be
        awaitable or interruptible.
        """
        join = Join(self, len(generators))
        for gen in generators:
            _Task(self, gen, join)
        return join

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _enqueue(self, event: Event, delay: float, urgent: bool = False) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay!r}s in the past")
        stats = self.stats
        fast = self._fast
        if delay == 0.0 and not urgent and fast is not None:
            # Zero-delay, normal priority: fires at ``now`` in seq order,
            # which is exactly FIFO append order on the lane.
            fast.append((next(self._seq), event))
            stats.fast_lane_events += 1
            return
        queue = self._queue
        heapq.heappush(
            queue, (self.now + delay, 0 if urgent else 1, next(self._seq), event)
        )
        stats.heap_events += 1
        if len(queue) > stats.peak_heap:
            stats.peak_heap = len(queue)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._fast:
            # Fast-lane entries always fire at the current instant.
            return self.now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (the merged-order head of both lanes)."""
        fast = self._fast
        queue = self._queue
        if fast:
            if queue:
                when, prio, seq, event = queue[0]
                # The heap head beats the fast-lane head only when its
                # (time, prio, seq) key is smaller; fast entries sit at
                # (now, 1, seq), so that means an urgent event at ``now``
                # or an older same-instant heap entry.
                if (when, prio, seq) < (self.now, 1, fast[0][0]):
                    heapq.heappop(queue)
                else:
                    event = fast.popleft()[1]
            else:
                event = fast.popleft()[1]
        else:
            when, _prio, _seq, event = heapq.heappop(queue)
            if when < self.now:  # pragma: no cover - heap guarantees ordering
                raise SimulationError("event queue corrupted: time went backwards")
            self.now = when
        self.stats.events_processed += 1
        event._process_callbacks()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queues drain, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain the queues), a number (stop when
        simulated time would exceed it; ``now`` is set to the deadline),
        or an :class:`Event` (stop when it fires and return its value).
        """
        stop_event: Optional[Event] = None
        deadline = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event._value
        elif until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise SimulationError(
                    f"run(until={deadline}) is in the past (now={self.now})"
                )

        # Hot loop: this is where a protocol simulation spends most of
        # its wall clock, so lane heads are compared inline (no step()
        # call, no key-tuple allocation) and hot attributes live in
        # locals.  ``events_processed`` is batched into one add at exit.
        stats = self.stats
        queue = self._queue
        fast = self._fast
        heappop = heapq.heappop
        processed = 0
        wall_start = _time.perf_counter()
        try:
            while queue or fast:
                if fast:
                    if queue:
                        head = queue[0]
                        # Heap head beats the fast head only at the same
                        # instant, via urgent priority or an older seq.
                        if head[0] <= self.now and (
                            head[1] == 0 or head[2] < fast[0][0]
                        ):
                            event = heappop(queue)[3]
                        else:
                            event = fast.popleft()[1]
                    else:
                        event = fast.popleft()[1]
                    # No deadline check: fast entries fire at ``now`` and
                    # a winning heap head is also at ``now`` (it beat a
                    # same-instant key), so neither can pass ``deadline``.
                else:
                    when = queue[0][0]
                    if when > deadline:
                        self.now = deadline
                        return None
                    event = heappop(queue)[3]
                    self.now = when
                processed += 1
                event._process_callbacks()
                if stop_event is not None and stop_event._state == _PROCESSED:
                    if not stop_event.ok:
                        raise stop_event._value
                    return stop_event._value
            if stop_event is not None:
                raise SimulationError(
                    "run() ran out of events before the awaited event fired"
                )
            if deadline != float("inf"):
                self.now = deadline
            return None
        finally:
            stats.events_processed += processed
            stats.wall_seconds += _time.perf_counter() - wall_start
