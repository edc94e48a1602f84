"""Generator-based discrete-event simulation kernel.

The paper's evaluation (Section 7) uses a custom slotted wireless-LAN
simulator.  This module provides the event-scheduling substrate for our
re-implementation of that simulator: a small, deterministic, SimPy-flavoured
kernel built on Python generators.

Design notes
------------
* **Time** is a plain number.  The wireless layers above use integer slot
  counts ("the time is slotted so that the event happens at the beginning of
  a slot" -- paper, Section 7), but the kernel itself does not care.
* **Determinism.**  Events scheduled for the same timestamp are ordered by an
  explicit integer *priority* (lower value runs earlier) and then by
  insertion order.  The wireless channel delivers frames at
  :data:`PRIORITY_DELIVERY` while protocol timeouts use
  :data:`PRIORITY_NORMAL`, so a frame arriving exactly when a wait-for-frame
  timer expires is always processed *before* the timer -- matching the paper's
  "wait :math:`T_{CTS}` for the CTS" semantics where a CTS occupying the
  whole wait window still counts as received.
* **Processes** are Python generators that ``yield`` events.  A process is
  itself an event that triggers when the generator returns, so processes can
  wait on each other.
* **Failures crash loudly.**  An exception escaping a process that nobody is
  waiting on is re-raised from :meth:`Environment.run` -- a simulation bug
  must never be silently swallowed.
* **Allocation diet.**  The dominant kernel idiom is ``yield env.timeout(d)``
  inside a hot loop; :meth:`Environment.sleep` serves it from a small free
  list of recycled :class:`Timeout` objects instead of allocating a fresh
  event per wait.  A recycled timeout is indistinguishable from a new one to
  the scheduler (events are ordered by ``(time, priority, eid)``, never by
  object identity), so pooling changes allocation pressure only, never
  results.  Every event class carries ``__slots__`` (pinned by a test) and
  :meth:`Environment.run` drives an inlined pop-and-dispatch loop rather
  than a ``peek()``/``step()`` pair re-probing the heap head twice per
  event.

The public surface intentionally mirrors a useful subset of SimPy
(``Environment``, ``Process``, ``Timeout``, ``AnyOf``, ``AllOf``,
``Interrupt``) so readers familiar with SimPy can follow the MAC state
machines directly.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from heapq import heappop, heappush
from typing import Any, Callable

from repro.obs.events import EventBus

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "StopKernel",
    "PRIORITY_URGENT",
    "PRIORITY_DELIVERY",
    "PRIORITY_NORMAL",
]

#: Priority for interrupt delivery and other must-run-first bookkeeping.
PRIORITY_URGENT = 0
#: Priority used by the channel when handing received frames to nodes.
PRIORITY_DELIVERY = 1
#: Default priority for timeouts and ordinary events.
PRIORITY_NORMAL = 5


class StopKernel(Exception):
    """Raised internally to stop :meth:`Environment.run` at ``until``."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    The interrupt *cause* (an arbitrary object supplied by the caller) is
    available as :attr:`cause`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


# Sentinel distinguishing "not yet triggered" from a triggered None value.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event goes through three states:

    1. *pending* -- created but not triggered;
    2. *triggered* -- :meth:`succeed` or :meth:`fail` was called and the event
       sits in the scheduler queue;
    3. *processed* -- its callbacks have run.

    Waiting on an already-processed event resumes the waiter immediately (on
    the next kernel step), with the stored value or exception.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_scheduled", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callables invoked with this event once it is processed.
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = _PENDING
        self._exception: BaseException | None = None
        self._scheduled = False
        #: Set when a failure has been handed to a waiter (so the kernel does
        #: not also crash the simulation for it).
        self.defused = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (not failed)."""
        if not self.triggered:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._exception is None

    @property
    def value(self) -> Any:
        """The event's value (raises the stored exception for failures)."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with *value*."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = value
        self.env._schedule(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._exception = exception
        self._value = None
        self.env._schedule(self, priority)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not self.defused:
            # Nobody consumed the failure: surface it from env.run().
            self.env._unhandled = self._exception

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers *delay* time units after creation."""

    __slots__ = ("delay", "_recycle")

    def __init__(
        self,
        env: "Environment",
        delay: float,
        value: Any = None,
        priority: int = PRIORITY_NORMAL,
    ):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        #: Set only by :meth:`Environment.sleep`: after this timeout's
        #: callbacks have run, the scheduler may return it to the free list.
        self._recycle = False
        self.env._schedule(self, priority, delay)

    @property
    def triggered(self) -> bool:
        return True


class Initialize(Event):
    """Internal: starts a freshly created :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, PRIORITY_URGENT)


class Process(Event):
    """Wrap a generator as a simulation process.

    The process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the escaping exception.
    Other processes may therefore ``yield proc`` to join on it.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str | None = None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process currently waits on (None when running).
        self._target: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not exited."""
        return not self.triggered

    def close(self) -> None:
        """Close the generator where it is suspended and forget the event
        it waits on; the process is never resumed again (a finished run
        releasing its state)."""
        self._generator.close()
        self._target = None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process must be alive and must not interrupt itself.  The
        interrupt is delivered as an urgent event, so it preempts any
        same-time timeout the victim is waiting on.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self.name} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")

        event = Event(self.env)
        event._value = None
        event._exception = Interrupt(cause)
        event.defused = True  # consumed by the throw below, never "unhandled"
        event.callbacks.append(self._resume)
        self.env._schedule(event, PRIORITY_URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with *event*'s outcome."""
        env = self.env
        # Detach from the event we were waiting on (relevant for interrupts:
        # the original target may still fire later and must not resume us).
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
        self._target = None

        env._active = self
        try:
            if event._exception is not None:
                event.defused = True
                result = self._generator.throw(event._exception)
            else:
                result = self._generator.send(event._value)
        except StopIteration as exc:
            env._active = None
            self._value = exc.value
            env._schedule(self, PRIORITY_NORMAL)
            return
        except Interrupt as exc:
            # An interrupt the generator chose not to handle terminates the
            # process; treat it as a failure so joiners see it.
            env._active = None
            self._exception = exc
            env._schedule(self, PRIORITY_NORMAL)
            return
        except BaseException as exc:
            env._active = None
            self._exception = exc
            self._value = None
            env._schedule(self, PRIORITY_NORMAL)
            return
        env._active = None

        if not isinstance(result, Event):
            raise TypeError(
                f"process {self.name!r} yielded {result!r}; processes may only yield events"
            )
        if result.processed:
            # Already settled: resume on the next step with its outcome.
            redo = Event(env)
            redo._value = result._value
            redo._exception = result._exception
            if result._exception is not None:
                redo.defused = True
                result.defused = True
            redo.callbacks.append(self._resume)
            env._schedule(redo, PRIORITY_URGENT)
            self._target = redo
        else:
            result.callbacks.append(self._resume)
            self._target = result


class Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf` composite events.

    The condition's value is an ordered dict mapping each *triggered*
    sub-event to its value (insertion order = trigger order for ``AnyOf``,
    original order for ``AllOf``).  A failing sub-event fails the condition.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if not isinstance(ev, Event):
                raise TypeError(f"{ev!r} is not an Event")
            if ev.env is not env:
                raise ValueError("all events of a condition must share one environment")
        self._pending = len(self.events)
        if self._check_immediate():
            return
        for ev in self.events:
            if ev.processed:
                # Treat like a fresh trigger on the next step.  The proxy
                # merely replays an already-settled outcome into the
                # condition, so a replayed failure is consumed here and
                # must not crash the kernel as "unhandled".
                proxy = Event(env)
                proxy._value = ev._value
                proxy._exception = ev._exception
                proxy.defused = True
                proxy.callbacks.append(lambda _e, orig=ev: self._on_sub_event(orig))
                env._schedule(proxy, PRIORITY_URGENT)
            else:
                ev.callbacks.append(lambda _e, orig=ev: self._on_sub_event(orig))

    def _check_immediate(self) -> bool:
        """Trigger now if already-settled sub-events satisfy the condition."""
        raise NotImplementedError

    def _satisfied(self, n_done: int) -> bool:
        raise NotImplementedError

    def _on_sub_event(self, sub: Event) -> None:
        if self.triggered:
            if sub._exception is not None:
                sub.defused = True
            return
        if sub._exception is not None:
            sub.defused = True
            self.fail(sub._exception, priority=PRIORITY_URGENT)
            return
        self._pending -= 1
        if self._satisfied(len(self.events) - self._pending):
            self.succeed(self._collect(), priority=PRIORITY_URGENT)

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count: a Timeout reports `triggered` from
        # birth (its value is preset), but it has not occurred until its
        # callbacks run.
        return {ev: ev._value for ev in self.events if ev.processed and ev._exception is None}


class AnyOf(Condition):
    """Triggers as soon as *any* sub-event triggers."""

    __slots__ = ()

    def _check_immediate(self) -> bool:
        if not self.events:
            self.succeed({}, priority=PRIORITY_URGENT)
            return True
        for ev in self.events:
            if ev.processed and ev._exception is None:
                self.succeed(self._collect(), priority=PRIORITY_URGENT)
                return True
        return False

    def _satisfied(self, n_done: int) -> bool:
        return n_done >= 1


class AllOf(Condition):
    """Triggers once *all* sub-events have triggered."""

    __slots__ = ()

    def _check_immediate(self) -> bool:
        if not self.events:
            self.succeed({}, priority=PRIORITY_URGENT)
            return True
        # Already-processed sub-events are replayed through proxy events by
        # Condition.__init__, so the generic countdown handles them.
        return False

    def _satisfied(self, n_done: int) -> bool:
        return self._pending == 0


class Environment:
    """The simulation clock and event queue.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (default 0).
    """

    #: Upper bound on the recycled-timeout free list; beyond this, retired
    #: timeouts are simply dropped for the garbage collector.
    _POOL_MAX = 256

    def __init__(self, initial_time: float = 0):
        self._now = initial_time
        self._queue: list[tuple[float, int, int, Event]] = []
        #: The sample lane: carrier-sense wake-ups scheduled via
        #: :meth:`sample_sleep`.  Kept out of :attr:`_queue` so
        #: :meth:`peek_foreign` can report the next *world-changing* event
        #: without scanning past pending mid-slot samples.  Both lanes share
        #: one ``_eid`` counter, so the merged dispatch order is exactly the
        #: order a single queue would produce.
        self._sample_queue: list[tuple[float, int, int, int, Event]] = []
        self._eid = 0
        self._active: Process | None = None
        self._unhandled: BaseException | None = None
        #: Free list of retired :meth:`sleep` timeouts awaiting reuse.
        self._timeout_pool: list[Timeout] = []
        #: Commit-horizon registry: opaque key -> earliest instant that
        #: registrant could possibly begin a transmission (see
        #: :meth:`publish_horizon`).  Read by :meth:`commit_horizon`.
        self._horizons: dict[int, float] = {}
        self._next_horizon_key = 0
        #: Observability event bus (see :mod:`repro.obs.events`).  Created
        #: once per environment and never replaced, so instrumented layers
        #: may cache the reference.
        self.obs = EventBus(self)
        #: Opt-in kernel phase profiler
        #: (:class:`repro.obs.profiler.KernelPhaseProfiler`); ``None`` by
        #: default.  Set by ``profiler.attach(env)`` -- the profiler is a
        #: plain bus subscriber, so a profiled run stays bit-identical.
        self.profile = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing (None between steps)."""
        return self._active

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None, priority: int = PRIORITY_NORMAL) -> Timeout:
        """Create a :class:`Timeout` firing after *delay*."""
        return Timeout(self, delay, value, priority)

    def sleep(self, delay: float, priority: int = PRIORITY_NORMAL) -> Timeout:
        """A pooled :class:`Timeout` for the ``yield env.sleep(d)`` idiom.

        Semantically identical to :meth:`timeout` (same scheduling, same
        eid sequence, value ``None``), but the returned event is recycled
        into a free list once its callbacks have run.  Callers must
        therefore yield it immediately and never keep a reference past the
        wait -- exactly the pattern of every hot wait loop in the MAC
        layer.  For timeouts that are stored, composed into conditions, or
        inspected after firing, use :meth:`timeout`.
        """
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            timeout.callbacks = []
            timeout._value = None
            timeout._exception = None
            timeout._scheduled = False
            timeout.defused = False
            timeout.delay = delay
            self._schedule(timeout, priority, delay)
            return timeout
        timeout = Timeout(self, delay, None, priority)
        timeout._recycle = True
        return timeout

    def sample_sleep(self, delay: float, rank: int, priority: int = PRIORITY_NORMAL) -> Timeout:
        """A pooled timeout scheduled into the *sample lane*.

        Same clock as :meth:`sleep`, but (a) the event is invisible to
        :meth:`peek_foreign`, and (b) same-instant sample wake-ups are
        ordered by *rank* -- a stable per-owner key (the contender's
        horizon key) -- instead of by scheduling history.  Rank ordering
        is what pins same-instant commit order: contenders tying on a
        commit instant all schedule their commit timeouts from their
        final samples at ``T - 0.5``, so those commits inherit the rank
        order regardless of how each contender batched its way there.
        Main-queue events win cross-lane ties at equal (time, priority).

        Reserved for carrier-sense sample wake-ups whose callbacks cannot
        change the simulated world before the bound their owner has
        published via :meth:`publish_horizon` (the per-slot reference
        machine, which never batches, needs no bound: its samples are
        world-read-only by construction).  Scheduling a batched skip
        without a covering published horizon voids the commit-horizon
        safety argument (see docs/simulator.md, "Fast paths").
        """
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            timeout.callbacks = []
            timeout._value = None
            timeout._exception = None
            timeout._scheduled = False
            timeout.defused = False
            timeout.delay = delay
        else:
            timeout = Timeout.__new__(Timeout)
            Event.__init__(timeout, self)
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            timeout._value = None
            timeout.delay = delay
            timeout._recycle = True
        timeout._scheduled = True
        self._eid += 1
        heappush(
            self._sample_queue,
            (self._now + delay, priority, rank, self._eid, timeout),
        )
        return timeout

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start *generator* as a :class:`Process`."""
        return Process(self, generator, name)

    def clear(self) -> None:
        """Drop every pending event and pooled timeout.

        The clock stays where it is.  A finished run calls this (through
        :meth:`repro.sim.network.Network.close`) so the processes and
        callbacks those events hold are freed by reference counting.
        """
        self._queue.clear()
        self._sample_queue.clear()
        self._timeout_pool.clear()

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling & execution ----------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float = 0) -> None:
        if event._scheduled:
            raise RuntimeError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when queues are empty)."""
        queue = self._queue
        squeue = self._sample_queue
        if queue:
            if squeue and squeue[0][0] < queue[0][0]:
                return squeue[0][0]
            return queue[0][0]
        return squeue[0][0] if squeue else float("inf")

    def peek_foreign(self) -> float:
        """Time of the next *non-sample* event (``inf`` when none pending).

        Sample-lane wake-ups (:meth:`sample_sleep`) are excluded: their
        callbacks cannot change the simulated world before the bound their
        owner published, so a contender probing for the earliest possible
        foreign state change may look past them -- the commit-horizon fast
        path's whole point.
        """
        return self._queue[0][0] if self._queue else float("inf")

    # -- commit-horizon registry --------------------------------------------

    def horizon_key(self) -> int:
        """A fresh opaque key for :meth:`publish_horizon` (one per owner)."""
        self._next_horizon_key += 1
        return self._next_horizon_key

    def publish_horizon(self, key: int, bound: float) -> None:
        """Publish *bound*: the owner of *key* promises not to begin a
        transmission before simulated time *bound*.

        Re-publishing overwrites.  The contract: at every instant, the
        published bound must be at or below the owner's true
        commit-if-the-medium-stays-idle time, and it may only change
        inside the owner's own wake-up callbacks.  Bounds need *not* be
        monotone -- a busy-wake redraw may legitimately lower one -- the
        ordering-safety argument (docs/simulator.md, "Fast paths") closes
        without monotonicity because any intervening busy transition is
        itself fenced by a main-queue event.
        """
        self._horizons[key] = bound

    def retract_horizon(self, key: int) -> None:
        """Withdraw *key*'s bound (phase exit, busy fallback, process death)."""
        self._horizons.pop(key, None)

    def commit_horizon(self, exclude_key: int = 0) -> float:
        """The earliest instant any *other* actor could change the world:
        ``min`` of :meth:`peek_foreign` and every published bound except
        *exclude_key*'s own."""
        horizon = self._queue[0][0] if self._queue else float("inf")
        for key, bound in self._horizons.items():
            if bound < horizon and key != exclude_key:
                horizon = bound
        return horizon

    def step(self) -> None:
        """Process the single next event.

        Raises
        ------
        IndexError
            If both queues are empty.
        """
        queue = self._queue
        squeue = self._sample_queue
        # Cross-lane ties at equal (time, priority) go to the main queue:
        # sample wake-ups always observe a world in which every same-instant
        # main event (delivery, alignment, commit) has already run.
        if squeue and (
            not queue or (squeue[0][0], squeue[0][1]) < (queue[0][0], queue[0][1])
        ):
            entry = heappop(squeue)
        else:
            entry = heappop(queue)
        when = entry[0]
        event = entry[-1]
        if when < self._now:  # pragma: no cover - guarded by Timeout's check
            raise RuntimeError("event scheduled in the past")
        self._now = when
        event._run_callbacks()
        if self._unhandled is not None:
            exc, self._unhandled = self._unhandled, None
            raise exc
        if type(event) is Timeout and event._recycle and len(self._timeout_pool) < self._POOL_MAX:
            self._timeout_pool.append(event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until *until* (a time, an event, or queue exhaustion).

        When *until* is an event, returns that event's value.  When it is a
        time, the clock is advanced exactly to it even if no event is
        scheduled there.
        """
        stop_value: list[Any] = []
        if isinstance(until, Event):
            if until.processed:
                return until.value

            def _stop(ev: Event) -> None:
                stop_value.append(ev)
                raise StopKernel()

            until.callbacks.append(_stop)
            deadline = float("inf")
        elif until is None:
            deadline = float("inf")
        else:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(f"until={deadline} is in the past (now={self._now})")

        # Inlined step() loop: one heap pop per event instead of a peek()
        # probe plus a pop, with the queue/pool bound to locals.  Identical
        # event order and identical semantics to repeated step() calls
        # (pinned by tests/sim/test_kernel_fastpath.py).
        queue = self._queue
        squeue = self._sample_queue
        pool = self._timeout_pool
        pool_max = self._POOL_MAX
        try:
            while queue or squeue:
                # Merge the two lanes on (time, priority); cross-lane ties go
                # to the main queue (samples must see same-instant deliveries
                # and commits already applied), and same-instant sample ties
                # order by rank (see sample_sleep).  With the sample lane
                # empty -- every workload without in-phase contenders -- the
                # merge costs one falsy check per event.
                if squeue and (
                    not queue
                    or (squeue[0][0], squeue[0][1]) < (queue[0][0], queue[0][1])
                ):
                    lane = squeue
                else:
                    lane = queue
                entry = lane[0]
                when = entry[0]
                if when >= deadline:
                    break
                heappop(lane)
                event = entry[-1]
                self._now = when
                event._run_callbacks()
                if self._unhandled is not None:
                    exc, self._unhandled = self._unhandled, None
                    raise exc
                if type(event) is Timeout and event._recycle and len(pool) < pool_max:
                    pool.append(event)
            # Process events scheduled exactly at the deadline boundary?  No:
            # mirroring SimPy, run(until=t) stops *before* executing events at
            # time t, leaving them for a subsequent run().
        except StopKernel:
            ev = stop_value[0]
            return ev.value
        if isinstance(until, Event):
            raise RuntimeError("simulation ran out of events before `until` triggered")
        if deadline != float("inf"):
            self._now = deadline
        return None
