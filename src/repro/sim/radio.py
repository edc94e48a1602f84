"""Per-node radio interface.

A :class:`Radio` is the MAC layer's window onto the shared channel:

* **physical carrier sense** -- :attr:`busy_until` / :meth:`is_busy` reflect
  every transmission currently audible at this node, *including the node's
  own* (a transmitting station trivially senses a busy medium);
* **reception** -- frames the channel decides this node received are pushed
  to registered listeners, synchronously at the slot the frame ends (a
  control frame that does not address this node goes straight to the
  owning MAC's :attr:`yield_to` handler while that MAC is the only
  listener);
* **transmission** -- :meth:`Radio.transmit` hands a frame to the channel
  and returns an event that fires when the airtime has elapsed.

Half-duplex behaviour (a station cannot receive while transmitting) and all
collision/capture decisions live in :class:`repro.sim.channel.Channel`; the
radio only keeps the per-node state the channel and MAC need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sim.frames import Frame
from repro.sim.kernel import Environment, Event, PRIORITY_DELIVERY

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.channel import Channel, Transmission

__all__ = ["Radio"]

#: Listener signature: ``(frame, clean)`` where *clean* is the ground-truth
#: "received without collision" flag of Theorems 1/3.
FrameListener = Callable[[Frame, bool], None]
#: Bystander signature: ``(frame)`` for a decoded control frame that does
#: not address this node (Figure 3's last receiver rule).
BystanderHandler = Callable[[Frame], None]


class Radio:
    """The attachment point between one node's MAC and the channel."""

    def __init__(self, channel: "Channel", node_id: int):
        self.channel = channel
        self.env: Environment = channel.env
        self.node_id = node_id
        #: End time of the latest-ending audible or own transmission.
        self.busy_until: float = channel.env.now
        #: Audible transmissions (kept until they can no longer overlap
        #: any in-flight frame; pruned by the channel).
        self.audible: list["Transmission"] = []
        #: This node's own transmissions (for half-duplex reception checks).
        self.own_tx: list["Transmission"] = []
        #: End time of this node's latest own transmission.  Own frames
        #: never overlap (the channel refuses a transmit while one is in
        #: flight), so the radio is transmitting exactly while this lies
        #: in the future.
        self.own_until: float = channel.env.now
        #: Earliest end time in ``own_tx`` / ``audible`` -- the channel's
        #: prune watermarks: a compaction pass can only remove something
        #: when the watermark has fallen behind the prune horizon.
        self.own_min_end: float = float("inf")
        self.audible_min_end: float = float("inf")
        self._listeners: list[FrameListener] = []
        #: ``(listener, handler)`` registered through
        #: ``add_listener(..., bystander=handler)``.
        self._bystander: tuple[FrameListener, BystanderHandler] | None = None
        #: The bystander handler while its listener is the only one
        #: attached, else ``None``: the channel then hands a control frame
        #: not addressed to this node to it directly (see
        #: :meth:`Channel._receive_at`) instead of to :meth:`_deliver`.
        self.yield_to: BystanderHandler | None = None

    # -- carrier sense -------------------------------------------------------

    @property
    def is_busy(self) -> bool:
        """Physical carrier sense: is any transmission audible right now?"""
        return self.busy_until > self.env.now

    @property
    def is_transmitting(self) -> bool:
        return self.own_until > self.env.now

    # -- reception -----------------------------------------------------------

    def add_listener(
        self, listener: FrameListener, bystander: "BystanderHandler | None" = None
    ) -> None:
        """Register *listener* for every frame this node decodes.

        *bystander*, if given, must act exactly as *listener* does on a
        control frame that does not address this node; the channel calls
        it in place of the generic dispatch while *listener* is alone.
        """
        self._listeners.append(listener)
        if bystander is not None:
            self._bystander = (listener, bystander)
        self._update_yield_to()

    def remove_listener(self, listener: FrameListener) -> None:
        self._listeners.remove(listener)
        self._update_yield_to()

    def clear_listeners(self) -> None:
        """Detach every listener (a finished run releasing its MACs)."""
        self._listeners.clear()
        self._bystander = None
        self.yield_to = None

    def _update_yield_to(self) -> None:
        pair = self._bystander
        listeners = self._listeners
        sole = pair is not None and len(listeners) == 1 and listeners[0] == pair[0]
        self.yield_to = pair[1] if sole else None

    def _deliver(self, frame: Frame, clean: bool) -> None:
        """Called by the channel when this node successfully receives."""
        for listener in list(self._listeners):
            listener(frame, clean)

    # -- transmission ----------------------------------------------------------

    def transmit(self, frame: Frame) -> Event:
        """Put *frame* on the air now; returns an event firing at end of
        airtime.  Raises if this radio is already mid-transmission."""
        return self.channel.transmit(self, frame)

    # -- conveniences for MAC code --------------------------------------------

    def expect(
        self,
        predicate: Callable[[Frame], bool],
        timeout: float,
    ) -> Event:
        """Event that fires with the first received frame satisfying
        *predicate* within *timeout* slots, or ``None`` on timeout.

        This implements the paper's "waits CTS from :math:`p_i` for
        :math:`T_{CTS}`" pattern.  Because frame deliveries are scheduled at
        :data:`PRIORITY_DELIVERY` and timeouts at normal priority, a frame
        whose reception completes exactly at the deadline still wins.
        """
        env = self.env
        waiter = _Expectation(self, predicate, env.event())
        self.add_listener(waiter.on_frame)
        env.timeout(timeout).callbacks.append(waiter.on_timer)
        return waiter.result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Radio node={self.node_id} busy_until={self.busy_until}>"


class _Expectation:
    """The listener and timer callback behind :meth:`Radio.expect`.

    Bound methods of a plain object, not closures: a closure that removes
    itself holds a reference to itself, so every expectation would be a
    reference cycle left for the garbage collector.
    """

    __slots__ = ("radio", "predicate", "result")

    def __init__(self, radio: Radio, predicate: Callable[[Frame], bool], result: Event):
        self.radio = radio
        self.predicate = predicate
        self.result = result

    def on_frame(self, frame: Frame, clean: bool) -> None:
        result = self.result
        if not result.triggered and self.predicate(frame):
            self.radio.remove_listener(self.on_frame)
            result.succeed(frame, priority=PRIORITY_DELIVERY)

    def on_timer(self, _ev: Event) -> None:
        if not self.result.triggered:
            self.radio.remove_listener(self.on_frame)
            self.result.succeed(None)
