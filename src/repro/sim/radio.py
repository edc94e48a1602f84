"""Per-node radio interface.

A :class:`Radio` is the MAC layer's window onto the shared channel:

* **physical carrier sense** -- :attr:`busy_until` / :meth:`is_busy` reflect
  every transmission currently audible at this node, *including the node's
  own* (a transmitting station trivially senses a busy medium);
* **reception** -- frames the channel decides this node received are pushed
  to registered listeners, synchronously at the slot the frame ends;
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
        #: Earliest end time in ``own_tx`` / ``audible`` -- the channel's
        #: prune watermarks: a compaction pass can only remove something
        #: when the watermark has fallen behind the prune horizon.
        self.own_min_end: float = float("inf")
        self.audible_min_end: float = float("inf")
        self._listeners: list[FrameListener] = []

    # -- carrier sense -------------------------------------------------------

    @property
    def is_busy(self) -> bool:
        """Physical carrier sense: is any transmission audible right now?"""
        return self.busy_until > self.env.now

    @property
    def is_transmitting(self) -> bool:
        now = self.env.now
        return any(t.start <= now < t.end for t in self.own_tx)

    # -- reception -----------------------------------------------------------

    def add_listener(self, listener: FrameListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: FrameListener) -> None:
        self._listeners.remove(listener)

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
        result = env.event()
        timer = env.timeout(timeout)

        def on_frame(frame: Frame, clean: bool) -> None:
            if not result.triggered and predicate(frame):
                self.remove_listener(on_frame)
                result.succeed(frame, priority=PRIORITY_DELIVERY)

        def on_timer(_ev: Event) -> None:
            if not result.triggered:
                self.remove_listener(on_frame)
                result.succeed(None)

        self.add_listener(on_frame)
        timer.callbacks.append(on_timer)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Radio node={self.node_id} busy_until={self.busy_until}>"
