"""Protocol layers and stacks.

A :class:`Layer` is the unit of protocol composition.  Messages flow in two
directions:

* :meth:`Layer.send` — invoked by the layer *above*; the default forwards
  down towards the network.
* :meth:`Layer.deliver` — invoked by the layer *below*; the default
  forwards up towards the application.

A :class:`ProtocolStack` is wired once, when its process attaches it:
each layer's ``send_down`` becomes the effective ``send`` of the layer
below (the bottom's is the process's network sender) and its
``deliver_up`` the effective ``deliver`` of the layer above.  A layer
whose class does not override ``send`` or ``deliver`` has that attribute
bound straight through to its neighbour, so a datagram crosses a
pass-through layer without a call.  Layers that fan out to several upper
layers (the paper's MultiPlexer) override ``deliver`` and :meth:`_wire`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from repro.net.message import Datagram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.neko.process import NekoProcess

Handler = Callable[[Datagram], None]


class Layer:
    """Base protocol layer.

    Subclasses typically override one or both of :meth:`send` and
    :meth:`deliver`, and may use the owning process's timers and clock via
    :attr:`process` (available after the stack is attached).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self._process: Optional["NekoProcess"] = None

    # ------------------------------------------------------------------
    # Wiring (called by ProtocolStack / NekoProcess)
    # ------------------------------------------------------------------
    @property
    def process(self) -> "NekoProcess":
        """The process this layer belongs to (set when the stack attaches)."""
        if self._process is None:
            raise RuntimeError(f"layer {self.name!r} is not attached to a process")
        return self._process

    @property
    def attached(self) -> bool:
        """Whether the layer has been attached to a process."""
        return self._process is not None

    def _attach(self, process: "NekoProcess") -> None:
        if self._process is not None:
            raise RuntimeError(f"layer {self.name!r} already belongs to a process")
        self._process = process
        self.on_attach()

    def _wire(self, send_down: Handler, deliver_up: Optional[Handler]) -> None:
        """Bind the neighbours: ``send_down`` is the effective ``send`` of
        what is below, ``deliver_up`` the effective ``deliver`` of what is
        above (``None`` for a top layer, whose ``deliver_up`` drops).  A
        direction the class does not override is bound straight through."""
        self.send_down = send_down
        if deliver_up is not None:
            self.deliver_up = deliver_up
        if type(self).send is Layer.send:
            self.send = self.send_down
        if type(self).deliver is Layer.deliver:
            self.deliver = self.deliver_up

    def on_attach(self) -> None:
        """Hook invoked once the layer knows its process; override to
        create timers or inspect configuration.  Default: no-op."""

    def on_start(self) -> None:
        """Hook invoked when the system starts running; override to begin
        periodic activity.  Default: no-op."""

    # ------------------------------------------------------------------
    # Message flow (wiring rebinds the forwarding methods per instance)
    # ------------------------------------------------------------------
    def send(self, message: Datagram) -> None:
        """Handle a message travelling down; default forwards below."""
        self.send_down(message)

    def deliver(self, message: Datagram) -> None:
        """Handle a message travelling up; default forwards above."""
        self.deliver_up(message)

    def send_down(self, message: Datagram) -> None:
        """Forward ``message`` to the layer below (or the network); an
        unwired layer has nothing below."""
        raise RuntimeError(
            f"layer {self.name!r} has nothing below to send to; "
            "is the stack attached to a process?"
        )

    def deliver_up(self, message: Datagram) -> None:
        """Forward ``message`` to the layer above; dropped silently if this
        is the top layer (matching Neko, where an application layer simply
        consumes what it cares about)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class ProtocolStack:
    """An ordered stack of layers, listed top (application) first.

    :meth:`attach` wires each layer to its neighbours once; the bottom
    layer's ``send_down`` is the network sender supplied by the process,
    and datagrams arriving from the network enter at the bottom layer's
    effective ``deliver``.
    """

    def __init__(self, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ValueError("a protocol stack needs at least one layer")
        self._layers: List[Layer] = list(layers)
        if len({id(layer) for layer in self._layers}) != len(self._layers):
            raise ValueError("a layer may appear only once in a protocol stack")

    @property
    def layers(self) -> List[Layer]:
        """The layers, top first."""
        return list(self._layers)

    @property
    def top(self) -> Layer:
        """The application-most layer."""
        return self._layers[0]

    @property
    def bottom(self) -> Layer:
        """The network-most layer."""
        return self._layers[-1]

    def find(self, layer_type: type) -> Layer:
        """Return the first layer of the given type; raises if absent."""
        for layer in self._layers:
            if isinstance(layer, layer_type):
                return layer
        raise LookupError(f"no layer of type {layer_type.__name__} in stack")

    def attach(self, process: "NekoProcess", send_to_network: Handler) -> None:
        """Bind every layer to ``process``, then wire the stack: bottom-up
        for ``send_down`` (the bottom's is ``send_to_network``), top-down
        for ``deliver_up``."""
        layers = self._layers
        for layer in layers:
            layer._attach(process)
        sends = [send_to_network]  # the effective send below each layer
        for layer in reversed(layers[1:]):
            sends.append(sends[-1] if type(layer).send is Layer.send else layer.send)
        deliver_up: Optional[Handler] = None
        for layer, send_down in zip(layers, reversed(sends)):
            layer._wire(send_down, deliver_up)
            deliver_up = layer.deliver

    def start(self) -> None:
        """Invoke ``on_start`` bottom-up (substrates before applications)."""
        for layer in reversed(self._layers):
            layer.on_start()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = " / ".join(layer.name for layer in self._layers)
        return f"ProtocolStack({names})"


__all__ = ["Layer", "ProtocolStack"]
