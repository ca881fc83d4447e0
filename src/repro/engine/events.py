"""Engine primitives yielded by program tasks and interrupt handlers.

The engine understands four primitives:

``Delay``
    occupy this node's processor for a number of cycles, accounted to a
    breakdown category;
``Send``
    pay the messaging overhead (plus I/O-bus transfer for the payload) and
    inject a message into the network;
``Wait``
    block until a :class:`~repro.engine.future.Future` resolves; the elapsed
    time (minus any interrupt servicing that overlapped it) is accounted to
    the given category (programs only: an interrupt handler must not block);
``Resolve``
    resolve a future at the current simulated instant, at no cost; this is
    how a handler tells a blocked program that its reply, grant or barrier
    release arrived.

Higher layers (the application API, the DSM protocols) are written as
generators that yield these primitives, composed with ``yield from``.

These objects are created millions of times per run, so they are plain
``__slots__`` classes with hand-written constructors rather than
dataclasses: no ``__dict__`` per instance, no ``__post_init__`` dispatch,
and category validation is a single frozenset membership test.  The engine
dispatches on ``type(op)`` identity, which is why these classes are not
meant to be subclassed.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.engine.future import Future
    from repro.network.message import Message

#: breakdown categories, matching Figure 4 of the paper
CATEGORIES = ("busy", "data", "synch", "ipc", "others")

#: frozenset mirror of :data:`CATEGORIES` for O(1) validation on creation
_CATEGORY_SET = frozenset(CATEGORIES)


class Delay:
    __slots__ = ("cycles", "category")

    def __init__(self, cycles: float, category: str = "busy") -> None:
        if cycles < 0:
            raise ValueError(f"negative delay: {cycles}")
        if category not in _CATEGORY_SET:
            raise ValueError(f"unknown category: {category}")
        self.cycles = cycles
        self.category = category

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay(cycles={self.cycles!r}, category={self.category!r})"

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Delay):
            return NotImplemented
        return self.cycles == other.cycles and self.category == other.category

    __hash__ = None  # type: ignore[assignment]


class Send:
    __slots__ = ("dst", "message", "category")

    def __init__(self, dst: int, message: "Message",
                 category: str = "busy") -> None:
        if category not in _CATEGORY_SET:
            raise ValueError(f"unknown category: {category}")
        self.dst = dst
        self.message = message
        self.category = category

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Send(dst={self.dst!r}, message={self.message!r}, "
                f"category={self.category!r})")


class Wait:
    __slots__ = ("future", "category")

    def __init__(self, future: "Future", category: str = "synch") -> None:
        if category not in _CATEGORY_SET:
            raise ValueError(f"unknown category: {category}")
        self.future = future
        self.category = category

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Wait(future={self.future!r}, category={self.category!r})"


class Resolve:
    """Resolve a future at the current simulated instant (zero cost).

    Used by interrupt handlers to signal program tasks ("your reply
    arrived") with the correct in-service timestamp.
    """

    __slots__ = ("future", "value")

    def __init__(self, future: "Future", value: Any = None) -> None:
        self.future = future
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resolve(future={self.future!r}, value={self.value!r})"


EnginePrimitive = Any  # Delay | Send | Wait | Resolve
