"""Completion futures used to block program tasks on protocol events."""
from __future__ import annotations

from typing import Any, Callable, List, Optional


class Future:
    """A one-shot completion token resolved at a simulated instant.

    Program tasks block on futures via the ``Wait`` primitive; protocol
    message handlers resolve them (e.g. "the lock manager's reply arrived",
    "all diffs for this barrier step were applied").  The resolve *time* is
    recorded so overlap accounting (how much diff-creation work was hidden
    behind a wait) can be computed exactly.
    """

    __slots__ = ("_done", "_value", "_resolve_time", "_callbacks", "label",
                 "waiter")

    def __init__(self, label: Any = "") -> None:
        self._done = False
        self._value: Any = None
        self._resolve_time: Optional[float] = None
        self._callbacks: Optional[List[Callable[["Future"], None]]] = None
        #: a string, or a ``(node, what, serial)`` tuple that is formatted
        #: only when the future is printed (futures are made per request)
        self.label = label
        #: node id of the program blocked on this future (set by the engine
        #: when a program's ``Wait`` blocks; -1 while nobody waits)
        self.waiter = -1

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise RuntimeError(f"future {self.name!r} not resolved")
        return self._value

    @property
    def resolve_time(self) -> float:
        if self._resolve_time is None:
            raise RuntimeError(f"future {self.name!r} not resolved")
        return self._resolve_time

    @property
    def name(self) -> str:
        label = self.label
        if type(label) is tuple:
            return "n{}/{}/{}".format(*label)
        return label

    def resolve(self, value: Any, time: float) -> None:
        if self._done:
            raise RuntimeError(f"future {self.name!r} resolved twice")
        self._done = True
        self._value = value
        self._resolve_time = time
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for cb in callbacks:
                cb(self)

    def on_resolve(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` when resolved (immediately if already done)."""
        if self._done:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"done@{self._resolve_time}" if self._done else "pending"
        return f"<Future {self.name!r} {state}>"
