"""Completion futures used to block program tasks on protocol events."""
from __future__ import annotations

from typing import Any, Callable, Optional


class Future:
    """A one-shot completion token resolved at a simulated instant.

    Program tasks block on futures via the ``Wait`` primitive; protocol
    message handlers resolve them (e.g. "the lock manager's reply arrived",
    "all diffs for this barrier step were applied").  The resolve *time* is
    recorded so overlap accounting (how much diff-creation work was hidden
    behind a wait) can be computed exactly.
    """

    __slots__ = ("_done", "_value", "_resolve_time", "_wake", "label",
                 "waiter")

    def __init__(self, label: Any = "") -> None:
        self._done = False
        self._value: Any = None
        self._resolve_time: Optional[float] = None
        #: the engine's wake callback while a program is blocked on this
        #: future (a future has at most one waiter), else None
        self._wake: Optional[Callable[["Future"], None]] = None
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
        wake = self._wake
        if wake is not None:
            self._wake = None
            wake(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"done@{self._resolve_time}" if self._done else "pending"
        return f"<Future {self.name!r} {state}>"
