"""Small helpers shared by the application suite."""
from __future__ import annotations

from typing import Tuple


def block_range(n: int, nprocs: int, p: int) -> Tuple[int, int]:
    """Contiguous block partition of ``range(n)``: returns (start, stop)."""
    if not (0 <= p < nprocs):
        raise ValueError(f"proc {p} out of range")
    base, extra = divmod(n, nprocs)
    start = p * base + min(p, extra)
    stop = start + base + (1 if p < extra else 0)
    return start, stop
