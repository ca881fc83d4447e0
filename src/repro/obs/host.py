"""Host environment capture: where and on what a measurement ran.

Wall-clock numbers (``RunResult.wall_seconds``, the ``perf/`` benchmark)
are only comparable when the host that produced them is recorded next to
them.  This module captures the minimum context
that makes a measurement reproducible: interpreter, platform, CPU count,
the git revision of the code, and the process's peak resident set size.

``ru_maxrss`` is a high-water mark for the whole process — it never
decreases, so per-phase readings mean "peak so far", not "peak of this
phase".
"""
from __future__ import annotations

import os
import platform
import sys
from typing import Any, Dict, Optional

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]


def peak_rss_bytes(children: bool = False) -> Optional[int]:
    """Peak resident set size of this process (or its reaped children).

    Returns ``None`` where ``resource`` is unavailable.  Linux reports
    ``ru_maxrss`` in kilobytes, macOS in bytes; both are normalized to
    bytes here.
    """
    if resource is None:
        return None
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    rss = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(rss)
    return int(rss) * 1024


def host_metadata() -> Dict[str, Any]:
    """A JSON-safe snapshot of the execution environment.

    Includes the package version and git revision (via the sweep cache's
    provenance helper) so a serialized measurement names the code that
    produced it.
    """
    from repro.harness.sweep import provenance
    meta: Dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "peak_rss_bytes": peak_rss_bytes(),
    }
    meta.update(provenance())
    return meta
