"""Simulated TreadMarks: lazy release consistency with lazy diffs.

Implements the published TreadMarks algorithm (Amza et al., IEEE Computer
1996; Keleher et al., ISCA 1992) on the same substrate as AEC:

* program execution is divided into *intervals* delimited by lock transfers
  and barriers; each closed interval carries write notices for the pages
  modified during it;
* vector timestamps order intervals; on an acquire, the new owner receives
  the write notices for every interval it has not yet seen and invalidates
  the named pages;
* on an access fault, the faulting processor fetches diffs from the writers
  named in its pending write notices; writers create diffs *lazily*, on
  first request — putting diff creation on the critical path of both the
  requester and the writer, which is precisely the overhead AEC attacks.
"""
from repro.protocols.treadmarks.protocol import LazyHybridNode, TreadMarksNode

__all__ = ["LazyHybridNode", "TreadMarksNode"]
