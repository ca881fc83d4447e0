"""Cross-protocol divergence oracle.

A DSM protocol is *externally* correct if a program observes the same
shared memory it would observe under sequential consistency.  The oracle
certifies exactly that, end to end: it wraps an application so that after
the program finishes (and one extra global barrier reconciles everything),
node 0 reads back every shared segment **through the protocol** — faults,
fetches, diffs and all — and the resulting memory image is diffed
word-by-word against the image produced by the same app+seed under the SC
protocol (:mod:`repro.protocols.sc`).

Reading through the protocol (instead of peeking at node stores) matters:
the image only matches if the protocol actually moves the right bytes when
an ordered read demands them, which is the property being certified.

Segments listed in ``Application.volatile_segments`` (final content depends
on scheduling, e.g. Raytrace's work-stealing queue heads) are excluded from
the comparison.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.apps.api import Application, AppContext
from repro.config import SimConfig, config_digest
from repro.memory.layout import Layout
from repro.stats.run_result import RunResult
from repro.sync.objects import SyncRegistry


class MemoryImageApp(Application):
    """Wrapper running ``inner`` and then capturing the final memory image.

    After the inner program returns on every node, all nodes meet at one
    extra barrier (so every protocol reconciles its final modifications)
    and node 0 reads every declared segment through the protocol.  Each
    node's result becomes ``(inner_result, image_or_None)``; the image is a
    ``{segment_name: np.ndarray}`` dict on node 0, ``None`` elsewhere.
    After ``declare``, :attr:`layout` is the run's address map, so callers
    can diff images without declaring the app again.
    """

    def __init__(self, inner: Application) -> None:
        self.inner = inner
        self.name = inner.name
        self.volatile_segments = inner.volatile_segments

    def declare(self, layout: Layout, sync: SyncRegistry) -> None:
        self.inner.declare(layout, sync)
        self.layout = layout
        self._image_bar = sync.new_barrier("check.image")

    def program(self, ctx: AppContext) -> Generator:
        result = yield from self.inner.program(ctx)
        yield from ctx.barrier(self._image_bar)
        image: Optional[Dict[str, np.ndarray]] = None
        if ctx.proc == 0:
            image = {}
            for seg in self.layout.all_segments():
                data = yield from ctx.read(seg, 0, seg.nwords)
                image[seg.name] = np.asarray(data, dtype=np.float64).copy()
        return result, image

    def check(self, results: List[Any]) -> None:
        self.inner.check([r[0] for r in results])

    def describe(self) -> Dict[str, Any]:
        return self.inner.describe()


@dataclass
class SegmentDivergence:
    """Word-level mismatch between a protocol image and the SC image."""

    segment: str
    #: index (within the segment) and word address of the first mismatch
    first_index: int
    first_addr: int
    first_page: int
    got: float
    want: float
    differing_words: int

    def describe(self) -> str:
        return (f"{self.segment}[{self.first_index}] (addr {self.first_addr}, "
                f"page {self.first_page}): got {self.got!r}, want {self.want!r}"
                f" ({self.differing_words} differing words in segment)")


@dataclass
class DivergenceReport:
    """Final-memory diff of one protocol run against the SC oracle."""

    app: str
    protocol: str
    oracle_protocol: str
    seed: int
    segments_compared: int = 0
    words_compared: int = 0
    skipped_volatile: List[str] = field(default_factory=list)
    divergences: List[SegmentDivergence] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.divergences

    @property
    def first_divergent_page(self) -> Optional[int]:
        """Lowest-addressed divergent page — where debugging should start."""
        if not self.divergences:
            return None
        return min(d.first_page for d in self.divergences)

    def summary(self) -> str:
        if self.clean:
            return (f"divergence oracle: {self.protocol} vs "
                    f"{self.oracle_protocol} identical "
                    f"({self.words_compared} words, "
                    f"{self.segments_compared} segments)")
        lines = [f"divergence oracle: {self.protocol} diverges from "
                 f"{self.oracle_protocol} in {len(self.divergences)} "
                 f"segment(s); first divergent page: "
                 f"{self.first_divergent_page}"]
        lines += ["  " + d.describe() for d in self.divergences]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "protocol": self.protocol,
            "oracle_protocol": self.oracle_protocol,
            "seed": self.seed,
            "clean": self.clean,
            "segments_compared": self.segments_compared,
            "words_compared": self.words_compared,
            "skipped_volatile": list(self.skipped_volatile),
            "first_divergent_page": self.first_divergent_page,
            "divergences": [dict(d.__dict__) for d in self.divergences],
        }


def _run_image(wrapped: MemoryImageApp, protocol: str,
               config: Optional[SimConfig],
               check: bool) -> Tuple[RunResult, Dict[str, np.ndarray]]:
    from repro.harness.runner import run_app
    result = run_app(wrapped, protocol, config=config, check=check)
    _inner, image = result.app_results[0]
    assert image is not None, "node 0 must produce the memory image"
    return result, image


def run_with_image(app: Application, protocol: str,
                   config: Optional[SimConfig] = None,
                   check: bool = True) -> Tuple[RunResult, Dict[str, np.ndarray]]:
    """Run ``app`` under ``protocol`` and capture its final memory image."""
    return _run_image(MemoryImageApp(app), protocol, config, check)


def compare_images(image: Dict[str, np.ndarray],
                   oracle: Dict[str, np.ndarray],
                   layout: Layout,
                   report: DivergenceReport,
                   volatile: Tuple[str, ...] = ()) -> DivergenceReport:
    """Diff two memory images word-by-word into ``report``."""
    for name, seg in layout.segments.items():
        if name in volatile:
            report.skipped_volatile.append(name)
            continue
        got = image[name]
        want = oracle[name]
        report.segments_compared += 1
        report.words_compared += seg.nwords
        mism = np.flatnonzero(got != want)
        if len(mism):
            i = int(mism[0])
            addr = seg.base + i
            report.divergences.append(SegmentDivergence(
                segment=name, first_index=i, first_addr=addr,
                first_page=addr // seg.words_per_page,
                got=float(got[i]), want=float(want[i]),
                differing_words=len(mism),
            ))
    return report


def run_divergence_oracle(app_id: str, protocol: str, config: SimConfig, *,
                          scale: str = "test", check: bool = True,
                          oracle_protocol: Optional[str] = "sc",
                          images: Optional[Dict[tuple, Any]] = None,
                          ) -> Tuple[RunResult, Optional[DivergenceReport]]:
    """Certify one run: ``app_id`` under ``protocol`` with ``config``, its
    final memory diffed word-by-word against the same app+seed under
    ``oracle_protocol``.

    ``check`` runs the app's own result check on the certified run (the
    oracle run always checks).  The oracle run is fault-free and
    checker-off; its image is looked up in, and stored into, ``images``,
    so certifying several protocols or fault plans against one app+seed
    runs the oracle once.  ``oracle_protocol=None`` skips the oracle and
    returns ``(result, None)``.
    """
    from repro.apps.registry import make_app

    wrapped = MemoryImageApp(make_app(app_id, scale, config=config))
    result, image = _run_image(wrapped, protocol, config, check)
    if oracle_protocol is None:
        return result, None
    oracle_cfg = config.replace(check_consistency=False, faults=None)
    key = (app_id, scale, oracle_protocol, config_digest(oracle_cfg))
    images = images if images is not None else {}
    if key not in images:
        _o, images[key] = run_with_image(
            make_app(app_id, scale, config=oracle_cfg), oracle_protocol,
            config=oracle_cfg)
    report = DivergenceReport(app=app_id, protocol=protocol,
                              oracle_protocol=oracle_protocol,
                              seed=config.seed)
    compare_images(image, images[key], wrapped.layout, report,
                   volatile=tuple(wrapped.volatile_segments))
    return result, report
