"""Cross-protocol divergence oracle: the one judge of a finished run.

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

:func:`judge` is the only code that decides whether a run is right: its
checker report, then the app's own check, then the image diff.
:func:`certify` is the only code that runs what it judges: ``repro
check``, the fuzz campaign, the shrinker and corpus replay all certify
their cells through it, in one sweep per call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, List,
                    NamedTuple, Optional, Sequence, Tuple)

import numpy as np

from repro.apps.api import Application, AppContext
from repro.config import SimConfig
from repro.memory.layout import Layout
from repro.stats.run_result import RunResult
from repro.sync.objects import SyncRegistry

if TYPE_CHECKING:
    from repro.harness.sweep import RunSpec, SweepReport


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


def judge(result: RunResult, app: MemoryImageApp,
          sc_image: Dict[str, np.ndarray], *, app_id: str, seed: int
          ) -> Tuple[DivergenceReport, Optional[str]]:
    """Judge a finished run of ``app`` (a :class:`MemoryImageApp`, whose
    :attr:`~MemoryImageApp.layout` is the run's address map) against the
    SC image of the same app and config.

    Returns the run's :class:`DivergenceReport` and its first failure
    signature, ``None`` when the run is healthy, checked in this order:

    * ``"check: ..."`` — consistency-checker violations (by kind),
    * ``"appcheck: ..."`` — the app's own ``check()`` raised an
      ``AssertionError`` (its message follows),
    * ``"diverge: <seg>[i] got ... want ..."`` — the first divergent word
      of the final memory image.
    """
    report = compare_images(
        result.app_results[0][1], sc_image, app.layout,
        DivergenceReport(app=app_id, protocol=result.protocol,
                         oracle_protocol="sc", seed=seed),
        volatile=tuple(app.volatile_segments))
    rep = result.check_report
    if rep is not None and not rep.clean:
        return report, "check: " + ",".join(sorted(rep.counts))
    try:
        app.check(result.app_results)
    except AssertionError as exc:
        return report, f"appcheck: {exc}"
    if report.divergences:
        d = report.divergences[0]
        return report, (f"diverge: {d.segment}[{d.first_index}] "
                        f"got {d.got!r} want {d.want!r}")
    return report, None


class Verdict(NamedTuple):
    """One certified cell: its sweep cell, run result, image diff and
    failure signature (``None`` when healthy).  ``result`` is ``None``
    when the cell's own run raised, ``report`` when either run did."""

    cell: "RunSpec"
    result: Optional[RunResult]
    report: Optional[DivergenceReport]
    failure: Optional[str]


def certify(cells: Sequence[Tuple[str, str, SimConfig]], *,
            scale: str = "test", jobs: int = 1,
            cache_dir: Optional[str] = None,
            progress: Optional[Callable[[str], None]] = None,
            ) -> Tuple[List[Verdict], "SweepReport"]:
    """Certify every ``(app_id, protocol, config)`` cell in one sweep.

    Each cell runs as ``image:APP`` with the app's check off, so
    :func:`judge` turns a failed check into a signature instead of an
    exception.  Its oracle is the SC run of the same app and config:
    checker off, fault-free, app check on, run once per distinct key
    however many cells share it.  Every run goes through
    :func:`~repro.harness.sweep.run_sweep` (``cache_dir``, ``jobs``).  Returns the verdicts in cell order and the sweep's
    report; a cell whose own or SC run raised fails ``error: ...``.
    """
    from repro.apps.registry import make_app
    from repro.harness import sweep as sw

    pairs = []
    for app_id, protocol, config in cells:
        image_id = f"image:{app_id}"
        pairs.append((
            sw.make_spec(image_id, scale, protocol, config=config,
                         check=False),
            sw.make_spec(image_id, scale, "sc", config=config.replace(
                check_consistency=False, faults=None))))
    oracles = {sc.key: sc for _cell, sc in pairs}
    sweep = sw.run_sweep([cell for cell, _sc in pairs] + list(
        oracles.values()), jobs=jobs, cache_dir=cache_dir,
        progress=progress)

    errors = {spec.key: error for spec, error in sweep.failures}
    #: SC cell key -> its app, declared: the layout and check of every
    #: cell judged against that oracle
    apps: Dict[str, MemoryImageApp] = {}
    verdicts = []
    for (app_id, _protocol, config), (cell, sc) in zip(cells, pairs):
        result = sweep.results.get(cell.key)
        error = errors.get(cell.key) or errors.get(sc.key)
        if error is not None:
            verdicts.append(Verdict(cell, result, None, f"error: {error}"))
            continue
        if sc.key not in apps:
            machine = sc.config.machine
            apps[sc.key] = make_app(sc.app, scale, config=sc.config)
            apps[sc.key].declare(Layout(machine.words_per_page),
                                 SyncRegistry(machine.num_procs))
        report, failure = judge(
            result, apps[sc.key], sweep.results[sc.key].app_results[0][1],
            app_id=app_id, seed=config.seed)
        verdicts.append(Verdict(cell, result, report, failure))
    return verdicts, sweep
