"""Property-based tests (hypothesis) on core data structures and protocols."""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.util import block_range
from repro.core.lap.affinity import AffinityMatrix
from repro.core.lap.predictor import LapPredictor
from repro.core.lap.state import LockPredictionState
from repro.memory.diff import create_diff, merge_diffs
from repro.memory.layout import Layout
from repro.network.mesh import Mesh

WPP = 256

pages = st.integers(0, 3)
values = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e9, max_value=1e9)


@st.composite
def page_pair(draw):
    """A (twin, modified page) pair of width WPP."""
    base_mods = draw(st.lists(st.tuples(st.integers(0, WPP - 1), values),
                              max_size=20))
    twin = np.zeros(WPP)
    for idx, v in base_mods:
        twin[idx] = v
    page = twin.copy()
    mods = draw(st.lists(st.tuples(st.integers(0, WPP - 1), values),
                         max_size=30))
    for idx, v in mods:
        page[idx] = v
    return twin, page


class TestDiffProperties:
    @given(page_pair())
    @settings(max_examples=60)
    def test_create_apply_roundtrip(self, pair):
        """Applying a diff to the twin reconstructs the page exactly."""
        twin, page = pair
        d = create_diff(0, twin, page)
        out = twin.copy()
        d.apply(out)
        np.testing.assert_array_equal(out, page)

    @given(page_pair())
    @settings(max_examples=60)
    def test_diff_minimal(self, pair):
        """The diff encodes exactly the words that differ."""
        twin, page = pair
        d = create_diff(0, twin, page)
        assert d.nwords == int((twin != page).sum())

    @given(page_pair(), page_pair())
    @settings(max_examples=40)
    def test_merge_equivalent_to_sequential_apply(self, p1, p2):
        """merge(d1, d2) applied once == d1 then d2 applied in order."""
        twin, page1 = p1
        _, page2raw = p2
        d1 = create_diff(0, twin, page1)
        # second modification epoch starts from page1
        page2 = page1.copy()
        mask = page2raw != twin  # reuse p2's mod pattern
        page2[mask] = page2raw[mask]
        d2 = create_diff(0, page1, page2)
        merged = merge_diffs(d1, d2)
        via_merge = twin.copy()
        merged.apply(via_merge)
        via_seq = twin.copy()
        d1.apply(via_seq)
        d2.apply(via_seq)
        np.testing.assert_array_equal(via_merge, via_seq)

    @given(page_pair())
    @settings(max_examples=40)
    def test_apply_idempotent(self, pair):
        twin, page = pair
        d = create_diff(0, twin, page)
        out = twin.copy()
        d.apply(out)
        d.apply(out)
        np.testing.assert_array_equal(out, page)

    @given(page_pair())
    @settings(max_examples=40)
    def test_size_bytes_consistent(self, pair):
        twin, page = pair
        d = create_diff(0, twin, page)
        assert d.size_bytes == 8 * d.nwords


class TestLayoutProperties:
    @given(st.lists(st.integers(1, 5000), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_segments_never_overlap(self, sizes):
        lay = Layout(WPP)
        segs = [lay.allocate(f"s{i}", n) for i, n in enumerate(sizes)]
        spans = sorted((s.base, s.end) for s in segs)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0
        # no two segments share a page
        page_owners = {}
        for s in segs:
            for pg in s.pages:
                assert pg not in page_owners
                page_owners[pg] = s.name

    @given(st.integers(1, 4000), st.integers(0, 3999), st.integers(1, 400))
    @settings(max_examples=50)
    def test_pages_of_range_covers_range(self, nwords, start, length):
        lay = Layout(WPP)
        lay.allocate("s", 8000)
        pages = list(lay.pages_of_range(start, length))
        assert pages[0] == start // WPP
        assert pages[-1] == (start + length - 1) // WPP
        assert pages == sorted(set(pages))


class TestBlockRangeProperties:
    @given(st.integers(1, 1000), st.integers(1, 64))
    @settings(max_examples=60)
    def test_partition_exact_cover(self, n, nprocs):
        covered = []
        for p in range(nprocs):
            lo, hi = block_range(n, nprocs, p)
            assert 0 <= lo <= hi <= n
            covered.extend(range(lo, hi))
        assert covered == list(range(n))

    @given(st.integers(1, 1000), st.integers(1, 64))
    @settings(max_examples=60)
    def test_balanced(self, n, nprocs):
        sizes = [block_range(n, nprocs, p)[1] - block_range(n, nprocs, p)[0]
                 for p in range(nprocs)]
        assert max(sizes) - min(sizes) <= 1


class TestMeshProperties:
    @given(st.integers(1, 64))
    @settings(max_examples=40)
    def test_triangle_inequality(self, n):
        mesh = Mesh(n)
        import random
        rng = random.Random(n)
        for _ in range(20):
            a, b, c = (rng.randrange(n) for _ in range(3))
            assert mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c)

    @given(st.integers(1, 64))
    @settings(max_examples=40)
    def test_hops_zero_iff_same(self, n):
        mesh = Mesh(n)
        for a in range(n):
            assert mesh.hops(a, a) == 0


class TestLapProperties:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    max_size=60),
           st.integers(0, 7), st.integers(1, 3))
    @settings(max_examples=60)
    def test_prediction_well_formed(self, transfers, releaser, size):
        """Predictions never include the releaser, never exceed the size,
        and never contain duplicates — for any history."""
        state = LockPredictionState(0, 8)
        for src, dst in transfers:
            state.affinity.record_transfer(src, dst)
        state.virtual_queue.extend([t[0] for t in transfers[:5]])
        pred = LapPredictor(size)
        for fn in (pred.predict, pred.predict_waitq,
                   pred.predict_waitq_affinity, pred.predict_waitq_virtualq):
            out = fn(state, releaser)
            assert releaser not in out
            assert len(out) <= max(size, 1)
            assert len(set(out)) == len(out)
            assert all(0 <= q < 8 for q in out)

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    max_size=80))
    @settings(max_examples=50)
    def test_affinity_set_members_positive(self, transfers):
        m = AffinityMatrix(8)
        for src, dst in transfers:
            m.record_transfer(src, dst)
        for p in range(8):
            for q in m.affinity_set(p, 0.6):
                assert m.affinity(p, q) > 0
                assert q != p


# --------------------------------------------------------- random programs

@st.composite
def random_program_spec(draw):
    """A race-free SPMD program: a sequence of phases, each either a
    lock-protected accumulation or a partitioned-write/barrier/read-all."""
    phases = draw(st.lists(
        st.tuples(st.sampled_from(["lock", "partition"]),
                  st.integers(0, 2),       # lock id / segment offset block
                  st.integers(1, 3)),      # repetitions
        min_size=1, max_size=5))
    return phases


def _spec_program(app, ctx, phases):
    seg = app.seg["data"]
    for kind, which, reps in phases:
        if kind == "lock":
            for _ in range(reps):
                yield from ctx.acquire(app.locks[which])
                v = yield from ctx.read1(seg, which * 8)
                yield from ctx.write1(seg, which * 8, v + 1 + ctx.proc)
                yield from ctx.release(app.locks[which])
            yield from ctx.barrier(app.bars[0])
        else:
            base = 512 + which * 256 + ctx.proc * 16
            yield from ctx.write(seg, base,
                                 np.full(16, float(ctx.proc + reps)))
            yield from ctx.barrier(app.bars[0])
            total = 0.0
            for p in range(ctx.nprocs):
                v = yield from ctx.read1(seg, 512 + which * 256 + p * 16)
                total += v
            yield from ctx.barrier(app.bars[0])
    final = yield from ctx.read(seg, 0, 32)
    return tuple(final.tolist())


class TestRandomProgramsAgreeWithOracle:
    @given(random_program_spec())
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_aec_matches_sc(self, phases):
        self._compare("aec", phases)

    @given(random_program_spec())
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_treadmarks_matches_sc(self, phases):
        self._compare("tmk", phases)

    @staticmethod
    def _compare(protocol, phases):
        from tests.test_protocol_integration import run_mini

        def body(app, ctx):
            return (yield from _spec_program(app, ctx, phases))

        oracle = run_mini(body, "sc", locks=3, barriers=1)
        subject = run_mini(body, protocol, locks=3, barriers=1)
        assert subject.app_results == oracle.app_results
