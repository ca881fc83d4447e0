"""Unit tests for LAP: affinity, prediction state, combination, statistics."""
import pytest

from repro.core.lap.affinity import AffinityMatrix
from repro.core.lap.predictor import LapPredictor
from repro.core.lap.state import LockPredictionState
from repro.core.lap.stats import VARIANTS, LapStats


class TestAffinityMatrix:
    def test_records_transfers(self):
        m = AffinityMatrix(4)
        m.record_transfer(0, 1)
        m.record_transfer(0, 1)
        m.record_transfer(0, 2)
        assert m.affinity(0, 1) == 2
        assert m.affinity(0, 2) == 1
        assert m.affinity(1, 0) == 0

    def test_self_transfer_ignored(self):
        m = AffinityMatrix(4)
        m.record_transfer(2, 2)
        assert m.affinity(2, 2) == 0

    def test_affinity_set_threshold(self):
        """The paper: q in A(p) iff aff(p,q) is 60% above p's average."""
        m = AffinityMatrix(4)
        # p=0: aff to 1 is 8, to 2 is 1, to 3 is 0 -> mean = 3
        for _ in range(8):
            m.record_transfer(0, 1)
        m.record_transfer(0, 2)
        aset = m.affinity_set(0, 0.60)
        assert aset == [1]  # 8 >= 1.6*3 = 4.8; 1 < 4.8

    def test_affinity_set_empty_when_no_history(self):
        assert AffinityMatrix(4).affinity_set(0, 0.6) == []

    def test_affinity_set_sorted_by_strength(self):
        m = AffinityMatrix(8)
        for _ in range(10):
            m.record_transfer(0, 3)
        for _ in range(10):
            m.record_transfer(0, 5)
        for _ in range(12):
            m.record_transfer(0, 1)
        aset = m.affinity_set(0, 0.0)
        assert aset[0] == 1

    def test_positive_set(self):
        m = AffinityMatrix(4)
        m.record_transfer(0, 3)
        m.record_transfer(0, 1)
        m.record_transfer(0, 1)
        assert m.positive_set(0) == [1, 3]


class TestLockPredictionState:
    def test_grant_release_cycle(self):
        st = LockPredictionState(0, 4)
        st.record_grant(1)
        assert st.holder == 1 and st.acquire_counter == 1
        st.record_release(1)
        assert st.holder is None and st.last_owner == 1

    def test_release_by_non_holder_rejected(self):
        st = LockPredictionState(0, 4)
        st.record_grant(1)
        with pytest.raises(RuntimeError):
            st.record_release(2)

    def test_transfer_updates_affinity(self):
        st = LockPredictionState(0, 4)
        st.record_grant(1)
        st.record_release(1)
        st.record_grant(2)
        assert st.affinity.affinity(1, 2) == 1

    def test_grant_consumes_notice(self):
        st = LockPredictionState(0, 4)
        st.add_notice(2)
        st.add_notice(3)
        st.record_grant(2)
        assert st.virtual_queue == [3]

    def test_duplicate_notice_ignored(self):
        st = LockPredictionState(0, 4)
        st.add_notice(2)
        st.add_notice(2)
        assert st.virtual_queue == [2]


class TestLapPredictor:
    def make(self, size=2):
        return LapPredictor(size)

    def test_waiting_queue_dominates(self):
        """Step 1 of the algorithm: non-empty queue -> exactly its head."""
        st = LockPredictionState(0, 8)
        st.waiting_queue.extend([5, 6])
        st.add_notice(7)
        p = self.make()
        assert p.predict(st, 0) == [5]

    def test_affinity_set_fills_first(self):
        st = LockPredictionState(0, 8)
        for _ in range(10):
            st.affinity.record_transfer(0, 3)
        st.add_notice(6)
        assert self.make().predict(st, 0) == [3, 6]

    def test_virtual_queue_intersection_preferred(self):
        """Step 3: virtual-queue members with positive affinity first."""
        st = LockPredictionState(0, 8)
        # strong affinity to 3 only; 4,5 have weak-positive affinity
        for _ in range(20):
            st.affinity.record_transfer(0, 3)
        st.affinity.record_transfer(0, 5)
        st.virtual_queue.extend([4, 5])
        got = self.make(size=2).predict(st, 0)
        assert got == [3, 5]  # 5 in virtualQ AND positive, before 4

    def test_virtual_queue_order_then_affinity(self):
        st = LockPredictionState(0, 8)
        st.virtual_queue.extend([6, 4])
        got = self.make(size=3).predict(st, 0)
        assert got[:2] == [6, 4]

    def test_releaser_excluded(self):
        st = LockPredictionState(0, 8)
        st.virtual_queue.extend([2, 3])
        assert 2 not in self.make().predict(st, 2)

    def test_empty_inputs_empty_prediction(self):
        st = LockPredictionState(0, 8)
        assert self.make().predict(st, 0) == []

    def test_size_limit_respected(self):
        st = LockPredictionState(0, 8)
        st.virtual_queue.extend([1, 2, 3, 4, 5])
        for size in (1, 2, 3):
            assert len(self.make(size).predict(st, 0)) == size

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            LapPredictor(0)

    def test_low_level_variants(self):
        st = LockPredictionState(0, 8)
        p = self.make()
        assert p.predict_waitq(st, 0) == []
        st.waiting_queue.append(4)
        assert p.predict_waitq(st, 0) == [4]
        assert p.predict_waitq_affinity(st, 0) == [4]
        assert p.predict_waitq_virtualq(st, 0) == [4]

    def test_waitq_affinity_without_queue(self):
        st = LockPredictionState(0, 8)
        for _ in range(5):
            st.affinity.record_transfer(1, 6)
        assert self.make().predict_waitq_affinity(st, 1) == [6]
        assert self.make().predict_waitq_virtualq(st, 1) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_score_is_the_four_predictors(self, seed):
        """``score`` is what every protocol's grant hands ``LapStats``:
        exactly the four individual predictions, keyed by VARIANTS."""
        import random
        rng = random.Random(seed)
        st = LockPredictionState(0, 8)
        for _ in range(rng.randint(0, 12)):
            st.affinity.record_transfer(rng.randrange(8), rng.randrange(8))
        st.virtual_queue.extend(rng.sample(range(8), rng.randint(0, 4)))
        st.waiting_queue.extend(rng.sample(range(8), rng.randint(0, 2)))
        p = self.make(size=rng.randint(1, 3))
        owner = rng.randrange(8)
        scored = p.score(st, owner)
        assert tuple(scored) == VARIANTS
        assert scored == {
            "lap": p.predict(st, owner),
            "waitq": p.predict_waitq(st, owner),
            "waitq_affinity": p.predict_waitq_affinity(st, owner),
            "waitq_virtualq": p.predict_waitq_virtualq(st, owner),
        }


class TestLapStats:
    def test_success_rate_formula(self):
        """rate = hits / (acquires - same-owner acquires), per the paper."""
        stats = LapStats(1)
        # grant to 0 (first: not scored), predicting 1 next
        stats.record_grant(0, 0, None, {v: [1] for v in VARIANTS})
        # transfer 0 -> 1: hit
        stats.record_grant(0, 1, 0, {v: [2] for v in VARIANTS})
        # re-acquire by 1: excluded from scoring
        stats.record_grant(0, 1, 1, {v: [2] for v in VARIANTS})
        # transfer 1 -> 3: miss (predicted 2)
        stats.record_grant(0, 3, 1, {v: [0] for v in VARIANTS})
        s = stats.per_lock[0]
        assert s.acquires == 4
        assert s.same_owner == 1
        assert s.scored == 2
        assert s.success_rate("lap") == 0.5

    def test_no_events_rate_is_none(self):
        stats = LapStats(2)
        assert stats.per_lock[1].success_rate("lap") is None

    def test_variants_scored_independently(self):
        stats = LapStats(1)
        stats.record_grant(0, 0, None,
                           {"lap": [1], "waitq": [], "waitq_affinity": [1],
                            "waitq_virtualq": [2]})
        stats.record_grant(0, 1, 0, {v: [] for v in VARIANTS})
        s = stats.per_lock[0]
        assert s.hits["lap"] == 1
        assert s.hits["waitq"] == 0
        assert s.hits["waitq_affinity"] == 1
        assert s.hits["waitq_virtualq"] == 0

    def test_group_rates_weighted_by_events(self):
        stats = LapStats(2)
        for _ in range(2):
            stats.record_grant(0, 0, None, {v: [1] for v in VARIANTS})
        stats.record_grant(0, 1, 0, {v: [] for v in VARIANTS})  # hit
        stats.record_grant(1, 2, None, {v: [3] for v in VARIANTS})
        stats.record_grant(1, 0, 2, {v: [] for v in VARIANTS})  # miss (3!=0)
        g = stats.group_rates([0, 1])
        assert g["events"] == 5
        assert g["lap"] == pytest.approx(1 / 2)

    def test_total_acquires(self):
        stats = LapStats(3)
        stats.record_grant(2, 0, None, {v: [] for v in VARIANTS})
        assert stats.total_acquires() == 1
