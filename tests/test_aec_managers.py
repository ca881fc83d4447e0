"""Unit tests for AEC's lock and barrier managers (pure state machines)."""
import pytest

from repro.core.aec.barrier_manager import (AECBarrierManager, ArrivalInfo,
                                            BarrierInstructions)
from repro.core.aec.lock_manager import AECLockManager
from repro.core.lap.predictor import LapPredictor


def make_mgr(use_lap=True, num_procs=4):
    return AECLockManager(0, num_procs, LapPredictor(2), use_lap)


class TestLockManager:
    def test_grant_when_free(self):
        mgr = make_mgr()
        grant, preds = mgr.request(0, requester=1)
        assert grant.last_owner is None
        assert not grant.in_update_set
        assert grant.invalidate == []
        assert set(preds) == {"lap", "waitq", "waitq_affinity",
                              "waitq_virtualq"}

    def test_queue_when_held(self):
        mgr = make_mgr()
        mgr.request(0, 1)
        assert mgr.request(0, 2) is None
        assert list(mgr.lock(0).pred.waiting_queue) == [2]

    def test_release_grants_to_head(self):
        mgr = make_mgr()
        mgr.request(0, 1)
        mgr.request(0, 2)
        mgr.request(0, 3)
        result = mgr.release(0, 1, covered_pages=[7], modified_pages=[7])
        assert result is not None
        nxt, grant, _ = result
        assert nxt == 2
        assert grant.last_owner == 1
        assert list(mgr.lock(0).pred.waiting_queue) == [3]

    def test_contended_grant_has_waitq_prediction(self):
        """With a waiter queued, the new owner's update set is the head."""
        mgr = make_mgr()
        mgr.request(0, 1)
        mgr.request(0, 2)
        mgr.request(0, 3)
        _, grant, preds = mgr.release(0, 1, [], [])
        assert grant.update_set == [3]
        assert preds["waitq"] == [3]

    def test_in_update_set_flag(self):
        """The update set is computed at *grant* time (Section 3.2): node 3
        must already be waiting when node 2 is granted for node 2's release
        to have predicted (and updated) node 3."""
        mgr = make_mgr()
        mgr.request(0, 1)
        mgr.request(0, 2)
        mgr.request(0, 3)
        _, g2, _ = mgr.release(0, 1, [5], [5])
        assert g2.update_set == [3]
        assert not g2.in_update_set  # 1's grant saw an empty queue
        _, g3, _ = mgr.release(0, 2, [5], [5])
        assert g3.in_update_set
        assert g3.last_owner == 2

    def test_invalidation_list_excludes_own_mods(self):
        mgr = make_mgr()
        mgr.request(0, 1)
        mgr.release(0, 1, covered_pages=[3, 4], modified_pages=[3, 4])
        grant, _ = mgr.request(0, 3)
        pages = {pg for pg, mod in grant.invalidate}
        assert pages == {3, 4}
        # pages the new owner modified itself are skipped
        mgr.release(0, 3, covered_pages=[3, 4, 9], modified_pages=[9])
        grant, _ = mgr.request(0, 3)
        assert all(mod != 3 for _, mod in grant.invalidate)

    def test_in_upset_invalidation_only_uncovered(self):
        mgr = make_mgr()
        grant1, _ = mgr.request(0, 1)
        mgr.request(0, 2)  # 2 queues; 1's update set at release time
        # 1 modified 3,4 but merged diffs only cover 3
        _, grant2, _ = mgr.release(0, 1, covered_pages=[3],
                                   modified_pages=[3, 4])
        if grant2.in_update_set:
            assert {pg for pg, _ in grant2.invalidate} == {4}

    def test_nolap_update_set_empty(self):
        mgr = make_mgr(use_lap=False)
        mgr.request(0, 1)
        mgr.request(0, 2)
        mgr.request(0, 3)
        _, grant, preds = mgr.release(0, 1, [], [])
        assert grant.update_set == []
        assert preds["waitq"] == [3]  # shadow predictions still recorded

    def test_reset_step_state(self):
        mgr = make_mgr()
        mgr.request(0, 1)
        mgr.release(0, 1, [5], [5])
        mgr.reset_step_state(1)
        grant, _ = mgr.request(0, 2, step=1)
        assert grant.invalidate == []
        assert not grant.in_update_set

    def test_newer_step_request_resets_before_the_managers_barrier(self):
        """A post-barrier request can beat the manager's own barrier
        completion: it must not be granted from the old step's history."""
        mgr = make_mgr()
        mgr.request(0, 1, step=0)
        mgr.release(0, 1, [5], [5], step=0)
        grant, _ = mgr.request(0, 2, step=1)
        assert grant.invalidate == []
        # the manager's barrier completion arrives late: idempotent, so
        # the new step's history survives it
        mgr.release(0, 2, [6], [6], step=1)
        mgr.reset_step_state(1)
        grant, _ = mgr.request(0, 3, step=1)
        assert grant.invalidate == [(6, 2)]

    def test_older_step_release_hands_on_the_token_only(self):
        """A release retransmitted past a barrier records no history: the
        releaser's session (and its diffs) are gone."""
        mgr = make_mgr()
        mgr.request(0, 3, step=0)
        mgr.reset_step_state(1)
        assert mgr.request(0, 0, step=1) is None  # 3 still holds the token
        nxt, grant, _ = mgr.release(0, 3, [0], [0], step=0)
        assert nxt == 0
        assert grant.last_owner == 3
        assert grant.invalidate == [] and not grant.in_update_set
        assert mgr.lock(0).history == {} and mgr.lock(0).coverage == set()

    def test_acquire_counter_monotone(self):
        mgr = make_mgr()
        g1, _ = mgr.request(0, 1)
        mgr.release(0, 1, [], [])
        g2, _ = mgr.request(0, 2)
        assert g2.acquire_counter > g1.acquire_counter
        assert g2.last_owner_counter == g1.acquire_counter

    def test_independent_locks(self):
        mgr = make_mgr()
        mgr.request(0, 1)
        grant, _ = mgr.request(1, 2)
        assert grant is not None  # lock 1 free even though lock 0 held


def arrival(node, lock_sessions=None, outside=(), accessed=(),
            gained=(), lost=()):
    return ArrivalInfo(node=node,
                       lock_sessions=lock_sessions or {},
                       outside_mod_pages=list(outside),
                       accessed_pages=list(accessed),
                       gained_valid=list(gained),
                       lost_valid=list(lost))


class TestBarrierManager:
    def make(self, procs=4, pages=8):
        return AECBarrierManager(procs, pages)

    def full_arrive(self, mgr, infos):
        last = False
        for info in infos:
            last = mgr.arrive(info)
        assert last
        return mgr.compute()

    def test_collects_until_all_arrive(self):
        mgr = self.make()
        assert not mgr.arrive(arrival(0))
        assert not mgr.arrive(arrival(1))
        assert not mgr.arrive(arrival(2))
        assert mgr.arrive(arrival(3))

    def test_double_arrival_rejected(self):
        mgr = self.make()
        mgr.arrive(arrival(0))
        with pytest.raises(RuntimeError):
            mgr.arrive(arrival(0))

    def test_write_notices_to_other_holders(self):
        mgr = self.make()
        # all 4 gain a valid copy of page 2; node 1 writes it outside CS
        infos = [arrival(i, gained=[2]) for i in range(4)]
        infos[1] = arrival(1, outside=[2], gained=[2])
        instr = self.full_arrive(mgr, infos)
        sends = instr[1].wn_sends
        assert len(sends) == 1
        pg, epoch, dests = sends[0]
        assert pg == 2 and set(dests) == {0, 2, 3}
        assert instr[0].expect_wn_msgs == 1
        # validity: only the writer's copy remains current
        assert mgr.validset[2] == {1}

    def test_multiple_writers_notice_each_other(self):
        mgr = self.make()
        infos = [arrival(i, gained=[2]) for i in range(4)]
        infos[0] = arrival(0, outside=[2], gained=[2])
        infos[1] = arrival(1, outside=[2], gained=[2])
        instr = self.full_arrive(mgr, infos)
        (pg0, _, dests0), = instr[0].wn_sends
        assert 1 in dests0  # co-writer gets the notice too
        assert mgr.validset[2] == {0, 1}

    def test_cs_diffs_from_last_owner_per_lock(self):
        mgr = self.make()
        infos = [arrival(i, gained=[5]) for i in range(4)]
        # lock 0: node 2 owned last (counter 7 > 3)
        infos[1] = arrival(1, {0: (3, [5], [5])}, gained=[5])
        infos[2] = arrival(2, {0: (7, [5], [5])}, gained=[5])
        instr = self.full_arrive(mgr, infos)
        assert instr[1].cs_sends == []
        dests = set()
        for lock, pages, ds in instr[2].cs_sends:
            assert lock == 0 and pages == [5]
            dests.update(ds)
        assert dests == {0, 1, 3}

    def test_two_locks_same_page_both_push(self):
        """Regression: every lock's last owner pushes its own diffs, even
        when several locks modified the same page."""
        mgr = self.make()
        infos = [arrival(i, gained=[5]) for i in range(4)]
        infos[1] = arrival(1, {0: (3, [5], [5])}, gained=[5])
        infos[2] = arrival(2, {1: (4, [5], [5])}, gained=[5])
        instr = self.full_arrive(mgr, infos)
        assert any(lock == 0 for lock, _, _ in instr[1].cs_sends)
        assert any(lock == 1 for lock, _, _ in instr[2].cs_sends)

    def test_stale_holders_flagged(self):
        mgr = self.make()
        # node 3 holds a stale copy of page 5 (copyset, not validset)
        mgr.copyset[5] = {0, 3}
        mgr.validset[5] = {0}
        infos = [arrival(i) for i in range(4)]
        infos[0] = arrival(0, {0: (1, [5], [5])})
        instr = self.full_arrive(mgr, infos)
        assert 5 in instr[3].stale_pages

    def test_home_assignment_prefers_valid_holder(self):
        mgr = self.make()
        infos = [arrival(i) for i in range(4)]
        infos[2] = arrival(2, outside=[3], gained=[3])
        instr = self.full_arrive(mgr, infos)
        assert instr[0].homes[3] == 2  # the only valid holder post-step

    def test_others_accessed(self):
        mgr = self.make()
        infos = [arrival(i) for i in range(4)]
        infos[0] = arrival(0, accessed=[1, 2])
        infos[1] = arrival(1, accessed=[2, 3])
        instr = self.full_arrive(mgr, infos)
        assert instr[0].others_accessed == {2, 3}
        assert instr[1].others_accessed == {1, 2}
        assert instr[2].others_accessed == {1, 2, 3}

    def test_completion_cycle(self):
        mgr = self.make()
        self.full_arrive(mgr, [arrival(i) for i in range(4)])
        for i in range(3):
            assert not mgr.node_done(i)
        assert mgr.node_done(3)
        step = mgr.complete()
        assert step == 1
        # a fresh episode can start
        assert not mgr.arrive(arrival(0))

    def test_done_outside_exchange_rejected(self):
        mgr = self.make()
        with pytest.raises(RuntimeError):
            mgr.node_done(0)

    def test_arrive_during_exchange_rejected(self):
        mgr = self.make()
        self.full_arrive(mgr, [arrival(i) for i in range(4)])
        with pytest.raises(RuntimeError):
            mgr.arrive(arrival(0))

    def test_validity_deltas_folded(self):
        mgr = self.make()
        infos = [arrival(i) for i in range(4)]
        infos[2] = arrival(2, gained=[6])
        infos[0] = arrival(0, lost=[6])
        self.full_arrive(mgr, infos)
        assert 2 in mgr.validset[6]
        assert 0 not in mgr.validset[6]

    def test_element_counts(self):
        info = arrival(0, {1: (2, [3], [3, 4])}, outside=[5],
                       accessed=[5, 6], gained=[5])
        assert info.element_count == 1 + 2 + 1 + 1 + 2 + 1
        instr = BarrierInstructions(step=0)
        assert instr.element_count == 0
