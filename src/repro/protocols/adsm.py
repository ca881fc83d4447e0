"""ADSM-style adaptive Entry Consistency (the paper's reference [11]).

Monnerat & Bianchini's ADSM is, like AEC, an Entry Consistency protocol
that needs no explicit data-to-lock bindings — but instead of predicting
the next acquirer, it *adapts per datum*: "ADSM only uses updates for
single-writer data protected by locks"; multi-writer data falls back to
invalidation.

This implementation reuses the AEC machinery with two substitutions:

* the update set is not a LAP prediction but the lock's *consumer set* —
  the processors that have historically acquired the lock (derived from
  the manager's transfer matrix), capped at the configured set size;
* at release, only pages whose diff history is **single-writer by the
  releaser** join the eager push; pages other processors have written are
  left to the invalidate path (the manager's coverage bookkeeping makes
  their acquirers invalidate and fetch lazily).

It therefore behaves like AEC on single-writer migratory data and like
AEC-without-LAP on write-shared data — the adaptation ADSM is named for.
"""
from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.aec.protocol import AECNode
from repro.core.aec.state import LockSessionState
from repro.core.lap.predictor import LapPredictor
from repro.core.lap.state import LockPredictionState


class ConsumerSetPredictor(LapPredictor):
    """Update-set "prediction" = the lock's historical consumer set.

    ADSM has no acquirer prediction; it keeps the data's consumers updated.
    We rank consumers by their involvement in past ownership transfers
    (row + column mass in the transfer matrix), which is exactly "the
    processors using this lock".  The low-level shadow predictors are
    inherited from LAP so Table 3-style statistics remain comparable.
    """

    def predict(self, state: LockPredictionState,
                releaser: int) -> List[int]:
        # int64: argsort's order among tied consumers depends on the dtype
        counts = np.array(state.affinity.rows, dtype=np.int64)
        involvement = counts.sum(axis=0) + counts.sum(axis=1)
        consumers = [int(q) for q in involvement.argsort()[::-1]
                     if involvement[q] > 0 and q != releaser]
        return consumers[:self.size]

    def score(self, state: LockPredictionState,
              owner: int) -> Dict[str, List[int]]:
        # the update set is the consumer set; the Table-3 shadow columns
        # stay LAP's
        predictions = super().score(state, owner)
        predictions["lap"] = self.predict(state, owner)
        return predictions


class AdsmNode(AECNode):
    name = "adsm"
    predictor_class = ConsumerSetPredictor

    def _push_filter(self, lock_id: int, sess: LockSessionState,
                     pn: int) -> bool:
        # single-writer data only: a page whose history carries diffs from
        # two or more distinct writers falls back to invalidation; pure
        # readers forwarding one producer's data still count single-writer
        return len(sess.writers.get(pn, ())) <= 1
