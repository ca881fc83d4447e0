"""Coordinated checkpoints taken at barrier epochs.

Barrier completion is a natural consistent cut of the DSM: every node has
applied every diff and write notice of the step, and no protocol message
of the old step is still in flight (the manager only broadcasts
``bar_complete`` once every node reported done).  Copying each node's
page store at that moment therefore yields a recovery line that needs no
message logging across the cut.

Only the most recent checkpoint is kept: a restarted node replays forward
from it (see :mod:`repro.recovery.crash`), and a permanently dead node's
orphaned pages are restored from it by the barrier manager.
"""
from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class CheckpointStore:
    """The latest coordinated checkpoint: per-node page images."""

    def __init__(self) -> None:
        #: barrier epoch of the retained checkpoint (-1 = none yet; the
        #: implicit epoch-(-1) checkpoint is the initial memory state)
        self.epoch = -1
        #: simulated time the checkpoint was taken
        self.taken_at = 0.0
        self._images: Dict[int, Dict[int, np.ndarray]] = {}

    def take(self, world, epoch: int, now: float) -> int:
        """Copy every node's held pages; returns pages captured."""
        self.epoch = epoch
        self.taken_at = now
        self._images = {}
        pages = 0
        for node in world.nodes:
            imgs = {pn: node.store.page(pn).copy()
                    for pn in node.store.pages_held()}
            self._images[node.node_id] = imgs
            pages += len(imgs)
        return pages

    def pages_for(self, node: int) -> int:
        """How many pages a restarting ``node`` must restore."""
        return len(self._images.get(node, ()))

    def page_image(self, node: int, pn: int) -> Optional[np.ndarray]:
        """``node``'s checkpointed copy of page ``pn`` (None if absent)."""
        imgs = self._images.get(node)
        if imgs is None:
            return None
        return imgs.get(pn)
