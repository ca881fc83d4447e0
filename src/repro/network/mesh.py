"""Mesh topology: node placement and dimension-ordered hop counts.

The paper simulates a 16-node network of workstations connected by a mesh
with wormhole routing.  We lay nodes out on the most square grid that fits
``n`` (4x4 for 16) and route X-then-Y, so the hop count between two nodes is
their Manhattan distance.
"""
from __future__ import annotations

import math


class Mesh:
    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes
        self.width = self._best_width(num_nodes)
        self.height = math.ceil(num_nodes / self.width)

    @staticmethod
    def _best_width(n: int) -> int:
        """Most square factorization; falls back to a ragged near-square grid."""
        best = 1
        for w in range(1, int(math.isqrt(n)) + 1):
            if n % w == 0:
                best = w
        if best == 1 and n > 3:
            # prime count: near-square grid with a ragged last row
            return int(math.ceil(math.sqrt(n)))
        return best

    def coords(self, node: int):
        if not (0 <= node < self.num_nodes):
            raise ValueError(f"node {node} out of range")
        return node % self.width, node // self.width

    def hops(self, src: int, dst: int) -> int:
        """Dimension-ordered (X then Y) routing distance in switch hops."""
        if src == dst:
            return 0
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

