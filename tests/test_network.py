"""Unit tests for the mesh topology and the contention-aware network."""
import pytest

from repro.config import MachineParams
from repro.network.mesh import Mesh
from repro.network.network import Network


class TestMesh:
    def test_16_nodes_is_4x4(self):
        mesh = Mesh(16)
        assert (mesh.width, mesh.height) == (4, 4)

    def test_coords_cover_grid(self):
        mesh = Mesh(16)
        seen = {mesh.coords(i) for i in range(16)}
        assert len(seen) == 16
        assert all(0 <= x < 4 and 0 <= y < 4 for x, y in seen)

    def test_hops_manhattan(self):
        mesh = Mesh(16)
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 3) == 3      # same row
        assert mesh.hops(0, 15) == 6     # opposite corner of 4x4
        assert mesh.hops(5, 6) == 1

    def test_hops_symmetric(self):
        mesh = Mesh(16)
        for a in range(16):
            for b in range(16):
                assert mesh.hops(a, b) == mesh.hops(b, a)

    def test_single_node(self):
        mesh = Mesh(1)
        assert mesh.hops(0, 0) == 0

    def test_non_square_counts(self):
        mesh = Mesh(12)
        assert mesh.width * mesh.height >= 12

    def test_prime_count_uses_ragged_grid(self):
        mesh = Mesh(7)
        assert mesh.width * mesh.height >= 7
        # all nodes placeable
        for i in range(7):
            mesh.coords(i)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Mesh(16).coords(16)
        with pytest.raises(ValueError):
            Mesh(0)


class TestRaggedMesh:
    """Prime node counts force a ragged last row; the metric must stay a
    metric there."""

    PRIMES = (5, 7, 13)

    @pytest.mark.parametrize("n", PRIMES)
    def test_coords_unique_and_in_bounds(self, n):
        mesh = Mesh(n)
        assert mesh.width * mesh.height >= n
        seen = {mesh.coords(i) for i in range(n)}
        assert len(seen) == n
        assert all(0 <= x < mesh.width and 0 <= y < mesh.height
                   for x, y in seen)

    @pytest.mark.parametrize("n", PRIMES)
    def test_hops_is_a_metric(self, n):
        mesh = Mesh(n)
        for a in range(n):
            assert mesh.hops(a, a) == 0
            for b in range(n):
                assert mesh.hops(a, b) == mesh.hops(b, a)
                assert (mesh.hops(a, b) > 0) == (a != b)
                for c in range(n):
                    assert (mesh.hops(a, c)
                            <= mesh.hops(a, b) + mesh.hops(b, c))


class TestNetwork:
    def make(self):
        return Network(MachineParams(num_procs=16))

    def test_uncontended_latency(self):
        net = self.make()
        # 1 hop, 64 bytes: header 6 + stream 32
        t = net.deliver(0, 1, 64, 1000.0)
        assert t == 1000.0 + 6 + 32

    def test_loopback_free(self):
        net = self.make()
        assert net.deliver(3, 3, 4096, 500.0) == 500.0
        assert net.messages == 0

    def test_loopback_never_counted(self):
        """Pins the documented contract: a src == dst deliver is instant and
        invisible in every traffic statistic (message/byte totals and the
        pair matrices), keeping Table 2 message counts remote-only."""
        net = self.make()
        net.deliver(0, 1, 100, 0.0)
        before = (net.messages, net.bytes, net.pair_messages.sum(),
                  net.pair_bytes.sum())
        for node in (0, 5, 15):
            assert net.deliver(node, node, 4096, 123.0) == 123.0
        after = (net.messages, net.bytes, net.pair_messages.sum(),
                 net.pair_bytes.sum())
        assert after == before
        assert net.pair_messages[0, 0] == 0

    def test_source_contention_serializes(self):
        net = self.make()
        t1 = net.deliver(0, 1, 1000, 0.0)
        t2 = net.deliver(0, 2, 1000, 0.0)  # same instant, same source
        # second message cannot start injecting until the first finishes
        assert t2 > t1

    def test_destination_contention_serializes(self):
        net = self.make()
        t1 = net.deliver(1, 0, 1000, 0.0)
        t2 = net.deliver(2, 0, 1000, 0.0)
        assert t2 >= t1 + net.stream_cycles(1000)

    def test_disjoint_paths_do_not_contend(self):
        net = self.make()
        t1 = net.deliver(0, 1, 1000, 0.0)
        t2 = net.deliver(2, 3, 1000, 0.0)
        assert t1 == t2

    def test_byte_accounting(self):
        net = self.make()
        net.deliver(0, 1, 100, 0.0)
        net.deliver(1, 2, 50, 0.0)
        assert net.messages == 2
        assert net.bytes == 150

    def test_larger_messages_take_longer(self):
        net1, net2 = self.make(), self.make()
        small = net1.deliver(0, 15, 64, 0.0)
        large = net2.deliver(0, 15, 4096, 0.0)
        assert large > small

    def test_farther_nodes_take_longer(self):
        net1, net2 = self.make(), self.make()
        near = net1.deliver(0, 1, 256, 0.0)
        far = net2.deliver(0, 15, 256, 0.0)
        assert far > near

    def test_per_pair_fifo(self):
        """Messages between one (src, dst) pair deliver in send order —
        the protocols' reply-vs-update reasoning depends on this."""
        import random
        net = self.make()
        rng = random.Random(7)
        t = 0.0
        last = {}
        for _ in range(300):
            src, dst = rng.randrange(16), rng.randrange(16)
            if src == dst:
                continue
            t += rng.uniform(0, 50)
            d = net.deliver(src, dst, rng.randrange(16, 4096), t)
            key = (src, dst)
            assert d >= last.get(key, 0.0), "FIFO violated"
            last[key] = d

    def test_pair_matrices(self):
        net = self.make()
        net.deliver(0, 1, 100, 0.0)
        net.deliver(0, 1, 50, 10.0)
        net.deliver(2, 3, 10, 0.0)
        assert net.pair_messages[0, 1] == 2
        assert net.pair_bytes[0, 1] == 150
        assert net.pair_messages.sum() == 3
