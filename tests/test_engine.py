"""Unit tests for the discrete-event engine: delays, sends, waits, ISRs."""
import pytest

from repro.config import MachineParams, SimConfig
from repro.engine.events import CATEGORIES, Delay, Resolve, Send, Wait
from repro.engine.future import Future
from repro.engine.simulator import SimulationError, Simulator
from repro.network.message import Message


def make_sim(num_procs=2, **cfg):
    machine = MachineParams(num_procs=num_procs)
    return Simulator(SimConfig(machine=machine, **cfg))


def null_handler(msg):
    return None


class TestFuture:
    def test_resolve_once(self):
        f = Future("x")
        assert not f.done
        f.resolve(42, 10.0)
        assert f.done and f.value == 42 and f.resolve_time == 10.0

    def test_double_resolve_rejected(self):
        f = Future()
        f.resolve(1, 0.0)
        with pytest.raises(RuntimeError):
            f.resolve(2, 1.0)

    def test_value_before_resolve_rejected(self):
        with pytest.raises(RuntimeError):
            Future().value


class TestEventValidation:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(-1)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            Delay(1, "bogus")

    def test_categories_match_paper(self):
        assert CATEGORIES == ("busy", "data", "synch", "ipc", "others")


class TestDelays:
    def test_simple_delay_advances_clock(self):
        sim = make_sim()

        def prog():
            yield Delay(100, "busy")
            yield Delay(50, "data")

        sim.add_program(0, prog())
        sim.set_handler(0, {})
        sim.set_handler(1, {})
        assert sim.run() == 150
        b = sim.breakdowns()[0]
        assert b["busy"] == 100 and b["data"] == 50

    def test_zero_delay_is_free(self):
        sim = make_sim()

        def prog():
            yield Delay(0, "busy")

        sim.add_program(0, prog())
        sim.set_handler(0, {})
        sim.set_handler(1, {})
        assert sim.run() == 0

    def test_programs_run_concurrently(self):
        sim = make_sim()

        def prog(n):
            yield Delay(n, "busy")

        sim.add_program(0, prog(100))
        sim.add_program(1, prog(300))
        sim.set_handler(0, {})
        sim.set_handler(1, {})
        assert sim.run() == 300
        assert sim.nodes[0].done_time == 100
        assert sim.nodes[1].done_time == 300


class TestWait:
    def test_wait_resolved_by_other_node(self):
        sim = make_sim()
        fut = Future("f")

        def waiter():
            value = yield Wait(fut, "synch")
            assert value == "hello"

        def resolver():
            yield Delay(500, "busy")
            yield Resolve(fut, "hello")

        sim.add_program(0, waiter())
        sim.add_program(1, resolver())
        sim.set_handler(0, {})
        sim.set_handler(1, {})
        assert sim.run() == 500
        assert sim.breakdowns()[0]["synch"] == 500

    def test_wait_on_done_future_is_instant(self):
        sim = make_sim()
        fut = Future()
        fut.resolve(7, 0.0)

        def prog():
            v = yield Wait(fut, "synch")
            assert v == 7
            yield Delay(10, "busy")

        sim.add_program(0, prog())
        sim.set_handler(0, {})
        sim.set_handler(1, {})
        assert sim.run() == 10
        assert sim.breakdowns()[0]["synch"] == 0

    def test_deadlock_detected(self):
        sim = make_sim()

        def prog():
            yield Wait(Future("never"), "synch")

        sim.add_program(0, prog())
        sim.set_handler(0, {})
        sim.set_handler(1, {})
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()


class TestMessaging:
    def test_send_charges_overhead_and_delivers(self):
        sim = make_sim()
        got = []

        def sender():
            yield Send(1, Message("ping", payload_bytes=0), "busy")

        def handler(msg):
            got.append((msg.kind, sim.now))
            return None

        sim.add_program(0, sender())
        sim.set_handler(0, {})
        sim.set_handler(1, {"ping": handler})
        sim.run()
        assert got and got[0][0] == "ping"
        # sender paid messaging overhead
        assert sim.breakdowns()[0]["busy"] == 400
        # receiver paid interrupt entry
        assert sim.breakdowns()[1]["others"] == 4000

    def test_payload_adds_io_cost_to_sender(self):
        sim = make_sim()
        m = sim.machine

        def sender():
            yield Send(1, Message("big", payload_bytes=4096), "ipc")

        sim.add_program(0, sender())
        sim.set_handler(0, {})
        sim.set_handler(1, {"big": null_handler})
        sim.run()
        assert sim.breakdowns()[0]["ipc"] == 400 + m.io_transfer_cycles(4096)

    def test_loopback_has_no_network_or_interrupt_cost(self):
        sim = make_sim()

        def sender():
            yield Send(0, Message("self", payload_bytes=0), "busy")

        handled = []
        sim.add_program(0, sender())
        sim.set_handler(0, {"self": lambda msg: handled.append(msg) or None})
        sim.set_handler(1, {})
        sim.run()
        assert handled
        assert sim.network.messages == 0
        assert sim.breakdowns()[0]["others"] == 0

    def test_reply_round_trip(self):
        sim = make_sim()
        fut = Future("reply")

        def requester():
            yield Send(1, Message("req"), "data")
            value = yield Wait(fut, "data")
            assert value == 99

        def handler(msg):
            yield Delay(100, "ipc")
            yield Send(0, Message("resp", payload=99), "ipc")

        def resp_handler(msg):
            yield Resolve(fut, msg.payload)

        sim.add_program(0, requester())
        sim.set_handler(0, {"resp": resp_handler})
        sim.set_handler(1, {"req": handler})
        sim.run()
        assert fut.done


class TestInterruptSemantics:
    def test_isr_stretches_in_progress_delay(self):
        """An interrupt during a long compute delays its completion."""
        sim = make_sim()

        def busy_prog():
            yield Delay(100000, "busy")

        def sender():
            yield Delay(1000, "busy")
            yield Send(0, Message("poke"), "busy")

        def handler(msg):
            yield Delay(5000, "ipc")

        sim.add_program(0, busy_prog())
        sim.add_program(1, sender())
        sim.set_handler(0, {"poke": handler})
        sim.set_handler(1, {})
        sim.run()
        # node 0's compute finished late: 100000 + interrupt + 5000 service
        assert sim.nodes[0].done_time > 100000 + 4000 + 5000 - 1
        # but busy accounting is unchanged
        assert sim.breakdowns()[0]["busy"] == 100000

    def test_isr_time_not_double_charged_during_wait(self):
        """Service time while blocked must not inflate the wait category."""
        sim = make_sim()
        fut = Future("f")

        def waiter():
            value = yield Wait(fut, "synch")

        def other():
            yield Delay(100, "busy")
            yield Send(0, Message("poke"), "busy")
            yield Delay(100000, "busy")
            yield Resolve(fut, None)

        def handler(msg):
            yield Delay(7000, "ipc")

        sim.add_program(0, waiter())
        sim.add_program(1, other())
        sim.set_handler(0, {"poke": handler})
        sim.set_handler(1, {})
        sim.run()
        b = sim.breakdowns()[0]
        assert b["ipc"] == pytest.approx(7000 + sim.machine.io_transfer_cycles(0))
        # wait charged = total wall minus ISR work done during it
        assert b["synch"] < sim.nodes[0].done_time - 7000 + 1

    def test_handler_must_not_block(self):
        sim = make_sim()

        def sender():
            yield Send(1, Message("go"), "busy")

        def bad_handler(msg):
            yield Wait(Future(), "synch")

        sim.add_program(0, sender())
        sim.set_handler(0, {})
        sim.set_handler(1, {"go": bad_handler})
        with pytest.raises(SimulationError, match="must not block"):
            sim.run()

    def test_missing_handler_raises(self):
        sim = make_sim()

        def sender():
            yield Send(1, Message("go"), "busy")

        sim.add_program(0, sender())
        sim.set_handler(0, {})
        sim.set_handler(1, {"stop": null_handler})
        # the error names the receiving node and the unhandled kind
        with pytest.raises(SimulationError,
                           match="node 1 has no handler for message 'go'"):
            sim.run()


class TestGuards:
    def test_cannot_run_twice(self):
        sim = make_sim()
        sim.set_handler(0, {})
        sim.set_handler(1, {})
        sim.run()
        with pytest.raises(SimulationError):
            sim.run()

    def test_duplicate_program_rejected(self):
        sim = make_sim()

        def prog():
            yield Delay(1, "busy")

        sim.add_program(0, prog())
        with pytest.raises(SimulationError):
            sim.add_program(0, prog())

    def test_max_events_guard(self):
        sim = make_sim(max_events=10)

        def prog():
            for _ in range(100):
                yield Delay(1, "busy")

        sim.add_program(0, prog())
        sim.set_handler(0, {})
        sim.set_handler(1, {})
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()

    def test_unknown_op_rejected(self):
        sim = make_sim()

        def prog():
            yield "not an op"

        sim.add_program(0, prog())
        sim.set_handler(0, {})
        sim.set_handler(1, {})
        with pytest.raises(SimulationError, match="unknown op"):
            sim.run()


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def build():
            sim = make_sim(num_procs=4)
            def prog(i):
                yield Delay(10 * (i + 1), "busy")
                yield Send((i + 1) % 4, Message("token", payload=i), "busy")
                yield Delay(100, "busy")

            def handler(msg):
                yield Delay(50, "ipc")

            for i in range(4):
                sim.add_program(i, prog(i))
                sim.set_handler(i, {"token": handler})
            return sim.run(), sim.breakdowns()

        r1, b1 = build()
        r2, b2 = build()
        assert r1 == r2
        assert b1 == b2


class TestDispatchOrder:
    """Pins the order in which the engine dispatches events, not only
    their totals: every program step, delivery, wake and scheduled call is
    hashed as ``(now, kind, node)`` in dispatch order.  The hot pushes are
    inlined copies of ``Simulator._push`` (DESIGN §11.9); a copy that broke
    the ready-run/heap rule of §11.2 could keep every total and still
    reorder same-time events, and this digest would move."""

    #: sha256 of the dispatched sequence, recorded before the pushes were
    #: inlined
    DISPATCH_SHA256 = {
        ("is", "aec", "none"):
            "73bd2e7382185024cd3798fdc9911dfd0e3049fadba697b183e360aaaa9653d4",
        ("is", "tmk", "none"):
            "9d03cee897aa1805a2398aeb521ef1725ec9d51fb196b9486d295332f18fef8f",
        ("fuzz:42", "aec", "lossy-1pct"):
            "bec6987036e5c610b83c5995b92091f1a7415c887d5cc94d1af6b35ef48c61a0",
        ("ocean", "aec", "crash-one-node"):
            "61f2dc07ef838634e1ecf1a065272f7772caabf936b780d23930d245a1927261",
    }

    @staticmethod
    def _dispatch_digest(monkeypatch, app_id, protocol, plan):
        import hashlib

        from repro.apps.registry import make_app
        from repro.faults import get_plan
        from repro.fuzz.generator import config_for_spec, generate_spec
        from repro.harness.runner import run_app

        digest = hashlib.sha256()
        count = [0]

        def note(sim, kind, node):
            count[0] += 1
            digest.update(f"{sim.now!r} {kind} {node}\n".encode())

        step = Simulator._step_program
        deliver = Simulator._deliver
        wake = Simulator._wake
        schedule_call = Simulator.schedule_call

        def _step_program(self, node, value):
            note(self, "step", node.node_id)
            return step(self, node, value)

        def _deliver(self, msg):
            note(self, f"deliver {msg.kind} {msg.src}", msg.dst)
            return deliver(self, msg)

        def _wake(self, node, fut):
            note(self, "wake", node.node_id)
            return wake(self, node, fut)

        def _schedule_call(self, time, fn):
            def call():
                note(self, "call", -1)
                fn()
            return schedule_call(self, time, call)

        monkeypatch.setattr(Simulator, "_step_program", _step_program)
        monkeypatch.setattr(Simulator, "_deliver", _deliver)
        monkeypatch.setattr(Simulator, "_wake", _wake)
        monkeypatch.setattr(Simulator, "schedule_call", _schedule_call)
        config = SimConfig(faults=None if plan == "none" else get_plan(plan))
        if app_id.startswith("fuzz:"):
            config = config_for_spec(
                generate_spec(int(app_id[5:]), "test"), config)
        run_app(make_app(app_id, "test", config=config), protocol, config)
        return digest.hexdigest(), count[0]

    @pytest.mark.parametrize("cell", sorted(DISPATCH_SHA256),
                             ids=lambda c: "/".join(c))
    def test_dispatch_sequence_is_pinned(self, monkeypatch, cell):
        got, dispatched = self._dispatch_digest(monkeypatch, *cell)
        assert dispatched > 1000, "scenario too small to pin an order"
        assert got == self.DISPATCH_SHA256[cell], (
            f"{'/'.join(cell)}: dispatch order moved ({dispatched} "
            f"dispatches hashed to {got})")
