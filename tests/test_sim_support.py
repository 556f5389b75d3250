"""Tests for time units, RNG streams, and the tracer."""

from repro.sim.engine import Simulator
from repro.sim.rng import RngHub, derive_seed
from repro.sim.time import MS, SEC, US, fmt, ms, seconds, to_ms, to_seconds, to_us, us
from repro.sim.trace import Tracer


class TestTime:
    def test_unit_constants(self):
        assert US == 1_000
        assert MS == 1_000_000
        assert SEC == 1_000_000_000

    def test_conversions_roundtrip(self):
        assert us(2.5) == 2_500
        assert ms(1.5) == 1_500_000
        assert seconds(0.25) == 250_000_000
        assert to_us(us(7)) == 7.0
        assert to_ms(ms(9)) == 9.0
        assert to_seconds(seconds(3)) == 3.0

    def test_conversions_are_integers(self):
        assert isinstance(us(0.1), int)
        assert isinstance(ms(0.001), int)

    def test_fmt_picks_unit(self):
        assert fmt(500) == "500ns"
        assert fmt(1_500) == "1.500us"
        assert fmt(30 * MS) == "30.000ms"
        assert fmt(2 * SEC) == "2.000s"
        assert fmt(None) == "forever"


class TestRng:
    def test_same_name_same_stream_object(self):
        hub = RngHub(1)
        assert hub.stream("a") is hub.stream("a")

    def test_streams_reproducible_across_hubs(self):
        first = RngHub(7).stream("x").random()
        second = RngHub(7).stream("x").random()
        assert first == second

    def test_different_names_differ(self):
        hub = RngHub(7)
        assert hub.stream("x").random() != hub.stream("y").random()

    def test_different_seeds_differ(self):
        assert RngHub(1).stream("x").random() != RngHub(2).stream("x").random()

    def test_derive_seed_stable(self):
        assert derive_seed(5, "name") == derive_seed(5, "name")
        assert derive_seed(5, "name") != derive_seed(6, "name")

    def test_fork_isolates_namespaces(self):
        hub = RngHub(3)
        child = hub.fork("vm1")
        assert child.stream("t").random() != hub.stream("t").random()

    def test_adding_stream_does_not_perturb_existing(self):
        hub1 = RngHub(11)
        a_first = [hub1.stream("a").random() for _ in range(3)]
        hub2 = RngHub(11)
        hub2.stream("b").random()  # interleave another consumer
        a_second = [hub2.stream("a").random() for _ in range(3)]
        assert a_first == a_second


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=False)
        tracer.emit("evt", x=1)
        assert len(tracer) == 0

    def test_records_time_and_payload(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=True)
        sim.schedule(50, lambda _a: tracer.emit("evt", x=1))
        sim.run()
        records = tracer.find("evt")
        assert len(records) == 1
        assert records[0].time == 50
        assert records[0].detail == {"x": 1}

    def test_kind_filter(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=True, kinds={"keep"})
        tracer.emit("keep")
        tracer.emit("drop")
        assert len(tracer) == 1

    def test_clear(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=True)
        tracer.emit("evt")
        tracer.clear()
        assert len(tracer) == 0
        # The cleared record counts as dropped: dropped + len == seq
        # stays exact across the warmup boundary.
        assert tracer.dropped == 1
        assert tracer.dropped + len(tracer) == tracer.seq
