"""Bit-identity of the single-connection loop against its scalar reference.

``TcpConnection._run`` draws its loss variates in blocks, rewinds the
generator when it stops and builds :class:`RoundSample` objects only
when ``samples`` is read.  ``tests.reference.connection_python`` is the
same loop with one ``Generator.random()`` call per lossy round and one
sample object per kept sample.  These tests run both over randomized
paths and compare every result field, every sample, the trace event
list and the generator state afterwards, bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.netsim import Link, Topology
from repro.tcp import Cubic, HTcp, LossFreeIdeal, Reno, TcpConnection
from repro.tcp.congestion import CongestionControl
from repro.telemetry.tracer import Tracer
from repro.units import GB, Gbps, KB, MB, Mbps, bytes_, ms, seconds
from tests.reference import scalar_kernels


class ScalarOnly(CongestionControl):
    """A third-party algorithm: scalar methods only, no batch overrides."""

    name = "scalar-only"

    def increase(self, cwnd, time_since_loss, rtt):
        return 1.0 + time_since_loss / (1.0 + rtt)

    def decrease_factor(self, cwnd, rtt_min, rtt_max):
        return 0.6


class NoBackoff(Reno):
    """``on_loss`` raises on the first loss episode."""

    name = "no-backoff"

    def decrease_factor(self, cwnd, rtt_min, rtt_max):
        return 1.0


ALGORITHMS = (Reno, HTcp, Cubic, LossFreeIdeal, ScalarOnly)


def path(*, rate, one_way, loss, window, rate_limit=None):
    topo = Topology("differential")
    topo.add_host("a", nic_rate=rate)
    topo.add_host("b", nic_rate=rate)
    topo.connect("a", "b", Link(rate=rate, delay=one_way, mtu=bytes_(9000),
                                loss_probability=loss))
    profile = topo.profile_between("a", "b")
    return replace(profile, flow=profile.flow.with_(
        max_receive_window=window, sender_rate_limit=rate_limit))


@st.composite
def connections(draw):
    loss = draw(st.sampled_from([0.0, 1e-7, 0.02]))
    profile = path(
        rate=draw(st.sampled_from([Mbps(100), Gbps(1), Gbps(10)])),
        one_way=draw(st.sampled_from([ms(0.5), ms(5), ms(25)])),
        loss=loss,
        window=draw(st.sampled_from([KB(64), MB(16), MB(256)])),
        rate_limit=draw(st.sampled_from([None, Mbps(50), Gbps(2)])),
    )
    return dict(
        profile=profile,
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        buffer=draw(st.sampled_from([None, KB(32), MB(1)])),
        seed=draw(st.integers(0, 2**32 - 1)),
        traced=draw(st.booleans()),
        call=draw(st.sampled_from(["transfer", "measure"])),
        size=draw(st.sampled_from([MB(1), GB(1), GB(100)])),
        duration=seconds(draw(st.sampled_from([0.05, 0.5, 4.0]))),
        max_rounds=draw(st.sampled_from([1, 3, 100, 5_000])),
    )


def run(case, *, reference):
    """(result or exception, rng state, trace rows) of one connection."""
    rng = np.random.default_rng(case["seed"])
    tracer = Tracer() if case["traced"] else None
    conn = TcpConnection(case["profile"], algorithm=case["algorithm"](),
                         rng=rng, bottleneck_buffer=case["buffer"],
                         tracer=tracer, trace_offset=3.25)
    if case["call"] == "transfer":
        call, arg = conn.transfer, case["size"]
    else:
        call, arg = conn.measure, case["duration"]
    try:
        if reference:
            with scalar_kernels():
                outcome = call(arg, max_rounds=case["max_rounds"])
        else:
            outcome = call(arg, max_rounds=case["max_rounds"])
    except Exception as exc:  # compared below, type and message
        outcome = exc
    trace = None
    if tracer is not None:
        trace = [repr((e.seq, e.t, e.phase, e.category, e.name, e.attrs))
                 for e in tracer.events()]
        trace.append(repr(tracer.metrics.as_dict()))
    return outcome, rng.bit_generator.state, trace


def raw(value):
    """A comparable form that tells every float bit pattern apart."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if hasattr(value, "bits"):
        return raw(value.bits)
    if hasattr(value, "s"):
        return raw(value.s)
    return value


def assert_identical(shipped, reference):
    a, a_state, a_trace = shipped
    b, b_state, b_trace = reference
    assert a_state == b_state
    assert a_trace == b_trace
    if isinstance(b, Exception):
        assert type(a) is type(b) and str(a) == str(b)
        return
    for f in fields(b):
        assert raw(getattr(a, f.name)) == raw(getattr(b, f.name)), f.name
    assert repr(a.rows) == repr(b.rows)
    assert a.samples == b.samples
    assert [tuple(map(raw, (s.time, s.cwnd_segments, s.throughput_bps)))
            for s in a.samples] == \
        [tuple(map(raw, (s.time, s.cwnd_segments, s.throughput_bps)))
         for s in b.samples]
    for x, y in zip(a.sample_arrays(), b.sample_arrays()):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@settings(max_examples=60, deadline=None)
@given(connections())
def test_loop_bit_identical_to_scalar_reference(case):
    assert_identical(run(case, reference=False), run(case, reference=True))


@pytest.mark.parametrize("call", ["transfer", "measure"])
@pytest.mark.parametrize("loss", [1e-7, 2e-4])
def test_long_runs_decimate_and_refill_identically(call, loss):
    """20,000 rounds: the sample stride doubles past 8,192 samples and
    the variate blocks reach their cap, on both sides alike."""
    case = dict(profile=path(rate=Gbps(10), one_way=ms(0.5), loss=loss,
                             window=MB(256)),
                algorithm=HTcp, buffer=None, seed=7, traced=False,
                call=call, size=GB(10_000), duration=seconds(60),
                max_rounds=20_000)
    shipped = run(case, reference=False)
    assert shipped[0].rounds == 20_000
    assert len(shipped[0].rows) < 8192
    assert_identical(shipped, run(case, reference=True))


@pytest.mark.parametrize("loss", [0.0, 0.02])
def test_generator_position_matches_when_on_loss_raises(loss):
    """A loss mid-loop makes ``on_loss`` raise; the generator must still
    stand where the per-round scalar draws would have left it."""
    case = dict(profile=path(rate=Gbps(1), one_way=ms(5), loss=loss,
                             window=MB(16)),
                algorithm=NoBackoff, buffer=KB(32), seed=11, traced=True,
                call="measure", size=None, duration=seconds(5),
                max_rounds=5_000)
    shipped = run(case, reference=False)
    assert isinstance(shipped[0], ConfigurationError)
    assert_identical(shipped, run(case, reference=True))
    if loss:
        untouched = np.random.default_rng(11).bit_generator.state
        assert shipped[1] != untouched
