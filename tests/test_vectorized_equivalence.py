"""Bit-identity of the exact kernels against the scalar references.

The three hot paths (multi-flow tick loop, fan-in Lindley sweep,
max-min fair allocation) each ship one numpy kernel; ``tests.reference``
holds a scalar Python loop for each and patches it in with
``scalar_kernels()``.  The contract is *bit*-identity, not approximate
equality: goldens were recorded against the scalar code, so any
last-bit divergence in the vectorized path would silently shift
reproduced numbers.  These property tests drive both implementations
over randomized topologies, flow mixes, seeds, and loss regimes and
compare raw float bit patterns (``tobytes()`` / exact ``==``).  The
fourth reference, the single-connection loop, has its own property in
``test_tcp_connection_differential.py``.
"""

from __future__ import annotations

import collections
import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.netsim import Link, Topology
from repro.netsim.flow import FlowSpec
from repro.netsim import packetsim
from repro.netsim.packetsim import BurstySource, simulate_fan_in
from repro.tcp.congestion import Cubic, HTcp, Reno
from repro.tcp.connection import TcpConnection
from repro.tcp.simulate import (
    MultiFlowSimulation,
    _ProgressiveFiller,
    max_min_fair_allocation,
)
from repro.units import Gbps, KB, MB, Mbps, bytes_, ms, seconds
from tests import reference
from tests.reference import scalar_kernels

# Property tests run both implementations per example; keep example counts
# modest so tier-1 stays fast.  deadline=None: the simulation examples
# legitimately take tens of milliseconds each.
SETTINGS = settings(max_examples=25, deadline=None)
SIM_SETTINGS = settings(max_examples=12, deadline=None)


# -- max-min fair allocation --------------------------------------------------

@st.composite
def allocation_problems(draw):
    n_flows = draw(st.integers(1, 60))
    n_links = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    usage = rng.random((n_flows, n_links)) < draw(
        st.floats(0.1, 0.9, allow_nan=False))
    # Flows that cross no link at all.
    usage[rng.random(n_flows) < draw(st.floats(0.0, 0.3))] = False
    demands = rng.random(n_flows) * draw(st.floats(0.5, 200.0))
    # Idle flows: a drawn fraction of exactly-zero demands, up to all.
    demands[rng.random(n_flows) < draw(st.floats(0.0, 1.0))] = 0.0
    if draw(st.booleans()):
        demands[rng.integers(0, n_flows)] = np.inf
    capacities = rng.random(n_links) * draw(st.floats(0.5, 100.0)) + 1e-3
    if draw(st.booleans()):
        capacities[rng.integers(0, n_links)] = np.inf
    if draw(st.booleans()):
        capacities[rng.integers(0, n_links)] = 0.0
    return demands, usage, capacities


@SETTINGS
@given(allocation_problems())
def test_max_min_backends_bit_identical(problem):
    demands, usage, capacities = problem
    a = max_min_fair_allocation(demands, usage, capacities)
    with scalar_kernels():
        b = max_min_fair_allocation(demands, usage, capacities)
    assert a.tobytes() == b.tobytes()


# -- fan-in Lindley sweep -----------------------------------------------------

@st.composite
def fanin_problems(draw):
    n_sources = draw(st.integers(1, 5))
    mean_mbps = draw(st.integers(100, 900))
    egress_gbps = draw(st.floats(0.2, 4.0, allow_nan=False))
    buffer_kb = draw(st.integers(16, 1024))
    duration_ms = draw(st.integers(20, 250))
    seed = draw(st.integers(0, 2**31 - 1))
    return n_sources, mean_mbps, egress_gbps, buffer_kb, duration_ms, seed


def _run_fanin(n_sources, mean_mbps, egress_gbps, buffer_kb, duration_ms,
               seed):
    sources = [BurstySource(name=f"s{i}", line_rate=Gbps(1),
                            mean_rate=Mbps(mean_mbps), burst_size=KB(128))
               for i in range(n_sources)]
    return simulate_fan_in(sources, egress_rate=Gbps(egress_gbps),
                           buffer_size=KB(buffer_kb),
                           duration=seconds(duration_ms / 1e3),
                           rng=np.random.default_rng(seed))


@SETTINGS
@given(fanin_problems())
def test_fanin_backends_bit_identical(problem):
    a = _run_fanin(*problem)
    with scalar_kernels():
        b = _run_fanin(*problem)
    assert a.total_offered == b.total_offered
    assert a.total_delivered == b.total_delivered
    assert a.total_dropped == b.total_dropped
    assert a.max_queue_occupancy.bits == b.max_queue_occupancy.bits
    assert set(a.per_source) == set(b.per_source)
    for name in a.per_source:
        sa, sb = a.per_source[name], b.per_source[name]
        assert (sa.offered_packets, sa.delivered_packets,
                sa.dropped_packets) == \
               (sb.offered_packets, sb.delivered_packets,
                sb.dropped_packets)


# -- multi-flow fluid simulation ----------------------------------------------

ALGORITHMS = [None, Reno(), Cubic(), HTcp()]


@st.composite
def simulation_problems(draw):
    n_hosts = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    loss_scale = draw(st.sampled_from([0.0, 1e-5, 1e-4]))
    algo_idx = draw(st.integers(0, len(ALGORITHMS) - 1))
    flows = []
    n_flows = draw(st.integers(1, 3))
    for i in range(n_flows):
        src = draw(st.integers(0, n_hosts - 1))
        dst = draw(st.integers(0, n_hosts - 1).filter(lambda d: d != src))
        flows.append({
            "src": src,
            "dst": dst,
            "mb": draw(st.integers(5, 120)),
            "streams": draw(st.integers(1, 4)),
            "start_ms": draw(st.sampled_from([0, 250, 1000])),
            "unbounded": draw(st.booleans()),
        })
    return n_hosts, seed, loss_scale, algo_idx, flows


def _build_sim(backend, n_hosts, seed, loss_scale, algo_idx, flows):
    topo = Topology("equiv-star")
    from repro.netsim.node import Router
    topo.add_node(Router(name="hub"))
    for i in range(n_hosts):
        topo.add_host(f"h{i}", nic_rate=Gbps(10))
        topo.connect(f"h{i}", "hub",
                     Link(rate=Gbps(2 + i), delay=ms(1 + 3 * i),
                          mtu=bytes_(9000),
                          loss_probability=loss_scale * (i + 1)))
    specs = []
    for i, f in enumerate(flows):
        specs.append(FlowSpec(
            src=f"h{f['src']}", dst=f"h{f['dst']}",
            size=None if f["unbounded"] else MB(f["mb"]),
            start=seconds(f["start_ms"] / 1e3),
            parallel_streams=f["streams"], label=f"f{i}"))
    return MultiFlowSimulation(topo, specs,
                               rng=np.random.default_rng(seed),
                               algorithm=ALGORITHMS[algo_idx],
                               backend=backend)


def _state_fingerprint(sim, progresses):
    state = {"queues": sim._queues.tobytes(),
             "finished_at": None if sim.finished_at is None
             else sim.finished_at.s}
    for label, prog in sorted(progresses.items()):
        state[label] = (
            prog.delivered.bits,
            None if prog.finish_time is None else prog.finish_time.s,
            prog.loss_events,
            prog.started,
            tuple(prog.time_series),
        )
    for name, values in sorted(sim.stream_state.items()):
        state[name] = (values.dtype.str, values.tobytes())
    return state


@SIM_SETTINGS
@given(simulation_problems())
def test_multiflow_backends_bit_identical(problem):
    sim = _build_sim("exact", *problem)
    exact = _state_fingerprint(sim, sim.run(until=seconds(4)))
    with scalar_kernels():
        sim = _build_sim("exact", *problem)
        reference = _state_fingerprint(sim, sim.run(until=seconds(4)))
    assert exact == reference


def test_multiflow_rejects_unknown_backend():
    # The retired "numpy" / "python" names have no alias.
    for name in ("cython", "numpy", "python"):
        with pytest.raises(ConfigurationError,
                           match="known: exact, fluid, hybrid"):
            _build_sim(name, 2, 0, 0.0, 0,
                       [{"src": 0, "dst": 1, "mb": 5, "streams": 1,
                         "start_ms": 0, "unbounded": False}])


def test_final_tick_rate_recorded_on_finish():
    """A flow finishing mid-interval records its final-tick rate at the
    finish time, on the exact kernel and on the scalar reference (the
    time_series regression fix)."""
    for patch in (contextlib.nullcontext, scalar_kernels):
        with patch():
            sim = _build_sim("exact", 2, 5, 0.0, 1,
                             [{"src": 0, "dst": 1, "mb": 20, "streams": 2,
                               "start_ms": 0, "unbounded": False}])
            prog = sim.run(until=seconds(10))["f0"]
        assert prog.done and prog.finish_time is not None
        last_t, last_rate = prog.time_series[-1]
        assert last_t == pytest.approx(prog.finish_time.s)
        assert last_rate > 0.0


def test_scalar_kernels_reach_every_reference(monkeypatch):
    """The differential tests above are only as strong as the patch:
    under ``scalar_kernels()`` each hot path must run its scalar loop,
    and leaving the block must restore the shipped kernels."""
    calls = collections.Counter()

    def counted(name):
        fn = getattr(reference, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    names = ("run_python", "allocate_python", "sweep_python",
             "connection_python")
    for name in names:
        monkeypatch.setattr(reference, name, counted(name))
    shipped = (MultiFlowSimulation._run_exact,
               _ProgressiveFiller._allocate_numpy, packetsim._sweep_numpy,
               TcpConnection._run)
    with scalar_kernels():
        sim = _build_sim("exact", 2, 0, 0.0, 0,
                         [{"src": 0, "dst": 1, "mb": 5, "streams": 2,
                           "start_ms": 0, "unbounded": False}])
        sim.run(until=seconds(1))
        max_min_fair_allocation(np.ones(2), np.ones((2, 1), dtype=bool),
                                np.ones(1))
        _run_fanin(2, 300, 1.0, 64, 20, 0)
        TcpConnection(sim.topology.profile_between("h0", "h1")).measure(
            seconds(1))
    assert set(calls) == set(names)
    assert (MultiFlowSimulation._run_exact,
            _ProgressiveFiller._allocate_numpy,
            packetsim._sweep_numpy, TcpConnection._run) == shipped
