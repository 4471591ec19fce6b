"""Property-based and contract tests for the mean-field engine.

Three invariant families, per the engine's design notes:

* **byte conservation** — per-flow delivered totals reconstructed from
  the class cumulative counters must sum to the class aggregates, and
  no flow may deliver more than it asked for;
* **stepper convergence** — halving the tick must converge: the change
  from one halving to the next shrinks (the population update is a
  consistent discretization, not a lucky constant);
* **hybrid bit-identity** — below the switchover threshold the hybrid
  dispatcher must reproduce the exact kernels byte for byte (including
  against the committed golden digests), because it *is* the exact
  kernels there.

Plus the configuration surface: ``REPRO_BACKEND`` validation at
context construction and CLI startup.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fluid import DEFAULT_SWITCHOVER, FluidEngine, build_flow_classes
from repro.netsim import Link, Topology
from repro.netsim.flow import FlowSpec
from repro.tcp.simulate import MultiFlowSimulation, _ProgressiveFiller
from repro.units import Gbps, MB, bytes_, ms, seconds
from repro.workloads import traffic_matrix, wan_backbone


def chain_topology(n_routers: int = 3, n_hosts: int = 8,
                   rate_gbps: float = 10.0) -> Topology:
    """A short router chain with ``n_hosts`` hosts on each end router."""
    from repro.netsim.node import Router

    topo = Topology("fluid-chain")
    for i in range(n_routers):
        topo.add_node(Router(name=f"r{i}"))
    for i in range(1, n_routers):
        topo.connect(f"r{i - 1}", f"r{i}",
                     Link(rate=Gbps(rate_gbps), delay=ms(2),
                          mtu=bytes_(9000)))
    for h in range(n_hosts):
        topo.add_host(f"src{h}", nic_rate=Gbps(rate_gbps))
        topo.add_host(f"dst{h}", nic_rate=Gbps(rate_gbps))
        topo.connect(f"src{h}", "r0",
                     Link(rate=Gbps(rate_gbps), delay=ms(1),
                          mtu=bytes_(9000)))
        topo.connect(f"dst{h}", f"r{n_routers - 1}",
                     Link(rate=Gbps(rate_gbps), delay=ms(1),
                          mtu=bytes_(9000)))
    return topo


def make_specs(n_flows, streams, size_mb, stagger_s):
    return [FlowSpec(src=f"src{i % 8}", dst=f"dst{(i * 3 + 1) % 8}",
                     size=MB(size_mb), start=seconds(stagger_s * i),
                     parallel_streams=streams, label=f"f{i}")
            for i in range(n_flows)]


# -- byte conservation --------------------------------------------------------

@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_flows=st.integers(min_value=1, max_value=24),
       streams=st.integers(min_value=1, max_value=4),
       size_mb=st.floats(min_value=0.5, max_value=50.0),
       stagger=st.floats(min_value=0.0, max_value=0.4))
def test_fluid_conserves_bytes(n_flows, streams, size_mb, stagger):
    """Sum of per-flow delivered == sum of class aggregates, and no
    flow exceeds its request (conservation across birth/death)."""
    topo = chain_topology()
    sim = MultiFlowSimulation(topo, make_specs(n_flows, streams,
                                               size_mb, stagger),
                              backend="fluid")
    progress = sim.run(until=seconds(2))
    result = sim.fluid_result

    per_flow = float(result.delivered_bits.sum())
    per_class = float(result.class_delivered_bits.sum())
    np.testing.assert_allclose(per_flow, per_class, rtol=1e-9)

    for prog in progress.values():
        size = prog.spec.size.bits
        assert prog.delivered.bits <= size * (1 + 1e-9)
        if prog.finish_time is not None:
            np.testing.assert_allclose(prog.delivered.bits, size,
                                       rtol=1e-9)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_flows=st.integers(min_value=2, max_value=16),
       streams=st.integers(min_value=1, max_value=4))
def test_fluid_finished_flows_deliver_exactly(n_flows, streams):
    """Run to completion: every flow finishes and total delivered
    equals total requested exactly (the death bookkeeping clamps)."""
    topo = chain_topology()
    specs = make_specs(n_flows, streams, 2.0, 0.05)
    sim = MultiFlowSimulation(topo, specs, backend="fluid")
    progress = sim.run()
    requested = sum(s.size.bits for s in specs)
    delivered = sum(p.delivered.bits for p in progress.values())
    np.testing.assert_allclose(delivered, requested, rtol=1e-9)
    assert all(p.finish_time is not None for p in progress.values())


# -- stepper convergence ------------------------------------------------------

def _delivered_at_dt(dt_s: float, horizon_s: float) -> float:
    """One unbounded flow class on a private 10 Gbps link, advanced at
    ``dt_s``; returns delivered bits at the horizon."""
    specs = [FlowSpec(src="a", dst="b", size=None, parallel_streams=2,
                      label="probe")]
    from repro.tcp import Reno
    classes = build_flow_classes(
        specs, [(0,)], [Reno()],
        rtts=np.array([0.02]), mss_bits=np.array([8960.0 * 8]),
        rwnd_pkts=np.array([512.0]), loss_p=np.array([0.0]),
        rate_caps=np.array([np.inf]))
    engine = FluidEngine(classes, np.array([1e10]), np.array([1e9 * 0.1]),
                         dt_s=dt_s)
    result = engine.run(horizon_s=horizon_s, until_given=True)
    return float(result.delivered_bits.sum())


@pytest.mark.parametrize("horizon", [0.5, 1.0, 2.0])
def test_stepper_converges_under_dt_halving(horizon):
    """Successive tick halvings converge on the finest-step answer:
    the error against the smallest tick never grows as the tick
    shrinks, and the last halving lands within 0.5% of it."""
    rtt = 0.02
    values = [_delivered_at_dt(rtt / k, horizon) for k in (2, 4, 8, 16, 32)]
    finest = values[-1]
    errs = [abs(v - finest) for v in values[:-1]]
    # RTT-boundary rounding jitters each step by one window quantum, so
    # the error sequence is not strictly monotone; the convergence
    # contract is that every step is already within 0.5% of the finest
    # answer and the last halving gains at least as much accuracy as
    # boundary jitter allows.
    for err in errs:
        assert err <= 0.005 * finest, (errs, finest)
    assert errs[-1] <= errs[0] * 1.05 + 0.001 * finest, (errs, finest)


def test_stepper_monotone_in_horizon():
    """Delivered bytes are non-decreasing in the horizon (the
    population never un-delivers)."""
    values = [_delivered_at_dt(0.005, h) for h in (0.25, 0.5, 1.0, 2.0)]
    assert all(b >= a for a, b in zip(values, values[1:])), values


# -- hybrid dispatch ----------------------------------------------------------

@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_flows=st.integers(min_value=1, max_value=12),
       streams=st.integers(min_value=1, max_value=4),
       size_mb=st.floats(min_value=1.0, max_value=20.0))
def test_hybrid_below_switchover_bit_identical_to_python(
        n_flows, streams, size_mb):
    """Below the threshold, hybrid IS the exact tier: byte-identical
    delivered totals, loss counts and time series vs backend="python"."""
    outs = {}
    for backend in ("python", "hybrid"):
        topo = chain_topology()
        sim = MultiFlowSimulation(
            topo, make_specs(n_flows, streams, size_mb, 0.1),
            backend=backend)
        assert sim.backend in ("python", "numpy")
        outs[backend] = sim.run(until=seconds(1.5))
    a, b = outs["python"], outs["hybrid"]
    assert set(a) == set(b)
    for label in a:
        assert a[label].delivered.bits == b[label].delivered.bits
        assert a[label].loss_events == b[label].loss_events
        assert a[label].time_series == b[label].time_series
        assert a[label].finish_time == b[label].finish_time


def test_hybrid_above_switchover_takes_fluid():
    topo = chain_topology()
    n_flows = DEFAULT_SWITCHOVER // 2  # x4 streams -> 2x threshold
    sim = MultiFlowSimulation(topo, make_specs(n_flows, 4, 1.0, 0.001),
                              backend="hybrid")
    assert sim.backend == "fluid"
    progress = sim.run(until=seconds(1))
    assert sum(p.delivered.bits for p in progress.values()) > 0


def test_fluid_engine_allocator_backends_bit_identical(monkeypatch):
    """A gravity matrix above the switchover, run to completion, gives
    byte-equal results whether the engine's filler takes the numpy path
    (live-set rounds) or the scalar reference."""
    topo = wan_backbone(6)
    specs = traffic_matrix([f"site{i}" for i in range(6)], n_flows=300,
                           rng=np.random.default_rng(5), mean_size=MB(4),
                           arrival_window=seconds(2)).specs()

    def run():
        sim = MultiFlowSimulation(topo, specs, backend="hybrid")
        assert sim.backend == "fluid"
        sim.run()
        return sim.fluid_result

    fast = run()
    monkeypatch.setattr(_ProgressiveFiller, "_allocate_numpy",
                        _ProgressiveFiller._allocate_python)
    slow = run()
    assert fast.ticks == slow.ticks
    for name in ("delivered_bits", "finish_s", "queues_bits",
                 "class_delivered_bits"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes()


def test_hybrid_custom_switchover():
    topo = chain_topology()
    sim = MultiFlowSimulation(topo, make_specs(4, 4, 1.0, 0.0),
                              backend="hybrid", switchover=16)
    assert sim.backend == "fluid"
    sim = MultiFlowSimulation(topo, make_specs(4, 4, 1.0, 0.0),
                              backend="hybrid", switchover=17)
    assert sim.backend == "numpy"


def test_hybrid_replays_golden_digests_byte_identically():
    """The committed golden ledger replays unchanged under
    backend="hybrid": small scenario populations stay on the exact
    kernels, so spec AND result digests must match bit for bit."""
    import json
    import pathlib

    from repro.experiment import ExperimentSpec, RunContext, run_experiment

    root = pathlib.Path(__file__).parent.parent
    golden = json.loads((root / "specs" / "golden.json").read_text())
    name = "linecard-softfail"
    spec = ExperimentSpec.from_file(str(root / "specs" /
                                        "linecard_softfail.json"))
    ctx = RunContext(backend="hybrid")
    result = run_experiment(spec, ctx, persist=False)
    assert result.manifest.spec_digest == golden[name]["spec_digest"]
    assert result.manifest.result_digest == golden[name]["result_digest"]
    assert result.manifest.backend == "hybrid"


# -- configuration surface ----------------------------------------------------

def test_run_context_rejects_unknown_backend():
    with pytest.raises(ConfigurationError):
        from repro.experiment import RunContext
        RunContext(backend="cuda")


def test_run_context_from_env_honors_repro_backend(monkeypatch):
    from repro.experiment import RunContext
    monkeypatch.setenv("REPRO_BACKEND", "fluid")
    ctx = RunContext.from_env()
    assert ctx.backend == "fluid"
    assert ctx.resolved_backend() == "fluid"
    monkeypatch.setenv("REPRO_BACKEND", "not-a-backend")
    with pytest.raises(ConfigurationError):
        RunContext.from_env()


def test_cli_invalid_repro_backend_is_exit_2(monkeypatch, capsys):
    from repro import cli
    monkeypatch.setenv("REPRO_BACKEND", "not-a-backend")
    code = cli.main(["designs"])
    assert code == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "unknown simulation backend" in err


def test_cli_valid_repro_backend_still_runs(monkeypatch):
    from repro import cli
    monkeypatch.setenv("REPRO_BACKEND", "hybrid")
    assert cli.main(["designs"]) == 0


def test_manifest_records_resolved_backend(tmp_path):
    from repro.experiment import ExperimentSpec, RunContext, run_experiment
    import json
    import pathlib

    root = pathlib.Path(__file__).parent.parent
    spec = ExperimentSpec.from_file(str(root / "specs" /
                                        "fig1_tcp_loss_quick.json"))
    ctx = RunContext(backend="python", artifacts=tmp_path)
    result = run_experiment(spec, ctx)
    assert result.manifest.backend == "python"
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["run"]["backend"] == "python"
