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

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fluid import DEFAULT_SWITCHOVER, FluidEngine, build_flow_classes
from repro.fluid.engine import _SLACK
from repro.netsim import Link, Topology
from repro.netsim.flow import FlowSpec
from repro.tcp.simulate import MultiFlowSimulation, _ProgressiveFiller
from repro.units import Gbps, MB, bytes_, ms, seconds
from repro.workloads import traffic_matrix, wan_backbone
from tests.reference import allocate_python, scalar_kernels


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
    delivered totals, loss counts and time series vs the exact tier on
    the scalar Python reference kernels."""
    outs = {}
    for backend, kernels in (("exact", scalar_kernels),
                             ("hybrid", contextlib.nullcontext)):
        topo = chain_topology()
        with kernels():
            sim = MultiFlowSimulation(
                topo, make_specs(n_flows, streams, size_mb, 0.1),
                backend=backend)
            assert sim.backend == "exact"
            outs[backend] = sim.run(until=seconds(1.5))
    a, b = outs["exact"], outs["hybrid"]
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
    byte-equal results whether the engine skips the filler on feasible
    ticks (the default) or runs it on every tick (short-circuit patched
    off), with the numpy path (live-set rounds) or the scalar reference.
    The 32 MB mean size congests some links on about a fifth of the
    ticks, so the default run calls the filler too."""
    topo = wan_backbone(6)
    specs = traffic_matrix([f"site{i}" for i in range(6)], n_flows=300,
                           rng=np.random.default_rng(5), mean_size=MB(32),
                           arrival_window=seconds(2)).specs()

    def run():
        sim = MultiFlowSimulation(topo, specs, backend="hybrid")
        assert sim.backend == "fluid"
        sim.run()
        return sim.fluid_result

    calls = []
    numpy_filler = _ProgressiveFiller._allocate_numpy

    def counted(self, demands):
        calls.append(1)
        return numpy_filler(self, demands)

    monkeypatch.setattr(_ProgressiveFiller, "_allocate_numpy", counted)
    fast = run()
    short_circuit_calls = len(calls)

    engine_init = FluidEngine.__init__

    def no_slack(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        self._slack_caps = np.full_like(self._slack_caps, -np.inf)

    monkeypatch.setattr(FluidEngine, "__init__", no_slack)
    calls.clear()
    forced = run()
    # The short-circuit fired on some ticks, and not on every one.
    assert 0 < short_circuit_calls < len(calls)

    with scalar_kernels():
        slow = run()  # scalar reference on every tick
    for other in (forced, slow):
        assert (fast.ticks, fast.now_s) == (other.ticks, other.now_s)
        assert fast.samples == other.samples
        for name in ("delivered_bits", "finish_s", "started", "queues_bits",
                     "class_delivered_bits", "class_population"):
            assert (getattr(fast, name).tobytes()
                    == getattr(other, name).tobytes()), name


@st.composite
def slack_problems(draw):
    """Random incidence and capacities, with demands scaled so every
    link's load is at most ``cap * (1 - _SLACK)``."""
    n_flows = draw(st.integers(1, 40))
    n_links = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    usage = rng.random((n_flows, n_links)) < draw(st.floats(0.1, 0.9))
    demands = rng.random(n_flows) * draw(st.floats(0.5, 200.0))
    demands[rng.random(n_flows) < draw(st.floats(0.0, 0.5))] = 0.0
    capacities = rng.random(n_links) * draw(st.floats(0.5, 100.0)) + 1e-3
    if draw(st.booleans()):
        capacities[rng.integers(0, n_links)] = np.inf
    load = demands @ usage.astype(np.float64)
    limit = capacities * (1.0 - _SLACK)
    loaded = load > 0.0
    scale = min([1.0, *(limit[loaded] / load[loaded])])
    demands = demands * scale * draw(st.floats(1e-6, 1.0))
    return demands, usage, capacities


@settings(max_examples=200, deadline=None)
@given(slack_problems())
def test_filler_grants_demands_when_every_link_has_slack(problem):
    """The engine's short-circuit is exact: when no link is loaded past
    ``cap * (1 - _SLACK)``, both filler backends return the demands
    bit for bit."""
    demands, usage, capacities = problem
    load = demands @ usage.astype(np.float64)
    # Scaling rounds, so the tightest link can land an ulp past the limit.
    assume((load <= capacities * (1.0 - _SLACK)).all())
    filler = _ProgressiveFiller(usage, capacities)
    assert filler._allocate_numpy(demands).tobytes() == demands.tobytes()
    assert allocate_python(filler, demands).tobytes() == demands.tobytes()


@settings(max_examples=100, deadline=None)
@given(slack_problems())
def test_filler_boundary_loads_match_the_scalar_reference(problem):
    """A link loaded exactly to capacity, or one ulp past it, fails the
    short-circuit test, and the filler it falls to still matches the
    scalar reference bit for bit."""
    demands, usage, capacities = problem
    load = demands @ usage.astype(np.float64)
    assume((load > 0.0).any())
    tight = int(np.argmax(load))
    for cap in (load[tight], np.nextafter(load[tight], 0.0)):
        caps = capacities.copy()
        caps[tight] = cap
        assert not (load <= caps * (1.0 - _SLACK)).all()
        filler = _ProgressiveFiller(usage, caps)
        assert (filler._allocate_numpy(demands).tobytes()
                == allocate_python(filler, demands).tobytes())


def test_fluid_split_algorithm_groups_match_one_group():
    """Classes split across two congestion-control groups that do the
    same arithmetic give byte-equal results to a single group: the
    per-group gather and scatter of the window update changes no bit.
    The algorithm follows the source host, so the flows fall into the
    same classes either way."""
    from repro.tcp import Reno

    class TwinReno(Reno):
        """Reno under another type, hence another group key."""

    topo = chain_topology(rate_gbps=1.0)
    specs = make_specs(24, 2, 20.0, 0.02)

    def run(algorithm):
        sim = MultiFlowSimulation(topo, specs, backend="fluid",
                                  algorithm=algorithm)
        sim.run()
        return sim.fluid_result

    one = run(None)
    two = run({s.label: TwinReno() if int(s.src[3:]) % 2 else Reno()
               for s in specs})
    assert (one.ticks, one.now_s, one.samples) == (
        two.ticks, two.now_s, two.samples)
    for name in ("delivered_bits", "finish_s", "queues_bits",
                 "class_delivered_bits", "class_population"):
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes()


def test_fluid_same_tick_births_unbounded_and_capped_members():
    """Members of one class born on the same tick, unbounded members
    under ``until=``, and rate-capped classes: bytes are conserved,
    every bounded member completes with exactly its size, unbounded
    members never finish, and capped members stay under their cap."""
    topo = chain_topology()
    specs = []
    for i in range(96):
        # Two classes of flows (capped or not) of 48 members, born in
        # two waves of 24: every one of the 8 phase shards per class
        # takes 3 births on the same tick.  Both have unbounded members.
        capped = i % 2 == 1
        specs.append(FlowSpec(
            src="src0", dst="dst0",
            size=None if i % 12 >= 10 else MB(2 + i % 5),
            start=seconds(0.0 if i < 48 else 0.3),
            parallel_streams=2,
            rate_limit=Gbps(0.5) if capped else None,
            label=f"f{i}"))
    horizon = seconds(4)
    sim = MultiFlowSimulation(topo, specs, backend="fluid")
    progress = sim.run(until=horizon)
    result = sim.fluid_result
    np.testing.assert_allclose(result.delivered_bits.sum(),
                               result.class_delivered_bits.sum(), rtol=1e-9)
    for spec in specs:
        prog = progress[spec.label]
        assert prog.started
        if spec.size is None:
            assert prog.finish_time is None
            assert prog.delivered.bits > 0.0
        else:
            assert prog.finish_time is not None
            np.testing.assert_allclose(prog.delivered.bits, spec.size.bits,
                                       rtol=1e-9)
        if spec.rate_limit is not None:
            end = prog.finish_time or horizon
            assert (prog.delivered.bits
                    <= spec.rate_limit.bps * (end.s - spec.start.s)
                    * (1 + 1e-9))


def test_fluid_rerun_matches_fresh_run():
    """Every tier is one-shot: a second run() re-simulates from t=0, so
    its progress must equal a fresh simulation's, with nothing left over
    from the longer first run.  Hybrid takes the fluid tier with
    switchover=1 and the exact one with an unreachable switchover; the
    exact tier also reports loss counts, time series and queues, which
    must start over too."""
    topo = wan_backbone(12)
    specs = traffic_matrix([f"site{i}" for i in range(12)], n_flows=400,
                           rng=np.random.default_rng(1), mean_size=MB(8),
                           arrival_window=seconds(3)).specs()

    def sim(switchover):
        return MultiFlowSimulation(topo, specs, backend="hybrid",
                                   switchover=switchover)

    for engine, switchover in (("fluid", 1), ("exact", 10**9)):
        rerun = sim(switchover)
        assert rerun.backend == engine
        rerun.run(until=seconds(10))
        again = rerun.run(until=seconds(0.5))
        first = sim(switchover)
        fresh = first.run(until=seconds(0.5))
        assert 0 < sum(p.done for p in fresh.values()) < len(specs)
        assert sum(p.started for p in fresh.values()) < len(specs)
        for label, prog in fresh.items():
            other = again[label]
            assert (other.started, other.delivered, other.finish_time) == (
                prog.started, prog.delivered, prog.finish_time), label
        if engine == "exact":
            assert rerun.finished_at == first.finished_at
            assert rerun._queues.tobytes() == first._queues.tobytes()
            for label, prog in fresh.items():
                other = again[label]
                assert (other.loss_events, other.time_series) == (
                    prog.loss_events, prog.time_series), label


def test_exact_rerun_matches_fresh_run_under_congestion():
    """The exact tier's one-shot contract where it bites: a first run
    stopped at 0.2 s, with both link queues near their buffer and after
    loss events, then a second run, must report exactly what a fresh
    run does (finish clock, time series, loss counts, queues and
    per-stream state).  The large initial window overloads the links
    from the first tick, so a queue carried over from the first run
    would change when the second one loses."""
    from repro.netsim.node import Router

    topo = Topology("rerun")
    topo.add_host("a", nic_rate=Gbps(10))
    topo.add_host("b", nic_rate=Gbps(10))
    topo.add_node(Router(name="r"))
    topo.connect("a", "r", Link(rate=Gbps(1), delay=ms(5)))
    topo.connect("r", "b", Link(rate=Gbps(1), delay=ms(5)))
    specs = [FlowSpec(src="a", dst="b", size=MB(400), parallel_streams=2,
                      label="f")]

    def sim():
        return MultiFlowSimulation(topo, specs, backend="exact",
                                   initial_cwnd=100)

    rerun = sim()
    first = rerun.run(until=seconds(0.2))["f"]
    assert first.loss_events > 0 and (rerun._queues > 0.0).all()
    again = rerun.run(until=seconds(1))["f"]
    fresh_sim = sim()
    fresh = fresh_sim.run(until=seconds(1))["f"]
    assert rerun.finished_at == fresh_sim.finished_at
    assert fresh_sim.finished_at.s == pytest.approx(1.005)
    assert [t for t, _ in fresh.time_series] == pytest.approx([0.01005])
    assert (again.started, again.delivered, again.finish_time,
            again.loss_events, again.time_series) == (
        fresh.started, fresh.delivered, fresh.finish_time,
        fresh.loss_events, fresh.time_series)
    assert rerun._queues.tobytes() == fresh_sim._queues.tobytes()
    for name, values in fresh_sim.stream_state.items():
        assert rerun.stream_state[name].tobytes() == values.tobytes(), name


def test_hybrid_custom_switchover():
    topo = chain_topology()
    sim = MultiFlowSimulation(topo, make_specs(4, 4, 1.0, 0.0),
                              backend="hybrid", switchover=16)
    assert sim.backend == "fluid"
    sim = MultiFlowSimulation(topo, make_specs(4, 4, 1.0, 0.0),
                              backend="hybrid", switchover=17)
    assert sim.backend == "exact"


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
    """Unknown names fail, and so do the retired ``numpy`` / ``python``
    ones: there is no alias for either."""
    from repro.experiment import RunContext
    for name in ("cuda", "numpy", "python"):
        with pytest.raises(ConfigurationError,
                           match="known: exact, fluid, hybrid"):
            RunContext(backend=name)


def test_run_context_from_env_honors_repro_backend(monkeypatch):
    from repro.experiment import RunContext
    monkeypatch.setenv("REPRO_BACKEND", "fluid")
    ctx = RunContext.from_env()
    assert ctx.backend == "fluid"
    assert ctx.resolved_backend() == "fluid"
    for name in ("not-a-backend", "numpy", "python"):
        monkeypatch.setenv("REPRO_BACKEND", name)
        with pytest.raises(ConfigurationError,
                           match="known: exact, fluid, hybrid"):
            RunContext.from_env()


def test_cli_invalid_repro_backend_is_exit_2(monkeypatch, capsys):
    from repro import cli
    for name in ("not-a-backend", "numpy", "python"):
        monkeypatch.setenv("REPRO_BACKEND", name)
        code = cli.main(["designs"])
        assert code == cli.EXIT_BAD_INPUT, name
        err = capsys.readouterr().err
        assert f"unknown simulation backend {name!r}" in err
        assert "known: exact, fluid, hybrid" in err


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
    ctx = RunContext(backend="exact", artifacts=tmp_path)
    result = run_experiment(spec, ctx)
    assert result.manifest.backend == "exact"
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["run"]["backend"] == "exact"
