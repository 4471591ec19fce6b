"""Synchronized multi-flow TCP simulation over a shared topology.

Single connections are handled by :class:`repro.tcp.connection.TcpConnection`;
this module simulates *competing* flows — the supercomputer-center and
big-data-site experiments need many DTN streams sharing links, and the
fan-out/fan-in campus stories need science flows competing with enterprise
background traffic.

Model: a fluid tick loop.  Each tick

1. every active flow offers ``window/RTT``;
2. link bandwidth is divided max-min fairly among the flows crossing it;
3. links whose offered load exceeds capacity grow a virtual queue; when a
   queue overflows its buffer, flows crossing that link suffer a loss event
   with probability proportional to their share of the overload;
4. per-packet random loss on each flow's path contributes stochastic loss
   events;
5. each flow advances its own RTT clock and applies congestion control once
   per RTT.

The approximation is standard fluid-model fare: it will not reproduce
packet-level synchronization artifacts, but it preserves the relationships
the paper's experiments rely on (who wins, how throughput scales with flow
count and buffering, how badly loss hurts at high RTT).

Backends
--------
The tick loop exists twice:

* ``backend="numpy"`` (default) keeps all stream state as flat
  struct-of-arrays (cwnd/ssthresh/rtt-clock/remaining-bits indexed by a
  flow map) and advances every stream per tick with array ops.  This is
  the production path — the many-flow paper scenarios are one to two
  orders of magnitude faster on it.
* ``backend="python"`` is the scalar reference: one
  :class:`_StreamState` object per stream, a plain per-stream loop.

Both backends are **bit-identical**: random variates are drawn in the
exact per-flow, per-stream order of the scalar loop (a single
``Generator.random(n)`` call consumes the PCG64 stream exactly like *n*
scalar calls), per-flow reductions use sequential-accumulation numpy
primitives (``np.bincount``), and transcendental arithmetic is routed
through numpy's array loops on both paths (SIMD ``**`` can differ from
libm's scalar ``pow`` in the last bit).  ``tests/test_vectorized_equivalence``
asserts the equivalence property over random topologies, seeds and
stream counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..netsim.flow import FlowSpec
from ..netsim.link import Link
from ..netsim.topology import PathProfile, Topology
from ..units import DataRate, DataSize, TimeDelta, bits, seconds
from ..vectorize import (SIM_BACKENDS, SIM_ENGINES, exact_backend,
                         pow_elementwise, resolve_backend, resolve_engine)
from .congestion import (CongestionControl, Reno, algorithm_by_name,
                         algorithm_key)

__all__ = ["FlowProgress", "MultiFlowSimulation", "max_min_fair_allocation",
           "SIM_BACKENDS", "SIM_ENGINES"]


class _ProgressiveFiller:
    """Progressive-filling max-min allocator for a fixed (usage, capacities).

    The flow/link incidence never changes across a simulation, so the
    structural work — ``np.nonzero`` of the usage matrix and the link
    count of each flow — is done once here.

    Both backends walk the same round structure: each round either
    freezes every flow whose demand fits under its fair-share limit, or,
    when none does, saturates the tightest link and freezes the flows
    crossing it.  They differ only in how each round's per-flow limits
    and per-link capacity deltas are evaluated.

    Infinite-capacity links never constrain a flow, so they are dropped
    from the incidence, and a flow that crosses no remaining link is
    *unconstrained*: it is granted its full demand (even an infinite
    one) outside the filling rounds.  This keeps ``inf - inf`` out of
    the headroom and remaining-capacity arithmetic.  NaN or negative
    capacities are rejected here, and NaN demands by :meth:`allocate`.

    The numpy backend works on the *live* set only: flows with demand
    > 0 that cross at least one finite link, plus their incidence
    entries in row-major (flow) order.  Two invariants hold:

    * every live flow crosses at least one finite link, and every link
      it crosses carries at least one live flow (itself), so its limit
      is a finite fair share and no round runs out of links to fill;
    * each round freezes at least one flow (the one with the smallest
      limit, if no flow is satisfied), and frozen flows leave the live
      set, so the loop runs at most once per live flow.

    Bit-identity with the scalar reference: per-flow limits are plain
    minima (order-independent and exact); per-link deltas are
    accumulated in flow order via ``np.bincount``, matching the scalar
    loop's association.  Flows outside the live set would only add
    ``+0.0`` to those sequential sums, which is exact, so leaving them
    out changes no bit.
    """

    def __init__(self, usage: np.ndarray, capacities: np.ndarray) -> None:
        usage = np.asarray(usage, dtype=bool)
        capacities = np.asarray(capacities, dtype=np.float64)
        self.n_flows, self.n_links = usage.shape
        if capacities.shape != (self.n_links,):
            raise ConfigurationError("max_min_fair_allocation: shape mismatch")
        if not (capacities >= 0.0).all():
            raise ConfigurationError(
                "max_min_fair_allocation: capacities must be non-negative "
                "numbers (got NaN or a negative value)")
        usage = usage & ~np.isposinf(capacities)
        self.usage = usage
        self.capacities = capacities
        self._flat_cols = np.nonzero(usage)[1]
        self._counts = usage.sum(axis=1)
        self._unconstrained = self._counts == 0

    def allocate(self, demands: np.ndarray,
                 backend: str = "numpy") -> np.ndarray:
        demands = np.asarray(demands, dtype=np.float64)
        if demands.shape != (self.n_flows,):
            raise ConfigurationError("max_min_fair_allocation: shape mismatch")
        if np.isnan(demands).any():
            raise ConfigurationError("max_min_fair_allocation: NaN demand")
        if backend == "numpy":
            return self._allocate_numpy(demands)
        return self._allocate_python(demands)

    def _allocate_numpy(self, demands: np.ndarray) -> np.ndarray:
        n_links = self.n_links
        alloc = np.zeros(self.n_flows)
        live = (demands > 0.0) & ~self._unconstrained
        ids = np.nonzero(live)[0]
        cols = self._flat_cols[np.repeat(live, self._counts)]
        counts = self._counts[ids]
        # A live flow's allocation is still zero, so its headroom is its
        # whole demand.
        want = demands[ids]
        remaining_cap = self.capacities.copy()
        # Live-flow count per link, maintained incrementally (the counts
        # are small exact integers, so float bookkeeping is lossless).
        apl = np.bincount(cols, minlength=n_links).astype(np.float64)
        while ids.size:
            # Fair share on each link among its live flows; each flow is
            # limited by the tightest link it crosses (a segmented min).
            share = remaining_cap / np.maximum(apl, 1.0)
            limit = np.minimum.reduceat(share[cols],
                                        np.cumsum(counts) - counts)
            # Flows whose demand is below their limit are satisfied;
            # freeze them and recompute shares with the released capacity.
            freeze = want <= limit + 1e-9
            saturate = not freeze.any()
            if saturate:
                # Saturate the tightest link only: a flow crosses it
                # exactly when its own limit is the smallest share.
                freeze = limit <= limit.min() + 1e-9
                taken = limit[freeze]
            else:
                taken = want[freeze]
            alloc[ids[freeze]] += taken
            if freeze.all():
                break
            hit = np.repeat(freeze, counts)
            hit_cols = cols[hit]
            remaining_cap = remaining_cap - np.bincount(
                hit_cols, weights=np.repeat(taken, counts[freeze]),
                minlength=n_links)
            if saturate:
                remaining_cap = np.maximum(remaining_cap, 0.0)
            apl -= np.bincount(hit_cols, minlength=n_links)
            keep = ~freeze
            ids, counts, want, cols = (ids[keep], counts[keep], want[keep],
                                       cols[~hit])
        return self._finish(alloc, demands)

    def _finish(self, alloc: np.ndarray, demands: np.ndarray) -> np.ndarray:
        """Cap allocations at demand; unconstrained flows get their demand."""
        return np.where(self._unconstrained, demands,
                        np.minimum(alloc, demands))

    def _allocate_python(self, demands: np.ndarray) -> np.ndarray:
        """Scalar reference: per-flow loops for limits and capacity deltas."""
        usage = self.usage
        n_flows, n_links = self.n_flows, self.n_links
        alloc = np.zeros(n_flows)
        frozen = (demands <= 0) | self._unconstrained
        remaining_cap = self.capacities.copy()
        for _ in range(n_flows + n_links + 1):
            active = ~frozen
            if not active.any():
                break
            active_per_link = usage[active].sum(axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                share = np.where(
                    active_per_link > 0,
                    remaining_cap / np.maximum(active_per_link, 1),
                    np.inf,
                )
            limit = np.full(n_flows, np.inf)
            for f in range(n_flows):
                links = usage[f]
                if links.any():
                    limit[f] = share[links].min()
            headroom = demands - alloc
            satisfied = active & (headroom <= limit + 1e-9)
            if satisfied.any():
                grant = headroom[satisfied]
                alloc[satisfied] += grant
                released = np.zeros(n_links)
                for f, g in zip(np.nonzero(satisfied)[0], grant):
                    for link in np.nonzero(usage[f])[0]:
                        released[link] += g
                remaining_cap = remaining_cap - released
                frozen |= satisfied
                continue
            finite_links = share[active_per_link > 0]
            if finite_links.size == 0 or not np.isfinite(finite_links).any():
                alloc[active] = demands[active]
                break
            min_share = finite_links[np.isfinite(finite_links)].min()
            bottleneck_links = ((active_per_link > 0)
                                & (share <= min_share + 1e-9))
            to_freeze = active & usage[:, bottleneck_links].any(axis=1)
            taken = np.zeros(n_links)
            for f in np.nonzero(to_freeze)[0]:
                alloc[f] += limit[f]
                for link in np.nonzero(usage[f])[0]:
                    taken[link] += limit[f]
            remaining_cap = remaining_cap - taken
            remaining_cap = np.maximum(remaining_cap, 0.0)
            frozen |= to_freeze
        return self._finish(alloc, demands)


def max_min_fair_allocation(
    demands: np.ndarray,
    usage: np.ndarray,
    capacities: np.ndarray,
    *,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Max-min fair rates for flows over shared links.

    Parameters
    ----------
    demands:
        Shape (F,) — each flow's offered rate (bps).
    usage:
        Shape (F, L) boolean — flow f crosses link l.
    capacities:
        Shape (L,) — link capacities (bps).
    backend:
        ``"numpy"`` computes each round's per-flow limits and capacity
        releases with masked matrix ops; ``"python"`` is the per-flow
        scalar reference.  Both are bit-identical.  None (default)
        resolves through :func:`repro.vectorize.default_backend`.

    Returns
    -------
    Shape (F,) allocated rates; each flow gets at most its demand and links
    are never oversubscribed.  Classic progressive-filling algorithm.

    Raises
    ------
    ConfigurationError
        On mismatched shapes, a NaN or negative capacity, or a NaN demand.

    Callers allocating repeatedly over a fixed topology (the multi-flow
    tick loop) hold a :class:`_ProgressiveFiller` instead, which hoists
    the structural precomputation out of the per-tick call.
    """
    backend = resolve_backend(backend)
    return _ProgressiveFiller(usage, capacities).allocate(demands, backend)


@dataclass
class FlowProgress:
    """Per-flow outcome of a multi-flow simulation."""

    spec: FlowSpec
    delivered: DataSize = bits(0)
    finish_time: Optional[TimeDelta] = None
    loss_events: int = 0
    started: bool = False
    time_series: List[Tuple[float, float]] = field(default_factory=list)
    # (time_s, rate_bps) decimated samples; a flow that finishes
    # mid-interval appends one final sample at its finish time carrying
    # the final tick's allocation, so consumers integrating the series
    # never extrapolate a stale boundary rate over the last partial
    # interval.

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    def mean_throughput(self, now: TimeDelta) -> DataRate:
        end = self.finish_time.s if self.finish_time else now.s
        start = self.spec.start.s
        dur = max(end - start, 1e-12)
        return DataRate(self.delivered.bits / dur)


class _StreamState:
    """Congestion state of one TCP stream inside a flow."""

    __slots__ = ("cwnd", "ssthresh", "time_since_loss", "rtt_clock",
                 "loss_flag", "delivered_bits", "remaining_bits")

    def __init__(self, initial_cwnd: float, remaining_bits: Optional[float]):
        self.cwnd = initial_cwnd
        self.ssthresh = float("inf")
        self.time_since_loss = 0.0
        self.rtt_clock = 0.0
        self.loss_flag = False
        self.delivered_bits = 0.0
        self.remaining_bits = remaining_bits


class MultiFlowSimulation:
    """Run a set of :class:`FlowSpec` demands over a topology.

    Parameters
    ----------
    topology:
        The network.
    specs:
        Flow demands.  Labels must be unique and non-empty.
    rng:
        Required for stochastic loss; deterministic paths may omit it.
    algorithm:
        Congestion control shared by all flows, or a dict
        ``{label: algorithm}`` for per-flow choices.
    buffer_rtt_fraction:
        Virtual-queue depth per link, in units of that link's
        capacity x 100 ms (approximating "one WAN RTT of buffer").
    backend:
        ``"numpy"`` — vectorized struct-of-arrays tick loop;
        ``"python"`` — the scalar per-stream reference loop.  Both
        produce bit-identical results (see the module docstring).
        ``"fluid"`` — the approximate :mod:`repro.fluid` mean-field
        engine (flow-class population dynamics; scales to 100k+ flows).
        ``"hybrid"`` — dispatch on population: below ``switchover``
        total streams the exact kernels run (byte-for-byte identical to
        selecting them directly), at or above it the fluid engine does.
        None (default) resolves through
        :func:`repro.vectorize.default_backend`.
    switchover:
        Stream-population threshold for ``backend="hybrid"``; defaults
        to :data:`repro.fluid.DEFAULT_SWITCHOVER`.  Ignored by the
        other backends.
    """

    def __init__(
        self,
        topology: Topology,
        specs: Sequence[FlowSpec],
        *,
        rng: Optional[np.random.Generator] = None,
        algorithm=None,
        buffer_rtt_fraction: float = 1.0,
        initial_cwnd: float = 10.0,
        backend: Optional[str] = None,
        switchover: Optional[int] = None,
    ) -> None:
        if not specs:
            raise ConfigurationError("MultiFlowSimulation needs at least one flow")
        labels = [s.label or f"flow{i}" for i, s in enumerate(specs)]
        if len(set(labels)) != len(labels):
            raise ConfigurationError("flow labels must be unique")
        engine = resolve_engine(backend)
        if engine == "hybrid":
            from ..fluid.engine import DEFAULT_SWITCHOVER
            threshold = (DEFAULT_SWITCHOVER if switchover is None
                         else int(switchover))
            population = sum(s.parallel_streams for s in specs)
            # Below the threshold, fall to the *exact* tier — honoring a
            # scalar-reference default so hybrid stays bit-identical to
            # whichever exact backend the caller would otherwise get.
            engine = "fluid" if population >= threshold else exact_backend(None)
        self.backend = engine
        self.topology = topology
        self._rng = rng
        self._buffer_frac = buffer_rtt_fraction
        self._initial_cwnd = initial_cwnd

        self._labels = labels
        self._specs = list(specs)
        self._algos: List[CongestionControl] = []
        # Algorithms are stateless by contract, so flows without an
        # explicit choice share one instance.
        default_algo = Reno()
        # Path lookups are cached per (src, dst, policy): a traffic
        # matrix carries O(sites^2) distinct pairs but may name 100k+
        # flows, and per-flow shortest-path work would dominate setup.
        # The link inventory is registered in first-encounter order, the
        # same order the uncached per-flow walk produced.  Each distinct
        # profile is kept once in ``_path_profiles``; ``_profile_index``
        # maps every flow to its entry there.
        path_cache: Dict[object, Tuple[PathProfile, Tuple[int, ...], int]] = {}
        self._path_profiles: List[PathProfile] = []
        profile_index: List[int] = []
        link_ids: Dict[int, int] = {}
        self._links: List[Link] = []
        self._flow_links: List[Tuple[int, ...]] = []
        for label, spec in zip(labels, self._specs):
            try:
                key = (spec.src, spec.dst, tuple(sorted(spec.policy.items())))
                hash(key)
            except TypeError:
                key = (spec.src, spec.dst, repr(sorted(spec.policy.items())))
            cached = path_cache.get(key)
            if cached is None:
                path = topology.path(spec.src, spec.dst, **spec.policy)
                profile = topology.profile(path)
                for link in path.links:
                    if id(link) not in link_ids:
                        link_ids[id(link)] = len(self._links)
                        self._links.append(link)
                links = tuple(link_ids[id(link)] for link in path.links)
                cached = path_cache[key] = (profile, links,
                                            len(self._path_profiles))
                self._path_profiles.append(profile)
            profile, links, at = cached
            self._flow_links.append(links)
            profile_index.append(at)
            if isinstance(algorithm, dict):
                algo = algorithm.get(label, default_algo)
            elif algorithm is None:
                algo = default_algo
            else:
                algo = algorithm
            if isinstance(algo, str):
                algo = algorithm_by_name(algo)
            self._algos.append(algo)
            if profile.random_loss > 0 and rng is None \
                    and self.backend != "fluid":
                raise ConfigurationError(
                    f"flow {label!r} crosses a lossy path; rng is required"
                )

        self._profile_index = np.array(profile_index, dtype=np.int64)
        n_flows, n_links = len(specs), len(self._links)
        self._capacities = np.array([l.rate.bps for l in self._links])
        self._queues = np.zeros(n_links)
        self._buffers = self._capacities * 0.1 * buffer_rtt_fraction  # bits

        self.progress: Dict[str, FlowProgress] = {
            label: FlowProgress(spec=spec)
            for label, spec in zip(labels, self._specs)
        }
        if self.backend == "fluid":
            # The fluid engine keeps incidence and congestion state at
            # class granularity; the per-flow usage matrix, allocator and
            # stream objects would cost O(flows) for nothing.
            self._usage = None
            self._filler = None
            self._streams = []
            return
        self._usage = np.zeros((n_flows, n_links), dtype=bool)
        for f, links in enumerate(self._flow_links):
            self._usage[f, list(links)] = True
        self._filler = _ProgressiveFiller(self._usage, self._capacities)

        # One stream state per parallel stream of each flow.
        self._streams = []
        for spec in self._specs:
            per = spec.per_stream_size()
            self._streams.append([
                _StreamState(initial_cwnd, per.bits if per else None)
                for _ in range(spec.parallel_streams)
            ])

    # ---------------------------------------------------------------------------
    def run(
        self,
        *,
        until: Optional[TimeDelta] = None,
        max_ticks: int = 2_000_000,
        sample_interval: TimeDelta = seconds(1.0),
    ) -> Dict[str, FlowProgress]:
        """Advance until all sized flows finish (or ``until`` elapses)."""
        if until is None and all(s.size is None for s in self._specs):
            raise ConfigurationError(
                "all flows are unbounded; an explicit until= horizon is required"
            )
        # Path parameters are computed once per distinct profile, then
        # gathered per flow.
        profiles, at = self._path_profiles, self._profile_index
        rtts = np.array([max(p.base_rtt.s, 1e-6) for p in profiles])
        mss_bits = np.array([p.flow.mss.bits for p in profiles])
        rwnd_pkts = np.array([
            max(1.0, p.flow.effective_receive_window().bits / m)
            for p, m in zip(profiles, mss_bits)
        ])[at]
        loss_p = np.array([p.random_loss for p in profiles])[at]
        rtts, mss_bits = rtts[at], mss_bits[at]
        dt = float(min(rtts.min() / 2.0, 0.05))
        horizon = until.s if until is not None else float("inf")
        rate_caps = np.array([
            (s.rate_limit.bps if s.rate_limit else np.inf) for s in self._specs
        ])
        if self.backend == "fluid":
            now = self._run_fluid(
                until, max_ticks, sample_interval, rtts=rtts, dt=dt,
                horizon=horizon, mss_bits=mss_bits, rwnd_pkts=rwnd_pkts,
                loss_p=loss_p, rate_caps=rate_caps)
            self.finished_at = seconds(now)
            return self.progress
        if self.backend == "numpy":
            now = self._run_numpy(
                until, max_ticks, sample_interval, rtts=rtts, dt=dt,
                horizon=horizon, mss_bits=mss_bits, rwnd_pkts=rwnd_pkts,
                loss_p=loss_p, rate_caps=rate_caps)
        else:
            now = self._run_python(
                until, max_ticks, sample_interval, rtts=rtts, dt=dt,
                horizon=horizon, mss_bits=mss_bits, rwnd_pkts=rwnd_pkts,
                loss_p=loss_p, rate_caps=rate_caps)

        # A flow's delivered total is the sum of its streams' counters,
        # accumulated in stream order (both backends share this
        # association; `np.bincount` in the vectorized path accumulates
        # sequentially exactly like this loop).
        for label, streams in zip(self._labels, self._streams):
            prog = self.progress[label]
            prog.delivered = bits(sum(st.delivered_bits for st in streams))
        self.finished_at = seconds(now)
        return self.progress

    # -- mean-field loop --------------------------------------------------------
    def _run_fluid(
        self,
        until: Optional[TimeDelta],
        max_ticks: int,
        sample_interval: TimeDelta,
        *,
        rtts: np.ndarray,
        dt: float,
        horizon: float,
        mss_bits: np.ndarray,
        rwnd_pkts: np.ndarray,
        loss_p: np.ndarray,
        rate_caps: np.ndarray,
    ) -> float:
        """Delegate to the :mod:`repro.fluid` mean-field engine.

        One-shot (each call re-simulates from t=0) and approximate:
        delivered totals and finish times land in ``progress`` like the
        exact backends', but per-flow loss counts and time series are
        not produced — class-level aggregates live on ``fluid_result``.
        Every call overwrites ``started``, ``delivered`` and
        ``finish_time`` (None while unfinished), so a rerun reports the
        new run alone.
        """
        from ..fluid import (DEFAULT_PHASE_SHARDS, FluidEngine,
                             build_flow_classes)
        classes = build_flow_classes(
            self._specs, self._flow_links, self._algos, rtts=rtts,
            mss_bits=mss_bits, rwnd_pkts=rwnd_pkts, loss_p=loss_p,
            rate_caps=rate_caps, n_shards=DEFAULT_PHASE_SHARDS)
        engine = FluidEngine(classes, self._capacities, self._buffers,
                             initial_cwnd=self._initial_cwnd, dt_s=dt,
                             deterministic_loss=self._rng is None)
        result = engine.run(horizon_s=horizon,
                            until_given=until is not None,
                            max_ticks=max_ticks,
                            sample_interval_s=sample_interval.s)
        self.fluid_result = result
        self._queues = result.queues_bits
        for label, started, delivered, finish in zip(
                self._labels, result.started.tolist(),
                result.delivered_bits.tolist(), result.finish_s.tolist()):
            prog = self.progress[label]
            prog.started = started
            prog.delivered = bits(delivered)
            prog.finish_time = (seconds(finish) if math.isfinite(finish)
                                else None)
        return result.now_s

    # -- scalar reference loop -------------------------------------------------
    def _run_python(
        self,
        until: Optional[TimeDelta],
        max_ticks: int,
        sample_interval: TimeDelta,
        *,
        rtts: np.ndarray,
        dt: float,
        horizon: float,
        mss_bits: np.ndarray,
        rwnd_pkts: np.ndarray,
        loss_p: np.ndarray,
        rate_caps: np.ndarray,
    ) -> float:
        now = 0.0
        next_sample = 0.0
        rng = self._rng
        n_flows = len(self._specs)

        for tick in range(max_ticks):
            if now >= horizon:
                break
            active_any = False
            demands = np.zeros(n_flows)
            for f, (spec, streams) in enumerate(zip(self._specs, self._streams)):
                prog = self.progress[self._labels[f]]
                if prog.done or now < spec.start.s:
                    continue
                prog.started = True
                active_any = True
                demand = sum(
                    min(st.cwnd, rwnd_pkts[f]) * mss_bits[f] / rtts[f]
                    for st in streams
                    if st.remaining_bits is None or st.remaining_bits > 0
                )
                demands[f] = min(demand, rate_caps[f])
            if not active_any:
                # Flows scheduled in the future? Jump the clock to the next
                # start rather than ending the simulation early.
                pending = [
                    spec.start.s
                    for label, spec in zip(self._labels, self._specs)
                    if not self.progress[label].done and spec.start.s > now
                ]
                if pending:
                    now = min(min(pending), horizon)
                    continue
                if until is None:
                    break
                now = min(horizon, now + dt)
                continue

            alloc = self._filler.allocate(demands, backend="python")

            overflowing = self._advance_queues(demands, dt)

            # Loss events: congestion overflow + random path loss.
            for f in range(n_flows):
                label = self._labels[f]
                prog = self.progress[label]
                if prog.done or demands[f] <= 0:
                    continue
                streams = self._streams[f]
                live = [st for st in streams
                        if st.remaining_bits is None or st.remaining_bits > 0]
                if not live:
                    continue
                rate_per_stream = alloc[f] / len(live)
                congested = bool((self._usage[f] & overflowing).any())
                for st in live:
                    got = rate_per_stream * dt
                    if st.remaining_bits is not None:
                        got = min(got, st.remaining_bits)
                        st.remaining_bits -= got
                    st.delivered_bits += got
                    if congested and rng is not None:
                        # Probability scaled by the flow's share of overload.
                        if rng.random() < min(1.0, dt / rtts[f]):
                            st.loss_flag = True
                    elif congested:
                        st.loss_flag = True
                    if loss_p[f] > 0:
                        pkts = got / mss_bits[f]
                        p_evt = 1.0 - pow_elementwise(1.0 - loss_p[f], pkts)
                        if rng.random() < p_evt:
                            st.loss_flag = True

                    # Per-RTT congestion-control update.
                    st.rtt_clock += dt
                    st.time_since_loss += dt
                    if st.rtt_clock >= rtts[f]:
                        st.rtt_clock = 0.0
                        algo = self._algos[f]
                        if st.loss_flag:
                            st.loss_flag = False
                            prog.loss_events += 1
                            # Reduce from what was actually in flight
                            # (RFC 2861), not an inflated cwnd.
                            inflight = min(st.cwnd, rwnd_pkts[f])
                            st.cwnd = float(algo.on_loss_batch(
                                np.array([inflight]),
                                np.array([rtts[f]]),
                                np.array([rtts[f]]))[0])
                            st.ssthresh = st.cwnd
                            st.time_since_loss = 0.0
                        elif st.cwnd < st.ssthresh:
                            st.cwnd = min(st.cwnd * algo.slow_start_factor,
                                          rwnd_pkts[f] * 1.25)
                        elif st.cwnd <= rwnd_pkts[f]:
                            grow = float(algo.increase_batch(
                                np.array([st.cwnd]),
                                np.array([st.time_since_loss]),
                                np.array([rtts[f]]))[0])
                            st.cwnd = min(st.cwnd + grow,
                                          rwnd_pkts[f] * 1.25)

                if all(st.remaining_bits is not None and st.remaining_bits <= 0
                       for st in streams):
                    prog.finish_time = seconds(now + dt)
                    # Final-tick sample: close the series at the finish
                    # time so the last partial interval is not silently
                    # extrapolated from the previous sample boundary.
                    if prog.started:
                        prog.time_series.append((now + dt, float(alloc[f])))

            now += dt
            if now >= next_sample:
                next_sample = now + sample_interval.s
                for f, label in enumerate(self._labels):
                    prog = self.progress[label]
                    if prog.started and not prog.done:
                        prog.time_series.append((now, float(alloc[f])))
        else:
            raise SimulationError(
                f"multi-flow simulation did not settle within {max_ticks} ticks"
            )
        return now

    # -- vectorized loop -------------------------------------------------------
    def _run_numpy(
        self,
        until: Optional[TimeDelta],
        max_ticks: int,
        sample_interval: TimeDelta,
        *,
        rtts: np.ndarray,
        dt: float,
        horizon: float,
        mss_bits: np.ndarray,
        rwnd_pkts: np.ndarray,
        loss_p: np.ndarray,
        rate_caps: np.ndarray,
    ) -> float:
        rng = self._rng
        has_rng = rng is not None
        n_flows = len(self._specs)
        usage = self._usage

        # Struct-of-arrays stream state, flow-major like self._streams.
        k = np.array([s.parallel_streams for s in self._specs], dtype=np.int64)
        flow_of = np.repeat(np.arange(n_flows, dtype=np.int64), k)
        n_streams = int(k.sum())
        flat = [st for streams in self._streams for st in streams]
        cwnd = np.array([st.cwnd for st in flat], dtype=np.float64)
        ssthresh = np.array([st.ssthresh for st in flat], dtype=np.float64)
        tsl = np.array([st.time_since_loss for st in flat], dtype=np.float64)
        rtt_clock = np.array([st.rtt_clock for st in flat], dtype=np.float64)
        loss_flag = np.array([st.loss_flag for st in flat], dtype=bool)
        delivered = np.array([st.delivered_bits for st in flat],
                             dtype=np.float64)
        bounded = np.array([st.remaining_bits is not None for st in flat],
                           dtype=bool)
        remaining = np.array([
            st.remaining_bits if st.remaining_bits is not None else np.inf
            for st in flat], dtype=np.float64)

        # Per-stream constants gathered once.
        mss_s = mss_bits[flow_of]
        rtt_s = rtts[flow_of]
        rwnd_s = rwnd_pkts[flow_of]
        rwnd_cap_s = rwnd_s * 1.25
        lossp_s = loss_p[flow_of]
        has_loss_s = lossp_s > 0.0
        cong_thresh_s = np.minimum(1.0, dt / rtt_s)

        # Per-flow bookkeeping mirrored from/into FlowProgress so repeated
        # run() calls resume exactly like the scalar backend.
        progresses = [self.progress[label] for label in self._labels]
        start_f = np.array([s.start.s for s in self._specs])
        done_f = np.array([p.done for p in progresses], dtype=bool)
        started_f = np.array([p.started for p in progresses], dtype=bool)
        loss_events_f = np.zeros(n_flows, dtype=np.int64)

        # Streams grouped by congestion-control *behaviour* for batch
        # updates: equal-keyed instances collapse into one group rather
        # than one per flow.
        groups: List[Tuple[CongestionControl, np.ndarray]] = []
        seen: Dict[object, int] = {}
        for f, algo in enumerate(self._algos):
            key = algorithm_key(algo)
            if key not in seen:
                seen[key] = len(groups)
                groups.append((algo, np.zeros(n_streams, dtype=bool)))
            groups[seen[key]][1][flow_of == f] = True

        now = 0.0
        next_sample = 0.0
        sample_s = sample_interval.s
        allocate = self._filler._allocate_numpy
        any_loss = bool(has_loss_s.any())
        single_algo = groups[0][0] if len(groups) == 1 else None
        n_finished_prev = int(np.count_nonzero(remaining <= 0.0))

        # Per-tick numpy traffic is kept to full-array elementwise ops:
        # masked streams ride along with zero weights/deltas, which is
        # exact because every partial sum and running counter here is
        # non-negative, so `x + 0.0 == x` and `x - 0.0 == x` bitwise.
        for tick in range(max_ticks):
            if now >= horizon:
                break
            active_f = ~done_f & (start_f <= now)
            if not active_f.any():
                pending = ~done_f & (start_f > now)
                if pending.any():
                    now = min(float(start_f[pending].min()), horizon)
                    continue
                if until is None:
                    break
                now = min(horizon, now + dt)
                continue
            started_f |= active_f

            live = remaining > 0.0
            ps = live & active_f[flow_of]
            dem_w = np.where(ps, np.minimum(cwnd, rwnd_s) * mss_s / rtt_s, 0.0)
            raw = np.bincount(flow_of, weights=dem_w, minlength=n_flows)
            demands = np.where(active_f, np.minimum(raw, rate_caps), 0.0)

            alloc = allocate(demands)
            overflowing = self._advance_queues(demands, dt)

            # n_live is a small exact integer per flow; float bookkeeping
            # is lossless and the scalar loop's ``alloc / len(live)``
            # divides by the same value bit-for-bit.
            n_live = np.bincount(flow_of, weights=live, minlength=n_flows)
            proc_f = active_f & (demands > 0.0) & (n_live > 0.0)
            if proc_f.any():
                rate_ps = np.where(proc_f, alloc / np.maximum(n_live, 1.0),
                                   0.0)
                ps &= proc_f[flow_of]
                got = np.where(ps, rate_ps[flow_of] * dt, 0.0)
                np.minimum(got, remaining, out=got)
                remaining -= got
                delivered += got

                # Random draws, consumed in the scalar loop's order: flows
                # ascending, streams in flow order, the congestion draw
                # before the path-loss draw within a stream.  A single
                # Generator.random(n) call consumes the PCG64 stream
                # identically to n scalar calls.
                cong_draw = None
                if overflowing.any():
                    congested_f = (usage & overflowing[None, :]).any(axis=1)
                    cong_s = ps & congested_f[flow_of]
                    if has_rng:
                        cong_draw = cong_s
                    else:
                        loss_flag |= cong_s
                n_cong = (int(np.count_nonzero(cong_draw))
                          if cong_draw is not None else 0)
                loss_draw = (ps & has_loss_s) if any_loss else None
                n_loss = (int(np.count_nonzero(loss_draw))
                          if loss_draw is not None else 0)
                if n_cong and n_loss:
                    counts = cong_draw.astype(np.int64) + loss_draw
                    offsets = np.cumsum(counts) - counts
                    u = rng.random(n_cong + n_loss)
                    hit = u[offsets[cong_draw]] < cong_thresh_s[cong_draw]
                    loss_flag[np.nonzero(cong_draw)[0][hit]] = True
                    u_loss = u[offsets[loss_draw] + cong_draw[loss_draw]]
                    pkts = got[loss_draw] / mss_s[loss_draw]
                    p_evt = 1.0 - (1.0 - lossp_s[loss_draw]) ** pkts
                    hit = u_loss < p_evt
                    loss_flag[np.nonzero(loss_draw)[0][hit]] = True
                elif n_cong:
                    # Compressed draw order == stream order == scalar order.
                    hit = rng.random(n_cong) < cong_thresh_s[cong_draw]
                    loss_flag[np.nonzero(cong_draw)[0][hit]] = True
                elif n_loss:
                    pkts = got[loss_draw] / mss_s[loss_draw]
                    p_evt = 1.0 - (1.0 - lossp_s[loss_draw]) ** pkts
                    hit = rng.random(n_loss) < p_evt
                    loss_flag[np.nonzero(loss_draw)[0][hit]] = True

                # Per-RTT congestion-control updates, batched per algorithm.
                rtt_clock += ps * dt
                tsl += ps * dt
                upd = ps & (rtt_clock >= rtt_s)
                if upd.any():
                    rtt_clock[upd] = 0.0
                    lossy = upd & loss_flag
                    n_lossy = int(np.count_nonzero(lossy))
                    below = cwnd < ssthresh
                    if n_lossy:
                        grow = upd & ~lossy
                        ss = grow & below
                        ca = grow & ~below & (cwnd <= rwnd_s)
                        loss_flag[lossy] = False
                        loss_events_f += np.bincount(flow_of[lossy],
                                                     minlength=n_flows)
                        for algo, smask in groups:
                            sel = lossy & smask if len(groups) > 1 else lossy
                            if sel.any():
                                inflight = np.minimum(cwnd[sel], rwnd_s[sel])
                                new_cwnd = algo.on_loss_batch(
                                    inflight, rtt_s[sel], rtt_s[sel])
                                cwnd[sel] = new_cwnd
                                ssthresh[sel] = new_cwnd
                        tsl[lossy] = 0.0
                    else:
                        ss = upd & below
                        ca = upd & ~below & (cwnd <= rwnd_s)
                    if single_algo is not None:
                        # Full-array update: batch arithmetic is
                        # elementwise-consistent, so computing discarded
                        # lanes and selecting with np.where matches the
                        # gather/scatter form bit-for-bit.
                        algo = single_algo
                        cwnd = np.where(
                            ss,
                            np.minimum(cwnd * algo.slow_start_factor,
                                       rwnd_cap_s),
                            cwnd)
                        inc = algo.increase_batch(cwnd, tsl, rtt_s)
                        cwnd = np.where(
                            ca, np.minimum(cwnd + inc, rwnd_cap_s), cwnd)
                    else:
                        for algo, smask in groups:
                            sel = ss & smask
                            if sel.any():
                                cwnd[sel] = np.minimum(
                                    cwnd[sel] * algo.slow_start_factor,
                                    rwnd_cap_s[sel])
                            sel = ca & smask
                            if sel.any():
                                inc = algo.increase_batch(cwnd[sel], tsl[sel],
                                                          rtt_s[sel])
                                cwnd[sel] = np.minimum(cwnd[sel] + inc,
                                                       rwnd_cap_s[sel])

                fin = remaining <= 0.0
                n_finished = int(np.count_nonzero(fin))
                if n_finished != n_finished_prev:
                    n_finished_prev = n_finished
                    finished_streams = np.bincount(flow_of, weights=fin,
                                                   minlength=n_flows)
                    newly_done = proc_f & (finished_streams == k)
                    if newly_done.any():
                        done_f |= newly_done
                        for f in np.nonzero(newly_done)[0]:
                            prog = progresses[f]
                            prog.finish_time = seconds(now + dt)
                            # Final-tick sample (see _run_python).
                            prog.time_series.append((now + dt, float(alloc[f])))

            now += dt
            if now >= next_sample:
                next_sample = now + sample_s
                for f in np.nonzero(started_f & ~done_f)[0]:
                    progresses[f].time_series.append((now, float(alloc[f])))
        else:
            raise SimulationError(
                f"multi-flow simulation did not settle within {max_ticks} ticks"
            )

        # Mirror the struct-of-arrays state back into the object model.
        for i, st in enumerate(flat):
            st.cwnd = float(cwnd[i])
            st.ssthresh = float(ssthresh[i])
            st.time_since_loss = float(tsl[i])
            st.rtt_clock = float(rtt_clock[i])
            st.loss_flag = bool(loss_flag[i])
            st.delivered_bits = float(delivered[i])
            if bounded[i]:
                st.remaining_bits = float(remaining[i])
        for f, prog in enumerate(progresses):
            prog.started = bool(started_f[f] or prog.started)
            prog.loss_events += int(loss_events_f[f])
        return now

    def _advance_queues(self, demands: np.ndarray, dt: float) -> np.ndarray:
        """Advance the per-link virtual queues one tick; return the
        boolean overflow mask.  Shared verbatim by both backends.

        Growing links add ``overload * dt`` and draining links subtract
        it with a clamp at empty; since queues are non-negative, both
        branches are exactly ``max(0, q + overload * dt)``.
        """
        offered_per_link = (demands[:, None] * self._usage).sum(axis=0)
        overload = offered_per_link - self._capacities
        queues = np.maximum(0.0, self._queues + overload * dt)
        overflowing = queues > self._buffers
        self._queues = np.minimum(queues, self._buffers)
        return overflowing

    # -- conveniences ---------------------------------------------------------------
    def profile_of(self, label: str) -> PathProfile:
        try:
            f = self._labels.index(label)
        except ValueError:
            raise ConfigurationError(f"no flow labelled {label!r}") from None
        return self._path_profiles[self._profile_index[f]]

    def aggregate_delivered(self) -> DataSize:
        return bits(sum(p.delivered.bits for p in self.progress.values()))
