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

Engines
-------
``backend="exact"`` (the default) keeps all stream state as flat
struct-of-arrays (cwnd/ssthresh/rtt-clock/remaining-bits indexed by a
flow map) and advances every stream per tick with array ops.  Its
results are pinned bit for bit by the golden digests.  ``"fluid"`` runs
the approximate :mod:`repro.fluid` mean-field engine instead, and
``"hybrid"`` picks one of the two by stream population.

Every engine's :meth:`MultiFlowSimulation.run` is one-shot: each call
re-simulates from t=0 with fresh stream state, link queues and per-flow
progress.
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
from ..vectorize import SIM_ENGINES, resolve_engine
from .congestion import (CongestionControl, Reno, algorithm_by_name,
                         algorithm_key)

__all__ = ["FlowProgress", "MultiFlowSimulation", "max_min_fair_allocation",
           "SIM_ENGINES"]

#: Relative headroom every link must keep for a tick to skip the max-min
#: filler: far above the rounding in the filler's running sums, far
#: below any load the filler would cut (the proof is in
#: :meth:`repro.fluid.engine.FluidEngine.run`).
_SLACK = 1e-9


class _ProgressiveFiller:
    """Progressive-filling max-min allocator for a fixed (usage, capacities).

    The flow/link incidence never changes across a simulation, so the
    structural work — ``np.nonzero`` of the usage matrix and the link
    count of each flow — is done once here.

    Each round either freezes every flow whose demand fits under its
    fair-share limit, or, when none does, saturates the tightest link
    and freezes the flows crossing it.

    Infinite-capacity links never constrain a flow, so they are dropped
    from the incidence, and a flow that crosses no remaining link is
    *unconstrained*: it is granted its full demand (even an infinite
    one) outside the filling rounds.  This keeps ``inf - inf`` out of
    the headroom and remaining-capacity arithmetic.  NaN or negative
    capacities are rejected here, and NaN demands by :meth:`allocate`.

    The rounds work on the *live* set only: flows with demand > 0 that
    cross at least one finite link, plus their incidence entries in
    row-major (flow) order.  Two invariants hold:

    * every live flow crosses at least one finite link, and every link
      it crosses carries at least one live flow (itself), so its limit
      is a finite fair share and no round runs out of links to fill;
    * each round freezes at least one flow (the one with the smallest
      limit, if no flow is satisfied), and frozen flows leave the live
      set, so the loop runs at most once per live flow.

    Per-link capacity releases are accumulated in flow order via
    ``np.bincount``; flows outside the live set would only add ``+0.0``
    to those sequential sums, which is exact, so leaving them out
    changes no bit.
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

    def allocate(self, demands: np.ndarray) -> np.ndarray:
        demands = np.asarray(demands, dtype=np.float64)
        if demands.shape != (self.n_flows,):
            raise ConfigurationError("max_min_fair_allocation: shape mismatch")
        if np.isnan(demands).any():
            raise ConfigurationError("max_min_fair_allocation: NaN demand")
        return self._allocate_numpy(demands)

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


def max_min_fair_allocation(
    demands: np.ndarray,
    usage: np.ndarray,
    capacities: np.ndarray,
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
    return _ProgressiveFiller(usage, capacities).allocate(demands)


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
        ``"exact"`` — the struct-of-arrays per-stream tick loop.
        ``"fluid"`` — the approximate :mod:`repro.fluid` mean-field
        engine (flow-class population dynamics; scales to 100k+ flows).
        ``"hybrid"`` — dispatch on population: below ``switchover``
        total streams the exact kernel runs (byte-for-byte identical to
        selecting it directly), at or above it the fluid engine does.
        None (default) resolves through
        :func:`repro.vectorize.default_backend`.  :attr:`backend` holds
        the resolved engine, ``"exact"`` or ``"fluid"``.
    switchover:
        Stream-population threshold for ``backend="hybrid"``; defaults
        to :data:`repro.fluid.DEFAULT_SWITCHOVER`.  Ignored by the
        other engines.

    After an exact run, :attr:`stream_state` maps each per-stream
    quantity (``cwnd``, ``ssthresh``, ``time_since_loss``,
    ``rtt_clock``, ``loss_flag``, ``delivered_bits``,
    ``remaining_bits``; inf for unbounded flows) to its final array,
    streams in flow order.  It is None before the first exact run.
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
            engine = "fluid" if population >= threshold else "exact"
        self.backend = engine
        self.stream_state: Optional[Dict[str, np.ndarray]] = None
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
            # class granularity; the per-flow usage matrix and allocator
            # would cost O(flows) for nothing.
            self._usage = None
            self._filler = None
            return
        self._usage = np.zeros((n_flows, n_links), dtype=bool)
        for f, links in enumerate(self._flow_links):
            self._usage[f, list(links)] = True
        self._filler = _ProgressiveFiller(self._usage, self._capacities)

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
        kernel = self._run_fluid if self.backend == "fluid" else self._run_exact
        now = kernel(until, max_ticks, sample_interval, rtts=rtts, dt=dt,
                     horizon=horizon, mss_bits=mss_bits, rwnd_pkts=rwnd_pkts,
                     loss_p=loss_p, rate_caps=rate_caps)
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
        exact engine's, but per-flow loss counts and time series are
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

    # -- per-stream loop -------------------------------------------------------
    def _run_exact(
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
        """The exact tick loop, one-shot: stream state, link queues and
        per-flow progress all start fresh, so a rerun reports the new
        run alone."""
        rng = self._rng
        has_rng = rng is not None
        n_flows = len(self._specs)
        usage = self._usage
        self._queues = np.zeros(len(self._links))

        # Struct-of-arrays stream state, streams in flow order.
        k = np.array([s.parallel_streams for s in self._specs], dtype=np.int64)
        flow_of = np.repeat(np.arange(n_flows, dtype=np.int64), k)
        n_streams = int(k.sum())
        cwnd = np.full(n_streams, float(self._initial_cwnd))
        ssthresh = np.full(n_streams, np.inf)
        tsl = np.zeros(n_streams)
        rtt_clock = np.zeros(n_streams)
        loss_flag = np.zeros(n_streams, dtype=bool)
        delivered = np.zeros(n_streams)
        remaining = np.repeat([
            per.bits if per else np.inf
            for per in (s.per_stream_size() for s in self._specs)], k)

        # Per-stream constants gathered once.
        mss_s = mss_bits[flow_of]
        rtt_s = rtts[flow_of]
        rwnd_s = rwnd_pkts[flow_of]
        rwnd_cap_s = rwnd_s * 1.25
        lossp_s = loss_p[flow_of]
        has_loss_s = lossp_s > 0.0
        cong_thresh_s = np.minimum(1.0, dt / rtt_s)

        progresses = [self.progress[label] for label in self._labels]
        for prog in progresses:
            prog.finish_time = None
            prog.time_series = []
        start_f = np.array([s.start.s for s in self._specs])
        done_f = np.zeros(n_flows, dtype=bool)
        started_f = np.zeros(n_flows, dtype=bool)
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
        # Offered load at or below this on every link skips the filler,
        # which would return the demands bit for bit (_SLACK).
        slack_caps = self._capacities * (1.0 - _SLACK)
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

            offered, overflowing = self._advance_queues(demands, dt)
            alloc = (demands if (offered <= slack_caps).all()
                     else allocate(demands))

            # n_live is a small exact integer per flow, so float
            # bookkeeping is lossless.
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

                # Random draws, consumed in a fixed order: flows
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
                    # Compressed draw order == stream order.
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
                            # Final-tick sample: close the series at
                            # the finish time so the last partial
                            # interval is not extrapolated from the
                            # previous sample boundary.
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

        # A flow's delivered total is the sum of its streams' counters,
        # accumulated in stream order (``np.bincount`` adds sequentially).
        delivered_f = np.bincount(flow_of, weights=delivered,
                                  minlength=n_flows)
        for prog, started, lost, total in zip(
                progresses, started_f.tolist(), loss_events_f.tolist(),
                delivered_f.tolist()):
            prog.started = started
            prog.loss_events = lost
            prog.delivered = bits(total)
        self.stream_state = {
            "cwnd": cwnd, "ssthresh": ssthresh, "time_since_loss": tsl,
            "rtt_clock": rtt_clock, "loss_flag": loss_flag,
            "delivered_bits": delivered, "remaining_bits": remaining}
        return now

    def _advance_queues(self, demands: np.ndarray,
                        dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """Advance the per-link virtual queues one tick; return the
        offered load per link and the boolean overflow mask.

        Growing links add ``overload * dt`` and draining links subtract
        it with a clamp at empty; since queues are non-negative, both
        branches are exactly ``max(0, q + overload * dt)``.
        """
        offered_per_link = (demands[:, None] * self._usage).sum(axis=0)
        overload = offered_per_link - self._capacities
        queues = np.maximum(0.0, self._queues + overload * dt)
        overflowing = queues > self._buffers
        self._queues = np.minimum(queues, self._buffers)
        return offered_per_link, overflowing

    # -- conveniences ---------------------------------------------------------------
    def profile_of(self, label: str) -> PathProfile:
        try:
            f = self._labels.index(label)
        except ValueError:
            raise ConfigurationError(f"no flow labelled {label!r}") from None
        return self._path_profiles[self._profile_index[f]]

    def aggregate_delivered(self) -> DataSize:
        return bits(sum(p.delivered.bits for p in self.progress.values()))
