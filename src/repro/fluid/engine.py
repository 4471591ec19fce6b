"""The mean-field stepper: ODE population dynamics over flow classes.

Each tick advances *classes*, not flows:

1. every class with live members offers
   ``n_streams_live * min(W, rwnd) * mss / rtt`` (W is the class's mean
   per-stream congestion window), capped by its members' rate limits;
2. link bandwidth is divided max-min fairly among *classes* (the same
   progressive-filling allocator as the per-flow kernels, at class
   granularity — flows within a class are symmetric, so the class-level
   split equals the flow-level one);
3. links whose offered load exceeds capacity grow the same virtual
   queues as the per-flow model; overflow plus random path loss feed a
   per-class *loss pressure* ``P`` — the expected fraction of streams
   that saw a loss event since the last window update;
4. once per RTT the mean window takes the expectation of the per-flow
   update: ``W <- P * on_loss(W) + (1-P) * grow(W)``, with slow-start,
   ssthresh, and the receive-window cap mirroring the exact kernels'
   arithmetic (the same :class:`~repro.tcp.congestion.CongestionControl`
   batch methods);
5. births advance a pointer over start-time-sorted members; deaths pop
   a per-class heap of finish thresholds expressed in cumulative
   per-stream delivered bits, so neither ever walks the population.

Per-tick elementwise work is O(classes + links).  Each max-min filling
round costs O(live incidence + links): only classes offering traffic,
and their link entries, take part, and each round drops the classes it
freezes.  Total birth/death cost is O(flows log flows) over the whole
run.  The engine is deterministic — loss is an expectation, not a
sample — so it needs no RNG.

This is the approximate tier: see :mod:`repro.fluid` for the accuracy
contract, and ``benchmarks/bench_megaflows.py`` for the gate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..tcp.simulate import _ProgressiveFiller
from .classes import FlowClass, algorithm_key

__all__ = ["DEFAULT_SWITCHOVER", "FluidEngine", "FluidResult"]

#: Hybrid dispatcher threshold: simulations with at least this many
#: streams (flows x parallel streams) take the fluid engine; smaller
#: populations stay on the bit-identical per-flow kernels.
DEFAULT_SWITCHOVER = 1024


@dataclass
class FluidResult:
    """Outcome of one :meth:`FluidEngine.run`, indexed by global flow id."""

    now_s: float
    ticks: int
    delivered_bits: np.ndarray
    finish_s: np.ndarray          # NaN while unfinished
    started: np.ndarray           # bool
    queues_bits: np.ndarray       # final per-link virtual queue state
    class_delivered_bits: np.ndarray
    class_population: np.ndarray
    classes_retired: int          # classes whose every member finished
    #: Aggregate throughput samples ``(time_s, total_rate_bps)`` at the
    #: caller's sample interval.  Per-flow series are deliberately not
    #: produced — materializing them is a per-flow cost.
    samples: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return int(self.class_population.size)


class FluidEngine:
    """Advance a set of :class:`FlowClass` populations over shared links.

    Parameters mirror the per-flow simulator where they overlap:
    ``capacities_bps`` / ``buffers_bits`` are the link inventory the
    classes' ``link_indices`` point into, ``initial_cwnd`` seeds each
    class's mean window, and ``dt_s`` is the tick (the caller passes the
    per-flow model's ``min(rtt)/2`` rule so horizons line up).
    """

    def __init__(
        self,
        classes: Sequence[FlowClass],
        capacities_bps: np.ndarray,
        buffers_bits: np.ndarray,
        *,
        initial_cwnd: float = 10.0,
        dt_s: float,
        deterministic_loss: bool = False,
    ) -> None:
        if not classes:
            raise SimulationError("FluidEngine needs at least one flow class")
        self.classes = list(classes)
        self._caps = np.asarray(capacities_bps, dtype=np.float64)
        self._buffers = np.asarray(buffers_bits, dtype=np.float64)
        self._initial_cwnd = float(initial_cwnd)
        self._dt = float(dt_s)
        self._deterministic = bool(deterministic_loss)

        n_cls, n_links = len(self.classes), self._caps.size
        usage = np.zeros((n_cls, n_links), dtype=bool)
        for c, cls in enumerate(self.classes):
            usage[c, list(cls.link_indices)] = True
        self._usage = usage
        self._filler = _ProgressiveFiller(usage, self._caps)

        self._rtt = np.array([c.rtt_s for c in self.classes])
        self._mss = np.array([c.mss_bits for c in self.classes])
        self._rwnd = np.array([c.rwnd_pkts for c in self.classes])
        self._rwnd_cap = self._rwnd * 1.25
        self._lossp = np.array([c.random_loss for c in self.classes])
        self._streams = np.array([c.streams_per_flow for c in self.classes],
                                 dtype=np.float64)
        self._flow_cap = np.array([c.rate_cap_bps for c in self.classes])

        # Classes grouped by congestion-control behaviour for batch
        # updates, under the same interchangeability key as the exact
        # kernels.
        groups: List[Tuple[object, np.ndarray]] = []
        seen = {}
        for c, cls in enumerate(self.classes):
            key = algorithm_key(cls.algorithm)
            if key not in seen:
                seen[key] = len(groups)
                groups.append((cls.algorithm, np.zeros(n_cls, dtype=bool)))
            groups[seen[key]][1][c] = True
        self._algo_groups = groups

    def run(
        self,
        *,
        horizon_s: float,
        until_given: bool,
        max_ticks: int = 2_000_000,
        sample_interval_s: float = 1.0,
    ) -> FluidResult:
        """Step the populations until every bounded flow finishes (or the
        horizon elapses).  One-shot: each call restarts from t=0."""
        classes = self.classes
        n_cls = len(classes)
        n_flows = sum(c.population for c in classes)
        dt = self._dt
        rtt, mss, rwnd = self._rtt, self._mss, self._rwnd
        rwnd_cap, lossp = self._rwnd_cap, self._lossp
        streams_c, flow_cap = self._streams, self._flow_cap
        usage_f = self._usage.astype(np.float64)
        # Congestion pressure per congested tick.  With an RNG the
        # per-flow model flags each stream Bernoulli(dt/rtt); without
        # one it flags *every* stream on the congested link, so the
        # deterministic mode saturates the pressure (the whole class
        # halves at its next window update, exactly like the exact
        # kernels' rng-less branch).
        cong_p = (np.ones(rtt.size) if self._deterministic
                  else np.minimum(1.0, dt / rtt))
        has_lossp = lossp > 0.0
        any_lossp = bool(has_lossp.any())
        # Per-flow demand cap lifted to the class: n_live * cap, only
        # evaluated for capped classes (0 * inf is NaN).
        capped = np.nonzero(np.isfinite(flow_cap))[0]

        # Global birth schedule: (start, flow) ascending across classes.
        b_starts = np.concatenate([c.starts_s for c in classes])
        b_flows = np.concatenate([c.flow_ids for c in classes])
        b_class = np.concatenate([
            np.full(c.population, c.index, dtype=np.int64) for c in classes])
        b_size = np.concatenate([c.per_stream_bits for c in classes])
        order = np.lexsort((b_flows, b_starts))
        b_starts, b_flows = b_starts[order], b_flows[order]
        b_class, b_size = b_class[order], b_size[order]
        bp = 0  # birth pointer

        # Class population state.  Slow start is tracked as the
        # *fraction* of streams still in it (exit on first loss is
        # one-way in the per-flow model, so the fraction decays by the
        # surviving share at every window update) — an infinite-ssthresh
        # mean would never leave slow start under blending.
        W = np.full(n_cls, self._initial_cwnd)
        ss_frac = np.ones(n_cls)
        tsl = np.zeros(n_cls)
        # Shards start mid-window (phase in [0, 1)) so sibling shards'
        # updates stagger across the RTT like per-flow stream clocks.
        rtt_clock = np.array([c.phase for c in classes]) * rtt
        P = np.zeros(n_cls)            # accumulated loss pressure
        D = np.zeros(n_cls)            # cumulative per-stream delivered bits
        n_flows_live = np.zeros(n_cls)
        n_streams_live = np.zeros(n_cls)
        agg = np.zeros(n_cls)          # class delivered bits (conserved)
        queues = np.zeros(self._caps.size)

        # Flow-level outcome state (touched only at birth/death).
        started = np.zeros(n_flows, dtype=bool)
        d_birth = np.zeros(n_flows)
        streams_of = np.zeros(n_flows)
        class_of = np.zeros(n_flows, dtype=np.int64)
        finish_s = np.full(n_flows, np.nan)
        heaps: List[list] = [[] for _ in range(n_cls)]
        next_death = np.full(n_cls, np.inf)
        n_unfinished = n_flows

        now = 0.0
        next_sample = 0.0
        samples: List[Tuple[float, float]] = []
        allocate = self._filler._allocate_numpy

        for tick in range(max_ticks):
            if now >= horizon_s:
                break
            while bp < b_starts.size and b_starts[bp] <= now:
                f, c = int(b_flows[bp]), int(b_class[bp])
                started[f] = True
                class_of[f] = c
                streams_of[f] = streams_c[c]
                d_birth[f] = D[c]
                n_flows_live[c] += 1
                n_streams_live[c] += streams_c[c]
                if np.isfinite(b_size[bp]):
                    heapq.heappush(heaps[c], (float(D[c] + b_size[bp]), f))
                    next_death[c] = heaps[c][0][0]
                bp += 1

            live = n_streams_live > 0.0
            if not live.any():
                if bp < b_starts.size:
                    now = min(float(b_starts[bp]), horizon_s)
                    continue
                if not until_given:
                    break
                now = horizon_s
                continue

            demands = np.where(
                live, n_streams_live * np.minimum(W, rwnd) * mss / rtt, 0.0)
            if capped.size:
                demands[capped] = np.minimum(
                    demands[capped], n_flows_live[capped] * flow_cap[capped])

            alloc = allocate(demands)

            # Virtual queues: same advance rule as the per-flow model,
            # driven by class-aggregate offered load.
            offered = demands @ usage_f
            queues = np.maximum(0.0, queues + (offered - self._caps) * dt)
            overflowing = queues > self._buffers
            np.minimum(queues, self._buffers, out=queues)

            rate_ps = np.where(live, alloc / np.maximum(n_streams_live, 1.0),
                               0.0)

            # Loss pressure: expected fraction of a class's streams that
            # flagged a loss since the last window update.  Congestion
            # contributes dt/rtt per congested tick (the per-flow model's
            # per-stream Bernoulli rate); random path loss contributes
            # its per-packet expectation over the bits moved this tick.
            e = np.where(live & (self._usage[:, overflowing].any(axis=1)
                                 if overflowing.any()
                                 else np.zeros(n_cls, dtype=bool)),
                         cong_p, 0.0)
            if any_lossp:
                pkts = rate_ps * dt / mss
                e_rand = np.where(has_lossp,
                                  1.0 - (1.0 - lossp) ** pkts, 0.0)
                e = 1.0 - (1.0 - e) * (1.0 - e_rand)
            P = 1.0 - (1.0 - P) * (1.0 - e)

            # Deliver and harvest deaths (heap pops touch only classes
            # whose cumulative delivered crossed a member's threshold).
            inc = rate_ps * dt
            D += inc
            agg += inc * n_streams_live
            for c in np.nonzero(D >= next_death)[0]:
                heap = heaps[c]
                while heap and heap[0][0] <= D[c]:
                    thr, f = heapq.heappop(heap)
                    over = D[c] - thr
                    finish_s[f] = (now + dt - over / rate_ps[c]
                                   if rate_ps[c] > 0.0 else now + dt)
                    n_flows_live[c] -= 1
                    n_streams_live[c] -= streams_of[f]
                    agg[c] -= over * streams_of[f]
                    n_unfinished -= 1
                next_death[c] = heap[0][0] if heap else np.inf

            # Per-RTT mean-field window update: the expectation of the
            # per-flow rule under loss fraction P.
            rtt_clock += live * dt
            tsl += live * dt
            upd = live & (rtt_clock >= rtt)
            if upd.any():
                rtt_clock[upd] = 0.0
                p = P[upd]
                s = ss_frac[upd]
                w_up = W[upd]
                for algo, cmask in self._algo_groups:
                    sel = upd & cmask
                    if not sel.any():
                        continue
                    sub = cmask[upd]
                    # Loss-free growth is the population mix of the two
                    # regimes: the slow-start fraction doubles, the rest
                    # takes the congestion-avoidance increase (windows
                    # already past rwnd hold, like the per-flow rule).
                    grow_ss = np.minimum(w_up[sub] * algo.slow_start_factor,
                                         rwnd_cap[upd][sub])
                    grow_ca = np.where(
                        w_up[sub] <= rwnd[upd][sub],
                        np.minimum(
                            w_up[sub] + algo.increase_batch(
                                w_up[sub], tsl[upd][sub], rtt[upd][sub]),
                            rwnd_cap[upd][sub]),
                        w_up[sub])
                    grow_sel = s[sub] * grow_ss + (1.0 - s[sub]) * grow_ca
                    inflight = np.minimum(w_up[sub], rwnd[upd][sub])
                    w_loss = algo.on_loss_batch(
                        inflight, rtt[upd][sub], rtt[upd][sub])
                    W[sel] = p[sub] * w_loss + (1.0 - p[sub]) * grow_sel
                ss_frac[upd] = s * (1.0 - p)
                tsl[upd] *= 1.0 - p
                P[upd] = 0.0

            now += dt
            if now >= next_sample:
                next_sample = now + sample_interval_s
                samples.append((now, float(alloc.sum())))
            if n_unfinished == 0 and bp >= b_starts.size and not until_given:
                break
        else:
            raise SimulationError(
                f"multi-flow simulation did not settle within {max_ticks} ticks"
            )

        # Per-flow delivered totals from the class's cumulative counter:
        # streams * (D_at_finish - D_at_birth), clipped to the transfer
        # size.  Sums match `agg` to float roundoff by construction (the
        # death loop subtracts each finisher's overshoot).
        per_stream_done = np.concatenate([c.per_stream_bits for c in classes])
        flow_ids = np.concatenate([c.flow_ids for c in classes])
        size_of = np.empty(n_flows)
        size_of[flow_ids] = per_stream_done
        delivered = np.where(
            started,
            streams_of * np.minimum(D[class_of] - d_birth, size_of),
            0.0)

        retired = sum(
            1 for c in classes
            if np.isfinite(finish_s[c.flow_ids]).all())
        self.queues = queues
        return FluidResult(
            now_s=now,
            ticks=tick + 1,
            delivered_bits=delivered,
            finish_s=finish_s,
            started=started,
            queues_bits=queues,
            class_delivered_bits=agg,
            class_population=np.array([c.population for c in classes]),
            classes_retired=retired,
            samples=samples,
        )
