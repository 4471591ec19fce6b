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
5. births take one slice per tick off the start-sorted schedule;
   deaths pop a per-class heap of finish thresholds expressed in
   cumulative per-stream delivered bits, so neither ever walks the
   population.

Per-tick elementwise work is O(classes + links).  On a tick where no
link is oversubscribed the max-min filler is skipped outright (every
class gets its demand; see :meth:`FluidEngine.run` for why that is
exact).  Otherwise each filling round costs O(live incidence + links):
only classes offering traffic, and their link entries, take part, and
each round drops the classes it freezes.  Births cost a few array ops
per tick plus one heap push per bounded member; deaths cost one heap
pop per member, read and written back once per class that crosses a
threshold: O(flows log flows) over the whole run.  The engine is
deterministic — loss is an expectation, not a sample — so it needs no
RNG.

This is the approximate tier: see :mod:`repro.fluid` for the accuracy
contract, and ``benchmarks/bench_megaflows.py`` for the gate.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..tcp.congestion import CongestionControl, algorithm_key
from ..tcp.simulate import _SLACK, _ProgressiveFiller
from .classes import FlowClass

__all__ = ["DEFAULT_SWITCHOVER", "FluidEngine", "FluidResult"]

#: Hybrid dispatcher threshold: simulations with at least this many
#: streams (flows x parallel streams) take the fluid engine; smaller
#: populations stay on the exact per-flow kernels.
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
        # Offered load at or below this on every link skips the filler
        # (see :meth:`run`); NaN or inf loads compare False.
        self._slack_caps = self._caps * (1.0 - _SLACK)

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
        horizon elapses).  One-shot: each call restarts from t=0.

        A tick whose offered load is at most ``cap * (1 - 1e-9)`` on
        every link grants each class its demand without calling the
        max-min filler.  That is exactly what the filler would return.
        Frozen classes only ever take their own wants out of a link, so
        in any filling round the live classes on a link want, in total,
        at most the capacity left on it; their mean want, and hence the
        smallest want among them, is at most the link's fair share.  The
        live class with the smallest want overall is therefore within
        its limit on every link it crosses and is frozen at its full
        want.  No round ever saturates a link, and every class ends at
        ``0.0 + want == demand``.  The 1e-9 relative margin dwarfs the
        rounding in the filler's running remaining-capacity sums, and
        NaN or inf loads fail the comparison and take the filler.
        """
        classes = self.classes
        n_cls = len(classes)
        n_flows = sum(c.population for c in classes)
        dt = self._dt
        rtt, mss, rwnd = self._rtt, self._mss, self._rwnd
        rwnd_cap, lossp = self._rwnd_cap, self._lossp
        streams_c, flow_cap = self._streams, self._flow_cap
        slack_caps = self._slack_caps
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
        groups = self._algo_groups
        single_algo = groups[0][0] if len(groups) == 1 else None

        # Global birth schedule: (start, flow) ascending across classes.
        b_starts = np.concatenate([c.starts_s for c in classes])
        b_flows = np.concatenate([c.flow_ids for c in classes])
        b_class = np.concatenate([
            np.full(c.population, c.index, dtype=np.int64) for c in classes])
        b_size = np.concatenate([c.per_stream_bits for c in classes])
        order = np.lexsort((b_flows, b_starts))
        b_starts, b_flows = b_starts[order], b_flows[order]
        b_class, b_size = b_class[order], b_size[order]
        birth_times = b_starts.tolist()
        n_births = len(birth_times)
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

        # Flow-level outcome state (touched only at birth/death).  Class
        # membership is fixed, so each flow's class, stream count and
        # per-stream size are known before the first tick.
        class_of = np.empty(n_flows, dtype=np.int64)
        class_of[b_flows] = b_class
        streams_of = streams_c[class_of]
        size_of = np.empty(n_flows)
        size_of[b_flows] = b_size
        started = np.zeros(n_flows, dtype=bool)
        d_birth = np.zeros(n_flows)
        finish_s = np.full(n_flows, np.nan)
        streams_per_flow = streams_c.tolist()
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
            hi = bisect_right(birth_times, now, bp)
            if hi > bp:
                born, cls_b = b_flows[bp:hi], b_class[bp:hi]
                started[born] = True
                d_birth[born] = D[cls_b]
                # Unbuffered adds in birth order: the same sequential
                # sums as one += per birth.
                np.add.at(n_flows_live, cls_b, 1.0)
                np.add.at(n_streams_live, cls_b, streams_c[cls_b])
                thresholds = (D[cls_b] + b_size[bp:hi]).tolist()
                for c, f, thr in zip(cls_b.tolist(), born.tolist(),
                                     thresholds):
                    if thr < np.inf:  # unbounded members never die
                        heap = heaps[c]
                        heapq.heappush(heap, (thr, f))
                        next_death[c] = heap[0][0]
                bp = hi

            live = n_streams_live > 0.0
            if not live.any():
                if bp < n_births:
                    now = min(birth_times[bp], horizon_s)
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

            offered = demands @ usage_f
            alloc = (demands if (offered <= slack_caps).all()
                     else allocate(demands))

            # Virtual queues: same advance rule as the per-flow model,
            # driven by class-aggregate offered load.
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
            # Each such class's counters are read and written back once;
            # Python float arithmetic rounds exactly like numpy float64.
            inc = rate_ps * dt
            D += inc
            agg += inc * n_streams_live
            end = now + dt
            for c in np.nonzero(D >= next_death)[0].tolist():
                heap = heaps[c]
                d_c, rate_c = float(D[c]), float(rate_ps[c])
                k = streams_per_flow[c]
                flows_c = float(n_flows_live[c])
                streams_live_c = float(n_streams_live[c])
                agg_c = float(agg[c])
                while heap and heap[0][0] <= d_c:
                    thr, f = heapq.heappop(heap)
                    over = d_c - thr
                    finish_s[f] = end - over / rate_c if rate_c > 0.0 else end
                    flows_c -= 1.0
                    streams_live_c -= k
                    agg_c -= over * k
                    n_unfinished -= 1
                n_flows_live[c] = flows_c
                n_streams_live[c] = streams_live_c
                agg[c] = agg_c
                next_death[c] = heap[0][0] if heap else np.inf

            # Per-RTT mean-field window update: the expectation of the
            # per-flow rule under loss fraction P.
            step = live * dt
            rtt_clock += step
            tsl += step
            idx = np.nonzero(live & (rtt_clock >= rtt))[0]
            if idx.size:
                rtt_clock[idx] = 0.0
                p = P[idx]
                if single_algo is not None:
                    W[idx] = _mean_window(
                        single_algo, p, ss_frac[idx], W[idx], tsl[idx],
                        rtt[idx], rwnd[idx], rwnd_cap[idx])
                else:
                    for algo, cmask in groups:
                        sub = cmask[idx]
                        if not sub.any():
                            continue
                        sel = idx[sub]
                        W[sel] = _mean_window(
                            algo, p[sub], ss_frac[sel], W[sel], tsl[sel],
                            rtt[sel], rwnd[sel], rwnd_cap[sel])
                ss_frac[idx] = ss_frac[idx] * (1.0 - p)
                tsl[idx] = tsl[idx] * (1.0 - p)
                P[idx] = 0.0

            now += dt
            if now >= next_sample:
                next_sample = now + sample_interval_s
                samples.append((now, float(alloc.sum())))
            if n_unfinished == 0 and bp >= n_births and not until_given:
                break
        else:
            raise SimulationError(
                f"multi-flow simulation did not settle within {max_ticks} ticks"
            )

        # Per-flow delivered totals from the class's cumulative counter:
        # streams * (D_at_finish - D_at_birth), clipped to the transfer
        # size.  Sums match `agg` to float roundoff by construction (the
        # death loop subtracts each finisher's overshoot).
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


def _mean_window(algo: CongestionControl, p: np.ndarray, ss: np.ndarray,
                 w: np.ndarray, tsl: np.ndarray, rtt: np.ndarray,
                 rwnd: np.ndarray, rwnd_cap: np.ndarray) -> np.ndarray:
    """Expected mean window after one RTT under loss fraction ``p``.

    Loss-free growth is the population mix of the two regimes: the
    slow-start fraction ``ss`` doubles, the rest takes the
    congestion-avoidance increase (windows already past rwnd hold, like
    the per-flow rule).  Losing streams back off from their in-flight
    window.  Every operation is elementwise, so a gathered subset gives
    the same bits as the full array would.
    """
    grow_ss = np.minimum(w * algo.slow_start_factor, rwnd_cap)
    grow_ca = np.where(
        w <= rwnd,
        np.minimum(w + algo.increase_batch(w, tsl, rtt), rwnd_cap),
        w)
    grow = ss * grow_ss + (1.0 - ss) * grow_ca
    w_loss = algo.on_loss_batch(np.minimum(w, rwnd), rtt, rtt)
    return p * w_loss + (1.0 - p) * grow
