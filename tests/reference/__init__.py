"""Scalar reference kernels: the bit-identity oracle for the exact tier.

``repro`` ships one implementation of each hot path: the multi-flow
tick loop (``MultiFlowSimulation._run_exact``), max-min fair allocation
(``_ProgressiveFiller._allocate_numpy``) and the fan-in Lindley sweep
(``packetsim._sweep_numpy``).  Each is a vectorized numpy kernel.  This
package holds a plain per-flow, per-stream, per-packet Python loop for
each, and :func:`scalar_kernels` patches them over the shipped kernels,
so a differential test runs the same input both ways and compares raw
float bit patterns (``tobytes()`` / exact ``==``).  The golden digests
pin the shipped kernels' numbers; a last-bit divergence from the scalar
loops means a kernel changed the arithmetic, not just its speed.

Rules the kernels follow to stay bit-identical to these loops:

* per-group reductions use sequential-accumulation primitives
  (``np.cumsum`` / ``np.bincount``), which numpy evaluates in array
  order exactly like a scalar loop;
* random variates are drawn in the scalar loop's order — one
  ``Generator.random(n)`` call consumes the PCG64 stream identically to
  *n* scalar ``random()`` calls;
* transcendental arithmetic (``**``) goes through numpy's array loops
  on *both* sides, because numpy's SIMD ``pow`` may differ from libm's
  scalar ``pow`` in the final bit (see :func:`pow_elementwise`), and the
  congestion-control updates go through the algorithms' ``*_batch``
  methods on both sides (length-1 arrays here);
* masked lanes ride along with zero deltas, which is exact because
  every running sum is non-negative, so ``x + 0.0 == x``; flows outside
  the allocator's live set would only add ``+0.0`` to its sequential
  sums, so leaving them out changes no bit;
* ``b0 + (-d) == b0 - d`` and ``0.0 + pkt == pkt`` in IEEE-754, so the
  sweep's chunked ``cumsum`` reproduces the per-packet backlog; a
  post-drain ``-0.0`` (scalar: ``+0.0``) subtracts and compares
  identically and is never surfaced in ``max_backlog``.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.netsim import packetsim
from repro.tcp.simulate import MultiFlowSimulation, _ProgressiveFiller
from repro.units import TimeDelta, bits, seconds

__all__ = ["allocate_python", "pow_elementwise", "run_python",
           "scalar_kernels", "sweep_python"]


@contextlib.contextmanager
def scalar_kernels() -> Iterator[None]:
    """Run the shipped exact kernels' call sites on the scalar loops::

        with scalar_kernels():
            run_experiment(spec, RunContext(workers=1, cache=None))

    Patches the class and module attributes the kernels are looked up
    through, so only in-process work is affected (keep ``workers=1``).
    """
    saved = (MultiFlowSimulation._run_exact,
             _ProgressiveFiller._allocate_numpy, packetsim._sweep_numpy)
    MultiFlowSimulation._run_exact = run_python
    _ProgressiveFiller._allocate_numpy = allocate_python
    packetsim._sweep_numpy = sweep_python
    try:
        yield
    finally:
        (MultiFlowSimulation._run_exact, _ProgressiveFiller._allocate_numpy,
         packetsim._sweep_numpy) = saved


def pow_elementwise(base: float, exponent: float) -> float:
    """``base ** exponent`` evaluated through numpy's array power loop.

    numpy's vectorized ``**`` may differ from libm's scalar ``pow`` in
    the final bit, so the scalar loop routes its powers through the same
    array loop as the shipped kernel.
    """
    return float(np.power(np.array([base]), np.array([exponent]))[0])


# -- max-min fair allocation --------------------------------------------------

def allocate_python(self, demands: np.ndarray) -> np.ndarray:
    """Scalar :meth:`_ProgressiveFiller._allocate_numpy`: per-flow loops
    for limits and capacity deltas, over every flow each round."""
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


# -- fan-in Lindley sweep -----------------------------------------------------

def sweep_python(
    times: np.ndarray,
    owners: np.ndarray,
    n_sources: int,
    cap_bits: float,
    pkt_bits: float,
    drain_bps: float,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Scalar reference Lindley sweep: one Python iteration per packet."""
    backlog = 0.0
    last_t = 0.0
    max_backlog = 0.0
    delivered = np.zeros(n_sources, dtype=np.int64)
    dropped = np.zeros(n_sources, dtype=np.int64)
    for t, who in zip(times, owners):
        backlog = max(0.0, backlog - (t - last_t) * drain_bps)
        last_t = t
        if backlog + pkt_bits <= cap_bits:
            backlog += pkt_bits
            delivered[who] += 1
            if backlog > max_backlog:
                max_backlog = backlog
        else:
            dropped[who] += 1
    return delivered, dropped, max_backlog


# -- multi-flow tick loop -----------------------------------------------------

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


def run_python(
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
    """Scalar :meth:`MultiFlowSimulation._run_exact`: one
    :class:`_StreamState` object per stream, a plain per-stream loop."""
    now = 0.0
    next_sample = 0.0
    rng = self._rng
    n_flows = len(self._specs)
    self._queues = np.zeros(len(self._links))
    flow_streams = []
    for spec in self._specs:
        per = spec.per_stream_size()
        flow_streams.append([
            _StreamState(self._initial_cwnd, per.bits if per else None)
            for _ in range(spec.parallel_streams)
        ])
    for prog in self.progress.values():
        prog.finish_time = None
        prog.time_series = []
        prog.started = False
        prog.loss_events = 0

    for tick in range(max_ticks):
        if now >= horizon:
            break
        active_any = False
        demands = np.zeros(n_flows)
        for f, (spec, streams) in enumerate(zip(self._specs, flow_streams)):
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

        alloc = allocate_python(self._filler, demands)

        overflowing = self._advance_queues(demands, dt)

        # Loss events: congestion overflow + random path loss.
        for f in range(n_flows):
            label = self._labels[f]
            prog = self.progress[label]
            if prog.done or demands[f] <= 0:
                continue
            streams = flow_streams[f]
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

    for label, streams in zip(self._labels, flow_streams):
        prog = self.progress[label]
        prog.delivered = bits(sum(st.delivered_bits for st in streams))
    flat = [st for streams in flow_streams for st in streams]
    self.stream_state = {
        name: np.array([getattr(st, name) for st in flat],
                       dtype=bool if name == "loss_flag" else np.float64)
        for name in ("cwnd", "ssthresh", "time_since_loss", "rtt_clock",
                     "loss_flag", "delivered_bits")}
    self.stream_state["remaining_bits"] = np.array([
        np.inf if st.remaining_bits is None else st.remaining_bits
        for st in flat])
    return now
