"""Fluid per-RTT TCP connection model.

The model advances one round-trip at a time.  Each round the sender offers
``min(cwnd, receive-window, pacing)`` segments; the path delivers up to its
bandwidth-delay product plus the bottleneck buffer; overshoot triggers a
congestion loss event, and independent per-packet random loss (failing line
cards, dirty optics — the soft failures of §3.3) triggers stochastic loss
events.  Congestion control reacts per :mod:`repro.tcp.congestion`.

This reproduces the dynamics the paper cares about:

* loss-free, well-buffered paths converge to the bottleneck (or receive
  window) limit — Figure 1's topmost line;
* tiny random loss collapses throughput with a 1/sqrt(p) RTT-dependent
  ceiling — the Mathis regime of Figure 1's lower curves;
* a 64 KB clamped window caps throughput at window/RTT — the Penn State
  firewall pathology (Eq. 2, Figure 8);
* recovery after loss takes many RTTs at high BDP, so the same loss rate
  hurts far more at 100 ms than at 1 ms — the "local users through the
  firewall are fine" observation of §3.4.

For very long transfers the model detects loss-free steady state and
fast-forwards analytically; with random loss it simulates up to
``max_rounds`` rounds and extrapolates from the trailing mean throughput
(flagged in the result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..netsim.topology import PathProfile
from ..telemetry.tracer import NULL_TRACER, Tracer
from ..units import DataRate, DataSize, TimeDelta, bits, seconds
from .congestion import CongestionControl, Reno

__all__ = ["RoundSample", "TransferResult", "TcpConnection"]

#: Modern initial window (RFC 6928).
INITIAL_WINDOW_SEGMENTS = 10.0
#: Minimum retransmission timeout (RFC 6298 lower bound, Linux uses 200 ms;
#: we follow the RFC's conservative 1 s to make timeout pain visible).
MIN_RTO_SECONDS = 1.0
#: Largest block of loss variates the round loop draws at once.
_LOSS_BLOCK = 1 << 12


@dataclass(frozen=True)
class RoundSample:
    """One decimated sample of connection state."""

    time: float  # seconds since transfer start
    cwnd_segments: float
    throughput_bps: float


@dataclass
class TransferResult:
    """Outcome of a single-connection transfer or measurement.

    ``rows`` holds the decimated ``(time, cwnd, throughput)`` samples
    (stride doubles once 8192 accumulate) so even multi-million-round
    transfers stay small; ``samples`` builds the :class:`RoundSample`
    objects from them on first read.
    """

    bytes_delivered: DataSize
    duration: TimeDelta
    rounds: int
    loss_events: int
    timeouts: int
    algorithm: str
    extrapolated: bool = False
    rows: List[Tuple[float, float, float]] = field(default_factory=list,
                                                   repr=False)

    @property
    def mean_throughput(self) -> DataRate:
        if self.duration.s <= 0:
            return DataRate(0.0)
        return DataRate(self.bytes_delivered.bits / self.duration.s)

    @cached_property
    def samples(self) -> List[RoundSample]:
        """The decimated samples as :class:`RoundSample` objects."""
        return [RoundSample(*row) for row in self.rows]

    def sample_arrays(self) -> tuple:
        """(time_s, cwnd_segments, throughput_bps) as numpy arrays."""
        t, w, r = np.array(self.rows, dtype=np.float64).reshape(-1, 3).T
        return t.copy(), w.copy(), r.copy()

    def summary(self) -> str:
        tail = " (extrapolated)" if self.extrapolated else ""
        return (
            f"{self.bytes_delivered.human()} in {self.duration.human()} "
            f"= {self.mean_throughput.human()} "
            f"[{self.algorithm}, {self.rounds} rounds, "
            f"{self.loss_events} losses, {self.timeouts} timeouts]{tail}"
        )


class TcpConnection:
    """A single TCP connection over a fixed path profile.

    Parameters
    ----------
    profile:
        End-to-end path characteristics from
        :meth:`repro.netsim.topology.Topology.profile`.
    algorithm:
        Congestion-control strategy (default Reno).
    rng:
        numpy Generator for stochastic loss draws.  Required whenever the
        path has non-zero random loss; deterministic runs may omit it.
    bottleneck_buffer:
        Queue depth at the bottleneck.  Defaults to one bandwidth-delay
        product — the provisioning the paper recommends for Science DMZ
        gear.  Shallow values reproduce cheap-switch behaviour.
    initial_cwnd:
        Initial window in segments (RFC 6928 default of 10).
    tracer:
        Optional :class:`~repro.telemetry.tracer.Tracer`.  When enabled
        the connection emits a span per transfer, an event per loss
        episode (congestion / random / timeout, with the window before
        and after) and decimated cwnd/throughput counter samples.
        Event stamps are seconds since transfer start plus
        ``trace_offset`` (pass the simulation time at which the
        transfer began to anchor events in a shared timeline).
    """

    def __init__(
        self,
        profile: PathProfile,
        *,
        algorithm: Optional[CongestionControl] = None,
        rng: Optional[np.random.Generator] = None,
        bottleneck_buffer: Optional[DataSize] = None,
        initial_cwnd: float = INITIAL_WINDOW_SEGMENTS,
        tracer: Optional[Tracer] = None,
        trace_offset: float = 0.0,
    ) -> None:
        self.profile = profile
        self.algorithm = algorithm if algorithm is not None else Reno()
        self._rng = rng
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_t0 = float(trace_offset)
        if profile.random_loss > 0 and rng is None:
            raise ConfigurationError(
                "path has random loss; TcpConnection requires an rng "
                "(use Simulator.rng('tcp') or numpy.random.default_rng(seed))"
            )

        self.mss_bits = profile.flow.mss.bits
        if self.mss_bits <= 0:
            raise ConfigurationError("profile MSS must be positive")
        self.base_rtt = max(profile.base_rtt.s, 1e-6)
        self.capacity_bps = profile.capacity.bps
        self.loss_p = float(profile.random_loss)

        rwnd_bits = profile.flow.effective_receive_window().bits
        self.rwnd_segments = max(1.0, rwnd_bits / self.mss_bits)

        self.bdp_segments = max(
            1.0, self.capacity_bps * self.base_rtt / self.mss_bits
        )
        if bottleneck_buffer is None:
            bottleneck_buffer = profile.bottleneck_buffer
        if bottleneck_buffer is None:
            # Well-provisioned bottleneck: one BDP of queue (the paper's
            # recommendation for Science DMZ gear).
            self.buffer_segments = self.bdp_segments
        else:
            self.buffer_segments = max(0.0, bottleneck_buffer.bits / self.mss_bits)

        rate_limit = profile.flow.sender_rate_limit
        self.rate_limit_bps = rate_limit.bps if rate_limit is not None else None

        if initial_cwnd < 1:
            raise ConfigurationError("initial_cwnd must be >= 1 segment")
        self.initial_cwnd = float(initial_cwnd)

    # -- public API ---------------------------------------------------------------
    def transfer(
        self,
        size: DataSize,
        *,
        max_rounds: int = 2_000_000,
    ) -> TransferResult:
        """Move ``size`` bytes; returns the transfer outcome."""
        if size.bits <= 0:
            raise ConfigurationError("transfer size must be positive")
        return self._run(target_bits=size.bits, duration_s=None,
                         max_rounds=max_rounds)

    def measure(
        self,
        duration: TimeDelta,
        *,
        max_rounds: int = 2_000_000,
    ) -> TransferResult:
        """Run an unbounded flow for ``duration`` (a BWCTL-style test)."""
        if duration.s <= 0:
            raise ConfigurationError("measurement duration must be positive")
        return self._run(target_bits=None, duration_s=duration.s,
                         max_rounds=max_rounds)

    def steady_state_throughput(self) -> DataRate:
        """Analytic steady-state estimate (no simulation).

        Loss-free: min(capacity, window/RTT).  With loss: the Mathis bound,
        additionally clamped by the window and capacity limits.
        """
        window_cap = self.rwnd_segments * self.mss_bits / self.base_rtt
        caps = [self.capacity_bps, window_cap]
        if self.rate_limit_bps is not None:
            caps.append(self.rate_limit_bps)
        ceiling = min(caps)
        if self.loss_p <= 0:
            return DataRate(ceiling)
        mathis = self.mss_bits / self.base_rtt / math.sqrt(self.loss_p)
        return DataRate(min(ceiling, mathis))

    # -- engine ---------------------------------------------------------------------
    def _run(
        self,
        *,
        target_bits: Optional[float],
        duration_s: Optional[float],
        max_rounds: int,
    ) -> TransferResult:
        if max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")

        cwnd = min(self.initial_cwnd, self.rwnd_segments)
        ssthresh = float("inf")
        time_since_loss = 0.0
        elapsed = 0.0
        delivered_bits = 0.0
        loss_events = 0
        timeouts = 0
        rounds = 0
        extrapolated = False

        rows: List[Tuple[float, float, float]] = []
        stride = 1
        since_sample = 0

        # Steady-state fast-forward bookkeeping (loss-free paths only).
        steady_rounds = 0
        prev_rate = -1.0

        mss = self.mss_bits
        bdp = self.bdp_segments
        buf = self.buffer_segments
        base_rtt = self.base_rtt
        capacity = self.capacity_bps
        rwnd = self.rwnd_segments
        # The sender's offered-window ceiling.  ``min`` only selects, so
        # min(cwnd, min(rwnd, pace)) is exactly min(min(cwnd, rwnd), pace).
        w_cap = rwnd
        if self.rate_limit_bps is not None:
            w_cap = min(rwnd, max(1.0, self.rate_limit_bps * base_rtt / mss))
        ss_cap = 2.0 * (bdp + buf)
        cwnd_cap = ss_cap + rwnd
        algorithm = self.algorithm
        on_loss, increase = algorithm.on_loss, algorithm.increase
        ss_factor = algorithm.slow_start_factor
        has_target = target_bits is not None
        has_duration = duration_s is not None
        p = self.loss_p
        fast_forward = p == 0 and has_target
        rng = self._rng
        log1mp = math.log1p(-p) if 0 < p < 1 else 0.0
        exp = math.exp
        # Loss uniforms are drawn from ``rng`` in growing blocks.  On the
        # way out, by return or raise, the finally clause restores the
        # state saved here and re-draws only the uniforms the rounds used,
        # so ``rng`` ends where one ``rng.random()`` per lossy round
        # would have left it.
        uniforms: List[float] = []
        k = drawn = 0
        block = 64
        saved_state = rng.bit_generator.state if p > 0 else None

        tracer = self._tracer
        trace_on = tracer.enabled  # hoisted: one branch per use in the loop
        t0 = self._trace_t0
        if trace_on:
            tracer.event(
                "tcp", "transfer", t=t0, phase="B",
                target_bits=target_bits, duration_s=duration_s,
                capacity_bps=self.capacity_bps, base_rtt_s=self.base_rtt,
                loss_p=p, rwnd_segments=self.rwnd_segments,
                **algorithm.trace_attrs(),
            )

        try:
            while True:
                if has_target and delivered_bits >= target_bits:
                    break
                if has_duration and elapsed >= duration_s:
                    break
                if rounds >= max_rounds:
                    extrapolated = has_target
                    break

                # --- sender's offered window this round ---------------------
                # min(cwnd, w_cap) as a select: the same float, no call.
                w_target = w_cap if w_cap < cwnd else cwnd

                # --- bottleneck: queue growth and overflow -------------------
                congestion_loss = False
                if w_target > bdp:
                    queue = w_target - bdp
                    if queue > buf:
                        congestion_loss = True
                        queue = buf
                    delivered_this_round = min(w_target, bdp + queue)
                else:
                    queue = 0.0
                    delivered_this_round = w_target  # min(w_target, bdp)
                # Round duration: base RTT inflated by standing-queue delay.
                rtt_eff = base_rtt + queue * mss / capacity

                # --- random loss ---------------------------------------------
                random_loss = False
                if p > 0 and delivered_this_round > 0:
                    # P[at least one loss among delivered packets]
                    p_round = 1.0 - exp(log1mp * delivered_this_round)
                    if k == len(uniforms):
                        uniforms = rng.random(
                            min(block, max_rounds - rounds)).tolist()
                        drawn += len(uniforms)
                        block = min(2 * block, _LOSS_BLOCK)
                        k = 0
                    random_loss = uniforms[k] < p_round
                    k += 1

                round_bits = delivered_this_round * mss
                if has_target:
                    remaining = target_bits - delivered_bits
                    delivered_bits += min(round_bits, remaining)
                else:
                    delivered_bits += round_bits
                elapsed += rtt_eff
                rounds += 1
                time_since_loss += rtt_eff
                rate = round_bits / rtt_eff

                # --- decimated sampling --------------------------------------
                since_sample += 1
                if since_sample >= stride:
                    since_sample = 0
                    rows.append((elapsed, cwnd, rate))
                    if trace_on:
                        # Counter tracks, decimated in lockstep with rows.
                        tracer.sample("cwnd_segments", cwnd, t=t0 + elapsed,
                                      category="tcp")
                        tracer.sample("throughput_bps", rate,
                                      t=t0 + elapsed, category="tcp")
                    if len(rows) >= 8192:
                        rows = rows[::2]
                        stride *= 2

                # --- window evolution ----------------------------------------
                if congestion_loss or random_loss:
                    loss_events += 1
                    # The window that was actually in flight is what the
                    # loss reduces (RFC 2861: cwnd must not be inflated
                    # beyond what the connection has been sending).
                    inflight = min(cwnd, w_target)
                    if inflight < 4.0 and random_loss:
                        # Too few duplicate ACKs to fast-retransmit: timeout.
                        timeouts += 1
                        rto = max(MIN_RTO_SECONDS, 2.0 * rtt_eff)
                        elapsed += rto
                        ssthresh = max(2.0, inflight / 2.0)
                        cwnd = 1.0
                        if trace_on:
                            tracer.event("tcp", "loss", t=t0 + elapsed,
                                         kind="timeout", rto_s=rto,
                                         cwnd_before=inflight,
                                         cwnd_after=cwnd)
                            tracer.counter("timeouts", component="tcp").inc()
                    else:
                        cwnd = on_loss(inflight, base_rtt, rtt_eff)
                        ssthresh = cwnd
                        if trace_on:
                            tracer.event(
                                "tcp", "loss", t=t0 + elapsed,
                                kind=("congestion" if congestion_loss
                                      else "random"),
                                cwnd_before=inflight, cwnd_after=cwnd)
                    if trace_on:
                        tracer.counter("loss_events", component="tcp").inc()
                    time_since_loss = 0.0
                    steady_rounds = 0
                elif cwnd <= w_target + 1e-9:
                    # Congestion-window validation: when the flow is
                    # receive-window or pacing limited (w_target < cwnd),
                    # cwnd is not grown further — there are no ACKs beyond
                    # w_target to clock it (RFC 2861).
                    if cwnd < ssthresh:
                        if ssthresh == math.inf:
                            cwnd = min(min(cwnd * ss_factor, cwnd * 2.0),
                                       ss_cap)
                        else:
                            cwnd = min(cwnd * ss_factor, ssthresh)
                    else:
                        cwnd += increase(cwnd, time_since_loss, rtt_eff)
                    if cwnd_cap < cwnd:  # min(cwnd, cwnd_cap)
                        cwnd = cwnd_cap

                # --- loss-free steady-state fast-forward ---------------------
                # Once the delivered *rate* is stable (window-capped, pacing-
                # capped, or capacity-filling sawtooth) the rest of the
                # transfer is linear in time; skip ahead analytically.
                if fast_forward:
                    if (prev_rate > 0
                            and abs(rate - prev_rate) <= 1e-9 * prev_rate):
                        steady_rounds += 1
                    else:
                        steady_rounds = 0
                    prev_rate = rate
                    if steady_rounds >= 3 and rate > 0:
                        remaining = target_bits - delivered_bits
                        if remaining > 0:
                            extra_rounds = remaining / round_bits
                            elapsed += remaining / rate
                            rounds += int(math.ceil(extra_rounds))
                            delivered_bits = target_bits
                        break
        finally:
            used = drawn - len(uniforms) + k
            if used < drawn:
                rng.bit_generator.state = saved_state
                for start in range(0, used, _LOSS_BLOCK):
                    rng.random(min(_LOSS_BLOCK, used - start))

        # --- extrapolate an unfinished lossy transfer ------------------------
        if extrapolated and has_target:
            if delivered_bits <= 0 or elapsed <= 0:
                raise SimulationError(
                    "transfer made no progress within max_rounds; "
                    "path is effectively unusable"
                )
            rate = delivered_bits / elapsed
            remaining = target_bits - delivered_bits
            elapsed += remaining / rate
            delivered_bits = target_bits

        if trace_on:
            tracer.counter("rounds", component="tcp").inc(rounds)
            tracer.event("tcp", "transfer", t=t0 + elapsed, phase="E")
            tracer.event("tcp", "transfer-done", t=t0 + elapsed,
                         delivered_bits=delivered_bits, duration_s=elapsed,
                         rounds=rounds, loss_events=loss_events,
                         timeouts=timeouts, extrapolated=extrapolated)

        return TransferResult(
            bytes_delivered=bits(delivered_bits),
            duration=seconds(elapsed),
            rounds=rounds,
            loss_events=loss_events,
            timeouts=timeouts,
            algorithm=algorithm.name,
            extrapolated=extrapolated,
            rows=rows,
        )
