"""Packet-level queueing simulation for device studies.

The fluid TCP model (:mod:`repro.tcp`) is what most experiments use, but two
of the paper's core arguments are about *sub-RTT* packet behaviour:

* §5: a "200 Mbps" TCP flow is really line-rate bursts with pauses, so a
  firewall whose internal processors are slower than its interfaces drops
  the tails of bursts when its input buffer is shallow;
* §5/§6.1: fan-in — several ingress ports bursting simultaneously toward
  one egress port overruns shallow switch buffers.

This module simulates exactly that: bursty packet arrival processes swept
through :class:`~repro.netsim.buffers.DropTailQueue` instances.  Arrival
times are generated vectorially with numpy and merged with a single sorted
sweep — orders of magnitude faster than per-packet event scheduling, while
preserving per-packet drop decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..units import DataRate, DataSize, TimeDelta, bits, bytes_, seconds

__all__ = [
    "BurstySource",
    "SourceStats",
    "FanInResult",
    "generate_arrivals",
    "simulate_fan_in",
    "burst_trace",
]


@dataclass(frozen=True)
class BurstySource:
    """An on/off packet source modelling TCP burstiness.

    A TCP sender with congestion window W emits W segments back-to-back at
    its NIC line rate once per RTT, then goes quiet until the ACK clock
    releases the next window.  We model this as fixed-size bursts emitted at
    ``line_rate`` separated by pauses sized so the long-run average equals
    ``mean_rate``.

    Parameters
    ----------
    name:
        Identifier for reporting.
    line_rate:
        NIC rate — the instantaneous rate *within* a burst.
    mean_rate:
        Long-run average rate (must not exceed ``line_rate``).
    burst_size:
        Bytes per burst (≈ congestion window).
    packet_size:
        Wire size of each packet.
    jitter:
        Fractional uniform jitter applied to burst start times, so that
        multiple sources do not stay phase-locked (0 = fully periodic).
    """

    name: str
    line_rate: DataRate
    mean_rate: DataRate
    burst_size: DataSize
    packet_size: DataSize = bytes_(1500)
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.mean_rate.bps > self.line_rate.bps:
            raise ConfigurationError(
                f"source {self.name!r}: mean_rate {self.mean_rate.human()} "
                f"exceeds line_rate {self.line_rate.human()}"
            )
        if self.mean_rate.bps <= 0:
            raise ConfigurationError(f"source {self.name!r}: mean_rate must be > 0")
        if self.burst_size.bits < self.packet_size.bits:
            raise ConfigurationError(
                f"source {self.name!r}: burst smaller than one packet"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    @property
    def packets_per_burst(self) -> int:
        return max(1, int(round(self.burst_size.bits / self.packet_size.bits)))

    @property
    def burst_interval(self) -> TimeDelta:
        """Time between burst starts for the long-run mean to hold."""
        return seconds(self.burst_size.bits / self.mean_rate.bps)

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the source is actually transmitting."""
        return self.mean_rate.bps / self.line_rate.bps


def generate_arrivals(
    source: BurstySource,
    duration: TimeDelta,
    rng: np.random.Generator,
) -> np.ndarray:
    """Packet arrival times (seconds, sorted) for one source over ``duration``.

    Burst starts are periodic at :attr:`BurstySource.burst_interval` with
    uniform jitter; packets within a burst are spaced at the line rate.
    """
    interval = source.burst_interval.s
    n_bursts = int(np.ceil(duration.s / interval)) + 1
    starts = np.arange(n_bursts, dtype=np.float64) * interval
    if source.jitter > 0:
        starts = starts + rng.uniform(
            0.0, source.jitter * interval, size=n_bursts
        )
    ppb = source.packets_per_burst
    gap = source.packet_size.bits / source.line_rate.bps
    offsets = np.arange(ppb, dtype=np.float64) * gap
    times = (starts[:, None] + offsets[None, :]).ravel()
    times = times[times < duration.s]
    times.sort(kind="stable")
    return times


@dataclass
class SourceStats:
    """Per-source outcome of a fan-in sweep."""

    name: str
    offered_packets: int = 0
    delivered_packets: int = 0
    dropped_packets: int = 0

    @property
    def loss_fraction(self) -> float:
        return (self.dropped_packets / self.offered_packets
                if self.offered_packets else 0.0)


@dataclass
class FanInResult:
    """Outcome of :func:`simulate_fan_in`."""

    per_source: Dict[str, SourceStats]
    total_offered: int
    total_delivered: int
    total_dropped: int
    max_queue_occupancy: DataSize
    duration: TimeDelta
    egress_rate: DataRate
    packet_size: DataSize

    @property
    def loss_fraction(self) -> float:
        return (self.total_dropped / self.total_offered
                if self.total_offered else 0.0)

    @property
    def delivered_rate(self) -> DataRate:
        return DataRate(
            self.total_delivered * self.packet_size.bits / self.duration.s
        )

    @property
    def offered_rate(self) -> DataRate:
        return DataRate(
            self.total_offered * self.packet_size.bits / self.duration.s
        )

    def summary(self) -> str:
        lines = [
            f"fan-in: offered {self.offered_rate.human()}, "
            f"delivered {self.delivered_rate.human()}, "
            f"loss {self.loss_fraction:.4%}, "
            f"peak queue {self.max_queue_occupancy.human()}"
        ]
        for st in self.per_source.values():
            lines.append(
                f"  {st.name}: {st.offered_packets} pkts, "
                f"loss {st.loss_fraction:.4%}"
            )
        return "\n".join(lines)


def _sweep_numpy(
    times: np.ndarray,
    owners: np.ndarray,
    n_sources: int,
    cap_bits: float,
    pkt_bits: float,
    drain_bps: float,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Vectorized Lindley sweep: per packet, drain the backlog to the
    arrival time, then accept the packet iff it fits.

    The backlog recursion ``b <- max(0, b - d_i); accept iff b + pkt <= cap``
    is linear *between* boundary events (clamps to empty and drops), so it
    is evaluated speculatively in chunks with one interleaved ``cumsum``:

    ``z = [b0 - d_0, +pkt, -d_1, +pkt, ...]`` gives running sums whose even
    elements are the post-drain backlogs and odd elements the post-accept
    backlogs.  The chunk is valid up to the first *violation* — a post-drain
    value below zero (a clamp) or a post-accept value above the capacity
    (a drop).  The accepted prefix is committed wholesale; a clamp is
    repaired with one O(1) step (the queue is empty: the packet is
    accepted onto an empty buffer); a drop switches to a short scalar run,
    since drops cluster in exactly the overload regimes where speculation
    keeps failing.  The chunk size adapts to twice the distance the last
    attempt advanced.

    ``cumsum`` accumulates sequentially, so every committed backlog is
    the same float a per-packet loop computes.
    """
    n = len(times)
    delivered = np.zeros(n_sources, dtype=np.int64)
    dropped = np.zeros(n_sources, dtype=np.int64)
    if n == 0:
        return delivered, dropped, 0.0
    if pkt_bits > cap_bits:
        # Degenerate: no packet ever fits; the queue never holds anything.
        return delivered, np.bincount(owners, minlength=n_sources), 0.0

    d = np.empty(n)
    d[0] = (times[0] - 0.0) * drain_bps
    np.multiply(np.diff(times), drain_bps, out=d[1:])

    accepted = np.zeros(n, dtype=bool)
    max_backlog = 0.0
    b = 0.0
    i = 0
    chunk = 1024
    CHUNK_MIN, CHUNK_MAX, SCALAR_RUN = 128, 32768, 64
    d_list = None  # materialized lazily, only if a drop regime appears
    while i < n:
        m = min(chunk, n - i)
        z = np.empty(2 * m)
        z[0::2] = -d[i:i + m]
        z[1::2] = pkt_bits
        z[0] += b
        s = np.cumsum(z)
        post_drain = s[0::2]
        post_accept = s[1::2]
        violation = (post_drain < 0.0) | (post_accept > cap_bits)
        bad = int(np.argmax(violation)) if violation.any() else m
        if bad:
            accepted[i:i + bad] = True
            prefix_max = post_accept[:bad].max()
            if prefix_max > max_backlog:
                max_backlog = prefix_max
            b = float(post_accept[bad - 1])
        advance = bad
        if bad < m:
            j = i + bad
            if post_drain[bad] < 0.0:
                # Clamp: the queue drained empty before this packet, which
                # therefore lands on an empty buffer and always fits.
                accepted[j] = True
                b = pkt_bits
                if b > max_backlog:
                    max_backlog = b
                advance = bad + 1
            else:
                # Drop: replay a short span scalar-wise — drops cluster in
                # overload bursts where chunk speculation keeps failing.
                if d_list is None:
                    d_list = d.tolist()
                end = min(n, j + SCALAR_RUN)
                for kk in range(j, end):
                    b = b - d_list[kk]
                    if b < 0.0:
                        b = 0.0
                    if b + pkt_bits <= cap_bits:
                        b += pkt_bits
                        accepted[kk] = True
                        if b > max_backlog:
                            max_backlog = b
                advance = end - i
        i += advance
        chunk = min(CHUNK_MAX, max(CHUNK_MIN, 2 * advance))
    delivered = np.bincount(owners[accepted], minlength=n_sources)
    dropped = np.bincount(owners[~accepted], minlength=n_sources)
    return delivered, dropped, float(max_backlog)


def simulate_fan_in(
    sources: Sequence[BurstySource],
    *,
    egress_rate: DataRate,
    buffer_size: DataSize,
    duration: TimeDelta,
    rng: np.random.Generator,
) -> FanInResult:
    """Sweep bursty sources through a shared drop-tail egress queue.

    All sources must use the same packet size (the common case for bulk
    data flows; mixed sizes would only blur the effect under study).
    """
    if not sources:
        raise ConfigurationError("simulate_fan_in requires at least one source")
    pkt = sources[0].packet_size
    for s in sources:
        if s.packet_size.bits != pkt.bits:
            raise ConfigurationError(
                "all fan-in sources must share a packet size; "
                f"{s.name!r} differs"
            )
    if duration.s <= 0:
        raise ConfigurationError("duration must be positive")

    # Vector-generate all arrivals, tag with source index, merge-sort once.
    all_times: List[np.ndarray] = []
    all_src: List[np.ndarray] = []
    for idx, src in enumerate(sources):
        t = generate_arrivals(src, duration, rng)
        all_times.append(t)
        all_src.append(np.full(t.shape, idx, dtype=np.int32))
    times = np.concatenate(all_times)
    owners = np.concatenate(all_src)
    order = np.argsort(times, kind="stable")
    times = times[order]
    owners = owners[order]

    # Queue sweep.  The queue drains continuously at egress_rate; each
    # packet is accepted iff the backlog (after draining to its arrival
    # time) leaves room.
    delivered, dropped, max_backlog = _sweep_numpy(
        times, owners, len(sources),
        buffer_size.bits, pkt.bits, egress_rate.bps,
    )

    per_source: Dict[str, SourceStats] = {}
    for idx, src in enumerate(sources):
        per_source[src.name] = SourceStats(
            name=src.name,
            offered_packets=int(delivered[idx] + dropped[idx]),
            delivered_packets=int(delivered[idx]),
            dropped_packets=int(dropped[idx]),
        )
    total_offered = int(delivered.sum() + dropped.sum())
    return FanInResult(
        per_source=per_source,
        total_offered=total_offered,
        total_delivered=int(delivered.sum()),
        total_dropped=int(dropped.sum()),
        max_queue_occupancy=bits(max_backlog),
        duration=duration,
        egress_rate=egress_rate,
        packet_size=pkt,
    )


def burst_trace(
    source: BurstySource,
    duration: TimeDelta,
    rng: np.random.Generator,
    *,
    bin_width: TimeDelta = seconds(0.001),
) -> Tuple[np.ndarray, np.ndarray]:
    """Instantaneous-rate time series of a bursty source.

    Returns ``(bin_centers_s, rate_bps)`` — used to *show* (as the paper
    argues in §5) that an "average 200 Mbps" flow is near-line-rate bursts.
    """
    t = generate_arrivals(source, duration, rng)
    n_bins = max(1, int(np.ceil(duration.s / bin_width.s)))
    edges = np.linspace(0.0, n_bins * bin_width.s, n_bins + 1)
    counts, _ = np.histogram(t, bins=edges)
    rate = counts * source.packet_size.bits / bin_width.s
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, rate
