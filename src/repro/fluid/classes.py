"""Flow-class aggregation: collapsing flows into mean-field populations.

A *flow class* is the unit the fluid engine advances: every flow that
shares (a) the exact sequence of links, (b) the same congestion-control
behaviour, and (c) the same transport parameters (RTT, MSS, receive
window, random-loss rate, parallel-stream count, rate cap) competes
identically in the per-flow model, so its population can be represented
by one aggregate congestion window and a live-member count.  Science
traffic matrices collapse extremely well under this key — 100k
transfers between a few dozen sites yield a few hundred classes — which
is the entire performance story of :mod:`repro.fluid`.

Grouping never changes *which* flows exist: births and deaths inside a
class are tracked individually (each member keeps its own start time
and transfer size), only the congestion state is pooled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..netsim.flow import FlowSpec
from ..tcp.congestion import CongestionControl, algorithm_key

__all__ = ["DEFAULT_PHASE_SHARDS", "FlowClass", "build_flow_classes"]

#: Default phase-shard count per population.  Enough stagger to damp
#: the lockstep back-off artifact (the whole class halving at once
#: drains the queue and under-registers congestion) while keeping the
#: class count — and the max-min filler cost — within a small multiple.
DEFAULT_PHASE_SHARDS = 8


@dataclass
class FlowClass:
    """One mean-field population of interchangeable flows.

    ``flow_ids`` index the caller's global flow list and are sorted by
    ascending start time so the engine can consume births with a single
    advancing pointer.  ``per_stream_bits`` is ``inf`` for unbounded
    flows (they never die).
    """

    index: int
    algorithm: CongestionControl
    link_indices: Tuple[int, ...]
    rtt_s: float
    mss_bits: float
    rwnd_pkts: float
    random_loss: float
    streams_per_flow: int
    rate_cap_bps: float
    flow_ids: np.ndarray
    starts_s: np.ndarray
    per_stream_bits: np.ndarray
    #: Initial RTT-clock offset as a fraction of the RTT.  Shards of one
    #: population carry staggered phases so their window updates spread
    #: across the RTT the way individually-born per-flow streams do,
    #: instead of the whole population halving in lockstep.
    phase: float = 0.0

    @property
    def population(self) -> int:
        """Member flows (not streams) over the whole simulation."""
        return int(self.flow_ids.size)

    @property
    def stream_population(self) -> int:
        return self.population * self.streams_per_flow


def build_flow_classes(
    specs: Sequence[FlowSpec],
    flow_links: Sequence[Tuple[int, ...]],
    algorithms: Sequence[CongestionControl],
    *,
    rtts: np.ndarray,
    mss_bits: np.ndarray,
    rwnd_pkts: np.ndarray,
    loss_p: np.ndarray,
    rate_caps: np.ndarray,
    n_shards: int = 1,
) -> List[FlowClass]:
    """Partition ``specs`` into :class:`FlowClass` populations.

    ``flow_links[f]`` is the tuple of link-inventory indices flow *f*
    crosses (path identity); the per-flow parameter arrays are the same
    ones the exact kernels precompute in ``MultiFlowSimulation.run``.

    ``n_shards`` splits each population round-robin into up to that many
    phase-staggered shards (RTT-clock offsets ``j/K`` of the RTT).  In
    the per-flow model each stream updates its window at its *own* RTT
    boundary — phases spread uniformly by birth time — so a single
    lockstep population over-oscillates: the whole class backs off at
    once, the queue drains, and congestion under-registers.  A handful
    of shards restores the stagger at class-level cost.
    """
    rtts_f = np.asarray(rtts, dtype=np.float64).tolist()
    mss_f = np.asarray(mss_bits, dtype=np.float64).tolist()
    rwnd_f = np.asarray(rwnd_pkts, dtype=np.float64).tolist()
    loss_f = np.asarray(loss_p, dtype=np.float64).tolist()
    caps_f = np.asarray(rate_caps, dtype=np.float64).tolist()
    # Algorithms are usually one shared instance; key each object once.
    algo_keys: Dict[int, object] = {}
    grouped: Dict[tuple, List[int]] = {}
    for f, spec in enumerate(specs):
        algo = algorithms[f]
        akey = algo_keys.get(id(algo))
        if akey is None:
            akey = algo_keys[id(algo)] = algorithm_key(algo)
        key = (flow_links[f], akey, spec.parallel_streams, caps_f[f],
               rtts_f[f], mss_f[f], rwnd_f[f], loss_f[f])
        grouped.setdefault(key, []).append(f)

    # Per-stream bits: the same ``size.bits / parallel_streams`` division
    # as FlowSpec.per_stream_size(), inf for unbounded flows.
    start_all = np.array([s.start.s for s in specs], dtype=np.float64)
    per_stream_all = (
        np.array([s.size.bits if s.size is not None else np.inf
                  for s in specs], dtype=np.float64)
        / np.array([s.parallel_streams for s in specs], dtype=np.float64))

    shards = max(1, int(n_shards))
    classes: List[FlowClass] = []
    for key, members in grouped.items():
        ids = np.asarray(members, dtype=np.int64)
        starts = start_all[ids]
        order = np.lexsort((ids, starts))
        ids, starts = ids[order], starts[order]
        per_stream = per_stream_all[ids]
        first = int(ids[0])
        k = min(shards, ids.size)
        for j in range(k):
            # Round-robin over the start-sorted members keeps every
            # shard's births spread across the arrival window.
            sel = slice(j, None, k)
            classes.append(FlowClass(
                index=len(classes),
                algorithm=algorithms[first],
                link_indices=flow_links[first],
                rtt_s=rtts_f[first],
                mss_bits=mss_f[first],
                rwnd_pkts=rwnd_f[first],
                random_loss=loss_f[first],
                streams_per_flow=int(specs[first].parallel_streams),
                rate_cap_bps=caps_f[first],
                flow_ids=ids[sel],
                starts_s=starts[sel],
                per_stream_bits=per_stream[sel],
                phase=j / k,
            ))
    return classes
