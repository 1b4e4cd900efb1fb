"""Synthetic filelist.org-style trace generator.

The original 10-trace dataset behind the paper (``tom-data.zip``) is no
longer available, so we generate traces calibrated to **every statistic
the paper reports** about it:

* 100 unique peers observed over 7 days;
* ≈23,000 events per trace (session up/down + swarm join/leave);
* ≈50 % of the population offline at any given moment (high churn);
* a tail of peers that are "rarely present";
* ≈25 % of peers that upload little (free-riders);
* per-swarm shared-file sizes and per-peer connectability flags.

Churn model: each peer alternates exponential online/offline periods.
Per-peer mean availability is drawn from a Beta(2,2) (population mean
0.5), except for a "rarely present" subpopulation drawn from Beta(1,8).
Swarm interest: at each session start a peer joins ``Poisson(λ)``
swarms chosen with Zipf popularity weights, and leaves them when its
session ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.rng import RngRegistry
from repro.sim.units import DAY, HOUR, KIB, MIB
from repro.traces.model import (
    EventKind,
    PeerProfile,
    SwarmSpec,
    Trace,
    TraceEvent,
)


@dataclass
class TraceGeneratorConfig:
    """Knobs of the synthetic trace generator.

    Defaults reproduce the paper's reported trace statistics; tests in
    ``tests/test_trace_calibration.py`` assert the calibration.
    """

    n_peers: int = 100
    duration: float = 7 * DAY
    #: Fraction of peers predisposed to free-ride (paper: ≈25 %).
    free_rider_fraction: float = 0.25
    #: Fraction of peers that can accept incoming connections.
    connectable_fraction: float = 0.6
    #: Fraction of peers that are "rarely present" (low-availability tail).
    rare_fraction: float = 0.15
    #: Beta parameters for regular peers' availability (mean 0.5).
    availability_beta: Sequence[float] = (2.0, 2.0)
    #: Beta parameters for rarely-present peers (mean ≈0.11).
    rare_availability_beta: Sequence[float] = (1.0, 8.0)
    #: Mean online-session length in seconds (lognormal across peers).
    mean_session: float = 1.8 * HOUR
    #: Sigma of the per-peer lognormal session-length multiplier.
    session_sigma: float = 0.5
    #: Number of distinct swarms (torrents) in the trace.
    n_swarms: int = 12
    #: Mean number of swarms joined per session (Poisson).
    swarms_per_session: float = 1.4
    #: Zipf exponent for swarm popularity.
    swarm_zipf: float = 1.1
    #: Shared-file size range (log-uniform), bytes.
    file_size_min: float = 50 * MIB
    file_size_max: float = 1024 * MIB
    #: BitTorrent piece size, bytes.
    piece_size: float = 256 * KIB
    #: Upload capacities (bytes/s) for normal and free-riding peers —
    #: 2009-era consumer uplinks (ADSL ≈ 128–512 kbit/s up).  These are
    #: what calibrate the experience-formation speed of Fig 5.
    upload_capacity: float = 8 * KIB
    free_rider_upload_capacity: float = 2 * KIB
    download_capacity: float = 128 * KIB
    #: Stagger first arrivals across this window so there is a
    #: well-defined arrival order (moderators = first arrivals).
    arrival_window: float = 6 * HOUR
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.n_peers < 2:
            raise ValueError("need at least 2 peers")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not (0 <= self.free_rider_fraction <= 1):
            raise ValueError("free_rider_fraction must be in [0,1]")
        if self.n_swarms < 1:
            raise ValueError("need at least one swarm")


class TraceGenerator:
    """Generate :class:`~repro.traces.model.Trace` objects.

    Each call to :meth:`generate` with a distinct ``replica`` index
    yields an independent trace from the same configuration — this is
    how the paper's "10 unique traces" dataset is reproduced.
    """

    def __init__(self, config: Optional[TraceGeneratorConfig] = None, seed: int = 0):
        self.config = config or TraceGeneratorConfig()
        self._seed = seed

    # ------------------------------------------------------------------
    def generate(self, replica: int = 0) -> Trace:
        """Build one trace (deterministic in ``(seed, replica)``)."""
        cfg = self.config
        rng = RngRegistry(self._seed).fork(("trace", replica))
        peers = self._make_peers(rng)
        swarms = self._make_swarms(rng, peers)
        events = self._make_events(rng, peers, swarms)
        trace = Trace(
            duration=cfg.duration,
            peers=peers,
            swarms=swarms,
            events=events,
            name=f"{cfg.name}-{replica:02d}",
        )
        trace.validate()
        return trace

    # ------------------------------------------------------------------
    def _make_peers(self, rng: RngRegistry) -> Dict[str, PeerProfile]:
        cfg = self.config
        gen = rng.stream("peers")
        n = cfg.n_peers
        free_riders = np.zeros(n, dtype=bool)
        free_riders[: int(round(n * cfg.free_rider_fraction))] = True
        gen.shuffle(free_riders)
        connectable = gen.random(n) < cfg.connectable_fraction
        out: Dict[str, PeerProfile] = {}
        for i in range(n):
            pid = f"peer{i:03d}"
            out[pid] = PeerProfile(
                peer_id=pid,
                connectable=bool(connectable[i]),
                free_rider=bool(free_riders[i]),
                upload_capacity=(
                    cfg.free_rider_upload_capacity if free_riders[i] else cfg.upload_capacity
                ),
                download_capacity=cfg.download_capacity,
            )
        return out

    def _make_swarms(
        self, rng: RngRegistry, peers: Dict[str, PeerProfile]
    ) -> Dict[str, SwarmSpec]:
        cfg = self.config
        gen = rng.stream("swarms")
        # Initial seeders: prefer connectable non-free-riders so content
        # is actually available (filelist is a ratio-enforced tracker —
        # every swarm has a committed seeder).
        candidates = [p.peer_id for p in peers.values() if not p.free_rider]
        if not candidates:
            candidates = list(peers)
        out: Dict[str, SwarmSpec] = {}
        log_lo, log_hi = np.log(cfg.file_size_min), np.log(cfg.file_size_max)
        for s in range(cfg.n_swarms):
            size = float(np.exp(gen.uniform(log_lo, log_hi)))
            seeder = candidates[int(gen.integers(0, len(candidates)))]
            sid = f"swarm{s:02d}"
            out[sid] = SwarmSpec(
                swarm_id=sid,
                file_size=size,
                piece_size=cfg.piece_size,
                initial_seeder=seeder,
            )
        return out

    def _availability(self, rng: RngRegistry) -> np.ndarray:
        cfg = self.config
        gen = rng.stream("availability")
        n = cfg.n_peers
        a, b = cfg.availability_beta
        avail = gen.beta(a, b, size=n)
        rare = gen.random(n) < cfg.rare_fraction
        ra, rb = cfg.rare_availability_beta
        avail[rare] = gen.beta(ra, rb, size=int(rare.sum()))
        # Clamp away from 0/1 so on/off means stay finite.
        return np.clip(avail, 0.02, 0.95)

    def _make_events(
        self,
        rng: RngRegistry,
        peers: Dict[str, PeerProfile],
        swarms: Dict[str, SwarmSpec],
    ) -> List[TraceEvent]:
        cfg = self.config
        avail = self._availability(rng)
        swarm_ids = list(swarms)
        ranks = np.arange(1, len(swarm_ids) + 1, dtype=float)
        weights = ranks ** (-cfg.swarm_zipf)
        weights /= weights.sum()

        events: List[TraceEvent] = []
        rng.prime("sessions", peers)
        for idx, pid in enumerate(peers):
            gen = rng.stream("sessions", pid)
            a = float(avail[idx])
            mean_on = cfg.mean_session * float(
                np.exp(gen.normal(0.0, cfg.session_sigma))
            )
            mean_off = mean_on * (1.0 - a) / a
            # Initial seeders arrive at t=0 and stay long; everyone else
            # staggers in across the arrival window.
            seeds_for = [s for s in swarms.values() if s.initial_seeder == pid]
            t = 0.0 if seeds_for else float(gen.uniform(0.0, cfg.arrival_window))
            while t < cfg.duration:
                on = float(gen.exponential(mean_on))
                end = min(t + max(on, 60.0), cfg.duration)
                if end <= t:
                    break
                events.append(TraceEvent(t, pid, EventKind.SESSION_START))
                joined = self._session_swarms(gen, swarm_ids, weights, seeds_for)
                for sid in joined:
                    events.append(TraceEvent(t, pid, EventKind.SWARM_JOIN, sid))
                for sid in joined:
                    events.append(TraceEvent(end, pid, EventKind.SWARM_LEAVE, sid))
                events.append(TraceEvent(end, pid, EventKind.SESSION_END))
                t = end + float(gen.exponential(mean_off))
        events.sort(key=TraceEvent.sort_key)
        return events

    def _session_swarms(
        self,
        gen: np.random.Generator,
        swarm_ids: List[str],
        weights: np.ndarray,
        seeds_for: List[SwarmSpec],
    ) -> List[str]:
        cfg = self.config
        k = int(gen.poisson(cfg.swarms_per_session))
        k = min(k, len(swarm_ids))
        chosen: List[str] = [s.swarm_id for s in seeds_for]
        if k > 0:
            picks = gen.choice(len(swarm_ids), size=k, replace=False, p=weights)
            for i in picks:
                sid = swarm_ids[int(i)]
                if sid not in chosen:
                    chosen.append(sid)
        return chosen


def generate_dataset(
    n_traces: int = 10,
    config: Optional[TraceGeneratorConfig] = None,
    seed: int = 0,
) -> List[Trace]:
    """Generate the paper's '10 unique traces' dataset."""
    gen = TraceGenerator(config, seed=seed)
    return [gen.generate(replica=i) for i in range(n_traces)]
