"""Service statistics: per-request latency and per-launch throughput.

Host latency (wall seconds from ``submit`` to completion) and simulated
device time are tracked separately — the whole point of the serve layer
is that the host side stops dominating, so the report shows both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["HOST_PHASES", "LaunchRecord", "ServiceStats"]

#: canonical host-phase order for reports: plan building (kernel tracing),
#: tuned-store lookups, functional NumPy numerics, simulated-timeline
#: replay (incl. retry/fault handling), and pool routing decisions
HOST_PHASES = ("trace", "tune", "numerics", "timeline", "routing")


@dataclass(frozen=True)
class LaunchRecord:
    """One device launch issued by the service."""

    kind: str  # "batched" or "single"
    device_ns: float
    #: logical elements across all requests in the launch
    n_elements: int
    io_bytes: int
    requests: int
    plan_hit: bool
    #: True when the launch replayed a memoized timeline (no scheduling)
    timeline_hit: bool = False
    #: True when the launch's plan config came from a tuned-plan store
    tuned: bool = False
    #: relaunches needed before this launch succeeded (0 = first try)
    retries: int = 0
    #: transient DeviceFaults absorbed while serving this launch
    faults: int = 0
    #: simulated backoff charged to device time across those retries
    backoff_ns: float = 0.0


def _percentile(sorted_vals: "list[float]", q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


@dataclass
class ServiceStats:
    """Aggregates over the lifetime of one :class:`ScanService`."""

    host_latencies_s: "list[float]" = field(default_factory=list)
    launches: "list[LaunchRecord]" = field(default_factory=list)
    #: every DeviceFault observed, including ones whose launch ultimately
    #: failed (so this can exceed the sum of per-launch ``faults``)
    fault_events: int = 0
    #: accumulated host seconds per serving phase (see :data:`HOST_PHASES`).
    #: Phases deferred onto executor threads report the seconds they ran,
    #: which overlap other phases — the breakdown attributes work, it is
    #: not a partition of wall-clock under ``parallel=``.
    phase_host_s: "dict[str, float]" = field(default_factory=dict)
    #: op kind -> (replayed launches, summed simulated device ns) for
    #: graph traffic — the per-op dimension of the device-time breakdown
    op_device_ns: "dict[str, tuple[int, float]]" = field(default_factory=dict)
    #: simulated arrival-to-completion latencies (ns) under open-loop
    #: traffic — queueing + batching wait + device time on the simulated
    #: clock, disjoint from the host-side ``host_latencies_s``
    sim_latencies_ns: "list[float]" = field(default_factory=list)
    #: served requests whose completion beat / missed their deadline
    deadline_hits: int = 0
    deadline_misses: int = 0
    #: requests refused at admission (deadline infeasible or pool dead)
    shed_requests: int = 0
    #: running launch totals, updated by ``record_launch`` so every
    #: launch-side aggregate below is O(1) however long the run is
    #: (``launches`` keeps the per-launch history for readers that need it)
    _device_ns: float = field(default=0.0, repr=False)
    _n_elements: int = field(default=0, repr=False)
    _io_bytes: int = field(default=0, repr=False)
    _coalesced: int = field(default=0, repr=False)
    _plan_hits: int = field(default=0, repr=False)
    _timeline_hits: int = field(default=0, repr=False)
    _tuned_launches: int = field(default=0, repr=False)
    _tuned_requests: int = field(default=0, repr=False)
    _retries: int = field(default=0, repr=False)
    _faults: int = field(default=0, repr=False)
    _backoff_ns: float = field(default=0.0, repr=False)
    _faulted_launches: int = field(default=0, repr=False)

    def record_op(self, kind: str, device_ns: float, *, host_s: float = 0.0) -> None:
        """Charge one graph node's replay to its op kind: simulated device
        ns here, host seconds as an ``op:<kind>`` phase.  The op phases
        are a breakdown *dimension* of the ``timeline`` phase (the node
        replays happen inside it), not additive with the canonical
        phases."""
        count, ns = self.op_device_ns.get(kind, (0, 0.0))
        self.op_device_ns[kind] = (count + 1, ns + device_ns)
        if host_s:
            self.add_phase(f"op:{kind}", host_s)

    def op_line(self) -> "str | None":
        """One formatted per-op device-time line, or None without graph
        traffic."""
        if not self.op_device_ns:
            return None
        parts = [
            f"{kind} {count}x {ns / 1e3:.1f} us"
            for kind, (count, ns) in sorted(self.op_device_ns.items())
        ]
        return "op breakdown    : " + ", ".join(parts)

    def record_request(self, host_s: float) -> None:
        self.host_latencies_s.append(host_s)

    def record_sim_request(
        self, latency_ns: float, *, deadline_met: "bool | None" = None
    ) -> None:
        """Record one served open-loop request: simulated latency plus its
        deadline verdict (None = the request carried no deadline)."""
        self.sim_latencies_ns.append(latency_ns)
        if deadline_met is True:
            self.deadline_hits += 1
        elif deadline_met is False:
            self.deadline_misses += 1

    def record_shed(self, count: int = 1) -> None:
        """Count requests refused at admission (never enqueued)."""
        self.shed_requests += count

    def record_launch(self, record: LaunchRecord) -> None:
        self.launches.append(record)
        self._device_ns += record.device_ns
        self._n_elements += record.n_elements
        self._io_bytes += record.io_bytes
        if record.kind == "batched":
            self._coalesced += record.requests
        self._plan_hits += record.plan_hit
        self._timeline_hits += record.timeline_hit
        if record.tuned:
            self._tuned_launches += 1
            self._tuned_requests += record.requests
        self._retries += record.retries
        self._faults += record.faults
        self._backoff_ns += record.backoff_ns
        self._faulted_launches += record.retries > 0

    def record_fault(self) -> None:
        self.fault_events += 1

    def add_phase(self, phase: str, seconds: float) -> None:
        """Charge ``seconds`` of host time to one serving phase."""
        self.phase_host_s[phase] = self.phase_host_s.get(phase, 0.0) + seconds

    def phase_line(self) -> "str | None":
        """One formatted breakdown line, or None before any phase ran."""
        if not self.phase_host_s:
            return None
        parts = [
            f"{name} {self.phase_host_s[name] * 1e3:.2f} ms"
            for name in HOST_PHASES
            if name in self.phase_host_s
        ]
        for name in sorted(self.phase_host_s):
            if name not in HOST_PHASES:
                parts.append(f"{name} {self.phase_host_s[name] * 1e3:.2f} ms")
        return "host phases     : " + ", ".join(parts)

    # -- request-side metrics ----------------------------------------------

    @property
    def requests(self) -> int:
        return len(self.host_latencies_s)

    @property
    def mean_host_latency_s(self) -> float:
        if not self.host_latencies_s:
            return 0.0
        return sum(self.host_latencies_s) / len(self.host_latencies_s)

    def host_latency_percentile_s(self, q: float) -> float:
        return _percentile(sorted(self.host_latencies_s), q)

    # -- simulated open-loop metrics -----------------------------------------

    @property
    def sim_requests(self) -> int:
        """Served open-loop requests (simulated-latency samples)."""
        return len(self.sim_latencies_ns)

    def sim_latency_percentile_ns(self, q: float) -> float:
        """Simulated latency percentile (p50/p99/p999 of the traffic run)."""
        return _percentile(sorted(self.sim_latencies_ns), q)

    @property
    def mean_sim_latency_ns(self) -> float:
        if not self.sim_latencies_ns:
            return 0.0
        return sum(self.sim_latencies_ns) / len(self.sim_latencies_ns)

    # -- launch-side metrics -----------------------------------------------

    @property
    def launch_count(self) -> int:
        return len(self.launches)

    @property
    def coalesced_requests(self) -> int:
        return self._coalesced

    @property
    def n_elements(self) -> int:
        return self._n_elements

    @property
    def device_ns(self) -> float:
        return self._device_ns

    @property
    def gelems_per_s(self) -> float:
        """Simulated device throughput (elements/ns == GElems/s)."""
        ns = self.device_ns
        return self.n_elements / ns if ns else 0.0

    @property
    def bandwidth_gbps(self) -> float:
        ns = self.device_ns
        if not ns:
            return 0.0
        return self._io_bytes / ns

    @property
    def plan_hit_rate(self) -> float:
        if not self.launches:
            return 0.0
        return self._plan_hits / len(self.launches)

    @property
    def timeline_hit_rate(self) -> float:
        """Fraction of launches served from a memoized timeline (every
        launch after a plan's first is a hit once replay caching is on)."""
        if not self.launches:
            return 0.0
        return self._timeline_hits / len(self.launches)

    @property
    def tuned_launches(self) -> int:
        """Launches whose plan configuration came from the tuned store."""
        return self._tuned_launches

    @property
    def tuned_requests(self) -> int:
        """Requests served by tuned-plan launches."""
        return self._tuned_requests

    @property
    def tuned_hit_rate(self) -> float:
        """Fraction of launches that used a tuned plan configuration."""
        if not self.launches:
            return 0.0
        return self.tuned_launches / len(self.launches)

    # -- resilience metrics --------------------------------------------------

    @property
    def total_retries(self) -> int:
        """Relaunches across all successful launches."""
        return self._retries

    @property
    def total_faults(self) -> int:
        """Transient faults absorbed by launches that went on to succeed."""
        return self._faults

    @property
    def total_backoff_ns(self) -> float:
        """Simulated retry backoff charged to device time."""
        return self._backoff_ns

    @property
    def faulted_launches(self) -> int:
        """Launches that needed at least one retry."""
        return self._faulted_launches

    def summary(self) -> str:
        lat = sorted(self.host_latencies_s)
        lines = [
            f"requests        : {self.requests} "
            f"({self.coalesced_requests} coalesced into batched launches)",
            f"launches        : {self.launch_count} "
            f"(plan hit rate {self.plan_hit_rate:.0%}, "
            f"timeline hit rate {self.timeline_hit_rate:.0%}, "
            f"tuned {self.tuned_hit_rate:.0%})",
            f"host latency    : mean {self.mean_host_latency_s * 1e3:.2f} ms, "
            f"p50 {_percentile(lat, 0.50) * 1e3:.2f} ms, "
            f"p99 {_percentile(lat, 0.99) * 1e3:.2f} ms",
            f"device          : {self.device_ns / 1e3:.1f} us simulated, "
            f"{self.gelems_per_s:.1f} GElems/s, "
            f"{self.bandwidth_gbps:.1f} GB/s",
        ]
        if self.sim_latencies_ns:
            sim = sorted(self.sim_latencies_ns)
            lines.append(
                f"sim latency     : {self.sim_requests} requests, "
                f"p50 {_percentile(sim, 0.50) / 1e3:.1f} us, "
                f"p99 {_percentile(sim, 0.99) / 1e3:.1f} us, "
                f"p999 {_percentile(sim, 0.999) / 1e3:.1f} us; "
                f"{self.deadline_hits} in deadline / "
                f"{self.deadline_misses} late / "
                f"{self.shed_requests} shed"
            )
        phases = self.phase_line()
        if phases is not None:
            lines.append(phases)
        ops = self.op_line()
        if ops is not None:
            lines.append(ops)
        if self.fault_events:
            lines.append(
                f"resilience      : {self.fault_events} fault events, "
                f"{self.total_retries} retries over "
                f"{self.faulted_launches} launches, "
                f"{self.total_backoff_ns / 1e3:.1f} us backoff"
            )
        return "\n".join(lines)
