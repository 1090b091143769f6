"""The two workloads and one round of each.

A *round* is one fresh deployment: build the topology and hosts, start
them, let the source broadcast a fixed stream on an open-loop schedule,
and run until every host has delivered every message or the workload's
timeout passes.  One *operation* is one (broadcast, non-source host)
pair; it fails when that host has not delivered that message by the
timeout.  Every round of a workload attempts the same number of
operations, so the failed share of a run does not depend on its length.

The program is driven only through its public API: ``wan_of_lans``,
``BroadcastSystem``, ``ProtocolConfig.for_scale``,
``UdpBroadcastSystem`` and ``SourceHost.broadcast``.  Every input (the
deployment seed of each round and the message contents) is derived from
the command-line seed.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro import BroadcastSystem, ProtocolConfig, Simulator, wan_of_lans
from repro.io import UdpBroadcastSystem, cluster_names
from repro.net import expensive_spec

from checks import Outcome, check_round


@dataclass(frozen=True)
class Workload:
    """Sizes and schedule of one workload (times in protocol seconds)."""

    name: str
    backend: str  # "sim" or "udp"
    clusters: int
    hosts_per_cluster: int
    messages: int
    interval: float
    #: first broadcast, counted from the moment the hosts are started
    start_at: float
    #: an operation fails if undelivered this long after the hosts start
    timeout: float
    #: sim only: simulate at least this long, so that every seed that
    #: converges earlier does the same simulated work
    horizon: float = 0.0
    trunk_loss: float = 0.0
    data_size_bits: Optional[int] = None
    time_scale: float = 1.0

    @property
    def hosts(self) -> int:
        return self.clusters * self.hosts_per_cluster

    @property
    def pairs(self) -> int:
        """Operations attempted per round."""
        return self.messages * (self.hosts - 1)

    def config(self) -> ProtocolConfig:
        overrides = {}
        if self.data_size_bits is not None:
            overrides["data_size_bits"] = self.data_size_bits
        return ProtocolConfig.for_scale(self.hosts, **overrides)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        # Data plane: a 20 msg/s stream of small payloads with 2% loss
        # on the trunks, so forwarding, gap filling and INFO-set scans
        # dominate.  The stream starts once the tree has formed, so
        # delays measure forwarding and loss recovery, not formation.
        # Rounds are short (7.5 s of stream) so that a run holds about
        # fifty: the delay tail of a round is set mostly by how long the
        # first broadcasts take to reach the other clusters, which
        # varies several-fold between rounds.
        Workload("data_lossy16", "sim", clusters=4, hosts_per_cluster=4,
                 messages=150, interval=0.05, start_at=30.0,
                 horizon=42.5, timeout=300.0,
                 trunk_loss=0.02, data_size_bits=1000),
        # Real sockets: 50 broadcasts per wall second at time_scale 0.2
        # (one every 0.1 protocol s) over localhost UDP, 15 protocol s
        # after the hosts start.  Short streams again, for more rounds:
        # the tail is set per round, as on the simulator.
        Workload("udp_stream16", "udp", clusters=4, hosts_per_cluster=4,
                 messages=100, interval=0.1, start_at=15.0,
                 timeout=100.0, time_scale=0.2),
    )
}


def derive_seed(workload: str, seed: int, index: int) -> int:
    """The deployment seed of the ``index``-th distinct round."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def round_seeds(workload: Workload, seed: int) -> Iterator[int]:
    """Deployment seeds of successive rounds.

    On the simulator the first seed is used twice, so that a run can
    check that the same inputs give exactly the same work.
    """
    if workload.backend == "sim":
        yield derive_seed(workload.name, seed, 0)
    index = 0
    while True:
        yield derive_seed(workload.name, seed, index)
        index += 1


def contents_for(workload: Workload, round_seed: int) -> List[str]:
    """The payload of every broadcast of one round (small strings)."""
    rng = random.Random(round_seed)
    return [f"{round_seed}/{seq}/{rng.getrandbits(48):012x}"
            for seq in range(1, workload.messages + 1)]


@dataclass
class RoundResult:
    """What one round measured and what its checks found."""

    seed: int
    wall_s: float
    cpu_s: float
    outcome: Outcome
    control_sends: int
    inter_cluster_data: int
    #: work that must repeat between two rounds of one seed
    work: Dict[str, object] = field(default_factory=dict)
    #: the program's own counters at the end of the round
    counters: Dict[str, float] = field(default_factory=dict)
    #: how late each broadcast timer fired, in wall seconds
    timer_late_s: List[float] = field(default_factory=list)
    #: extra per-round facts the traced run reads (queue peaks, ...)
    layer: Dict[str, float] = field(default_factory=dict)


Wrap = Callable[[str, Callable], Callable]


def _no_wrap(_name: str, fn: Callable) -> Callable:
    return fn


def signature(rows: Iterable[tuple]) -> str:
    """SHA-256 over a set of rows (one per delivery), in sorted order."""
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(repr(row).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------


def build_sim(workload: Workload, seed: int,
              deliver: Optional[Callable] = None) -> BroadcastSystem:
    """Topology, routing and hosts of one simulated deployment, started."""
    sim = Simulator(seed=seed)
    expensive = (expensive_spec(loss_prob=workload.trunk_loss)
                 if workload.trunk_loss else None)
    built = wan_of_lans(sim, workload.clusters, workload.hosts_per_cluster,
                        backbone="star", expensive=expensive)
    system = BroadcastSystem(built, workload.config(),
                             deliver_callback=deliver)
    return system.start()


def run_sim_round(workload: Workload, seed: int,
                  wrap: Wrap = _no_wrap) -> RoundResult:
    """Build (untimed), then time the simulated stream to its end."""
    log: List[tuple] = []
    system = build_sim(workload, seed,
                       lambda host, record: log.append((host, record)))
    sim = system.sim
    source = system.source
    contents = contents_for(workload, seed)
    dues = [workload.start_at + k * workload.interval
            for k in range(workload.messages)]
    issued: List[int] = []

    def fire(index: int) -> None:
        issued.append(source.broadcast(contents[index]))

    fire = wrap("host.broadcast", fire)
    for index, due in enumerate(dues):
        sim.schedule_at(due, fire, index)
    target = workload.pairs
    errors: List[str] = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        sim.run(until=workload.horizon)
        while len(log) - len(issued) < target and sim.now < workload.timeout:
            sim.run(until=min(sim.now + 1.0, workload.timeout))
    except Exception as exc:  # a fault raised in any layer fails the run
        errors.append(f"simulation raised {exc!r} at t={sim.now:.3f}")
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    system.stop()

    counters = sim.metrics.counters()
    records = [(host, rec) for host, rec in log if host != system.source_id]
    inter = int(counters.get("net.h2h.recv.expensive.kind.data", 0))
    outcome = check_round(
        contents, issued, records, system.built.hosts, system.source_id,
        dues, clusters=workload.clusters, inter_cluster_data=inter)
    outcome.breaches.extend(errors)
    network = system.network
    queue_peak = max(link.queue_peak(end) for link in network.links.values()
                     for end in (link.link_id.a, link.link_id.b))
    series_points = sum(
        len(sim.metrics.series(f"linkq.{link.link_id}.{end}").values())
        for link in network.links.values()
        for end in (link.link_id.a, link.link_id.b))
    info_sent = int(counters.get("proto.info.sent.intra", 0)
                    + counters.get("proto.info.sent.inter", 0))
    return RoundResult(
        seed=seed, wall_s=wall, cpu_s=cpu, outcome=outcome,
        control_sends=int(counters.get("net.h2h.sent.kind.control", 0)),
        inter_cluster_data=inter,
        work={
            "sim.events": sim.events_executed,
            "net.link_tx": int(counters.get("net.link_tx.total", 0)),
            "host.info_sent": info_sent,
            "delivery_signature": signature(
                [(str(h), r.seq, r.delivered_at, str(r.supplier))
                 for h, r in records]),
        },
        counters=counters,
        layer={"sim.events": sim.events_executed,
               "net.queue_peak": queue_peak,
               "net.series_points": series_points},
    )


# ----------------------------------------------------------------------
# UDP workload
# ----------------------------------------------------------------------


def build_udp(workload: Workload, seed: int,
              deliver: Optional[Callable] = None) -> UdpBroadcastSystem:
    """Hosts and transports of one UDP deployment (sockets not bound)."""
    return UdpBroadcastSystem(
        cluster_names(workload.clusters, workload.hosts_per_cluster),
        workload.config(), seed=seed, time_scale=workload.time_scale,
        deliver_callback=deliver, trace=False)


async def run_udp_round(workload: Workload, seed: int,
                        wrap: Wrap = _no_wrap) -> RoundResult:
    """Open the sockets (untimed), then time the stream to its end.

    Broadcast timers are armed for fixed due times up front (an open
    loop); latency counts from the due time, so a stalled loop shows up
    as delay, and each timer's lateness is kept.
    """
    delivered = 0
    everything = asyncio.Event()
    log: List[tuple] = []
    # asyncio only logs what a callback raises (host receive, timers,
    # the transport's drain, ``fire``); collect it to fail the round.
    errors: List[str] = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: errors.append(
            f"loop callback raised: {context.get('message')} "
            f"{context.get('exception')!r}"))

    def deliver(host, record) -> None:
        nonlocal delivered
        log.append((host, record))
        if host != system.source_id:
            delivered += 1
            if delivered >= workload.pairs:
                everything.set()

    system = build_udp(workload, seed, deliver)
    await system.open()
    runtime = system.runtime
    source = system.source
    contents = contents_for(workload, seed)
    opened = runtime.now()
    dues = [opened + workload.start_at + k * workload.interval
            for k in range(workload.messages)]
    issued: List[int] = []
    late: List[float] = []

    # Timers take relative delays, so a pause while arming them can
    # make one fire after its successor.  The k-th timer to fire issues
    # the k-th broadcast, whose due time is the k-th earliest, so the
    # contents stay in seq order and no timer fires before its due time.
    def fire() -> None:
        index = len(issued)
        late.append((runtime.now() - dues[index]) * workload.time_scale)
        issued.append(source.broadcast(contents[index]))

    fire = wrap("host.broadcast", fire)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    timers = [runtime.start_timer(due - runtime.now(), fire) for due in dues]
    deadline = (opened + workload.timeout - runtime.now()) * workload.time_scale
    try:
        await asyncio.wait_for(everything.wait(), timeout=max(0.0, deadline))
    except asyncio.TimeoutError:
        pass
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    for timer in timers:
        runtime.cancel_timer(timer)
    system.close()

    counters = runtime.metrics.counters()
    source_id = system.source_id
    records = [(host, rec) for host, rec in log if host != source_id]
    cluster_of = {host: index for index, members in
                  enumerate(cluster_names(workload.clusters,
                                          workload.hosts_per_cluster))
                  for host in members}
    # No cost bits on real sockets: count the deliveries whose supplier
    # sits in another cluster (the useful inter-cluster transmissions).
    inter = sum(1 for host, rec in records
                if cluster_of[str(rec.supplier)] != cluster_of[str(host)])
    outcome = check_round(
        contents, issued, records, system.host_ids, source_id, dues,
        clusters=workload.clusters, inter_cluster_data=inter)
    outcome.breaches.extend(errors)
    # Delivery times and suppliers depend on the wall clock, so only
    # what was issued and what was delivered must repeat on a seed.
    return RoundResult(
        seed=seed, wall_s=wall, cpu_s=cpu, outcome=outcome,
        control_sends=int(counters.get("net.h2h.sent.kind.control", 0)),
        inter_cluster_data=inter,
        work={"issued": tuple(issued),
              "delivered": signature((str(h), r.seq, r.content)
                                     for h, r in records)},
        counters=counters, timer_late_s=late)
