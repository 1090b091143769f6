"""Spans around the program's layers, installed from outside at runtime.

Nothing here edits the program: :func:`install` replaces public entry
points of each layer on their classes (and the one module global,
``checksum_ok``, that ``repro.core.host`` imported by name) with
wrappers that record a span per call, and :meth:`Patches.restore` puts
the originals back.  An untraced run never calls :func:`install`.

Layers are named by module: ``sim`` (``repro.sim``), ``net``
(``repro.net``), ``wire`` (``core/wire.py``), ``seqnoset`` and
``mapstate`` (the INFO sets), ``host`` (``core/host.py`` and the
callbacks it hands to its runtime and transport) and ``io``
(``repro.io``'s UDP transport and asyncio runtime).
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: layer of every span name is the part before the first dot
LAYERS = ("sim", "net", "wire", "seqnoset", "mapstate", "host", "io")


class SpanLog:
    """Spans kept in memory as four parallel arrays.

    Each span has a name, a start, an end and a parent (the span open
    when it began, -1 at top level).  A layer's self time is the time
    of its spans minus the time of their child spans.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: plain counters bumped by wrappers that record no span
        self.counts: Dict[str, float] = defaultdict(float)
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (span names are kept)."""
        self.counts.clear()
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        log = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(log.start)
            log.name.append(nid)
            log.parent.append(log._stack[-1])
            log.end.append(0.0)
            log._stack.append(idx)
            log.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                log.end[idx] = clock()
                log._stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def summarize(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: Dict[str, List[float]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            duration = end[i] - start[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return {name: (int(c), t, s) for name, (c, t, s) in out.items()}


class Patches:
    """Attributes replaced on classes or modules, restorable in reverse."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back, last replaced first."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _public_methods(cls: type) -> List[str]:
    return [attr for attr, value in vars(cls).items()
            if not attr.startswith("_") and inspect.isfunction(value)]


def install(log: SpanLog) -> Patches:
    """Wrap every layer's public entry points; returns the undo list."""
    from repro.core import host as host_module
    from repro.core import wire
    from repro.core.host import BroadcastHost
    from repro.core.mapstate import MapState
    from repro.core.seqnoset import SeqnoSet
    from repro.io import SimRuntime
    from repro.io.aio import AsyncioRuntime
    from repro.io.udp import UdpTransport
    from repro.net import HostId, HostPort, Link, Server
    from repro.sim import Simulator

    patches = Patches()

    def span(owner: type, attr: str, name: str) -> None:
        patches.set(owner, attr, log.wrap(name, getattr(owner, attr)))

    # sim: the kernel loop and its scheduling calls
    for attr in ("run", "schedule", "schedule_at", "call_soon", "cancel"):
        span(Simulator, attr, f"sim.{attr}")

    # net: links, servers and the host's port onto the network
    span(Link, "transmit", "net.transmit")
    span(Server, "receive", "net.server_receive")
    span(HostPort, "send", "net.port_send")
    span(HostPort, "inject", "net.port_inject")
    hash_of = HostId.__hash__
    counts = log.counts

    def counted_hash(self):
        counts["net.hostid_hashes"] += 1
        return hash_of(self)

    patches.set(HostId, "__hash__", counted_hash)

    # wire: message construction and checksum validation
    for cls in (wire.DataMsg, wire.InfoMsg, wire.AttachRequest,
                wire.AttachAck, wire.DetachNotice):
        span(cls, "__init__", f"wire.{cls.__name__}")
    checksum_ok = log.wrap("wire.checksum_ok", wire.checksum_ok)
    for module in (wire, host_module):
        patches.set(module, "checksum_ok", checksum_ok)

    # INFO sets: every public method; copies also record fragmentation
    ranges_of = SeqnoSet.ranges
    copy_of = SeqnoSet.copy

    def copy_and_measure(self):
        snapshot = copy_of(self)
        n = len(ranges_of(snapshot))
        if n > counts["seqnoset.max_ranges"]:
            counts["seqnoset.max_ranges"] = n
        return snapshot

    for attr in _public_methods(SeqnoSet):
        if attr != "copy":
            span(SeqnoSet, attr, f"seqnoset.{attr}")
    patches.set(SeqnoSet, "copy", log.wrap("seqnoset.copy", copy_and_measure))
    for attr in _public_methods(MapState):
        span(MapState, attr, f"mapstate.{attr}")

    # host: callbacks the machines hand to their transport and runtime
    def wrapping_receiver(cls: type) -> None:
        original = cls.set_receiver

        def set_receiver(self, callback):
            original(self, log.wrap("host.receive", callback))

        patches.set(cls, "set_receiver", set_receiver)

    def wrapping_periodic(cls: type) -> None:
        original = cls.start_periodic

        def start_periodic(self, period, callback, **kwargs):
            return original(self, period, log.wrap("host.tick", callback),
                            **kwargs)

        patches.set(cls, "start_periodic", start_periodic)

    def owner_span(callback: Callable) -> Callable:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, BroadcastHost):
            return log.wrap("host.timer", callback)
        if isinstance(owner, UdpTransport):
            return log.wrap("io.callback", callback)
        return callback

    def wrapping_timers(cls: type) -> None:
        start_timer, call_soon = cls.start_timer, cls.call_soon

        def wrapped_start_timer(self, delay, callback):
            return start_timer(self, delay, owner_span(callback))

        def wrapped_call_soon(self, callback, *args):
            return call_soon(self, owner_span(callback), *args)

        patches.set(cls, "start_timer", wrapped_start_timer)
        patches.set(cls, "call_soon", wrapped_call_soon)

    for cls in (HostPort, UdpTransport):
        wrapping_receiver(cls)
    for cls in (SimRuntime, AsyncioRuntime):
        wrapping_periodic(cls)
        wrapping_timers(cls)

    # io: the UDP transport's send and receive entry points
    span(UdpTransport, "send_raw", "io.send_raw")
    received = UdpTransport.datagram_received

    def datagram_received(self, data, addr):
        counts["io.frame_bytes"] += len(data)
        return received(self, data, addr)

    patches.set(UdpTransport, "datagram_received",
                log.wrap("io.datagram_received", datagram_received))
    return patches
