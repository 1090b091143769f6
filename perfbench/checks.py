"""Output checks computed apart from the program.

The expected outputs come from the benchmark's own inputs: the contents
it generated for each sequence number, the due time of each broadcast
and the host and cluster layout it asked for.  Nothing here reads the
program's own verdicts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass
class Outcome:
    """Checked result of one round."""

    attempted: int
    #: (host, seq) pairs not delivered by the timeout
    failed: int
    #: delivery delay from each broadcast's due time, protocol seconds
    delays: List[float] = field(default_factory=list)
    #: deliveries that came through gap filling
    via_gapfill: int = 0
    #: violated properties; any entry makes the run incorrect
    breaches: List[str] = field(default_factory=list)


def check_round(contents: Sequence[str], issued: Sequence[int],
                records: Sequence[tuple], hosts: Sequence[object],
                source: object, dues: Sequence[float], *, clusters: int,
                inter_cluster_data: int) -> Outcome:
    """Check one round's deliveries against its inputs.

    ``records`` holds ``(host, DeliveryRecord)`` for every delivery at
    a non-source host.  Properties:

    * the source numbered the broadcasts 1..n in the order issued;
    * every non-source host delivers each seq 1..n at most once, with
      the content generated for that seq (an undelivered pair is a
      failed operation, not a breach);
    * every delay measured from the due time is >= 0;
    * with everything delivered, each message crossed into each of the
      other ``clusters - 1`` clusters at least once.
    """
    n = len(contents)
    # Host names, not ids, key everything here, so that the checks add
    # no HostId hashing to what a traced round counts.
    source = str(source)
    receivers = {str(h) for h in hosts} - {source}
    breaches: List[str] = []
    if list(issued) != list(range(1, len(issued) + 1)) or len(issued) != n:
        breaches.append(f"source issued seqs {list(issued)[:5]}... "
                        f"({len(issued)}), expected 1..{n}")
    seen: Counter = Counter()
    delays: List[float] = []
    via_gapfill = 0
    for host, rec in records:
        host = str(host)
        if host == source or host not in receivers:
            breaches.append(f"delivery recorded at unexpected host {host}")
            continue
        if not 1 <= rec.seq <= n:
            breaches.append(f"{host} delivered unknown seq {rec.seq}")
            continue
        seen[(host, rec.seq)] += 1
        if rec.content != contents[rec.seq - 1]:
            breaches.append(f"{host} seq {rec.seq}: content {rec.content!r} "
                            f"!= {contents[rec.seq - 1]!r}")
        delay = rec.delivered_at - dues[rec.seq - 1]
        if delay < 0:
            breaches.append(f"{host} seq {rec.seq}: delivered {-delay:.6f}s "
                            "before its due time")
        delays.append(delay)
        via_gapfill += rec.via_gapfill
    twice = [pair for pair, count in seen.items() if count > 1]
    if twice:
        breaches.append(f"{len(twice)} (host, seq) pairs delivered more "
                        f"than once, e.g. {twice[0]}")
    attempted = n * len(receivers)
    failed = attempted - len(seen)
    if failed == 0 and inter_cluster_data < (clusters - 1) * n:
        breaches.append(f"{inter_cluster_data} inter-cluster data messages "
                        f"for {n} broadcasts over {clusters} clusters "
                        f"(at least {(clusters - 1) * n} needed)")
    return Outcome(attempted=attempted, failed=failed, delays=delays,
                   via_gapfill=via_gapfill, breaches=breaches)
