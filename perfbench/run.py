"""Run one workload of the benchmark and print its metrics as JSON.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload data_lossy16 --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program.  ``--trace 1`` gives the per-layer metrics: it runs pairs
of rounds on one seed, first untraced and then with spans wrapped
around each layer's public entry points, and reports the tracing
overhead as the difference of their run times.  The last line of
standard output is one JSON object; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: every run attempts at least this many whole rounds: on the simulator
#: one seed twice (the repeat check) and then a second seed
MIN_ROUNDS = 3
#: fresh interpreters started, one after another, to time set-up; one
#: probe varies by a quarter with the machine's other load, the median
#: of this many by a few percent
SETUP_PROBES = 21


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def quantile(values: List[float], q: float) -> float:
    """The ``q`` quantile of ``values``, linearly interpolated."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def across_rounds(results, q: float, reduce) -> float:
    """``reduce`` over distinct rounds of each round's ``q`` delay quantile.

    A repeated seed (the simulator's repeat check) is counted once.
    """
    distinct = {r.seed: r for r in results if r.outcome.delays}
    return reduce([quantile(r.outcome.delays, q) for r in distinct.values()])


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from a fresh interpreter to a started deployment."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def play_round(workload, seed: int, wrap=None):
    from workloads import run_sim_round, run_udp_round
    kwargs = {} if wrap is None else {"wrap": wrap}
    if workload.backend == "sim":
        return run_sim_round(workload, seed, **kwargs)
    return asyncio.run(run_udp_round(workload, seed, **kwargs))


def describe(result) -> str:
    o = result.outcome
    p50 = quantile(o.delays, 0.5) if o.delays else float("nan")
    return (f"round seed={result.seed} wall={result.wall_s:.3f}s "
            f"cpu={result.cpu_s:.3f}s delivered={o.attempted - o.failed}"
            f"/{o.attempted} delay_p50={p50:.4f}s breaches={len(o.breaches)}")


def repeat_breaches(results) -> List[str]:
    """Rounds on the same simulated seed must do exactly the same work."""
    breaches = []
    first: Dict[int, object] = {}
    for result in results:
        if not result.work:
            continue
        earlier = first.setdefault(result.seed, result)
        if earlier is not result and earlier.work != result.work:
            diff = {k: (earlier.work[k], result.work[k]) for k in result.work
                    if earlier.work[k] != result.work[k]}
            breaches.append(f"seed {result.seed} repeated with other work: "
                            f"{diff}")
    return breaches


def end_to_end(workload, seed: int, seconds: float) -> dict:
    from workloads import round_seeds
    setup_s = measure_setup(workload.name, seed)
    results = []
    began = time.perf_counter()
    for round_seed in round_seeds(workload, seed):
        elapsed = time.perf_counter() - began
        if len(results) >= MIN_ROUNDS and (
                elapsed + elapsed / len(results) > seconds):
            break
        results.append(play_round(workload, round_seed))
        log(describe(results[-1]))

    delivered = sum(r.outcome.attempted - r.outcome.failed for r in results)
    wall = sum(r.wall_s for r in results)
    cpu = sum(r.cpu_s for r in results)
    broadcasts = workload.messages * len(results)
    breaches = [b for r in results for b in r.outcome.breaches]
    breaches += repeat_breaches(results)
    for breach in breaches:
        log(f"BREACH: {breach}")
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "deliveries_per_s": (delivered / wall, "1/s"),
        "cpu_ms_per_delivery": (1000.0 * cpu / delivered, "ms"),
        "peak_mem_mib": (rss_mib, "MiB"),
        "ctl_per_delivery": (
            sum(r.control_sends for r in results) / delivered, "count"),
        "inter_cluster_data_per_msg": (
            sum(r.inter_cluster_data for r in results) / broadcasts, "count"),
        # The typical round's median, but the tail of every round: a
        # round's tail is set mostly by how late its first broadcasts
        # reach the other clusters, and one round's p99 can be several
        # times another's.  Pooled over all pairs, or as a median over
        # rounds, the p99 jumps with one or two slow rounds; their
        # geometric mean moves with the share of slow rounds.
        "delay_p50_s": (across_rounds(results, 0.50, statistics.median), "s"),
        "delay_p99_s": (
            across_rounds(results, 0.99, statistics.geometric_mean), "s"),
    }
    return {
        "correct": not breaches,
        "attempted": sum(r.outcome.attempted for r in results),
        "failed": sum(r.outcome.failed for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def per_layer(workload, seed: int, seconds: float) -> dict:
    from tracing import SpanLog, install
    from workloads import round_seeds
    spans = SpanLog()
    plain, traced, summaries, counts = [], [], [], []
    began = time.perf_counter()
    for round_seed in round_seeds(workload, seed):
        elapsed = time.perf_counter() - began
        if traced and elapsed + elapsed / len(traced) > seconds:
            break
        if plain and round_seed == plain[-1].seed:
            continue  # the repeat is checked by untraced runs
        plain.append(play_round(workload, round_seed))
        log("untraced " + describe(plain[-1]))
        patches = install(spans)
        try:
            traced.append(play_round(workload, round_seed, wrap=spans.wrap))
        finally:
            patches.restore()
        log("traced   " + describe(traced[-1]) + f" spans={len(spans)}")
        summaries.append(spans.summarize())
        counts.append(dict(spans.counts))
        spans.reset()

    breaches = [b for r in plain + traced for b in r.outcome.breaches]
    for a, b in zip(plain, traced):
        if a.work != b.work:
            breaches.append(f"seed {a.seed}: tracing changed the work done")
    for breach in breaches:
        log(f"BREACH: {breach}")
    metrics = layer_metrics(workload, plain, traced, summaries, counts)
    return {
        "correct": not breaches,
        "attempted": sum(r.outcome.attempted for r in traced),
        "failed": sum(r.outcome.failed for r in traced),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def layer_metrics(workload, plain, traced, summaries, counts) -> dict:
    """Per-layer figures, each per traced round unless it is a rate.

    Counts and self times come from the traced rounds; rates that
    tracing would distort (events per second, loop busy share, timer
    lateness) come from the untraced round of the same seed.
    """
    from tracing import LAYERS
    rounds = len(traced)
    calls: Dict[str, int] = {}
    inclusive: Dict[str, float] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    for summary in summaries:
        for name, (n, total, own) in summary.items():
            calls[name] = calls.get(name, 0) + n
            inclusive[name] = inclusive.get(name, 0.0) + total
            self_s[name.split(".")[0]] += own
    extra: Dict[str, float] = {}
    for round_counts in counts:
        for name, value in round_counts.items():
            if name == "seqnoset.max_ranges":
                extra[name] = max(extra.get(name, 0.0), value)
            else:
                extra[name] = extra.get(name, 0.0) + value

    def n_calls(*names: str) -> float:
        return sum(calls.get(name, 0) for name in names) / rounds

    def mean_us(*names: str) -> float:
        n = sum(calls.get(name, 0) for name in names)
        total = sum(inclusive.get(name, 0.0) for name in names)
        return 1e6 * total / n if n else 0.0

    def counter(name: str) -> float:
        return sum(r.counters.get(name, 0.0) for r in traced) / rounds

    def layer(name: str) -> float:
        return sum(r.layer.get(name, 0.0) for r in traced) / rounds

    delivered = sum(r.outcome.attempted - r.outcome.failed
                    for r in traced) / rounds
    gapfill_sent = counter("proto.gapfill.sent")
    data_in = counter("net.h2h.recv.kind.data")
    via_gapfill = sum(r.outcome.via_gapfill for r in traced) / rounds
    datagrams_sent = n_calls("io.send_raw")
    datagrams_recv = n_calls("io.datagram_received")
    plain_wall = sum(r.wall_s for r in plain)
    late = [t for r in plain for t in r.timer_late_s]
    wire_ctors = [n for n in calls if n.startswith("wire.")
                  and n != "wire.checksum_ok"]
    m = {
        "sim.events": (layer("sim.events"), "count"),
        "sim.events_per_s": (
            sum(r.layer.get("sim.events", 0.0) for r in plain) / plain_wall,
            "1/s"),
        "sim.schedules": (
            n_calls("sim.schedule", "sim.schedule_at", "sim.call_soon"),
            "count"),
        "sim.cancels": (n_calls("sim.cancel"), "count"),
        "sim.self_s": (self_s["sim"] / rounds, "s"),
        "net.link_tx": (counter("net.link_tx.total"), "count"),
        "net.link_tx_per_delivery": (
            counter("net.link_tx.total") / delivered, "count"),
        "net.transmit_us": (mean_us("net.transmit"), "us"),
        "net.server_forwards": (n_calls("net.server_receive"), "count"),
        "net.overflow_drops": (counter("net.drop.overflow"), "count"),
        "net.queue_peak": (layer("net.queue_peak"), "count"),
        "net.series_points": (layer("net.series_points"), "count"),
        "net.hostid_hashes": (
            extra.get("net.hostid_hashes", 0.0) / rounds, "count"),
        "net.self_s": (self_s["net"] / rounds, "s"),
        "wire.msgs_built": (n_calls(*wire_ctors), "count"),
        "wire.build_us": (mean_us(*wire_ctors), "us"),
        "wire.checksum_checks": (n_calls("wire.checksum_ok"), "count"),
        "wire.self_s": (self_s["wire"] / rounds, "s"),
        "seqnoset.difference_calls": (
            n_calls("seqnoset.difference"), "count"),
        "seqnoset.difference_us": (mean_us("seqnoset.difference"), "us"),
        "seqnoset.copy_calls": (n_calls("seqnoset.copy"), "count"),
        "seqnoset.max_ranges": (
            extra.get("seqnoset.max_ranges", 0.0), "count"),
        "seqnoset.self_s": (self_s["seqnoset"] / rounds, "s"),
        "mapstate.apply_info_calls": (
            n_calls("mapstate.apply_info"), "count"),
        "mapstate.self_s": (self_s["mapstate"] / rounds, "s"),
        "host.packets_in": (n_calls("host.receive"), "count"),
        "host.recv_us": (mean_us("host.receive"), "us"),
        "host.ticks": (n_calls("host.tick"), "count"),
        "host.self_s": (self_s["host"] / rounds, "s"),
        "host.info_sent": (
            counter("proto.info.sent.intra")
            + counter("proto.info.sent.inter"), "count"),
        "host.attach_requests": (n_calls("wire.AttachRequest"), "count"),
        "host.parent_timeouts": (counter("proto.parent.timeouts"), "count"),
        "host.gapfill_sent": (gapfill_sent, "count"),
        "host.gapfill_useful": (
            via_gapfill / gapfill_sent if gapfill_sent else 0.0, "ratio"),
        "host.data_useful": (delivered / data_in if data_in else 0.0,
                             "ratio"),
        "io.datagrams_sent": (datagrams_sent, "count"),
        "io.datagrams_recv": (datagrams_recv, "count"),
        "io.datagrams_lost": (datagrams_sent - datagrams_recv, "count"),
        "io.send_us": (mean_us("io.send_raw"), "us"),
        "io.recv_us": (
            1e6 * sum(s.get(name, (0, 0.0, 0.0))[2] for s in summaries
                      for name in ("io.datagram_received", "io.callback"))
            / (datagrams_recv * rounds) if datagrams_recv else 0.0, "us"),
        "io.frame_bytes": (
            extra.get("io.frame_bytes", 0.0) / (datagrams_recv * rounds)
            if datagrams_recv else 0.0, "bytes"),
        "io.timer_late_ms": (
            1000.0 * statistics.fmean(late) if late else 0.0, "ms"),
        "io.loop_busy": (
            sum(r.cpu_s for r in plain) / plain_wall
            if workload.backend == "udp" else 0.0, "ratio"),
        "io.self_s": (self_s["io"] / rounds, "s"),
        "trace.overhead_s": (
            (sum(r.wall_s for r in traced) - plain_wall) / rounds, "s"),
        "trace.overhead_cpu_s": (
            (sum(r.cpu_s for r in traced) - sum(r.cpu_s for r in plain))
            / rounds, "s"),
        "trace.spans": (
            sum(n for s in summaries for n, _t, _o in s.values()) / rounds,
            "count"),
    }
    return m


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = HERE.parent / "src"
    try:
        import repro  # the program under test
    except ImportError as exc:
        log(f"cannot import the program from {src}: {exc}")
        return 2
    if src not in Path(repro.__file__).resolve().parents:
        log(f"imported repro from {repro.__file__}, not from {src}")
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        log(f"unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}")
        return 2
    run = per_layer if args.trace else end_to_end
    report = run(workload, args.seed, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
