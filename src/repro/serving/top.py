"""``repro top`` — a refreshing terminal dashboard for a serving process.

The poller attaches to a running ``repro serve --tcp`` server, issues the
four read-only telemetry verbs (``stats``, ``health``, ``slo``,
``events``) each tick, and renders one frame: QPS and per-counter rates
(computed client-side with
:func:`repro.observability.export.snapshot_delta`), admission state,
cache hit ratio, serve-latency quantiles, per-dataset generation/size,
partition-skew gauges, SLO burn status, and the newest structured events.

Rendering is a pure function (:func:`render_frame`) over the decoded
responses — the tests drive it with canned samples and the live loop
(:func:`run_top`) stays a thin transport shell.  ``--once`` prints a
single frame and exits (the CI smoke path); the interactive loop
repaints with ANSI clear-home until interrupted or ``--count`` frames
have been shown.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.observability.export import snapshot_delta
from repro.serving.client import ServingClient, ServingConnectionError

__all__ = ["Sample", "collect_sample", "render_frame", "run_top"]

#: ANSI clear screen + cursor home (the repaint between live frames).
_CLEAR = "\x1b[2J\x1b[H"

_STATUS_TAGS = {"healthy": "OK", "degraded": "WARN", "unhealthy": "PAGE"}


class Sample:
    """One poll of the telemetry plane, timestamped for rate math."""

    __slots__ = ("stats", "health", "slo", "events", "polled_at")

    def __init__(
        self,
        stats: Dict[str, Any],
        health: Dict[str, Any],
        slo: Dict[str, Any],
        events: List[Dict[str, Any]],
        polled_at: float,
    ):
        self.stats = stats
        self.health = health
        self.slo = slo
        self.events = events
        self.polled_at = polled_at


def collect_sample(client: ServingClient, *, event_tail: int = 8) -> Sample:
    """Issue the four telemetry verbs and bundle the responses."""
    return Sample(
        stats=client.stats(),
        health=client.health(),
        slo=client.slo(),
        events=client.events(event_tail).get("events", []),
        polled_at=time.monotonic(),
    )


def _rate(delta: float, dt: float) -> str:
    return f"{delta / dt:.1f}/s" if dt > 0 else "-"


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole > 0 else "-"


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}ms"


def _counter_deltas(sample: Sample, previous: Sample | None) -> Dict[str, Any]:
    current = {"counters": sample.stats.get("counters", {}), "histograms": {}}
    prior = (
        {"counters": previous.stats.get("counters", {}), "histograms": {}}
        if previous is not None
        else None
    )
    return snapshot_delta(prior, current)["counters"]


def render_frame(
    sample: Sample,
    previous: Sample | None = None,
    *,
    target: str = "",
    interval_s: float | None = None,
) -> str:
    """One dashboard frame as plain text (no escape codes)."""
    stats, health, slo = sample.stats, sample.health, sample.slo
    counters = stats.get("counters", {})
    deltas = _counter_deltas(sample, previous)
    dt = (
        sample.polled_at - previous.polled_at
        if previous is not None
        else 0.0
    )
    status = str(health.get("status", "unknown"))
    tag = _STATUS_TAGS.get(status, status.upper())
    lines: List[str] = []
    head = f"repro top — {target or 'server'}   [{tag}]"
    head += f"   up {float(stats.get('uptime_s', 0.0)):.0f}s"
    kernel = stats.get("kernel")
    if kernel:
        head += f"   kernel {kernel}"
    if interval_s:
        head += f"   every {interval_s:g}s"
    lines.append(head)

    shards = stats.get("shards", {})
    # One stats schema for both planes; a coordinator's (it lists shards)
    # spells its counters serve.cluster.*.
    prefix = "serve.cluster" if shards else "serve"
    line = f"requests {counters.get(f'{prefix}.requests', 0)}"
    if previous is not None:
        line += f" ({_rate(deltas.get(f'{prefix}.requests', 0), dt)})"
    for label in ("computes", "coalesced", "shed", "degraded", "mutations"):
        line += f"   {label} {counters.get(f'{prefix}.{label}', 0)}"
    if shards:
        line += f"   shard-lost {counters.get('serve.shard.lost', 0)}"
    lines.append(line)

    cache = stats.get("cache", {})
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    lines.append(
        f"cache {_pct(hits, hits + misses)} hit"
        f" ({hits} hits / {misses} misses,"
        f" {cache.get('entries', 0)} entries,"
        f" {cache.get('evictions', 0)} evictions)"
        f"   inflight {stats.get('inflight_computes', 0)}"
        f"   queued {stats.get('queued', 0)}"
    )
    pruned = sum(
        v for k, v in counters.items() if k.startswith("prune.points_pruned.")
    )
    if pruned:
        tests = sum(
            v for k, v in counters.items() if k.startswith("prune.filter_tests.")
        )
        lines.append(f"pruned {pruned} points map-side ({tests} filter tests)")

    latency = stats.get("latency", {})
    if latency.get("count"):
        lines.append(
            f"latency p50 {_ms(latency.get('p50', 0.0))}"
            f"  p90 {_ms(latency.get('p90', 0.0))}"
            f"  p99 {_ms(latency.get('p99', 0.0))}"
            f"  max {_ms(latency.get('max', 0.0))}"
            f"  (n={latency['count']})"
        )
    else:
        lines.append("latency (no samples yet)")

    lines.append("slo:")
    for objective in slo.get("objectives", []):
        windows = objective.get("windows", {})
        burns = "  ".join(
            f"{name} {w.get('burn_rate', 0.0):.2f}x"
            for name, w in windows.items()
        )
        state = str(objective.get("state", "ok")).upper()
        target_pct = 100.0 * float(objective.get("target", 0.0))
        lines.append(
            f"  {objective.get('name', '?'):<14} target {target_pct:.2f}%"
            f"   burn {burns}   [{state}]"
        )
    if not slo.get("objectives"):
        lines.append("  (no objectives configured)")

    if shards:
        # Coordinator frame (`repro serve --cluster` / `repro coordinator`):
        # one row per shard endpoint, plus the cluster-level fan-out counters.
        lines.append("shards:")
        lines.append(
            f"  {'shard':<8} {'address':<22} {'state':<6} {'datasets':>8} "
            f"{'lost':>6}"
        )
        for name in sorted(shards):
            info = shards[name]
            lines.append(
                f"  {name:<8} {str(info.get('address', '?')):<22} "
                f"{str(info.get('state', '?')):<6} "
                f"{info.get('datasets', 0):>8} {info.get('lost', 0):>6}"
            )
        held = counters.get("serve.cluster.points_held", 0)
        sent = counters.get("serve.cluster.candidates_received", 0)
        pruned_wire = counters.get("serve.cluster.filter_pruned", 0)
        if held:
            lines.append(
                f"  wire: {sent}/{held} candidates crossed"
                f" ({_pct(pruned_wire, held)} filter-pruned,"
                f" {counters.get('serve.cluster.unfiltered_retries', 0)}"
                " unfiltered retries)"
            )

    datasets = stats.get("datasets", {})
    gauges = stats.get("gauges", {})
    lines.append("datasets:")
    if datasets:
        lines.append(
            f"  {'name':<16} {'size':>8} {'gen':>6} {'skew(max/min)':>14} "
            f"{'imbalance':>10}"
        )
        for name in sorted(datasets):
            info = datasets[name]
            skew = gauges.get(f"partition.skew.{name}.max_min_ratio")
            imbalance = gauges.get(f"partition.skew.{name}.imbalance")
            lines.append(
                f"  {name:<16} {info.get('size', 0):>8} "
                f"{info.get('generation', 0):>6} "
                f"{f'{skew:.2f}' if skew is not None else '-':>14} "
                f"{f'{imbalance:.2f}' if imbalance is not None else '-':>10}"
            )
    else:
        lines.append("  (none registered)")

    if sample.events:
        lines.append(f"events (last {len(sample.events)}):")
        for event in sample.events:
            attrs = "  ".join(
                f"{k}={v}"
                for k, v in event.items()
                if k not in ("seq", "ts", "kind")
            )
            lines.append(f"  #{event.get('seq', '?')} {event.get('kind', '?')}  {attrs}")
    else:
        lines.append("events: (none)")
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    *,
    interval_s: float = 2.0,
    once: bool = False,
    count: int | None = None,
    event_tail: int = 8,
    out: Any = None,
) -> int:
    """Poll a serving TCP endpoint and render frames until stopped."""
    import sys

    out = out if out is not None else sys.stdout
    try:
        client = ServingClient.connect(host, port, timeout=10.0)
    except OSError as exc:
        print(f"top: cannot connect to {host}:{port}: {exc}", file=sys.stderr)
        return 1
    previous: Sample | None = None
    frames = 0
    try:
        with client:
            while True:
                sample = collect_sample(client, event_tail=event_tail)
                frame = render_frame(
                    sample,
                    previous,
                    target=f"{host}:{port}",
                    interval_s=None if once else interval_s,
                )
                if once or count is not None:
                    out.write(frame + "\n")
                else:
                    out.write(_CLEAR + frame + "\n")
                out.flush()
                frames += 1
                previous = sample
                if once or (count is not None and frames >= count):
                    return 0
                time.sleep(interval_s)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0
    except ServingConnectionError as exc:
        print(f"top: server went away: {exc}", file=sys.stderr)
        return 1
