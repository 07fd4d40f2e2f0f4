"""Command-line front end: regenerate any table/figure of the paper.

Usage::

    python -m repro.cli fig5a            # Figure 5(a): time vs dim, N=1,000
    python -m repro.cli fig5b            # Figure 5(b): time vs dim, N=100,000
    python -m repro.cli fig6             # Figure 6: map/reduce vs servers
    python -m repro.cli fig7a / fig7b    # Figure 7: optimality vs dim
    python -m repro.cli headline         # §V-B speedup claims
    python -m repro.cli theory           # §IV dominance-ability check
    python -m repro.cli ablations        # design-choice studies
    python -m repro.cli all              # everything above, in order
    python -m repro.cli trace FILE       # summarize a JSONL trace file
    python -m repro.cli lint [PATHS]     # static contract checker (see
                                         # docs/static_analysis.md)
    python -m repro.cli serve            # online query service (JSON lines
                                         # on stdio or --tcp; docs/serving.md)
    python -m repro.cli serve --cluster 3   # sharded: coordinator + 3
                                         # in-process shard servers
    python -m repro.cli coordinator --shard H:P --shard H:P
                                         # coordinator over external shards
                                         # (docs/cluster.md)
    python -m repro.cli top --tcp H:P    # live terminal dashboard polling a
                                         # running server (--once for one frame)
    python -m repro.cli bench            # perf-trajectory suite; --json F
                                         # writes the machine-readable record

    --quick     scale cardinalities down ~10x for a fast sanity pass
    --markdown  emit Markdown instead of ASCII (for EXPERIMENTS.md)
    --csv       emit CSV
    --trace F   write a JSON-lines execution trace to F (see docs/observability.md)
    --executor  engine backend for the runs: serial (default; the
                measurement path), threads, or processes
    --workers   pool size for the thread/process executors
    --pipelined overlap the two-job skyline chain (see docs/tuning.md)
    --kernel    dominance backend: scalar (default; the reference) or
                block (columnar + filter pruning; see docs/kernels.md)
    --faults F  inject deterministic faults from a FaultPlan JSON file
                (chaos mode; see docs/fault_tolerance.md)

The installed console script ``repro-skyline`` is equivalent.
"""

from __future__ import annotations

import argparse
import atexit
import signal
import sys
from typing import Any, Callable, Dict, List

from repro.bench import (
    Table,
    ablations,
    figure5,
    figure6,
    figure7,
    headline,
    stragglers,
    theory,
)

__all__ = ["main", "build_parser"]

# Paper-scale cardinalities and their --quick counterparts.
_SMALL_N, _LARGE_N = 1_000, 100_000
_QUICK_SMALL_N, _QUICK_LARGE_N = 500, 10_000
_QUICK_NODES = (2, 4, 8)


def _experiments(
    quick: bool,
    *,
    executor: str | None = None,
    pipelined: bool = False,
) -> Dict[str, Callable[[], Table]]:
    small = _QUICK_SMALL_N if quick else _SMALL_N
    large = _QUICK_LARGE_N if quick else _LARGE_N
    dims = (2, 4, 6) if quick else (2, 4, 6, 8, 10)
    fig6_kwargs = (
        {"n": large, "d": dims[-1], "node_counts": _QUICK_NODES} if quick else {}
    )
    # Engine execution policy, forwarded to the experiments that run the
    # MapReduce pipeline (theory/ablations/stragglers stay on their own
    # defaults: theory runs no engine jobs; the others compare chained and
    # tree-merge variants that pin their own chain modes).
    engine = {"executor": executor, "pipelined": pipelined}
    return {
        "fig5a": lambda: figure5(small, dims=dims, **engine),
        "fig5b": lambda: figure5(large, dims=dims, **engine),
        "fig6": lambda: figure6(**fig6_kwargs, **engine),
        "fig7a": lambda: figure7(small, dims=dims, **engine),
        "fig7b": lambda: figure7(large, dims=dims, **engine),
        "headline": lambda: headline(n=large, d=dims[-1], **engine),
        "theory": lambda: theory(mc_samples=50_000 if quick else 200_000),
        "ablations": lambda: ablations(n=small if quick else 10_000),
        "stragglers": lambda: stragglers(n=small if quick else 20_000),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-skyline",
        description=(
            "Regenerate the tables/figures of 'MapReduce Skyline Query "
            "Processing with a New Angular Partitioning Approach' "
            "(IPDPSW 2012)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=list(_experiments(False)) + ["all", "verify"],
        help="which table/figure to regenerate ('verify' runs the "
        "reproduction gate)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down cardinalities for a fast sanity pass",
    )
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--markdown", action="store_true", help="Markdown output")
    fmt.add_argument("--csv", action="store_true", help="CSV output")
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also append the rendered tables to FILE",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="append an ASCII chart after each table (figures 5/6/7)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a JSON-lines execution trace (spans + metrics snapshot) "
        "to FILE; inspect it with 'python -m repro.cli trace FILE'",
    )
    parser.add_argument(
        "--executor",
        choices=["serial", "threads", "processes"],
        default=None,
        help="engine backend for the pipeline runs (default: $REPRO_EXECUTOR "
        "or serial — the clean-timing measurement path)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="pool size for --executor threads/processes (default: CPU count)",
    )
    parser.add_argument(
        "--pipelined",
        action="store_true",
        help="overlap the two-job skyline chain (merge maps start as local-"
        "skyline partitions finish); results are identical",
    )
    parser.add_argument(
        "--kernel",
        choices=["scalar", "block"],
        default=None,
        help="dominance backend for every algorithm of the run (default: "
        "$REPRO_KERNEL or scalar — the reference path; block enables the "
        "columnar kernels + filter pruning, results are identical)",
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN.json",
        help="inject deterministic faults from a FaultPlan JSON file into "
        "every engine job of the run (chaos mode; schema in "
        "docs/fault_tolerance.md) — results must be identical anyway",
    )
    return parser


def _render(table: Table, args: argparse.Namespace) -> str:
    if args.markdown:
        return table.to_markdown()
    if args.csv:
        return table.to_csv()
    text = table.render()
    if args.chart:
        chart = _chart_for(table)
        if chart:
            text += "\n" + chart
    return text


def _chart_for(table: Table) -> str:
    """Best-effort ASCII chart matching the table's figure shape."""
    from repro.bench.charts import line_chart, stacked_bars

    if table.columns[:1] == ["dimension"]:
        series = {
            name: table.column(name)
            for name in table.columns[1:]
            if all(isinstance(v, (int, float)) for v in table.column(name))
        }
        return line_chart(
            table.column("dimension"),
            series,
            title=table.title,
            y_label="seconds" if "time" in table.title else "optimality",
        )
    if table.columns[:3] == ["servers", "map_time_s", "reduce_time_s"]:
        return stacked_bars(
            table.column("servers"),
            {
                "map": table.column("map_time_s"),
                "reduce": table.column("reduce_time_s"),
            },
            title=table.title,
        )
    return ""


def _run_verify(args: argparse.Namespace) -> int:
    from repro.bench.expectations import verify_all

    results = verify_all(quick=args.quick)
    width = max(len(r.name) for r in results)
    lines = ["== reproduction gate =="]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} shape checks passed"
    )
    text = "\n".join(lines)
    print(text)
    if args.output:
        with open(args.output, "a") as fh:
            fh.write(text + "\n")
    return 1 if failed else 0


def _run_trace(argv: List[str]) -> int:
    """``repro trace FILE`` — render a per-phase summary + span tree."""
    parser = argparse.ArgumentParser(
        prog="repro-skyline trace",
        description="Summarize a JSON-lines execution trace produced by --trace",
    )
    parser.add_argument("trace_file", help="JSONL trace file to analyse")
    parser.add_argument(
        "--tasks",
        type=int,
        default=8,
        metavar="N",
        help="task spans shown per phase in the tree (longest first; default 8)",
    )
    args = parser.parse_args(argv)

    from repro.observability.report import (
        TraceError,
        load_trace,
        render_summary,
        render_tree,
    )

    try:
        spans, snapshot = load_trace(args.trace_file)
    except TraceError as exc:
        print(f"trace: {args.trace_file}: {exc}", file=sys.stderr)
        return 1
    print(f"== trace: {args.trace_file} ==")
    print(render_summary(spans, snapshot))
    print()
    print(render_tree(spans, max_tasks_per_phase=args.tasks))
    return 0


def _run_lint(argv: List[str]) -> int:
    """``repro lint [paths]`` — the static contract checker.

    Exit status: 0 clean, 1 findings, 2 usage errors.
    """
    parser = argparse.ArgumentParser(
        prog="repro-skyline lint",
        description=(
            "AST-based contract checker: UDF purity, pickle-safety, lock "
            "discipline, exception hygiene (docs/static_analysis.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (json is the CI artifact format; sarif is "
        "SARIF 2.1.0 for code-scanning uploads)",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="lint only python files changed relative to --base "
        "(git diff plus untracked files), intersected with the paths",
    )
    parser.add_argument(
        "--base",
        default="HEAD",
        metavar="REF",
        help="git ref --changed-only diffs against (default: HEAD)",
    )
    parser.add_argument(
        "--rules",
        metavar="ID[,ID...]",
        help="run only these rule ids (default: every registered rule)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="filter out findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record current findings as a baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    args = parser.parse_args(argv)

    from repro.analysis import (
        BaselineError,
        all_rules,
        changed_python_files,
        render_json,
        render_sarif,
        render_text,
        run_lint,
        write_baseline,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:<20} {rule.severity.value:<8} "
                  f"{type(rule).description()}")
        return 0

    rule_ids = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]
    import os

    paths = list(args.paths)
    if args.changed_only:
        try:
            changed = changed_python_files(args.base)
        except ValueError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2
        requested = [os.path.abspath(p) for p in paths]
        paths = [
            f
            for f in changed
            if any(
                f == p or f.startswith(p.rstrip(os.sep) + os.sep)
                for p in requested
            )
        ]
        if not paths:
            print(f"lint: no python files changed vs {args.base}")
            return 0
    try:
        result = run_lint(
            paths, rule_ids=rule_ids, baseline_path=args.baseline
        )
    except (ValueError, BaselineError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        count = write_baseline(args.write_baseline, result.findings)
        print(f"lint: wrote {count} fingerprint(s) to {args.write_baseline}")
        return 0
    root = os.getcwd()
    if args.format == "json":
        print(render_json(result, root=root))
    elif args.format == "sarif":
        print(render_sarif(result, root=root))
    else:
        print(render_text(result, root=root))
    return result.exit_code


def _run_serve(argv: List[str]) -> int:
    """``repro serve`` — the online skyline query service (docs/serving.md)."""
    parser = argparse.ArgumentParser(
        prog="repro-skyline serve",
        description=(
            "Long-running skyline query service: JSON-lines protocol on "
            "stdio (default) or a TCP socket (--tcp HOST:PORT)"
        ),
    )
    parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="listen on a TCP socket instead of stdio (PORT 0 = pick free)",
    )
    parser.add_argument(
        "--cluster", type=int, default=None, metavar="N",
        help="sharded mode: boot N in-process shard servers on loopback "
        "ports behind a coordinator; the admission, cache and SLO flags "
        "apply to the coordinator and every shard (docs/cluster.md)",
    )
    parser.add_argument(
        "--shard-timeout-s", type=float, default=5.0, metavar="S",
        help="per-shard RPC budget in --cluster mode (default 5.0)",
    )
    parser.add_argument(
        "--filter-k", type=int, default=None, metavar="K",
        help="filter points broadcast per cluster query (0 disables wire "
        "pruning; default: the library default)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="concurrent computations admitted at once (default 8)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=16, metavar="N",
        help="requests allowed to wait beyond --max-inflight (default 16)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=256, metavar="N",
        help="versioned result-cache capacity in entries (default 256)",
    )
    parser.add_argument(
        "--deadline-s", type=float, default=None, metavar="S",
        help="default per-query deadline in seconds (default: none)",
    )
    parser.add_argument(
        "--no-stale",
        action="store_true",
        help="reject shed requests outright instead of serving a stale "
        "cached answer flagged degraded=True",
    )
    parser.add_argument(
        "--mr-threshold", type=int, default=None, metavar="N",
        help="bulk loads of >= N rows go through the MapReduce pipeline "
        "(default 50000)",
    )
    parser.add_argument(
        "--executor",
        choices=["serial", "threads", "processes"],
        default=None,
        help="engine backend for MR bulk loads (default: $REPRO_EXECUTOR)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker count for MR bulk loads (default 2)",
    )
    parser.add_argument(
        "--kernel",
        choices=["scalar", "block"],
        default=None,
        help="dominance backend for every dataset (default: $REPRO_KERNEL "
        "or scalar; block enables columnar kernels + filter pruning)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write serve-path spans + metrics to FILE as JSON lines",
    )
    parser.add_argument(
        "--events",
        metavar="FILE",
        help="dump the structured event log to FILE as JSON lines on exit "
        "(the CI smoke artifact; see docs/observability.md)",
    )
    parser.add_argument(
        "--slo-latency-s", type=float, default=0.25, metavar="S",
        help="latency SLO threshold in seconds (default 0.25)",
    )
    parser.add_argument(
        "--slo-latency-target", type=float, default=0.95, metavar="F",
        help="fraction of requests that must beat --slo-latency-s "
        "(default 0.95)",
    )
    parser.add_argument(
        "--slo-availability-target", type=float, default=0.999, metavar="F",
        help="fraction of requests that must be answered at all "
        "(default 0.999)",
    )
    parser.add_argument(
        "--data-dir",
        metavar="DIR",
        help="durable serving state: write-ahead log + snapshots under DIR, "
        "with recovery on startup (docs/serving.md); in --cluster mode "
        "each shard persists under DIR/shard-NN",
    )
    parser.add_argument(
        "--fsync",
        choices=["always", "interval", "never"],
        default="interval",
        help="WAL fsync policy with --data-dir (default interval: fsync "
        "every few appends; always = fsync per mutation; never = OS flush "
        "only)",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=256, metavar="N",
        help="checkpoint (snapshot + WAL truncate) every N mutations per "
        "dataset with --data-dir (default 256)",
    )
    args = parser.parse_args(argv)

    from repro.serving.service import ServeConfig, SkylineService

    config = ServeConfig(
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        cache_entries=args.cache_size,
        default_deadline_s=args.deadline_s,
        stale_on_overload=not args.no_stale,
        num_workers=args.workers,
        executor=args.executor,
        kernel=args.kernel,
        slo_latency_threshold_s=args.slo_latency_s,
        slo_latency_target=args.slo_latency_target,
        slo_availability_target=args.slo_availability_target,
    )
    if args.mr_threshold is not None:
        config.mr_bulk_threshold = args.mr_threshold
    try:
        config.validate()
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        from repro.observability import enable_tracing

        try:
            enable_tracing(args.trace)
        except OSError as exc:
            print(f"--trace: cannot write {args.trace}: {exc}", file=sys.stderr)
            return 1

    durability = None
    if args.data_dir and args.cluster is None:
        from repro.serving.durability import DurabilityConfig, DurabilityManager

        try:
            durability = DurabilityManager(
                DurabilityConfig(
                    args.data_dir,
                    fsync=args.fsync,
                    snapshot_every=args.snapshot_every,
                )
            )
        except (OSError, ValueError) as exc:
            print(f"--data-dir: {exc}", file=sys.stderr)
            return 2

    # Signal-driven exits (SIGINT/SIGTERM) must run the same teardown a
    # clean shutdown op does — dump --events, flush WALs, stop the server
    # — so the handlers convert the signal into a SystemExit that unwinds
    # through the ``finally`` below; ``atexit`` is the belt-and-braces
    # fallback for exits that bypass it.
    _install_exit_signal_handlers()
    cleanup = _ServeCleanup(args, durability)
    atexit.register(cleanup.run)
    try:
        if args.cluster is not None:
            code = _serve_cluster(args, config, cleanup)
        else:
            service = SkylineService(config, durability=durability)
            if durability is not None:
                for report in service.recover_datasets():
                    print(
                        f"recovered dataset {report.dataset!r}: "
                        f"{report.members} member(s) at generation "
                        f"{report.generation} "
                        f"({report.records_replayed} WAL record(s) replayed"
                        f"{', torn tail dropped' if report.torn_tail else ''})",
                        file=sys.stderr,
                    )
            code = _serve_loop(service, args.tcp, "serving", cleanup=cleanup)
        if code:
            return code
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        code = cleanup.run()
        atexit.unregister(cleanup.run)
        if code:
            return code
    return 0


def _serve_loop(
    service: Any,
    tcp: str | None,
    banner: str,
    *,
    prog: str = "serve",
    cleanup: "_ServeCleanup | None" = None,
) -> int:
    """Run ``service`` over stdio, or over TCP at ``tcp`` after printing
    ``"<banner> on HOST:PORT"`` to stderr; returns the exit code."""
    from repro.serving.server import make_tcp_server, serve_stdio

    if not tcp:
        serve_stdio(service)
        return 0
    host, _, port = tcp.rpartition(":")
    try:
        server = make_tcp_server(service, host or "127.0.0.1", int(port))
    except (OSError, ValueError) as exc:
        print(f"{prog}: cannot bind {tcp}: {exc}", file=sys.stderr)
        return 2
    bound = server.server_address
    print(f"{banner} on {bound[0]}:{bound[1]}", file=sys.stderr)
    if cleanup is not None:
        cleanup.server = server
    with server:
        server.serve_forever()
    return 0


def _install_exit_signal_handlers() -> None:
    """SIGINT/SIGTERM -> ``SystemExit(128 + sig)`` so ``finally`` blocks
    (events dump, WAL flush, server stop) run on signal-driven exits too.

    A no-op off the main thread (``signal.signal`` raises there), which
    keeps the helpers safe to call from embedded/test contexts.
    """

    def _exit(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, _exit)
        except ValueError:  # pragma: no cover - non-main thread
            pass


class _ServeCleanup:
    """Idempotent ``repro serve`` teardown: runs from the ``finally``
    path on every exit (clean shutdown op, signal-driven SystemExit,
    KeyboardInterrupt) and is registered with ``atexit`` as a fallback.

    Order matters: stop the server first (bounded join of live sessions,
    so no WAL append is cut mid-frame), then flush + close the WALs,
    then write the observability artifacts.
    """

    def __init__(self, args: argparse.Namespace, durability: Any) -> None:
        self.args = args
        self.durability = durability
        self.server: Any = None
        self._done = False

    def run(self) -> int:
        if self._done:
            return 0
        self._done = True
        code = 0
        if self.server is not None:
            try:
                self.server.stop()
            # Teardown must reach the WAL flush below even if stop()
            # fails; the error is reported, not swallowed.
            except Exception as exc:  # repro: allow[exception-hygiene]
                print(f"serve: stop failed: {exc}", file=sys.stderr)
        if self.durability is not None:
            try:
                self.durability.sync()
                self.durability.close()
            except OSError as exc:
                print(f"--data-dir: WAL flush failed: {exc}", file=sys.stderr)
                code = 1
        if self.args.trace:
            from repro.observability import disable_tracing

            disable_tracing(write_metrics=True)
        if self.args.events:
            from repro.observability import get_events

            try:
                count = get_events().dump(self.args.events)
                print(
                    f"wrote {count} event(s) to {self.args.events}",
                    file=sys.stderr,
                )
            except OSError as exc:
                print(f"--events: cannot write {self.args.events}: {exc}",
                      file=sys.stderr)
                code = 1
        return code


def _serve_cluster(
    args: argparse.Namespace, config: Any, cleanup: "_ServeCleanup"
) -> int:
    """The ``repro serve --cluster N`` body: LocalCluster + coordinator,
    both under the one ``ServeConfig``."""
    from repro.serving.cluster import ClusterConfig, ClusterCoordinator, LocalCluster

    if args.cluster < 1:
        print(f"serve: --cluster must be >= 1, got {args.cluster}",
              file=sys.stderr)
        return 2
    cluster_config = ClusterConfig(shard_timeout_s=args.shard_timeout_s)
    if args.filter_k is not None:
        cluster_config.filter_k = args.filter_k
    try:
        cluster_config.validate()
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    cluster = LocalCluster(
        args.cluster,
        config=config,
        data_dir=args.data_dir,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
    )
    coordinator = ClusterCoordinator(
        cluster.addresses(), config=cluster_config, serve_config=config
    )
    try:
        return _serve_loop(
            coordinator,
            args.tcp,
            f"serving {args.cluster}-shard cluster",
            cleanup=cleanup,
        )
    finally:
        coordinator.close()
        cluster.close()


def _run_coordinator(argv: List[str]) -> int:
    """``repro coordinator`` — fan-out front end over external shards."""
    parser = argparse.ArgumentParser(
        prog="repro-skyline coordinator",
        description=(
            "Cluster coordinator over already-running `repro serve --tcp` "
            "shard servers: the serving protocol on stdio (default) "
            "or a TCP socket (docs/cluster.md)"
        ),
    )
    parser.add_argument(
        "--shard",
        action="append",
        required=True,
        metavar="HOST:PORT",
        dest="shards",
        help="address of one shard server (repeat once per shard)",
    )
    parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="listen on a TCP socket instead of stdio (PORT 0 = pick free)",
    )
    parser.add_argument(
        "--kernel",
        choices=["scalar", "block"],
        default=None,
        help="dominance backend for merges and filter selection "
        "(default: $REPRO_KERNEL or scalar)",
    )
    parser.add_argument(
        "--filter-k", type=int, default=None, metavar="K",
        help="filter points broadcast per query (0 disables wire pruning; "
        "default: the library default)",
    )
    parser.add_argument(
        "--shard-timeout-s", type=float, default=5.0, metavar="S",
        help="per-shard RPC budget in seconds (default 5.0)",
    )
    parser.add_argument(
        "--connect-timeout-s", type=float, default=5.0, metavar="S",
        help="TCP connect budget per shard in seconds (default 5.0)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=256, metavar="N",
        help="versioned result-cache capacity in entries (default 256)",
    )
    parser.add_argument(
        "--deadline-s", type=float, default=None, metavar="S",
        help="default per-query deadline in seconds (default: none)",
    )
    args = parser.parse_args(argv)

    from repro.serving.cluster import ClusterConfig, ClusterCoordinator
    from repro.serving.service import ServeConfig

    config = ClusterConfig(
        shard_timeout_s=args.shard_timeout_s,
        connect_timeout_s=args.connect_timeout_s,
    )
    if args.filter_k is not None:
        config.filter_k = args.filter_k
    serve_config = ServeConfig(
        cache_entries=args.cache_size,
        default_deadline_s=args.deadline_s,
        kernel=args.kernel,
    )
    try:
        # Validates both configs and every shard address; dials nothing.
        coordinator = ClusterCoordinator(
            args.shards, config=config, serve_config=serve_config
        )
    except ValueError as exc:
        print(f"coordinator: {exc}", file=sys.stderr)
        return 2
    try:
        return _serve_loop(
            coordinator,
            args.tcp,
            f"coordinating {len(args.shards)} shard(s)",
            prog="coordinator",
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0
    finally:
        coordinator.close()


def _run_top(argv: List[str]) -> int:
    """``repro top`` — live dashboard over the telemetry verbs."""
    parser = argparse.ArgumentParser(
        prog="repro-skyline top",
        description=(
            "Refreshing terminal dashboard for a running `repro serve --tcp` "
            "process: QPS, admission/cache state, latency quantiles, "
            "per-dataset generations, partition skew, SLO burn, events"
        ),
    )
    parser.add_argument(
        "--tcp",
        required=True,
        metavar="HOST:PORT",
        help="address of the running `repro serve --tcp` server",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between polls (default 2.0)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (scripting / CI mode)",
    )
    parser.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="exit after N frames (frames append instead of repainting)",
    )
    parser.add_argument(
        "--events", type=int, default=8, metavar="N",
        help="event-log tail length shown per frame (default 8)",
    )
    args = parser.parse_args(argv)
    host, _, port = args.tcp.rpartition(":")
    try:
        port_num = int(port)
    except ValueError:
        print(f"top: bad --tcp address {args.tcp!r}", file=sys.stderr)
        return 2
    if args.interval <= 0:
        print(f"top: --interval must be > 0, got {args.interval}", file=sys.stderr)
        return 2

    from repro.serving.top import run_top

    return run_top(
        host or "127.0.0.1",
        port_num,
        interval_s=args.interval,
        once=args.once,
        count=args.count,
        event_tail=args.events,
    )


def _run_bench(argv: List[str]) -> int:
    """``repro bench`` — the perf-trajectory suite (engine + serving)."""
    parser = argparse.ArgumentParser(
        prog="repro-skyline bench",
        description=(
            "Run the fixed perf-trajectory suite (MR skyline points per "
            "partitioning scheme + serving-layer latencies) and optionally "
            "write the machine-readable JSON record"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write the perf-trajectory record to FILE (e.g. BENCH_5.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down cardinalities for a fast pass (the CI setting)",
    )
    parser.add_argument(
        "--executor",
        choices=["serial", "threads", "processes"],
        default=None,
        help="engine backend for the pipeline runs (default: $REPRO_EXECUTOR)",
    )
    parser.add_argument(
        "--kernel",
        choices=["scalar", "block"],
        default=None,
        help="dominance backend for the engine/serving sections (default: "
        "$REPRO_KERNEL or scalar); the kernels section always runs both",
    )
    args = parser.parse_args(argv)

    from repro.bench.perf import perf_trajectory, render_trajectory

    record = perf_trajectory(
        quick=args.quick, executor=args.executor, kernel=args.kernel
    )
    print(render_trajectory(record))
    if args.json:
        import json as _json

        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(record, fh, indent=2, default=str)
                fh.write("\n")
        except OSError as exc:
            print(f"--json: cannot write {args.json}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.json}")
    return 0


def _run_loadtest(argv: List[str]) -> int:
    """``repro loadtest`` — open-loop traffic + crash/recovery scenario."""
    parser = argparse.ArgumentParser(
        prog="repro-skyline loadtest",
        description=(
            "Open-loop load generator: replay a mix of the four query "
            "kinds plus mutations at a target QPS against a live server "
            "(--host/--port), or run the full durability scenario — "
            "spawn, load, SIGKILL, recover — and report latency "
            "percentiles, shed/degraded rates and recovery time"
        ),
    )
    parser.add_argument("--host", default=None, help="drive a running server")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--dataset", default="loadtest", metavar="NAME")
    parser.add_argument("--qps", type=float, default=200.0, metavar="N",
                        help="target offered load (default 200)")
    parser.add_argument("--duration", type=float, default=2.0, metavar="S",
                        help="seconds of traffic (default 2.0)")
    parser.add_argument("--workers", type=int, default=8, metavar="N",
                        help="generator connections (default 8)")
    parser.add_argument("--points", type=int, default=400, metavar="N",
                        help="dataset cardinality (default 400)")
    parser.add_argument("--dims", type=int, default=3, metavar="D",
                        help="dataset dimensionality (default 3)")
    parser.add_argument("--mutations", type=float, default=0.1, metavar="F",
                        help="fraction of ops that mutate (default 0.1)")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="request-stream seed (default 0)")
    parser.add_argument(
        "--data-dir", metavar="DIR", default=None,
        help="scenario mode: durability directory (default: a temp dir)",
    )
    parser.add_argument("--fsync", choices=["always", "interval", "never"],
                        default="always",
                        help="scenario mode WAL fsync policy (default always)")
    parser.add_argument("--snapshot-every", type=int, default=64, metavar="N",
                        help="scenario mode checkpoint interval (default 64)")
    parser.add_argument(
        "--kernel", choices=["scalar", "block"], default=None,
        help="dominance backend of the spawned server (scenario mode)",
    )
    parser.add_argument("--json", metavar="FILE",
                        help="write the stats record to FILE")
    args = parser.parse_args(argv)

    from repro.bench.loadtest import (
        LoadTestConfig,
        dump_json,
        render,
        run_loadtest,
        run_scenario,
    )
    from repro.serving.client import ServingClient

    config = LoadTestConfig(
        dataset=args.dataset,
        qps=args.qps,
        duration_s=args.duration,
        workers=args.workers,
        mutation_fraction=args.mutations,
        n_points=args.points,
        dims=args.dims,
        seed=args.seed,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"loadtest: {exc}", file=sys.stderr)
        return 2
    try:
        if args.host is not None or args.port is not None:
            if args.host is None or args.port is None:
                print("loadtest: --host and --port go together",
                      file=sys.stderr)
                return 2
            with ServingClient.connect(args.host, args.port, timeout=10.0) as c:
                response = c.register(args.dataset, config.points())
                if not response.get("ok"):
                    print(f"loadtest: register failed: {response}",
                          file=sys.stderr)
                    return 1
            stats = run_loadtest(args.host, args.port, config)
        else:
            serve_args = []
            if args.kernel:
                serve_args += ["--kernel", args.kernel]
            if args.data_dir:
                stats = run_scenario(
                    config,
                    args.data_dir,
                    serve_args=serve_args,
                    fsync=args.fsync,
                    snapshot_every=args.snapshot_every,
                )
            else:
                import tempfile

                with tempfile.TemporaryDirectory() as tmp:
                    stats = run_scenario(
                        config,
                        tmp,
                        serve_args=serve_args,
                        fsync=args.fsync,
                        snapshot_every=args.snapshot_every,
                    )
    except (OSError, RuntimeError) as exc:
        print(f"loadtest: {exc}", file=sys.stderr)
        return 1
    print(render(stats))
    if args.json:
        try:
            dump_json(stats, args.json)
        except OSError as exc:
            print(f"--json: cannot write {args.json}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.json}")
    return 0


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Opt-in runtime lock-order sanitizer (REPRO_SANITIZE=locks) must be
    # installed before any command constructs serving/executor state.
    from repro.observability.sanitizer import install_from_env

    install_from_env()
    # 'trace', 'lint', 'serve' and 'bench' are not experiments, so they
    # take their own options and dispatch before the experiment parser.
    if argv[:1] == ["trace"]:
        return _run_trace(argv[1:])
    if argv[:1] == ["lint"]:
        return _run_lint(argv[1:])
    if argv[:1] == ["serve"]:
        return _run_serve(argv[1:])
    if argv[:1] == ["coordinator"]:
        return _run_coordinator(argv[1:])
    if argv[:1] == ["top"]:
        return _run_top(argv[1:])
    if argv[:1] == ["bench"]:
        return _run_bench(argv[1:])
    if argv[:1] == ["loadtest"]:
        return _run_loadtest(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "verify":
        return _run_verify(args)
    executor = args.executor
    if args.workers is not None:
        if args.workers <= 0:
            print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
            return 2
        # A sized executor instance: make_executor passes it through, and the
        # lazy pools re-create themselves across experiments after each
        # pipeline releases them.
        from repro.mapreduce.executors import make_executor

        executor = make_executor(args.executor, num_workers=args.workers)
    registry = _experiments(args.quick, executor=executor, pipelined=args.pipelined)
    names = list(registry) if args.experiment == "all" else [args.experiment]
    previous_kernel = None
    if args.kernel:
        # Same pattern as --faults: the experiments build their own
        # algorithm calls layers below the CLI, so the flag installs the
        # process-default kernel the way $REPRO_KERNEL would.
        from repro.core.kernels import set_default_kernel

        previous_kernel = set_default_kernel(args.kernel)
    previous_plan = None
    if args.faults:
        # Install the plan process-wide: every Runner the experiments build
        # (they construct their own, layers below the CLI) picks it up, the
        # same way $REPRO_EXECUTOR reaches the default executor choice.
        from repro.mapreduce.faults import FaultPlan, set_default_fault_plan

        try:
            plan = FaultPlan.load(args.faults)
        except (OSError, ValueError) as exc:
            print(f"--faults: cannot load {args.faults}: {exc}", file=sys.stderr)
            return 2
        previous_plan = set_default_fault_plan(plan)
    if args.trace:
        from repro.observability import disable_tracing, enable_tracing

        try:
            enable_tracing(args.trace)
        except OSError as exc:
            print(f"--trace: cannot write {args.trace}: {exc}", file=sys.stderr)
            return 1
    rendered = []
    try:
        for name in names:
            table = registry[name]()
            text = _render(table, args)
            rendered.append(text)
            print(text)
    finally:
        # Close the trace even on failure: spans export as they finish, so a
        # crashed run still leaves a usable partial trace plus the metrics
        # collected so far.
        if args.trace:
            disable_tracing(write_metrics=True)
        if args.kernel:
            from repro.core.kernels import set_default_kernel

            set_default_kernel(previous_kernel)
        if args.faults:
            from repro.mapreduce.faults import set_default_fault_plan

            set_default_fault_plan(previous_plan)
    if args.output:
        with open(args.output, "a") as fh:
            fh.write("\n".join(rendered) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `repro trace f | head`
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
