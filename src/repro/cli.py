"""Command-line interface: ``brepartition``.

Subcommands
-----------
``info``
    List available datasets (with the paper's Table 4 scale) and
    divergences.
``search``
    Build an index over a named dataset and run the query workload,
    printing the paper's metrics.
``experiment``
    Run one of the paper's tables/figures and print the report
    (same engine as ``benchmarks/run_all.py``).
``serve-bench``
    Closed-loop micro-batched serving benchmark: compare per-request
    (B=1) serving against the asyncio :class:`~repro.serve.MicroBatcher`
    on compute-only storage (engine: :mod:`repro.serve.bench`).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .baselines.bbtree_index import BBTreeIndex
from .baselines.linear_scan import LinearScanIndex
from .core.approximate import ApproximateBrePartitionIndex
from .core.config import BrePartitionConfig
from .core.index import BrePartitionIndex
from .datasets.proxies import PAPER_SCALE, available_datasets, load_dataset
from .divergences.registry import available_divergences
from .eval.experiments import ALL_EXPERIMENTS
from .eval.harness import WorkloadResult, run_workload
from .eval.reporting import format_table
from .vafile.vafile import VAFileIndex

__all__ = ["main"]

_METHODS = ("bp", "abp", "vaf", "bbt", "scan")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brepartition",
        description="BrePartition reproduction: high-dimensional Bregman kNN",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list datasets and divergences")

    search = sub.add_parser("search", help="run a kNN workload on a dataset")
    search.add_argument("dataset", choices=available_datasets())
    search.add_argument("--method", choices=_METHODS, default="bp")
    search.add_argument("--n", type=int, default=2000, help="dataset size")
    search.add_argument("--k", type=int, default=20)
    search.add_argument("--queries", type=int, default=10)
    search.add_argument("--partitions", type=int, default=None, help="M (default: Theorem 4)")
    search.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="B",
        help="drive the workload through search_batch in chunks of B queries",
    )
    search.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="S",
        help="partition the point file across S simulated disks",
    )
    search.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        metavar="W",
        help="fan candidate fetches out across W threads "
        "(requires --shards; results are identical)",
    )
    search.add_argument(
        "--replication-factor",
        type=int,
        default=None,
        metavar="R",
        help="keep R copies of every shard's pages on distinct simulated "
        "disks (requires --shards; failover keeps results exact with any "
        "R-1 replicas of each shard dead)",
    )
    search.add_argument(
        "--hedge-after-ms",
        type=float,
        default=None,
        metavar="MS",
        help="race a replica fetch still outstanding after MS milliseconds "
        "against the shard's next live replica (requires --replication-factor)",
    )
    search.add_argument(
        "--refine-kernel",
        choices=("auto", "dense", "sparse"),
        default=None,
        help="refinement kernel: dense (union x batch), sparse "
        "(real pairs only), or auto density-based dispatch (default)",
    )
    search.add_argument("--probability", type=float, default=0.9, help="ABP guarantee p")
    search.add_argument("--seed", type=int, default=0)

    experiment = sub.add_parser("experiment", help="reproduce a paper table/figure")
    experiment.add_argument("name", choices=sorted(ALL_EXPERIMENTS))

    serve = sub.add_parser(
        "serve-bench",
        help="closed-loop micro-batching benchmark (per-request vs batched)",
    )
    serve.add_argument("dataset", choices=available_datasets())
    serve.add_argument("--n", type=int, default=600, help="dataset size")
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument("--clients", type=int, default=64, help="concurrent closed-loop clients")
    serve.add_argument("--requests", type=int, default=2, help="requests per client")
    serve.add_argument(
        "--max-batch", type=int, default=64, metavar="B",
        help="micro-batch size cap (the baseline always runs B=1)",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="micro-batch accumulation deadline in milliseconds",
    )
    serve.add_argument(
        "--concurrent-batches", type=int, default=1, metavar="W",
        help="in-flight batch worker pool width (1 serializes batches; "
        "per-batch I/O scopes keep accounting exact when overlapped)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None, metavar="Q",
        help="bound the admission queue to Q waiting requests "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--overflow", choices=("wait", "reject"), default="wait",
        help="full-queue policy: wait (backpressure) or reject "
        "(fail fast with ServerOverloadedError)",
    )
    serve.add_argument("--shards", type=int, default=1, help="simulated disks")
    serve.add_argument(
        "--shard-workers", type=int, default=1, help="fan-out threads per batch"
    )
    serve.add_argument(
        "--replication-factor", type=int, default=1, metavar="R",
        help="copies of every shard's pages on distinct disks "
        "(failover keeps serving exact through dead replicas)",
    )
    serve.add_argument(
        "--hedge-after-ms", type=float, default=None, metavar="MS",
        help="hedge replica fetches slower than MS milliseconds "
        "(requires --replication-factor > 1)",
    )
    serve.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint",
        help="run the AST invariant linter (python -m repro.analysis)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    lint.add_argument(
        "--baseline", default=None,
        help="grandfathered-findings file (default: analysis-baseline.json)",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to the current findings and exit 0",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rule ids and exit",
    )
    lint.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-finding listing; status line only",
    )
    return parser


def _cmd_info() -> int:
    rows = []
    for name in available_datasets():
        scale = PAPER_SCALE.get(name, {})
        rows.append(
            [
                name,
                scale.get("n", "-"),
                scale.get("d", "-"),
                scale.get("measure", "-"),
                scale.get("page", "-"),
                scale.get("M", "-"),
            ]
        )
    print("datasets (paper-scale metadata from Table 4):")
    print(format_table(["dataset", "paper_n", "d", "measure", "page", "paper_M"], rows))
    print("\ndivergences:", ", ".join(available_divergences()))
    return 0


def _make_index(args, dataset):
    # ABP keeps its leaf-exact default (point_filter=True); an explicit
    # config would otherwise override it with the exact index's False
    config = BrePartitionConfig(
        n_partitions=args.partitions,
        page_size_bytes=dataset.page_size_bytes,
        seed=args.seed,
        point_filter=args.method == "abp",
    )
    if args.method == "bp":
        return BrePartitionIndex(dataset.divergence, config)
    if args.method == "abp":
        return ApproximateBrePartitionIndex(
            dataset.divergence, probability=args.probability, config=config
        )
    if args.method == "vaf":
        return VAFileIndex(
            dataset.divergence, bits=8, page_size_bytes=dataset.page_size_bytes
        )
    if args.method == "bbt":
        return BBTreeIndex(
            dataset.divergence, page_size_bytes=dataset.page_size_bytes, seed=args.seed
        )
    return LinearScanIndex(dataset.divergence, page_size_bytes=dataset.page_size_bytes)


def _cmd_search(args) -> int:
    if args.batch is not None and args.batch < 1:
        print(f"--batch must be >= 1, got {args.batch}", file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.shard_workers is not None and args.shard_workers < 1:
        print(
            f"--shard-workers must be >= 1, got {args.shard_workers}",
            file=sys.stderr,
        )
        return 2
    if args.replication_factor is not None and args.replication_factor < 1:
        print(
            f"--replication-factor must be >= 1, got {args.replication_factor}",
            file=sys.stderr,
        )
        return 2
    if args.hedge_after_ms is not None and args.hedge_after_ms <= 0:
        print(
            f"--hedge-after-ms must be positive, got {args.hedge_after_ms}",
            file=sys.stderr,
        )
        return 2
    dataset = load_dataset(args.dataset, n=args.n, n_queries=args.queries, seed=args.seed)
    print(f"dataset: {dataset!r} ({dataset.description})")
    index = _make_index(args, dataset)
    index.build(dataset.points)
    if isinstance(index, BrePartitionIndex):
        print(f"built in {index.construction_seconds:.2f}s, M={index.n_partitions}")
    else:
        print(f"built in {index.construction_seconds:.2f}s")
    if args.batch is not None and not hasattr(index, "search_batch"):
        print(f"method {args.method!r} has no batch engine; ignoring --batch")
        args.batch = None
    if args.shards is not None and not hasattr(index, "reshard"):
        print(f"method {args.method!r} has no sharded storage; ignoring --shards")
        args.shards = None
    if args.shard_workers is not None and args.shards is None:
        print("--shard-workers needs several shards; ignoring (pass --shards)")
        args.shard_workers = None
    if args.replication_factor is not None and args.shards is None:
        print("--replication-factor needs several shards; ignoring (pass --shards)")
        args.replication_factor = None
    if args.replication_factor is not None and args.replication_factor > args.shards:
        print(
            f"--replication-factor {args.replication_factor} exceeds "
            f"--shards {args.shards}; clamping to {args.shards}"
        )
        args.replication_factor = args.shards
    if args.hedge_after_ms is not None and (
        args.replication_factor is None or args.replication_factor < 2
    ):
        print(
            "--hedge-after-ms needs replicas to race; ignoring "
            "(pass --replication-factor >= 2)"
        )
        args.hedge_after_ms = None
    config = getattr(index, "config", None)
    if args.shard_workers is not None and (
        config is None or not hasattr(config, "shard_workers")
    ):
        print(f"method {args.method!r} has no fan-out pool; ignoring --shard-workers")
        args.shard_workers = None
    if args.refine_kernel is not None and (
        config is None or not hasattr(config, "refine_kernel")
    ):
        print(f"method {args.method!r} has no kernel dispatch; ignoring --refine-kernel")
        args.refine_kernel = None
    result = run_workload(
        index,
        dataset,
        k=args.k,
        method_name=args.method.upper(),
        batch_size=args.batch,
        shards=args.shards,
        shard_workers=args.shard_workers,
        refine_kernel=args.refine_kernel,
        replication_factor=args.replication_factor,
        hedge_after_ms=args.hedge_after_ms,
    )
    print(format_table(WorkloadResult.headers(), [result.row()]))
    if args.batch is not None:
        saved = result.extras.get("batch_pages_saved", 0)
        print(
            f"batch mode: B={args.batch}, coalesced I/O saved "
            f"{saved} page reads across {result.n_queries} queries"
        )
        print(
            f"covered batches (every live row refined): "
            f"{result.extras.get('covered_batches', 0)} of "
            f"{result.extras.get('batches', 0)}"
        )
        stage_seconds = result.extras.get("stage_seconds")
        if stage_seconds:
            split = "  ".join(
                f"{name} {seconds * 1000.0:.1f}ms"
                for name, seconds in stage_seconds.items()
            )
            print(f"batch stage time: {split}")
    if args.shards is not None:
        fanout = result.extras.get("shard_pages_read")
        workers = args.shard_workers if args.shard_workers is not None else 1
        replicas = (
            args.replication_factor if args.replication_factor is not None else 1
        )
        print(
            f"sharded storage: S={args.shards} simulated disks, "
            f"{workers} fan-out worker(s)"
            + (f", R={replicas} replicas/shard" if replicas > 1 else "")
            + (f", page fan-out {fanout}" if fanout is not None else "")
        )
    kernel = result.extras.get("refine_kernel")
    if kernel is not None:
        print(f"batch refinement kernel: {kernel}")
    return 0


def _cmd_experiment(name: str) -> int:
    report = ALL_EXPERIMENTS[name]()
    print(report.to_text())
    return 0


def _cmd_serve_bench(args) -> int:
    from .serve import make_serving_index, run_closed_loop

    for name, value, floor in (
        ("--n", args.n, 2),
        ("--k", args.k, 1),
        ("--clients", args.clients, 1),
        ("--requests", args.requests, 1),
        ("--max-batch", args.max_batch, 1),
        ("--concurrent-batches", args.concurrent_batches, 1),
        ("--shards", args.shards, 1),
        ("--shard-workers", args.shard_workers, 1),
        ("--replication-factor", args.replication_factor, 1),
    ):
        if value < floor:
            print(f"{name} must be >= {floor}, got {value}", file=sys.stderr)
            return 2
    if args.max_wait_ms < 0.0:
        print(f"--max-wait-ms must be >= 0, got {args.max_wait_ms}", file=sys.stderr)
        return 2
    if args.replication_factor > args.shards:
        print(
            f"--replication-factor {args.replication_factor} exceeds "
            f"--shards {args.shards}",
            file=sys.stderr,
        )
        return 2
    if args.hedge_after_ms is not None and args.hedge_after_ms <= 0:
        print(
            f"--hedge-after-ms must be positive, got {args.hedge_after_ms}",
            file=sys.stderr,
        )
        return 2
    if args.queue_depth is not None and args.queue_depth < 1:
        print(
            f"--queue-depth must be >= 1, got {args.queue_depth}", file=sys.stderr
        )
        return 2
    dataset, index = make_serving_index(
        dataset_name=args.dataset,
        n=args.n,
        seed=args.seed,
        n_shards=args.shards,
        shard_workers=args.shard_workers,
        replication_factor=args.replication_factor,
        hedge_after_ms=args.hedge_after_ms,
    )
    print(f"dataset: {dataset!r} ({dataset.description})")
    print(
        f"serving {args.clients} closed-loop clients x {args.requests} requests, "
        f"k={args.k}, {args.concurrent_batches} in-flight batch(es), "
        + (
            f"queue depth {args.queue_depth} ({args.overflow})"
            if args.queue_depth is not None
            else "unbounded queue"
        )
    )
    arms = [
        ("per-request (B=1)", 1, 0.0),
        (f"micro-batched (B<={args.max_batch})", args.max_batch, args.max_wait_ms),
    ]
    rows = []
    for label, max_batch, wait_ms in arms:
        row = run_closed_loop(
            index,
            dataset.queries,
            args.k,
            n_clients=args.clients,
            requests_per_client=args.requests,
            max_batch_size=max_batch,
            max_wait_ms=wait_ms,
            max_concurrent_batches=args.concurrent_batches,
            max_queue_depth=args.queue_depth,
            overflow=args.overflow,
        )
        rows.append(row)
        shed = f"  shed {row['n_rejected']}" if row["n_rejected"] else ""
        print(
            f"  {label:24s} {row['throughput_rps']:8.1f} req/s  "
            f"mean latency {row['mean_latency_ms']:7.2f}ms  "
            f"mean batch {row['mean_batch_size']:5.1f}  "
            f"pages/req {row['mean_pages_per_request']:6.1f}{shed}"
        )
    print(
        f"micro-batching speedup: "
        f"{rows[1]['throughput_rps'] / rows[0]['throughput_rps']:.2f}x throughput"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``brepartition`` console script."""
    args = _build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "search":
        return _cmd_search(args)
    if args.command == "experiment":
        return _cmd_experiment(args.name)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "lint":
        return _cmd_lint(args)
    return 1  # pragma: no cover - argparse enforces choices


def _cmd_lint(args) -> int:
    from .analysis.cli import main as lint_main

    forwarded: list[str] = list(args.paths)
    if args.baseline is not None:
        forwarded += ["--baseline", args.baseline]
    if args.update_baseline:
        forwarded.append("--update-baseline")
    if args.list_rules:
        forwarded.append("--list-rules")
    if args.quiet:
        forwarded.append("--quiet")
    return lint_main(forwarded)


if __name__ == "__main__":
    sys.exit(main())
