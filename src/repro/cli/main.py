"""Argument wiring for the ``repro`` console entry point.

Each sweep subcommand resolves its registries and options, then runs the
grid through the same driver as its
:class:`~repro.analysis.runner.ShardedRunner` counterpart —
:func:`~repro.analysis.runner.grid_payloads` feeding
:func:`~repro.analysis.runner.stream_cells` with the same per-kind cell
worker, serially in-process for ``--jobs 1`` and through a process pool
with ``chunksize=1`` otherwise — so CLI rows are field-for-field the Python
API's results, just streamed as they complete instead of returned at the
end.  All caching goes through the
:class:`~repro.analysis.runner.ExperimentCache` of the resolved store
directory, which makes every invocation share the content-addressed
program store.

Exit codes: ``0`` success, ``1`` a ``--check`` found failing cells,
``2`` invalid usage (unknown scheme/family, ``--jobs`` below 1, a
``--store`` that cannot be a writable directory).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis import runner
from repro.analysis.flow import DEFAULT_TOTAL, DEMAND_MODELS
from repro.cli._output import emit, emit_error
from repro.sim.registry import resolve_families, resolve_schemes
from repro.store import ProgramStore, default_store_root

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact store root (default: $REPRO_STORE or ~/.cache/repro)",
    )


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    _add_store_flag(parser)
    parser.add_argument(
        "--registry",
        choices=("small", "medium"),
        default="small",
        help="graph-family size class (default: small)",
    )
    parser.add_argument(
        "--scheme",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to this scheme (repeatable; default: whole registry)",
    )
    parser.add_argument(
        "--family",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to this graph family (repeatable; default: all)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes (default: 1)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="registry instance seed (default: 0)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Compact-routing experiment driver: every subcommand streams one "
            "JSON object per cell to stdout (JSONL). See docs/cli.md."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile registry cells into the store")
    _add_sweep_flags(p)

    p = sub.add_parser("sweep", help="compile and execute every registry cell")
    _add_sweep_flags(p)

    p = sub.add_parser("simulate", help="full conformance suite (engine-executed)")
    _add_sweep_flags(p)

    p = sub.add_parser("verify", help="statically verify every registry cell")
    _add_sweep_flags(p)
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any verified cell fails to deliver everywhere",
    )

    p = sub.add_parser("resilience", help="fault-injection sweep (masked programs)")
    _add_sweep_flags(p)
    p.add_argument(
        "--edge-k", type=int, action="append", default=None, metavar="K",
        help="edge-failure count (repeatable; default: 1 2 4)",
    )
    p.add_argument(
        "--node-k", type=int, action="append", default=None, metavar="K",
        help="node-failure count (repeatable; default: 1 2)",
    )
    p.add_argument(
        "--per-k", type=int, default=2, metavar="N",
        help="independent seeded draws per k (default: 2)",
    )
    p.add_argument(
        "--flow", choices=DEMAND_MODELS, default=None,
        help="add demand-weighted traffic metrics under this model",
    )
    p.add_argument("--demand-seed", type=int, default=0, help="demand-draw seed")

    p = sub.add_parser("churn", help="incremental-delta sweep over churn traces")
    _add_sweep_flags(p)
    p.add_argument(
        "--steps", type=int, default=4, metavar="N",
        help="random-churn trace length (default: 4)",
    )
    p.add_argument(
        "--flips-per-step", type=int, default=1, metavar="N",
        help="edge flips per random-churn step (default: 1)",
    )
    p.add_argument(
        "--no-verify", action="store_true",
        help="skip static verification of each patched program",
    )
    p.add_argument(
        "--flow", choices=DEMAND_MODELS, default=None,
        help="add load-movement metrics under this demand model",
    )
    p.add_argument("--demand-seed", type=int, default=0, help="demand-draw seed")

    p = sub.add_parser("flow", help="traffic/flow sweep over demand models")
    _add_sweep_flags(p)
    p.add_argument(
        "--model", choices=DEMAND_MODELS, action="append", default=None,
        help="demand model (repeatable; default: all three)",
    )
    p.add_argument("--demand-seed", type=int, default=0, help="demand-draw seed")
    p.add_argument(
        "--total", type=float, default=DEFAULT_TOTAL,
        help="total offered traffic per demand matrix (default: 1e6)",
    )

    p = sub.add_parser("store", help="inspect or garbage-collect the artifact store")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    p = store_sub.add_parser("ls", help="one JSONL row per live manifest record")
    _add_store_flag(p)
    p = store_sub.add_parser("info", help="one JSONL row of store totals")
    _add_store_flag(p)
    p = store_sub.add_parser("gc", help="evict orphans, then LRU down to --max-bytes")
    _add_store_flag(p)
    p.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="object-byte budget to evict down to (default: orphans only)",
    )
    return parser


# ---------------------------------------------------------------------------
def _store_root(args: argparse.Namespace) -> Path:
    """``--store`` > ``$REPRO_STORE`` > ``~/.cache/repro``."""
    if args.store is not None:
        return Path(args.store)
    return default_store_root()


def _store_error(root: Path) -> Optional[str]:
    """Why ``root`` cannot hold a store (created here if missing), or ``None``."""
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return f"store {str(root)!r} is not a writable directory: {exc.strerror or exc}"
    if not os.access(root, os.W_OK | os.X_OK):
        return f"store {str(root)!r} is not a writable directory"
    return None


def _registries(
    args: argparse.Namespace,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """The selected schemes and families; unknown names raise :class:`KeyError`."""
    schemes = resolve_schemes(args.scheme, seed=args.seed)
    families = resolve_families(args.family, size=args.registry, seed=args.seed)
    return schemes, families


def _emit_rows(value: object) -> Iterator[dict]:
    """A cell outcome is one result dataclass or a list of them."""
    if isinstance(value, (list, tuple)):
        for item in value:
            yield dataclasses.asdict(item)
    else:
        yield dataclasses.asdict(value)


def _stream(
    args: argparse.Namespace,
    worker_name: str,
    schemes: Dict[str, object],
    families: Dict[str, object],
    extra: Callable[[str], tuple] = runner._no_extra,
) -> List[dict]:
    """Stream one grid's rows and skips, then its summary; returns the rows.

    The worker is looked up by name at call time, so a swapped module
    attribute of :mod:`repro.analysis.runner` takes effect.
    """
    store_root = _store_root(args)
    payloads = runner.grid_payloads(schemes.items(), families.items(), str(store_root), extra)
    stats = runner.ShardStats()
    rows: List[dict] = []
    skipped = 0
    for payload, outcome in runner.stream_cells(
        getattr(runner, worker_name), payloads, args.jobs
    ):
        stats.absorb(outcome)
        tag, value = outcome[0], outcome[1]
        if tag == "skip":
            skipped += 1
            emit({"event": "skip", "scheme": payload[3], "family": payload[2], "reason": value})
            continue
        for row in _emit_rows(value):
            rows.append(row)
            emit(row)
    emit(
        {
            "event": "summary",
            "command": args.command,
            "store": str(store_root),
            "cells": len(rows),
            "skipped": skipped,
            "hits": stats.hits,
            "misses": stats.misses,
            "compile_hits": stats.compile_hits,
            "compile_misses": stats.compile_misses,
            "compile_hit_rate": stats.compile_hit_rate,
            "degraded": stats.degraded,
        }
    )
    return rows


# ---------------------------------------------------------------------------
_GRID_WORKERS = {
    "compile": "_compile_cell_worker",
    "sweep": "_program_cell_worker",
    "simulate": "_conformance_cell_worker",
    "verify": "_verify_cell_worker",
}


def _cmd_grid(args: argparse.Namespace, schemes, families) -> int:
    rows = _stream(args, _GRID_WORKERS[args.command], schemes, families)
    if args.command == "verify" and args.check:
        failing = [
            row
            for row in rows
            if row.get("verified") and (not row["all_delivered"] or row["issues"])
        ]
        if failing:
            return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_resilience(args: argparse.Namespace, schemes, families) -> int:
    scenarios = runner._fault_scenario_sets(
        families,
        args.seed,
        edge_ks=tuple(args.edge_k) if args.edge_k else (1, 2, 4),
        node_ks=tuple(args.node_k) if args.node_k else (1, 2),
        per_k=args.per_k,
    )
    _stream(
        args,
        "_resilience_cell_worker",
        schemes,
        families,
        lambda family: (scenarios[family], args.flow, args.demand_seed),
    )
    return EXIT_OK


def _cmd_churn(args: argparse.Namespace, schemes, families) -> int:
    if args.scheme is None:
        schemes = runner._table_schemes(schemes)
    traces = runner._churn_trace_sets(families, args.seed, args.steps, args.flips_per_step)
    verify = False if args.no_verify else "static"
    _stream(
        args,
        "_churn_cell_worker",
        schemes,
        families,
        lambda family: (traces[family], verify, args.flow, args.demand_seed),
    )
    return EXIT_OK


def _cmd_flow(args: argparse.Namespace, schemes, families) -> int:
    models = tuple(args.model) if args.model else DEMAND_MODELS
    _stream(
        args,
        "_flow_cell_worker",
        schemes,
        families,
        lambda family: (models, args.demand_seed, args.total),
    )
    return EXIT_OK


_SWEEPS = {
    "compile": _cmd_grid,
    "sweep": _cmd_grid,
    "simulate": _cmd_grid,
    "verify": _cmd_grid,
    "resilience": _cmd_resilience,
    "churn": _cmd_churn,
    "flow": _cmd_flow,
}


def _cmd_store(args: argparse.Namespace) -> int:
    store = ProgramStore(_store_root(args))
    if args.store_command == "ls":
        for record in store.records():
            emit(dataclasses.asdict(record))
    elif args.store_command == "info":
        emit(store.info())
    else:
        stats = store.gc(max_bytes=args.max_bytes)
        row = dataclasses.asdict(stats)
        row["store"] = str(store.root)
        emit(row)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "store":
            return _cmd_store(args)
        if args.jobs < 1:
            emit_error(f"--jobs must be at least 1, got {args.jobs}")
            return EXIT_USAGE
        try:
            schemes, families = _registries(args)
        except KeyError as exc:
            emit_error(str(exc.args[0]) if exc.args else str(exc))
            return EXIT_USAGE
        error = _store_error(_store_root(args))
        if error is not None:
            emit_error(error)
            return EXIT_USAGE
        return _SWEEPS[args.command](args, schemes, families)
    except BrokenPipeError:
        # Downstream closed the stream early (`repro ... | head`): that is
        # the consumer's prerogative in a JSONL pipeline, not our failure.
        # Detach stdout so interpreter teardown doesn't re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
