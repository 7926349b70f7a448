"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-medium --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed,
while the host-speed probe of :mod:`hostprobe` runs: ``setup_s`` (the
median of fresh interpreters doing the imports, plus the median of
repeated set-ups, plus one-off priming, rescaled by the probe's level
during set-up), ``wall_norm_s`` (the median iteration, each rescaled by
the probe's level while it ran; a workload may first run untimed warm-up
iterations), ``peak_rss_mb`` and ``ok_fraction`` (one minus the failed
fraction).  ``--trace 1`` alternates
untraced iterations with iterations run under the per-layer wrappers of
:mod:`spans`; it reports the per-layer metrics, the tracing overhead
between the two, and the JSONL stream's per-cell delay
(``cli.stream.cell_ms_p50``/``_p95``: time before each cell's first row
since the previous cell's last, pooled over the untraced iterations).

Iterations repeat while another one still fits in ``--seconds`` (at
least one runs; ``--trace 1`` fits untraced/traced pairs).  Every store
and temporary file lives in a scratch directory under the checkout,
removed on exit.  The run exits 2 without a result when the checkout has
no ``src/repro`` to measure.

Before the result line the run prints one ``{"event": "detail"}`` line
with the environment (``nproc``, Python/numpy/scipy versions, resolved
simulation kernel), ``failed_fraction``, ``cell_ms_p50``/``cell_ms_p95``,
the raw median iteration time ``wall_median_s``, the iteration and
warm-up times, the probe level of each iteration and the first failed
checks.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Thread-pool variables capped at ``nproc`` before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Set-ups timed per run; ``setup_s`` counts their median.
SETUP_REPEATS = 5
#: Fresh interpreters whose imports are timed per run; ``setup_s`` counts their median.
IMPORT_REPEATS = 3
#: What a fresh interpreter imports before the first set-up.
IMPORT_CODE = "import sys; sys.path[:0] = sys.argv[1:]; import spans; spans.import_all_repro()"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_s() -> float:
    """Median time of ``IMPORT_REPEATS`` fresh interpreters doing the run's imports."""
    from hostprobe import clock

    times = []
    for _ in range(IMPORT_REPEATS):
        start = clock()
        subprocess.run(
            [sys.executable, "-c", IMPORT_CODE, str(ROOT / "src"), str(HERE)],
            check=True,
            timeout=120,
        )
        times.append(clock() - start)
    return statistics.median(times)


def _set_up(workload):
    """Repeated set-ups, one-off priming and the input checks."""
    from hostprobe import clock

    repeats = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        workload.setup()
        repeats.append(clock() - start)
    prime_s = workload.prime()
    return repeats, prime_s, workload.input_failures()


def _environment() -> dict:
    import numpy
    import scipy

    from repro.sim import _kernels, engine

    choice = engine._kernel_choice()
    if choice == "dense":
        kernel = "dense"
    elif choice in ("auto", "numba") and _kernels.HAVE_NUMBA:
        kernel = "numba"
    else:
        kernel = "compact"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "REPRO_SIM_KERNEL": os.environ.get(engine.KERNEL_ENV, "auto"),
        "kernel": kernel,
    }


def _measure(step, seconds: float) -> list:
    """Call ``step`` until one more average call would overrun ``seconds``.

    At least one call runs, so a workload whose iteration is longer than
    ``seconds`` measures exactly one.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def _measure_probed(workload, seconds: float) -> list:
    """:func:`_measure` of ``workload.iterate`` with the host-speed probe running.

    Returns ``(iteration, level)`` pairs, ``level`` being the host-speed
    probe's level (:func:`hostprobe.level_since`) while that iteration ran.
    """
    import hostprobe

    def probed():
        mark = len(hostprobe.durations)
        iteration = workload.iterate()
        return iteration, hostprobe.level_since(mark)

    return _measure(probed, seconds)


def _normalised(seconds: float, level: float) -> float:
    """``seconds`` rescaled to a host where the probe takes ``hostprobe.NOMINAL_S``."""
    import hostprobe

    return seconds * hostprobe.NOMINAL_S / level


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _cell_latency(iterations) -> dict:
    """Pooled ``cell_ms_p50``/``cell_ms_p95`` of the iterations' JSONL streams."""
    cell_ms = [ms for it in iterations for ms in it.cell_ms]
    return {
        "cell_ms_p50": _metric(_percentile(cell_ms, 50), "ms"),
        "cell_ms_p95": _metric(_percentile(cell_ms, 95), "ms"),
    }


def _check_layers(workload, calls: dict, traced: list) -> list:
    """The layers contract.json predicts for this workload ran; build-free ones did not."""
    contract = json.loads((HERE / "contract.json").read_text())
    failures = []
    for row in contract["predictions"]:
        if workload.name in row["on"]:
            failures += [
                f"trace: layer {layer} never ran on {workload.name}"
                for layer in row["layers"]
                if not calls[layer]
            ]
    build_free = contract["build_free"]
    if workload.name in build_free["on"]:
        allowed = sum(it.fallback_builds for it in traced) / len(traced)
        failures += [
            f"trace: layer {layer} ran {calls[layer]} times on {workload.name}, "
            f"beyond {allowed} delta fallbacks"
            for layer in build_free["layers"]
            if calls[layer] > allowed
        ]
    return failures


def _layer_metrics(workload, tracer, traced, untraced, failures) -> dict:
    from spans import LAYERS

    count = len(traced)
    per = {layer: tracer.calls[layer] / count for layer in LAYERS}
    self_s = {layer: tracer.self_ns[layer] / 1e9 / count for layer in LAYERS}
    counts = {k: v / count for k, v in tracer.counts.items()}
    traced_wall = statistics.median(it.wall_s for it in traced)
    untraced_wall = statistics.median(it.wall_s for it in untraced)
    mean_traced = sum(it.wall_s for it in traced) / count
    failures += _check_layers(workload, per, traced)
    cell_ms = _cell_latency(untraced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = _metric(per[layer], "count")
        metrics[f"{layer}.self_s"] = _metric(self_s[layer], "s")
    extra = {
        "routing.build.refusals": (counts.get("routing.build.refusals", 0), "count"),
        "routing.program.lower.bytes": (counts.get("routing.program.lower.bytes", 0), "bytes"),
        "routing.program.lower.header_states": (
            counts.get("routing.program.lower.header_states", 0),
            "count",
        ),
        "store.put.bytes": (counts.get("store.put.bytes", 0), "bytes"),
        "store.get.hit_rate": (
            ratio(counts.get("store.get.hits", 0), per["store.get"]),
            "fraction",
        ),
        "store.degraded": (sum(it.degraded for it in traced) / count, "count"),
        "routing.verify.pairs": (counts.get("routing.verify.pairs", 0), "count"),
        "sim.engine.execute.pair_hops": (
            counts.get("sim.engine.execute.pair_hops", 0),
            "count",
        ),
        "analysis.flow.walk_fraction": (
            ratio(counts.get("analysis.flow.route.walks", 0), per["analysis.flow.route"]),
            "fraction",
        ),
        "routing.program.apply_delta.dirty_entries": (
            counts.get("routing.program.apply_delta.dirty_entries", 0),
            "count",
        ),
        "routing.program.apply_delta.patched_fraction": (
            ratio(
                counts.get("routing.program.apply_delta.patched", 0),
                per["routing.program.apply_delta"],
            ),
            "fraction",
        ),
        "cli.stream.cell_ms_p50": (cell_ms["cell_ms_p50"]["value"], "ms"),
        "cli.stream.cell_ms_p95": (cell_ms["cell_ms_p95"]["value"], "ms"),
        "analysis.runner.self_s": (mean_traced - sum(self_s.values()), "s"),
        "trace.layer_coverage": (ratio(sum(self_s.values()), mean_traced), "fraction"),
        "trace.overhead_frac": (ratio(traced_wall - untraced_wall, untraced_wall), "fraction"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = _metric(value, unit)
    return metrics


def run(args, scratch: Path) -> dict:
    import hostprobe
    import spans
    import workloads

    spans.import_all_repro()
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choices: {sorted(workloads.WORKLOADS)}"
        )
    workload = cls(args.seed, scratch)
    import_s = time.perf_counter() - START
    warmup = []
    levels = []

    if args.trace:
        repeats, prime_s, failures = _set_up(workload)
        tracer = spans.Tracer()

        def pair():
            # Untraced and traced iterations alternate, so the overhead
            # compares iterations that ran under the same machine load.
            plain = workload.iterate()
            tracer.install()
            try:
                return plain, workload.iterate()
            finally:
                tracer.uninstall()

        pairs = _measure(pair, args.seconds)
        untraced = [plain for plain, _ in pairs]
        traced = [spanned for _, spanned in pairs]
        iterations = untraced + traced
        metrics = _layer_metrics(workload, tracer, traced, untraced, failures)
    else:
        hostprobe.start(workload.probe)
        try:
            imports = _import_s()
            repeats, prime_s, failures = _set_up(workload)
            setup_level = hostprobe.level_since(0)
            warmup = [workload.iterate() for _ in range(workload.warmup)]
            copies = len(workload.copy_s)
            mark = len(hostprobe.durations)
            probed = _measure_probed(workload, args.seconds)
            run_level = hostprobe.level_since(mark)
        finally:
            hostprobe.stop()
        untraced = [it for it, _ in probed]
        levels = [level for _, level in probed]
        iterations = warmup + untraced
        copy_s = statistics.median(workload.copy_s[copies:] or [0.0])
        setup_s = _normalised(
            imports + statistics.median(repeats) + prime_s, setup_level
        ) + _normalised(copy_s, run_level)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_norm_s": _metric(
                statistics.median(_normalised(it.wall_s, lv) for it, lv in probed), "s"
            ),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }

    for it in iterations:
        failures += it.failures
    attempted = sum(it.attempted for it in iterations)
    failed = len(failures)
    if not args.trace:
        metrics["ok_fraction"] = _metric(max(0.0, 1.0 - failed / attempted), "fraction")
    detail = {
        "event": "detail",
        "workload": args.workload,
        "seed": args.seed,
        "environment": _environment(),
        "failed_fraction": failed / attempted,
        "cell_latency": _cell_latency(untraced),
        "wall_median_s": statistics.median(it.wall_s for it in untraced),
        "warmup_s": [round(it.wall_s, 6) for it in warmup],
        "iterations": [
            {
                "wall_s": round(it.wall_s, 6),
                "cell_ms_p50": round(_percentile(it.cell_ms, 50), 6),
                "cell_ms_p95": round(_percentile(it.cell_ms, 95), 6),
            }
            for it in iterations
        ],
        "probe_level_ms": [round(level * 1e3, 6) for level in levels],
        "setup_repeats_s": [round(s, 6) for s in repeats],
        "prime_s": prime_s,
        "import_s": import_s,
        "failures": failures[:20],
    }
    print(json.dumps(detail, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    # Stores are always per-run temp dirs; never an operator's store.
    os.environ.pop("REPRO_STORE", None)
    sys.path.insert(0, str(src))

    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        result = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
