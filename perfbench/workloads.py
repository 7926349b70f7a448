"""The benchmark's three workloads: set-up, one timed iteration, output checks.

Each workload object is built from the workload seed and a scratch
directory inside the checkout.  :meth:`setup` is the repeatable part of
set-up (timed, several times per run); :meth:`prime` is set-up done once
per run; :meth:`iterate` runs one iteration and returns an
:class:`Iteration` whose ``wall_s`` covers only the workload's own calls.
Output checks run between those calls, outside the timed regions, and
every failed check is one entry of ``Iteration.failures``.  Durations are
taken with :func:`hostprobe.clock`, which leaves out the host-speed
probe's own time.

The medium workloads drive the ``repro`` command line in-process through
``repro.cli.main.main``, so rows, skip events and summaries are exactly
what an operator sees.  Each command starts from an empty per-process
cache, as a fresh ``repro`` process would.  The n=4096 workload calls
the library through module attributes, the names the tracer wraps.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from hostprobe import clock

HERE = Path(__file__).resolve().parent

#: The medium registry's grid: 15 schemes x 20 families.
MEDIUM_CELLS = 300
#: ``repro churn`` without ``--scheme`` runs the three ``tables-*`` schemes.
CHURN_CELLS = 60
#: Relative tolerance of the float identities checked on outputs.
RTOL = 1e-9


@dataclass
class Iteration:
    """One measured iteration of a workload."""

    wall_s: float
    cell_ms: List[float]
    attempted: int
    degraded: int = 0
    #: Builds the workload itself asks for: churn steps whose delta fell
    #: back to a full recompile (see ``build_free`` in contract.json).
    fallback_builds: int = 0
    failures: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# the repro command line, in-process
# ----------------------------------------------------------------------
class _RowSink(io.TextIOBase):
    """Stand-in stdout recording each JSONL row with its arrival time."""

    def __init__(self) -> None:
        self.rows: List[Tuple[float, str]] = []
        self._partial = ""

    def write(self, text: str) -> int:
        now = clock()
        lines = (self._partial + text).split("\n")
        self._partial = lines.pop()
        self.rows.extend((now, line) for line in lines)
        return len(text)


@dataclass
class Command:
    """One ``repro`` invocation: exit code, timing and its parsed rows."""

    argv: List[str]
    code: int
    start: float
    end: float
    rows: List[Tuple[float, dict]]

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def summary(self) -> Optional[dict]:
        for _, row in reversed(self.rows):
            if row.get("event") == "summary":
                return row
        return None

    def data(self) -> List[dict]:
        return [row for _, row in self.rows if "event" not in row]

    def cells(self) -> List[Tuple[float, float]]:
        """``(first, last)`` row arrival times of each cell, in stream order.

        A cell is one ``(scheme, family)`` pair: a skip event or the run
        of consecutive data rows it produced (flow, resilience and churn
        emit several rows per cell).
        """
        spans: List[list] = []
        last_key = None
        for t, row in self.rows:
            if row.get("event") not in (None, "skip"):
                continue
            key = (row.get("scheme"), row.get("family"), row.get("event"))
            if key == last_key and row.get("event") is None:
                spans[-1][1] = t
            else:
                spans.append([t, t])
            last_key = key
        return [(a, b) for a, b in spans]

    def cell_ms(self) -> List[float]:
        """Delay before each cell's first row, from the previous cell's last."""
        delays = []
        previous = self.start
        for first, last in self.cells():
            delays.append((first - previous) * 1e3)
            previous = last
        return delays


def forget_process_caches() -> None:
    """Drop the library's in-process caches, as a fresh process starts.

    The runner keeps one artifact cache per store directory and the engine
    keeps frontier tables between executions; both would otherwise carry
    work from one command or iteration into the next.
    """
    from repro.analysis import runner
    from repro.sim import engine

    runner._WORKER_CACHES.clear()
    engine._FRONTIER_CACHE.clear()
    engine._MASKED_FRONTIER_CACHE.clear()
    engine._ALIVE_CODES_CACHE.clear()


def run_cli(argv: List[str]) -> Command:
    """Run ``repro <argv>`` in this interpreter as if in a fresh process."""
    # ``repro.cli`` re-exports ``main`` the function under the module's name.
    cli_main = importlib.import_module("repro.cli.main")
    forget_process_caches()
    sink = _RowSink()
    start = clock()
    with contextlib.redirect_stdout(sink):
        code = cli_main.main(argv)
    end = clock()
    forget_process_caches()
    rows = [(t, json.loads(line)) for t, line in sink.rows if line.strip()]
    return Command(argv, code, start, end, rows)


@contextlib.contextmanager
def static_churn_verification():
    """Run ``repro churn`` cells with the static soundness proof.

    ``repro churn --help`` describes its default check as static
    verification, but the command passes ``verify=True`` to
    :func:`repro.analysis.churn.churn_cell`, which recompiles every step
    from scratch.  The benchmark wants the documented behaviour, which
    never builds or lowers, so it swaps the flag to ``"static"`` at the
    worker the command resolves.
    """
    from repro.analysis import runner

    original = runner._churn_cell_worker

    def worker(payload):
        if payload[5] is True:
            payload = payload[:5] + ("static",) + payload[6:]
        return original(payload)

    runner._churn_cell_worker = worker
    try:
        yield
    finally:
        runner._churn_cell_worker = original


def check_command(command: Command, cells: int, warm: bool) -> List[str]:
    """Checks every command shares: exit code, summary, cell count, cache."""
    name = command.argv[0]
    failures = []
    if command.code != 0:
        failures.append(f"{name}: exit code {command.code}")
    summary = command.summary
    if summary is None:
        return failures + [f"{name}: no summary row"]
    if summary["degraded"]:
        failures.append(f"{name}: {summary['degraded']} degraded store entries")
    if len(command.cells()) != cells:
        failures.append(f"{name}: {len(command.cells())} cells streamed, expected {cells}")
    expected = 1.0 if warm else 0.0
    if summary["compile_hit_rate"] != expected:
        failures.append(
            f"{name}: compile_hit_rate {summary['compile_hit_rate']} != {expected}"
        )
    return failures


class Workload:
    """What :mod:`run` drives; every hook but :meth:`iterate` defaults to a no-op."""

    name = ""
    #: The :mod:`hostprobe` probe bound by what this workload is bound by.
    probe = "python"
    #: Iterations run, checked and left out of the timing before measuring.
    warmup = 0

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        #: Per-iteration set-up (store copies), reported inside ``setup_s``.
        self.copy_s: List[float] = []

    def setup(self) -> None:
        """Repeatable set-up; timed several times per run."""

    def prime(self) -> float:
        """Set-up done once per run; returns its duration."""
        return 0.0

    def input_failures(self) -> List[str]:
        """Checks on the generated inputs, run once outside any timing."""
        return []

    def iterate(self) -> Iteration:
        raise NotImplementedError


# ----------------------------------------------------------------------
# medium registry workloads
# ----------------------------------------------------------------------
class _Medium(Workload):
    """Shared set-up of the two medium-registry workloads."""

    def _flags(self, store: Path) -> List[str]:
        return ["--registry", "medium", "--store", str(store), "--seed", str(self.seed)]

    def setup(self) -> None:
        from repro.sim.registry import resolve_families, resolve_schemes

        families = resolve_families(None, size="medium", seed=self.seed)
        schemes = resolve_schemes(None, seed=self.seed)
        if len(families) * len(schemes) != MEDIUM_CELLS:
            raise RuntimeError("the medium registry is no longer 15 x 20 cells")

    def _store_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))


class ColdMedium(_Medium):
    """``repro sweep --registry medium`` into an empty store."""

    name = "cold-medium"
    #: Its first sweep in a process runs slower (the warm workload's
    #: priming pass already warms the process, and one n=4096 iteration
    #: is too long to spare).
    warmup = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        recorded = json.loads((HERE / "cold_medium_object_ids.json").read_text())
        self.expected_ids = recorded.get(str(seed))

    def iterate(self) -> Iteration:
        store = self._store_dir()
        try:
            sweep = run_cli(["sweep"] + self._flags(store))
            failures = check_command(sweep, MEDIUM_CELLS, warm=False)
            failures += _check_sweep_rows(sweep)
            if self.expected_ids is not None:
                from repro.store import ProgramStore

                ids = sorted(
                    {r.object_id for r in ProgramStore(store).records() if r.object_id}
                )
                if ids != self.expected_ids:
                    failures.append(
                        f"cold store holds {len(ids)} object ids, not the "
                        f"{len(self.expected_ids)} recorded for seed {self.seed}"
                    )
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return Iteration(
            wall_s=sweep.wall_s,
            cell_ms=sweep.cell_ms(),
            attempted=MEDIUM_CELLS,
            degraded=(sweep.summary or {}).get("degraded", 0),
            failures=failures,
        )


class WarmMedium(_Medium):
    """Every consumer subcommand against a store primed by a full pass."""

    name = "warm-medium"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.primed: Optional[Path] = None

    def _commands(self, store: Path) -> List[Tuple[List[str], int]]:
        flags = self._flags(store)
        demand = ["--demand-seed", str(self.seed)]
        return [
            (["sweep"] + flags, MEDIUM_CELLS),
            (["verify"] + flags + ["--check"], MEDIUM_CELLS),
            (["flow"] + flags + demand, MEDIUM_CELLS),
            (["resilience"] + flags + ["--flow", "uniform"] + demand, MEDIUM_CELLS),
            (["churn"] + flags + ["--flow", "uniform"] + demand, CHURN_CELLS),
        ]

    def _pass(self, store: Path) -> List[Command]:
        with static_churn_verification():
            return [run_cli(argv) for argv, _ in self._commands(store)]

    def prime(self) -> float:
        """Cold compile, then one full warm pass; returns its duration."""
        start = clock()
        self.primed = self._store_dir()
        run_cli(["compile"] + self._flags(self.primed))
        self._pass(self.primed)
        return clock() - start

    def iterate(self) -> Iteration:
        assert self.primed is not None, "prime() first"
        start = clock()
        store = self.scratch / f"copy-{time.perf_counter_ns()}"
        shutil.copytree(self.primed, store)
        self.copy_s.append(clock() - start)
        try:
            commands = self._pass(store)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        failures = []
        for command, (_, cells) in zip(commands, self._commands(store)):
            failures += check_command(command, cells, warm=True)
        sweep, verify, flow, resilience, churn = commands
        failures += _check_sweep_rows(sweep)
        failures += _check_partition(sweep, verify)
        failures += _check_flow_rows(flow)
        failures += _check_resilience_rows(resilience)
        failures += _check_churn_rows(churn)
        return Iteration(
            wall_s=sum(c.wall_s for c in commands),
            cell_ms=[ms for c in commands for ms in c.cell_ms()],
            attempted=4 * MEDIUM_CELLS + CHURN_CELLS,
            degraded=sum((c.summary or {}).get("degraded", 0) for c in commands),
            fallback_builds=sum(1 for r in churn.data() if r["mode"] == "recompiled")
            + (churn.summary or {}).get("skipped", 0),
            failures=failures,
        )


def _check_sweep_rows(sweep: Command) -> List[str]:
    return [
        f"sweep: {r['scheme']}/{r['family']} does not deliver every pair"
        for r in sweep.data()
        if not r["all_delivered"]
    ]


def _check_partition(sweep: Command, verify: Command) -> List[str]:
    """``repro verify``'s proof agrees with ``repro sweep``'s execution.

    The header-state executor spends one synchronous step observing
    delivery, so its ``steps`` is the longest route plus one; the
    next-hop executor's is the longest route itself.
    """
    executed = {(r["scheme"], r["family"]): r for r in sweep.data()}
    failures = []
    for row in verify.data():
        key = (row["scheme"], row["family"])
        ran = executed.get(key)
        if ran is None:
            failures.append(f"verify: {key} has no sweep row")
            continue
        if not row["verified"]:
            continue
        expected_steps = row["max_finite_hops"] + (row["kind"] == "header-state")
        if row["issues"] or row["all_delivered"] != ran["all_delivered"]:
            failures.append(f"verify: {key} partition disagrees with the sweep")
        elif row["all_delivered"] and ran["steps"] != expected_steps:
            failures.append(
                f"verify: {key} proves {row['max_finite_hops']} hops, "
                f"sweep ran {ran['steps']} steps"
            )
    return failures


def _check_flow_rows(flow: Command) -> List[str]:
    failures = []
    for r in flow.data():
        where = f"flow: {r['scheme']}/{r['family']}/{r['demand_model']}"
        if not 0.0 < r["delivered_fraction"] <= 1.0:
            failures.append(f"{where} delivered_fraction {r['delivered_fraction']}")
        if r["allocated_throughput"] < r["uniform_throughput"] * (1 - RTOL):
            failures.append(f"{where} allocated below uniform throughput")
    return failures


def _check_resilience_rows(resilience: Command) -> List[str]:
    failures = []
    for r in resilience.data():
        fates = r["delivered"] + r["dropped"] + r["livelocked"] + r["misdelivered"]
        if fates != r["feasible"] or not 0.0 <= r["survival_rate"] <= 1.0:
            failures.append(
                f"resilience: {r['scheme']}/{r['family']}/{r['scenario']} "
                "pair fates do not add up"
            )
    return failures


def _check_churn_rows(churn: Command) -> List[str]:
    return [
        f"churn: {r['scheme']}/{r['family']}/{r['trace']}/{r['step']} unproven"
        for r in churn.data()
        if r["mode"] == "patched" and r["outcome_equal"] is not True
    ]


# ----------------------------------------------------------------------
# the n = 4096 hypercube cell
# ----------------------------------------------------------------------
def ecube_program(dim: int):
    """The e-cube next-hop program of the ``dim``-cube, built as arrays.

    Fixing the lowest differing bit first is e-cube routing; lowering it
    through ``scheme.build`` is a Python double loop, minutes at n=4096.
    """
    from repro.routing.program import NextHopProgram, transition_dtype

    n = 1 << dim
    ids = np.arange(n, dtype=np.int64)
    diff = ids[:, None] ^ ids[None, :]
    nxt = ids[:, None] ^ (diff & -diff)
    np.fill_diagonal(nxt, ids)
    return NextHopProgram(next_node=nxt.astype(transition_dtype(n)))


def check_ecube_input(dim: int = 6) -> List[str]:
    """The array-built program is byte-identical to what users compile."""
    from repro.graphs import generators
    from repro.routing import program as program_mod
    from repro.routing.ecube import ECubeRoutingScheme

    compiled = program_mod.compile_scheme_program(
        ECubeRoutingScheme(), generators.hypercube(dim)
    )
    if compiled.fingerprint() != ecube_program(dim).fingerprint():
        return [f"array-built e-cube program differs from the compiled one at d={dim}"]
    return []


class Hypercube4096(Workload):
    """One n=4096 cell: store, verify, execute, route demand, one fault."""

    name = "hypercube-4096"
    probe = "memory"
    dim = 12

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.program = None
        self.graph = None
        self._hops: Optional[np.ndarray] = None

    def setup(self) -> None:
        from repro.graphs import generators

        self.program = ecube_program(self.dim)
        self.graph = generators.hypercube(self.dim)

    def input_failures(self) -> List[str]:
        return check_ecube_input()

    def _closed_form_hops(self) -> np.ndarray:
        """``popcount(u XOR v)``: the e-cube route length, and the distance."""
        if self._hops is None:
            ids = np.arange(1 << self.dim, dtype=np.uint16)
            self._hops = np.bitwise_count(ids[:, None] ^ ids[None, :])
        return self._hops

    def iterate(self) -> Iteration:
        import repro.analysis.flow as flow
        import repro.routing.verify as verify
        import repro.sim.engine as engine
        import repro.sim.faults as faults
        import repro.store as store_mod

        hops = self._closed_form_hops()
        n = self.program.n
        failures: List[str] = []
        timed = 0.0

        def timed_call(fn, *args, **kwargs):
            nonlocal timed
            start = clock()
            result = fn(*args, **kwargs)
            timed += clock() - start
            return result

        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        try:
            store = timed_call(store_mod.ProgramStore, root)
            record = timed_call(store.put, "ecube-4096", self.program)
            found, program = timed_call(store.get, "ecube-4096", verify=True)
            if not found or record.object_id != self.program.fingerprint():
                failures.append("store: the program did not round-trip")
                program = self.program
            degraded = store.degraded
            if degraded:
                failures.append(f"store: {degraded} degraded entries")

            report = timed_call(verify.verify_program, program)
            if not report.all_delivered or not np.array_equal(report.hops, hops):
                failures.append("verify: hops differ from popcount(u XOR v)")

            result = timed_call(engine.execute_program, program)
            if not result.all_delivered or not np.array_equal(result.lengths, hops):
                failures.append("execute: lengths differ from popcount(u XOR v)")
            del result

            demand = timed_call(flow.demand_matrix, "zipf", n, seed=self.seed)
            routed = timed_call(flow.route_demand, program, demand, report=report)
            carried = float(routed.edge_load.sum())
            expected = float((demand.demand * hops).sum())
            if abs(carried - expected) > RTOL * expected or routed.delivered_fraction != 1.0:
                failures.append(
                    f"flow: edge loads sum to {carried}, demand x hops to {expected}"
                )
            del routed, demand, report

            fault_set = timed_call(
                faults.random_fault_set, self.graph, 2, kind="edge", seed=self.seed
            )
            dist = timed_call(faults.surviving_distance_matrix, self.graph, fault_set)
            outcome = timed_call(
                faults.simulate_with_faults,
                program,
                fault_set,
                graph=self.graph,
                dist=dist,
            )
            counts = outcome.counts()
            delivered = outcome.outcome == faults.PAIR_DELIVERED
            if (
                counts["livelocked"]
                or counts["misdelivered"]
                or counts["delivered"] + counts["dropped"] != n * (n - 1)
                or not counts["dropped"]
                or (outcome.lengths[delivered] < dist[delivered]).any()
            ):
                failures.append(f"faults: implausible outcome {counts}")
            del outcome, dist, program
        finally:
            shutil.rmtree(root, ignore_errors=True)
            forget_process_caches()
        return Iteration(
            wall_s=timed,
            cell_ms=[timed * 1e3],
            attempted=1,
            degraded=degraded,
            failures=failures,
        )


WORKLOADS = {w.name: w for w in (ColdMedium, WarmMedium, Hypercube4096)}
