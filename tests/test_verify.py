"""The static program verifier: differential, mutation, and integration suites.

Four layers of guarantees over :mod:`repro.routing.verify`:

* **Differential** — for every registry scheme x graph family whose program
  compiles (next-hop or header-state), the verifier's closed-form pair
  classification and hop counts equal what independent oracles observe
  by stepping messages: the per-message interpreter
  (``simulate_all_pairs(rf, method="generic")``), its fault-model run
  (``simulate_with_faults(..., method="reference")``, outcome **and**
  lengths bit-for-bit), and the dense lockstep loops of
  ``tests/dense_oracle.py`` on delta-patched and mutated programs.  (The
  library's compiled executor is a view over the verifier, so it cannot
  serve as an oracle here.)  Hypothesis extends the same equality to
  random graphs for both program kinds.

* **Mutation negatives** — corrupted artifacts (out-of-range successors, a
  stray ``-1``, broken absorbing destinations, injected cycles, stale
  analysis fields, truncated ``.rpg`` sections) produce the *precise*
  diagnostic each corruption deserves, never a wrong-but-plausible report.

* **Taxonomy pins** — the verdict codes are numerically equal to the
  ``PAIR_*`` codes of :mod:`repro.sim.faults` (compared by value: the
  verifier must not import the simulator).

* **Integration** — the cache's ``verify=True`` integrity gate rejects
  within-framing corruption, ``apply_delta(static_check=True)`` raises on
  an unsound patch, ``ShardedRunner.verify_sweep`` proves the registry
  grid without executing a message, and ``static_conformance_report``
  equals the dynamic report field-for-field (minus ``mode``).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import generators
from repro.graphs.shortest_paths import distance_matrix
from repro.routing.hierarchical import HierarchicalSpannerScheme
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.program import (
    DROPPED,
    MISDELIVER,
    NO_ROUTE,
    GenericProgram,
    HeaderStateProgram,
    NextHopProgram,
    apply_delta,
    compile_scheme_program,
    functional_hops,
    program_from_bytes,
)
from repro.routing.tables import ShortestPathTableScheme
from repro.routing.verify import (
    VERDICT_DELIVERED,
    VERDICT_DROPPED,
    VERDICT_INFEASIBLE,
    VERDICT_LIVELOCKED,
    VERDICT_MISDELIVERED,
    ProgramVerificationError,
    verify_program,
    verify_structure,
)
from dense_oracle import dense_execute
from repro.sim import simulate_all_pairs
from repro.sim.churn import churn_scenarios
from repro.sim.faults import (
    PAIR_DELIVERED,
    PAIR_DROPPED,
    PAIR_INFEASIBLE,
    PAIR_LIVELOCKED,
    PAIR_MISDELIVERED,
    apply_faults,
    simulate_with_faults,
)
from repro.sim.registry import fault_scenarios, graph_families, scheme_registry

SCHEMES = scheme_registry()
FAMILIES = graph_families(size="small", seed=0)


def _compiled_cells():
    """Every (scheme, family) cell of the registry that compiles to a
    statically-verifiable program, with its routing function."""
    for family_name, graph in FAMILIES.items():
        for scheme_name, scheme in SCHEMES.items():
            try:
                rf = scheme.build(graph.copy())
            except ValueError:
                continue
            program = rf.compile_program()
            if isinstance(program, GenericProgram):
                continue
            yield scheme_name, family_name, graph, rf, program


def _expected_outcome(sim, n: int) -> np.ndarray:
    """SimulationResult -> the verdict matrix the verifier must produce."""
    outcome = np.full((n, n), VERDICT_LIVELOCKED, dtype=np.int8)
    outcome[sim.delivered] = VERDICT_DELIVERED
    outcome[sim.misdelivered] = VERDICT_MISDELIVERED
    np.fill_diagonal(outcome, VERDICT_INFEASIBLE)
    return outcome


# ----------------------------------------------------------------------
# taxonomy pin
# ----------------------------------------------------------------------
def test_verdict_codes_equal_pair_codes():
    # Value equality, not name sharing: repro.routing must not import
    # repro.sim, so this test is the only thing holding the two taxonomies
    # together.
    assert VERDICT_DELIVERED == PAIR_DELIVERED
    assert VERDICT_DROPPED == PAIR_DROPPED
    assert VERDICT_LIVELOCKED == PAIR_LIVELOCKED
    assert VERDICT_MISDELIVERED == PAIR_MISDELIVERED
    assert VERDICT_INFEASIBLE == PAIR_INFEASIBLE


# ----------------------------------------------------------------------
# differential: verifier == executor
# ----------------------------------------------------------------------
def test_differential_unmasked_full_registry():
    """verify(program) == the per-message interpreter on every cell."""
    cells = 0
    kinds = set()
    for scheme_name, family_name, graph, rf, program in _compiled_cells():
        sim = simulate_all_pairs(rf, method="generic")
        report = verify_program(program)
        label = f"{scheme_name} x {family_name}"
        assert report.issues == (), label
        np.testing.assert_array_equal(
            report.outcome, _expected_outcome(sim, graph.n), err_msg=label
        )
        # The unmasked interpreter records -1 for lost pairs (walked
        # prefixes are a masked-path concept); delivered pairs and the
        # diagonal must agree exactly.
        delivered = report.outcome == VERDICT_DELIVERED
        np.testing.assert_array_equal(
            report.hops[delivered], sim.lengths[delivered], err_msg=label
        )
        assert (report.hops.diagonal() == 0).all(), label
        kinds.add(program.kind)
        cells += 1
    # The registry must keep exercising both compiled kinds on a healthy
    # spread of the 15 x 20 grid.
    assert cells >= 200, cells
    assert kinds == {"next-hop", "header-state"}


def test_differential_masked_full_registry():
    """Outcome AND lengths equal the interpreter's fault run bit-for-bit."""
    cells = 0
    for scheme_name, family_name, graph, rf, program in _compiled_cells():
        scenarios = fault_scenarios(
            graph, seed=3, edge_ks=(1, 2), node_ks=(1,), per_k=1
        )
        for fault_label, faults in scenarios:
            masked = apply_faults(program, graph, faults)
            res = simulate_with_faults(rf, faults, method="reference")
            report = verify_program(masked, alive=faults.alive_mask(graph.n))
            label = f"{scheme_name} x {family_name} x {fault_label}"
            np.testing.assert_array_equal(report.outcome, res.outcome, err_msg=label)
            np.testing.assert_array_equal(report.hops, res.lengths, err_msg=label)
            cells += 1
    assert cells >= 600, cells


def test_differential_delta_patched_programs():
    """Verification of delta-patched programs equals stepping them densely."""
    checked = 0
    for family_name in ("random-dense", "grid"):
        graph = FAMILIES[family_name]
        scheme = SCHEMES["tables-lowest-port"]
        program = compile_scheme_program(scheme, graph)
        dist = None
        for trace_label, trace in churn_scenarios(graph, seed=5, steps=3):
            prog, d, g = program, dist, graph
            for before, step in trace.transitions():
                try:
                    result = apply_delta(
                        prog, before, step.graph, scheme, dist_before=d
                    )
                except ValueError:
                    break
                prog, d, g = result.program, result.dist_after, step.graph
                sim = dense_execute(prog)
                report = verify_program(prog, dist=d)
                np.testing.assert_array_equal(
                    report.outcome,
                    _expected_outcome(sim, g.n),
                    err_msg=f"{family_name} x {trace_label}",
                )
                assert report.all_delivered
                # A table program routes shortest paths: hops == distance.
                delivered = report.outcome == VERDICT_DELIVERED
                np.testing.assert_array_equal(report.hops[delivered], d[delivered])
                assert report.max_stretch == Fraction(1)
                checked += 1
    assert checked >= 6, checked


def _peel_hops(succ: np.ndarray, stopping: np.ndarray) -> np.ndarray:
    """Reference stop analysis: peel the functional graph backwards.

    One vectorised round per hop count from the stopping states; a
    DROPPED successor self-loops, so a non-stopping state there keeps
    NO_ROUTE.  The independent oracle of ``functional_hops``.
    """
    succ = np.asarray(succ).astype(np.int64)
    ids = np.arange(succ.shape[0])
    succ = np.where(succ == DROPPED, ids, succ)
    hops = np.where(np.asarray(stopping, dtype=bool), 0, NO_ROUTE)
    while True:
        downstream = hops[succ]
        newly = (hops < 0) & (downstream >= 0)
        if not newly.any():
            return hops
        hops[newly] = downstream[newly] + 1


def test_functional_hops_equals_the_peel_on_registry_header_state_programs():
    """The doubling resolver and the reverse peel agree on every registry
    header-state program and every fault_scenarios view of it, for both
    stopping sets the library uses (delivering; delivering-or-dropped)."""
    programs = 0
    for scheme_name, family_name, graph, _, program in _compiled_cells():
        if not isinstance(program, HeaderStateProgram):
            continue
        views = [("unmasked", program)] + [
            (label, apply_faults(program, graph, faults))
            for label, faults in fault_scenarios(
                graph, seed=3, edge_ks=(1, 2), node_ks=(1,), per_k=1
            )
        ]
        for view_label, view in views:
            label = f"{scheme_name} x {family_name} x {view_label}"
            stops = view.deliver | (view.succ == DROPPED)
            for stopping in (view.deliver, stops):
                np.testing.assert_array_equal(
                    functional_hops(view.succ, stopping),
                    _peel_hops(view.succ, stopping),
                    err_msg=label,
                )
            np.testing.assert_array_equal(
                view.hops_to_deliver, _peel_hops(view.succ, stops), err_msg=label
            )
        programs += 1
    assert programs >= 20, programs


@given(
    n=st.integers(min_value=3, max_value=24),
    extra=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_verify_matches_simulation_next_hop_random(n, extra, seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rf = ShortestPathTableScheme().build(graph)
    program = rf.compile_program()
    assert isinstance(program, NextHopProgram)
    sim = dense_execute(program)
    report = verify_program(program)
    np.testing.assert_array_equal(report.outcome, _expected_outcome(sim, n))
    delivered = report.outcome == VERDICT_DELIVERED
    np.testing.assert_array_equal(report.hops[delivered], sim.lengths[delivered])


@given(
    n=st.integers(min_value=4, max_value=20),
    extra=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_verify_matches_simulation_header_state_random(n, extra, seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rf = HierarchicalSpannerScheme(spanner_stretch=3.0, seed=0, rewriting=True).build(graph)
    program = rf.compile_program()
    assert isinstance(program, HeaderStateProgram)
    sim = simulate_all_pairs(rf, method="generic")
    report = verify_program(program)
    np.testing.assert_array_equal(report.outcome, _expected_outcome(sim, n))
    delivered = report.outcome == VERDICT_DELIVERED
    np.testing.assert_array_equal(report.hops[delivered], sim.lengths[delivered])


@given(
    n=st.integers(min_value=3, max_value=16),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_verify_matches_masked_executor_random(n, seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=0.3, seed=seed)
    rf = ShortestPathTableScheme().build(graph)
    program = rf.compile_program()
    scenarios = fault_scenarios(graph, seed=seed, edge_ks=(1,), node_ks=(1,), per_k=1)
    for _, faults in scenarios:
        masked = apply_faults(program, graph, faults)
        res = simulate_with_faults(rf, faults, method="reference")
        report = verify_program(masked, alive=faults.alive_mask(n))
        np.testing.assert_array_equal(report.outcome, res.outcome)
        np.testing.assert_array_equal(report.hops, res.lengths)


# ----------------------------------------------------------------------
# report API
# ----------------------------------------------------------------------
class TestReportAPI:
    @pytest.fixture(scope="class")
    def table_report(self):
        graph = FAMILIES["grid"]
        program = compile_scheme_program(ShortestPathTableScheme(), graph)
        dist = distance_matrix(graph)
        return graph, verify_program(program, dist=dist), dist

    def test_counts_partition_all_pairs(self, table_report):
        graph, report, _ = table_report
        assert sum(report.counts().values()) == graph.n * graph.n
        assert report.counts()["delivered"] == graph.n * (graph.n - 1)
        assert report.counts()["infeasible"] == graph.n

    def test_ok_and_all_delivered(self, table_report):
        _, report, _ = table_report
        assert report.ok
        assert report.all_delivered
        assert report.livelocked_pairs() == []
        assert report.misdelivered_pairs() == []
        assert report.dropped_pairs() == []

    def test_require_all_delivered_returns_lengths(self, table_report):
        graph, report, dist = table_report
        lengths = report.require_all_delivered()
        np.testing.assert_array_equal(lengths, dist)

    def test_exact_stretch_of_shortest_path_tables(self, table_report):
        _, report, _ = table_report
        assert report.max_stretch == Fraction(1)
        assert report.mean_stretch == pytest.approx(1.0)

    def test_max_finite_hops_is_diameter_for_tables(self, table_report):
        _, report, dist = table_report
        assert report.max_finite_hops == int(dist.max())

    def test_stretch_matches_engine_on_stretched_scheme(self):
        graph = FAMILIES["random-sparse"]
        scheme = CowenLandmarkScheme(seed=0)
        rf = scheme.build(graph.copy())
        program = rf.compile_program()
        dist = distance_matrix(graph)
        report = verify_program(program, dist=dist)
        sim = simulate_all_pairs(rf, method="generic")
        assert report.max_stretch == sim.max_stretch(dist=dist)

    def test_require_all_delivered_names_first_lost_pair(self):
        graph = FAMILIES["path"]
        program = compile_scheme_program(ShortestPathTableScheme(), graph)
        nn = np.array(program.next_node, copy=True)
        # 0 -> 2 now bounces between the endpoints forever.
        nn[0, 2] = 1
        nn[1, 2] = 0
        report = verify_program(program.with_next_node(nn))
        with pytest.raises(ProgramVerificationError, match="0 -> 2 \\(livelocked\\)"):
            report.require_all_delivered()


# ----------------------------------------------------------------------
# mutation negatives: corrupt artifacts -> precise diagnostics
# ----------------------------------------------------------------------
class TestNextHopMutations:
    @pytest.fixture()
    def program(self):
        return compile_scheme_program(ShortestPathTableScheme(), FAMILIES["grid"])

    def _mutated(self, program, x, d, value):
        nn = np.array(program.next_node, copy=True)
        nn[x, d] = value
        return program.with_next_node(nn)

    def test_out_of_range_successor_raises(self, program):
        bad = self._mutated(program, 2, 5, program.n + 7)
        with pytest.raises(
            ProgramVerificationError,
            match=r"next_node contains 1 out-of-range entries: first at "
            r"\(node 2, dest 5\)",
        ):
            verify_structure(bad)

    def test_stray_minus_one_raises(self, program):
        # -1 is NO_ROUTE in distance/initial contexts but never a valid
        # transition; the verifier must not lump it in with the sentinels.
        bad = self._mutated(program, 1, 4, NO_ROUTE)
        with pytest.raises(ProgramVerificationError, match="out-of-range"):
            verify_program(bad)

    def test_broken_absorbing_destination_is_semantic_issue(self, program):
        d = 3
        neighbor = int(program.next_node[0, d])
        bad = self._mutated(program, d, d, neighbor)
        issues = verify_structure(bad)
        assert len(issues) == 1
        assert f"next_node[{d}, {d}] = {neighbor}" in issues[0]
        # Classifiable, not fatal: default mode reports, strict raises.
        report = verify_program(bad)
        assert report.issues == tuple(issues)
        with pytest.raises(ProgramVerificationError, match="not absorbing"):
            verify_program(bad, strict=True)
        # And the classification still matches the dense oracle, which
        # routes messages *through* a non-absorbing destination.
        sim = dense_execute(bad)
        np.testing.assert_array_equal(
            report.outcome, _expected_outcome(sim, bad.n)
        )

    def test_injected_cycle_proves_livelock(self, program):
        n = program.n
        nn = np.array(program.next_node, copy=True)
        a, b, d = 0, 1, n - 1
        nn[a, d] = b
        nn[b, d] = a
        report = verify_program(program.with_next_node(nn))
        assert report.outcome[a, d] == VERDICT_LIVELOCKED
        assert report.outcome[b, d] == VERDICT_LIVELOCKED
        assert report.hops[a, d] == NO_ROUTE
        # Every other destination column is untouched.
        untouched = np.delete(np.arange(n), d)
        assert (report.outcome[:, untouched][report.outcome[:, untouched] != VERDICT_INFEASIBLE] == VERDICT_DELIVERED).all()

    def test_misdeliver_sentinel_classified_with_prefix_hops(self, program):
        d = 4
        src = next(
            x for x in range(program.n) if x != d and program.next_node[x, d] == d
        )
        bad = self._mutated(program, src, d, MISDELIVER)
        report = verify_program(bad)
        assert report.outcome[src, d] == VERDICT_MISDELIVERED
        # The message stops AT src before the sentinel hop: zero-length
        # prefix for a direct neighbor.
        assert report.hops[src, d] == 0

    def test_wrong_shape_raises(self, program):
        # The view API refuses a wrong shape up front, so smuggle the
        # corruption past it the way a decoder bug would.
        bad = dataclasses.replace(
            program, next_node=np.array(program.next_node[:-1], copy=True)
        )
        with pytest.raises(ProgramVerificationError, match="square"):
            verify_structure(bad)

    def test_alive_mask_shape_checked(self, program):
        with pytest.raises(ProgramVerificationError, match="alive mask"):
            verify_program(program, alive=np.ones(program.n + 1, dtype=bool))


class TestHeaderStateMutations:
    @pytest.fixture()
    def program(self):
        scheme = HierarchicalSpannerScheme(spanner_stretch=3.0, seed=0, rewriting=True)
        return compile_scheme_program(scheme, FAMILIES["random-sparse"])

    def test_out_of_range_successor_raises(self, program):
        # with_transitions would re-run the hops analysis and crash on the
        # wild id, so smuggle the corruption in like a decoder bug would.
        succ = np.array(program.succ, copy=True)
        succ[0] = program.num_states + 3
        bad = dataclasses.replace(program, succ=succ)
        with pytest.raises(
            ProgramVerificationError,
            match="succ contains 1 out-of-range state ids: first at state 0",
        ):
            verify_structure(bad)

    def test_stray_minus_one_successor_raises(self, program):
        succ = np.array(program.succ, copy=True)
        live = int(np.nonzero(succ >= 0)[0][0])
        succ[live] = NO_ROUTE
        bad = dataclasses.replace(program, succ=succ)
        with pytest.raises(ProgramVerificationError, match="out-of-range"):
            verify_structure(bad)

    def test_stale_hops_field_is_semantic_issue(self, program):
        stale = np.array(program.hops_to_deliver, copy=True)
        stale[0] += 5
        bad = program.with_transitions(hops_to_deliver=stale)
        issues = verify_structure(bad)
        assert len(issues) == 1
        assert "hops_to_deliver disagrees" in issues[0]
        assert "state 0" in issues[0]
        with pytest.raises(ProgramVerificationError, match="strict"):
            verify_program(bad, strict=True)

    def test_corrupt_initial_diagonal_is_semantic_issue(self, program):
        initial = np.array(program.initial, copy=True)
        initial[2, 2] = 0
        bad = dataclasses.replace(program, initial=initial)
        issues = verify_structure(bad)
        assert any("initial diagonal" in issue for issue in issues)

    def test_out_of_range_node_of_raises(self, program):
        node_of = np.array(program.node_of, copy=True)
        node_of[1] = program.n + 2
        bad = dataclasses.replace(program, node_of=node_of)
        with pytest.raises(ProgramVerificationError, match="node_of contains"):
            verify_structure(bad)

    def test_injected_state_cycle_proves_livelock(self, program):
        succ = np.array(program.succ, copy=True)
        deliver = np.array(program.deliver, copy=True)
        # Find a pair's initial state and wire it into a 1-cycle.
        n = program.n
        x, y = 0, 1
        s = int(program.initial[x, y])
        succ[s] = s
        deliver[s] = False
        bad = program.with_transitions(succ=succ, deliver=deliver)
        report = verify_program(bad)
        assert report.outcome[x, y] == VERDICT_LIVELOCKED
        assert report.hops[x, y] == NO_ROUTE


class TestSerializationMutations:
    def test_truncated_rpg_payload_raises(self):
        program = compile_scheme_program(ShortestPathTableScheme(), FAMILIES["grid"])
        blob = program.to_bytes()
        with pytest.raises(ValueError, match="truncated"):
            program_from_bytes(blob[:-16])

    def test_generic_program_not_verifiable(self):
        scheme = SCHEMES["spanner5-landmark"]
        graph = FAMILIES["random-sparse"]
        program = compile_scheme_program(scheme, graph)
        if not isinstance(program, GenericProgram):
            pytest.skip("registry stopped lowering this scheme generically")
        with pytest.raises(
            ProgramVerificationError, match="interpreted, not compiled"
        ):
            verify_program(program)


# ----------------------------------------------------------------------
# integration: cache gate, delta soundness, sweeps, conformance
# ----------------------------------------------------------------------
class TestCacheIntegrityGate:
    def _store_corrupt(self, tmp_path):
        from repro.analysis.runner import ExperimentCache

        graph = FAMILIES["grid"]
        program = compile_scheme_program(ShortestPathTableScheme(), graph)
        nn = np.array(program.next_node, copy=True)
        # Out-of-range successor: bytes corrupted *within* valid framing,
        # exactly what only the strict structural gate can catch.
        nn[0, 3] = graph.n + 5
        corrupt = dataclasses.replace(program, next_node=nn)
        cache = ExperimentCache(tmp_path)
        cache.store_program_entry("deadbeef", corrupt)
        return ExperimentCache(tmp_path)  # fresh process view: no memory

    def test_unverified_load_returns_corrupt_artifact(self, tmp_path):
        cache = self._store_corrupt(tmp_path)
        found, program = cache.load_program_entry("deadbeef")
        assert found
        assert int(program.next_node[0, 3]) == FAMILIES["grid"].n + 5

    def test_verified_load_degrades_to_miss(self, tmp_path):
        cache = self._store_corrupt(tmp_path)
        found, program = cache.load_program_entry("deadbeef", verify=True)
        assert not found and program is None

    def test_healthy_artifact_passes_the_gate(self, tmp_path):
        from repro.analysis.runner import ExperimentCache

        program = compile_scheme_program(ShortestPathTableScheme(), FAMILIES["grid"])
        cache = ExperimentCache(tmp_path)
        cache.store_program_entry("cafe", program)
        fresh = ExperimentCache(tmp_path)
        found, loaded = fresh.load_program_entry("cafe", verify=True)
        assert found
        np.testing.assert_array_equal(loaded.next_node, program.next_node)


class TestApplyDeltaStaticCheck:
    def test_clean_delta_chain_passes_the_proof(self):
        graph = FAMILIES["random-dense"]
        scheme = SCHEMES["tables-lowest-port"]
        program = compile_scheme_program(scheme, graph)
        dist = None
        (_, trace) = churn_scenarios(graph, seed=1, steps=3)[0]
        patched = 0
        for before, step in trace.transitions():
            result = apply_delta(
                program, before, step.graph, scheme, dist_before=dist,
                static_check=True,
            )
            program, dist = result.program, result.dist_after
            patched += result.mode == "patched"
        assert patched >= 1

    def test_corrupt_base_program_fails_the_proof(self):
        graph = FAMILIES["random-dense"]
        scheme = SCHEMES["tables-lowest-port"]
        (_, trace) = churn_scenarios(graph, seed=1, steps=1)[0]
        before, step = next(iter(trace.transitions()))
        raised = 0
        for d in range(graph.n):
            program = compile_scheme_program(scheme, graph)
            nn = np.array(program.next_node, copy=True)
            a = (d + 1) % graph.n
            b = (d + 2) % graph.n
            nn[a, d] = b
            nn[b, d] = a
            corrupt = program.with_next_node(nn)
            try:
                result = apply_delta(
                    corrupt, before, step.graph, scheme, static_check=True
                )
            except ProgramVerificationError as exc:
                assert "static soundness proof" in str(exc)
                raised += 1
            else:
                # The delta repaired the corruption only if it recomputed
                # or dirtied exactly that column; a surviving patch must
                # then genuinely be sound.
                if result.mode == "patched":
                    assert verify_program(result.program).all_delivered
        assert raised >= 1

    def test_masked_delta_chain_passes_the_proof(self):
        graph = FAMILIES["random-dense"]
        scheme = SCHEMES["tables-lowest-port"]
        program = compile_scheme_program(scheme, graph)
        scenarios = fault_scenarios(graph, seed=2, edge_ks=(1,), node_ks=(), per_k=1)
        _, faults = scenarios[0]
        masked = apply_faults(program, graph, faults)
        (_, trace) = churn_scenarios(graph, seed=3, steps=2)[0]
        prog, dist = masked, None
        for before, step in trace.transitions():
            try:
                result = apply_delta(
                    prog, before, step.graph, scheme,
                    dist_before=dist, faults=faults, static_check=True,
                )
            except ValueError as exc:
                if isinstance(exc, ProgramVerificationError):
                    raise
                break  # scheme refused the mutated snapshot
            prog, dist = result.program, result.dist_after


class TestSweepsAndConformance:
    def test_verify_sweep_proves_the_grid_without_executing(self):
        from repro.analysis.runner import ShardedRunner

        runner = ShardedRunner(cache_dir=None, processes=1)
        schemes = {
            k: SCHEMES[k]
            for k in ("tables-lowest-port", "interval", "landmark-sqrt")
        }
        results, skipped, stats = runner.verify_sweep(
            schemes=schemes, size="small", seed=0
        )
        assert results
        for cell in results:
            assert cell.verified
            assert cell.livelocked == 0
            assert cell.misdelivered == 0
            assert cell.all_delivered
        assert len(results) + len(skipped) == len(schemes) * len(FAMILIES)

    def test_static_conformance_equals_dynamic(self):
        from repro.sim.conformance import (
            conformance_report,
            static_conformance_report,
        )

        checked = 0
        for scheme_name in ("tables-lowest-port", "ecube", "landmark-sqrt"):
            scheme = SCHEMES[scheme_name]
            for family_name, graph in FAMILIES.items():
                try:
                    dynamic = conformance_report(
                        scheme, graph, family=family_name, label=scheme_name
                    )
                except ValueError:
                    continue
                static = static_conformance_report(
                    scheme, graph, family=family_name, label=scheme_name
                )
                dyn = dataclasses.asdict(dynamic)
                sta = dataclasses.asdict(static)
                dyn.pop("mode"), sta.pop("mode")
                assert dyn == sta, f"{scheme_name} x {family_name}"
                assert static.mode.startswith("static-")
                checked += 1
        assert checked >= 20, checked
