"""The flow engine: differential, conservation, and integration suites.

Layers of guarantees over :mod:`repro.analysis.flow`:

* **Differential** — the layered subtree accumulator and a brute-force
  pure-python per-pair path walk agree **byte for byte**
  (``np.array_equal``, no tolerance) on every compiled registry cell:
  next-hop programs, header-state programs, and fault-masked views.  The
  demand generators emit integer-valued float64 counts precisely so this
  equality is exact — see the module docstring of ``flow.py``, and the
  ``2**53`` guard tests at the edge of that exactness.  Hypothesis extends
  the equality to random graphs (unmasked and fault-masked, both program
  kinds) and random integer demand matrices, scaled by
  ``REPRO_HYP_PROFILE``.

* **Conservation** — total arc load equals demand-weighted route length,
  node load equals arc load plus one origination visit per message, and
  the LRSIM-style allocation never undercuts the uniform scaling.

* **Generators** — seeded demand matrices are deterministic, zero-diagonal,
  integer-valued, and hit the requested total.

* **Integration** — ``lengths`` is the verification report's ``hops`` array
  (shared, not copied), ``SimulationResult.from_lengths`` round-trips
  against the executor, and ``flow_sweep`` / ``resilience_sweep(flow=)`` /
  ``churn_sweep(flow=)`` run end-to-end on the small registry.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.flow import (
    DEMAND_MODELS,
    DemandMatrix,
    demand_matrix,
    demand_models,
    flow_cell,
    flow_sweep,
    format_flow,
    gravity_demand,
    route_demand,
    uniform_demand,
    zipf_demand,
)
from repro.graphs import generators
from repro.graphs.shortest_paths import distance_matrix
from repro.routing.program import (
    GenericProgram,
    HeaderStateProgram,
    NextHopProgram,
)
from repro.routing.verify import VERDICT_DELIVERED, verify_program
from repro.sim import simulate_all_pairs
from repro.sim.faults import apply_faults, random_fault_set
from repro.sim.registry import fault_scenarios, graph_families, scheme_registry

from conftest import connected_graphs, profile_settings

SCHEMES = scheme_registry()
FAMILIES = graph_families(size="small", seed=0)


def _compiled_cells():
    """Every registry (scheme, family) cell that compiles to a next-hop or
    header-state program — the conformance corpus of the differential."""
    for family_name, graph in FAMILIES.items():
        for scheme_name, scheme in SCHEMES.items():
            try:
                rf = scheme.build(graph.copy())
            except ValueError:
                continue
            program = rf.compile_program()
            if isinstance(program, GenericProgram):
                continue
            yield scheme_name, family_name, graph, program


CELLS = list(_compiled_cells())
CELL_IDS = [f"{s}-{f}" for s, f, _, _ in CELLS]

#: A small cross-section used where running all ~200 cells would be waste:
#: one next-hop table scheme, the header-state rewriting scheme, and the
#: masked e-cube scheme, over structurally distinct families.
SUBSET = [
    (s, f, g, p)
    for s, f, g, p in CELLS
    if (s, f)
    in {
        ("tables-lowest-port", "hypercube"),
        ("tables-lowest-port", "random-sparse"),
        ("landmark-rewriting", "petersen"),
        ("landmark-rewriting", "random-dense"),
        ("ecube", "hypercube"),
        ("interval", "cycle"),
    }
]
SUBSET_IDS = [f"{s}-{f}" for s, f, _, _ in SUBSET]


# ----------------------------------------------------------------------
# the brute-force oracle
# ----------------------------------------------------------------------
def _pair_route(program, s, d, hops):
    """The arc sequence of one delivered pair, walked one hop at a time."""
    arcs = []
    if isinstance(program, NextHopProgram):
        cur = s
        for _ in range(hops):
            nxt = int(program.next_node[cur, d])
            arcs.append((cur, nxt))
            cur = nxt
    else:
        assert isinstance(program, HeaderStateProgram)
        node_of = program.node_of
        state = int(program.initial[s, d])
        for _ in range(hops):
            nxt = int(program.succ[state])
            arcs.append((int(node_of[state]), int(node_of[nxt])))
            state = nxt
    return arcs


def _brute_force_loads(program, demand, report):
    """Per-pair python walk: the slow, obviously-correct accumulator."""
    n = program.n
    delivered = report.outcome == VERDICT_DELIVERED
    edge = np.zeros((n, n))
    node = np.zeros(n)
    routes = {}
    for s in range(n):
        for d in range(n):
            if not delivered[s, d]:
                continue
            w = float(demand[s, d])
            arcs = _pair_route(program, s, d, int(report.hops[s, d]))
            routes[(s, d)] = arcs
            node[s] += w
            for u, v in arcs:
                edge[u, v] += w
                node[v] += w
    path_max = np.zeros((n, n))
    for (s, d), arcs in routes.items():
        path_max[s, d] = max(edge[u, v] for u, v in arcs)
    return edge, node, path_max


def _assert_flow_equals_oracle(flow, program, dm, report):
    edge, node, path_max = _brute_force_loads(program, dm.demand, report)
    assert np.array_equal(flow.edge_load, edge)
    assert np.array_equal(flow.node_load, node)
    assert np.array_equal(flow.path_max_load, path_max)


# ----------------------------------------------------------------------
# differential: registry corpus vs the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name,family,graph,program", CELLS, ids=CELL_IDS)
def test_loads_match_brute_force_across_registry(scheme_name, family, graph, program):
    # Every compiled registry cell, zipf demand: the subtree accumulator
    # must equal the per-pair python walk byte for byte — integer-valued
    # demand makes float64 accumulation order-independent, so there is no
    # tolerance here.
    report = verify_program(program)
    dm = zipf_demand(graph.n, total=10_000.0, seed=3)
    flow = route_demand(program, dm, report=report)
    assert flow.mode == "subtree"
    _assert_flow_equals_oracle(flow, program, dm, report)


@pytest.mark.parametrize("scheme_name,family,graph,program", SUBSET, ids=SUBSET_IDS)
@pytest.mark.parametrize("model", DEMAND_MODELS)
def test_all_demand_models_match_brute_force(scheme_name, family, graph, program, model):
    report = verify_program(program)
    dist = distance_matrix(graph)
    dm = demand_matrix(model, graph.n, total=50_000.0, seed=7, dist=dist)
    flow = route_demand(program, dm, report=report)
    _assert_flow_equals_oracle(flow, program, dm, report)


@pytest.mark.parametrize("scheme_name,family,graph,program", SUBSET, ids=SUBSET_IDS)
def test_subtree_loads_match_oracle_without_a_shared_report(
    scheme_name, family, graph, program
):
    # route_demand verifying the program itself must land on the same
    # arrays as the oracle walking a separately computed report.
    dm = zipf_demand(graph.n, total=25_000.0, seed=11)
    flow = route_demand(program, dm)
    report = verify_program(program)
    _assert_flow_equals_oracle(flow, program, dm, report)
    assert flow.delivered_demand == float(np.where(flow.delivered, dm.demand, 0.0).sum())


@pytest.mark.parametrize("scheme_name,family,graph,program", CELLS, ids=CELL_IDS)
def test_fault_masked_loads_match_brute_force(scheme_name, family, graph, program):
    # Every registry cell under every default fault scenario: masked views
    # go through the same accumulator and still match the oracle, loading
    # only the traffic the masked program provably delivers.
    for label, faults in fault_scenarios(graph, seed=5):
        masked = apply_faults(program, graph, faults)
        alive = faults.alive_mask(graph.n)
        report = verify_program(masked, alive=alive)
        dm = zipf_demand(graph.n, total=10_000.0, seed=13)
        flow = route_demand(masked, dm, alive=alive, report=report)
        assert flow.mode == "subtree"
        _assert_flow_equals_oracle(flow, masked, dm, report)


# ----------------------------------------------------------------------
# differential: hypothesis over random graphs and demand matrices
# ----------------------------------------------------------------------
@st.composite
def integer_demands(draw, n):
    """Random integer-valued demand matrices, shrinking toward sparse."""
    flat = draw(
        st.lists(
            st.integers(min_value=0, max_value=1000),
            min_size=n * n,
            max_size=n * n,
        )
    )
    demand = np.array(flat, dtype=np.float64).reshape(n, n)
    np.fill_diagonal(demand, 0.0)
    return demand


@profile_settings(base_examples=25)
@given(data=st.data())
def test_next_hop_subtree_matches_oracle_on_random_graphs(data):
    graph = data.draw(connected_graphs(min_n=4, max_n=14))
    scheme = SCHEMES["tables-lowest-port"]
    program = scheme.build(graph.copy()).compile_program()
    assert isinstance(program, NextHopProgram)
    demand = data.draw(integer_demands(graph.n))
    if demand.sum() == 0.0:
        demand[0, 1] = 1.0
    report = verify_program(program)
    dm = DemandMatrix(demand=demand, model="custom", seed=None)
    flow = route_demand(program, dm, report=report)
    _assert_flow_equals_oracle(flow, program, dm, report)


@profile_settings(base_examples=15)
@given(data=st.data())
def test_header_state_subtree_matches_oracle_on_random_graphs(data):
    graph = data.draw(connected_graphs(min_n=4, max_n=10))
    scheme = SCHEMES["landmark-rewriting"]
    program = scheme.build(graph.copy()).compile_program()
    assert isinstance(program, HeaderStateProgram)
    demand = data.draw(integer_demands(graph.n))
    if demand.sum() == 0.0:
        demand[0, 1] = 1.0
    report = verify_program(program)
    dm = DemandMatrix(demand=demand, model="custom", seed=None)
    flow = route_demand(program, dm, report=report)
    assert flow.mode == "subtree"
    _assert_flow_equals_oracle(flow, program, dm, report)


@profile_settings(base_examples=20)
@given(data=st.data())
def test_fault_masked_subtree_matches_oracle_on_random_graphs(data):
    # Both program kinds under a random edge or node fault: the masked
    # view's DROPPED transitions and dead endpoints must leave exactly the
    # delivered traffic on the arcs, byte for byte.
    graph = data.draw(connected_graphs(min_n=4, max_n=10))
    scheme_name = data.draw(st.sampled_from(["tables-lowest-port", "landmark-rewriting"]))
    program = SCHEMES[scheme_name].build(graph.copy()).compile_program()
    kind = data.draw(st.sampled_from(["edge", "node"]))
    limit = graph.num_edges if kind == "edge" else graph.n - 2
    k = data.draw(st.integers(min_value=1, max_value=min(3, limit)))
    faults = random_fault_set(graph, k, kind=kind, seed=data.draw(st.integers(0, 10**6)))
    masked = apply_faults(program, graph, faults)
    alive = faults.alive_mask(graph.n)
    demand = data.draw(integer_demands(graph.n))
    report = verify_program(masked, alive=alive)
    dm = DemandMatrix(demand=demand, model="custom", seed=None)
    flow = route_demand(masked, dm, alive=alive, report=report)
    _assert_flow_equals_oracle(flow, masked, dm, report)


# ----------------------------------------------------------------------
# conservation + throughput invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name,family,graph,program", SUBSET, ids=SUBSET_IDS)
def test_conservation_laws(scheme_name, family, graph, program):
    report = verify_program(program)
    dm = zipf_demand(graph.n, total=40_000.0, seed=2)
    flow = route_demand(program, dm, report=report)
    routed = np.where(flow.delivered, dm.demand, 0.0)
    # Every delivered message crosses exactly lengths[s, d] arcs...
    assert flow.edge_load.sum() == (routed * flow.lengths).sum()
    # ...and visits lengths[s, d] + 1 nodes (origin included).
    assert flow.node_load.sum() == (routed * (flow.lengths + 1)).sum()
    assert flow.delivered_demand == routed.sum()
    # The bottleneck of a delivered pair is a real arc load.
    delivered = flow.delivered & (dm.demand > 0)
    if delivered.any():
        assert (flow.path_max_load[delivered] > 0).all()
        assert flow.path_max_load.max() <= flow.max_congestion


@pytest.mark.parametrize("scheme_name,family,graph,program", SUBSET, ids=SUBSET_IDS)
def test_allocated_throughput_dominates_uniform(scheme_name, family, graph, program):
    # A flow's own bottleneck is never more loaded than the global maximum,
    # so the per-interface allocation always grants at least the uniform
    # scaling — the analytic form of the LRSIM comparison.
    report = verify_program(program)
    for model in DEMAND_MODELS:
        dm = demand_matrix(model, graph.n, total=30_000.0, seed=1)
        flow = route_demand(program, dm, report=report)
        for capacity in (0.5, 1.0, 8.0):
            assert (
                flow.allocated_throughput(capacity)
                >= flow.uniform_throughput(capacity) - 1e-9
            )


def test_uniform_scale_caps_every_arc(petersen):
    program = SCHEMES["tables-lowest-port"].build(petersen.copy()).compile_program()
    flow = route_demand(program, uniform_demand(petersen.n, total=10_000.0))
    scale = flow.uniform_scale(capacity=3.0)
    assert np.all(flow.edge_load * scale <= 3.0 + 1e-9)
    assert np.isclose(flow.edge_load.max() * scale, 3.0)


# ----------------------------------------------------------------------
# demand generators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", DEMAND_MODELS)
def test_generated_demand_is_integer_zero_diagonal_on_total(model):
    dm = demand_matrix(model, 12, total=5_000.0, seed=4)
    assert dm.demand.shape == (12, 12)
    assert np.array_equal(dm.demand, np.floor(dm.demand))  # integer counts
    assert (dm.demand >= 0).all()
    assert np.all(np.diag(dm.demand) == 0)
    assert dm.total == pytest.approx(5_000.0, rel=0.01)


def test_generators_are_seed_deterministic():
    a = zipf_demand(10, total=1000.0, seed=6)
    b = zipf_demand(10, total=1000.0, seed=6)
    c = zipf_demand(10, total=1000.0, seed=7)
    assert np.array_equal(a.demand, b.demand)
    assert not np.array_equal(a.demand, c.demand)
    g1 = gravity_demand(10, total=1000.0, seed=6)
    g2 = gravity_demand(10, total=1000.0, seed=6)
    assert np.array_equal(g1.demand, g2.demand)


def test_zipf_is_skewed_uniform_is_not():
    uni = uniform_demand(16, total=16_000.0)
    zip_ = zipf_demand(16, total=16_000.0, seed=0)
    assert uni.demand[~np.eye(16, dtype=bool)].std() == 0.0
    assert zip_.demand.max() > uni.demand.max() * 4


def test_gravity_distance_deterrence(grid_4x4):
    dist = distance_matrix(grid_4x4)
    near = gravity_demand(16, total=10_000.0, seed=0, dist=dist)
    far = gravity_demand(16, total=10_000.0, seed=0)
    # With deterrence, demand-weighted distance drops.
    off = ~np.eye(16, dtype=bool)
    mean_near = (near.demand * dist)[off].sum() / near.demand[off].sum()
    mean_far = (far.demand * dist)[off].sum() / far.demand[off].sum()
    assert mean_near < mean_far


def test_demand_models_covers_registry():
    registry = demand_models(8, total=1000.0, seed=0)
    assert set(registry) == set(DEMAND_MODELS)


def test_demand_matrix_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown demand model"):
        demand_matrix("poisson", 8)
    with pytest.raises(ValueError, match="n="):
        demand_matrix(uniform_demand(8), 9)
    with pytest.raises(ValueError, match="square"):
        demand_matrix(np.ones((3, 4)), 3)
    with pytest.raises(ValueError, match="sum to zero"):
        demand_matrix(np.zeros((4, 4)), 4)
    with pytest.raises(ValueError, match="n >= 2"):
        uniform_demand(1)


def test_tiny_totals_degrade_to_one_message_per_pair():
    dm = uniform_demand(40, total=1.0)
    off = ~np.eye(40, dtype=bool)
    assert np.all(dm.demand[off] == 1.0)


# ----------------------------------------------------------------------
# route_demand edge cases
# ----------------------------------------------------------------------
def test_generic_program_raises(petersen):
    program = GenericProgram(num_vertices=petersen.n)
    with pytest.raises(ValueError, match="generic program"):
        route_demand(program, uniform_demand(petersen.n))


def _demand_totalling(n, total):
    """One message per ordered pair, with pair (0, 1) topping up to ``total``."""
    demand = np.ones((n, n))
    np.fill_diagonal(demand, 0.0)
    demand[0, 1] = total - (n * (n - 1) - 1)
    assert math.fsum(demand.ravel()) == total  # exact: float sums may round
    return demand


@pytest.mark.parametrize("scheme", ["tables-lowest-port", "landmark-rewriting"])
def test_demand_total_of_two_to_the_53_is_exact(petersen, scheme):
    # At the exactness bound every load is still an exact float64 integer:
    # the accumulator equals the oracle byte for byte.
    program = SCHEMES[scheme].build(petersen.copy()).compile_program()
    report = verify_program(program)
    dm = DemandMatrix(
        demand=_demand_totalling(petersen.n, 2.0**53), model="custom", seed=None
    )
    flow = route_demand(program, dm, report=report)
    _assert_flow_equals_oracle(flow, program, dm, report)
    assert flow.delivered_demand == 2.0**53


@pytest.mark.parametrize("scheme", ["tables-lowest-port", "landmark-rewriting"])
def test_demand_total_above_two_to_the_53_is_rejected(petersen, scheme):
    program = SCHEMES[scheme].build(petersen.copy()).compile_program()
    above = np.nextafter(2.0**53, np.inf)
    with pytest.raises(ValueError, match=r"2\*\*53"):
        route_demand(program, _demand_totalling(petersen.n, above))


def test_alive_mask_the_program_ignores_is_rejected(petersen):
    # Killing a node the unmasked program still routes through leaves
    # delivered walks crossing states the report calls infeasible: the
    # accumulator refuses instead of dropping that demand on the floor.
    program = SCHEMES["tables-lowest-port"].build(petersen.copy()).compile_program()
    alive = np.ones(petersen.n, dtype=bool)
    alive[0] = False
    with pytest.raises(ValueError, match="does not deliver"):
        route_demand(program, uniform_demand(petersen.n), alive=alive)


def test_shape_mismatch_raises(petersen):
    program = SCHEMES["tables-lowest-port"].build(petersen.copy()).compile_program()
    with pytest.raises(ValueError, match="does not match"):
        route_demand(program, uniform_demand(petersen.n + 1))


# ----------------------------------------------------------------------
# integration: lengths sharing, from_lengths, and the sweeps
# ----------------------------------------------------------------------
def test_lengths_is_the_reports_hops_array(petersen):
    program = SCHEMES["tables-lowest-port"].build(petersen.copy()).compile_program()
    report = verify_program(program)
    flow = route_demand(program, uniform_demand(petersen.n), report=report)
    assert flow.lengths is report.hops  # shared, never copied


def test_as_simulation_result_round_trips_executor(petersen):
    rf = SCHEMES["tables-lowest-port"].build(petersen.copy())
    program = rf.compile_program()
    flow = route_demand(program, uniform_demand(petersen.n))
    sim = flow.as_simulation_result()
    executed = simulate_all_pairs(rf)
    assert np.array_equal(sim.lengths, executed.lengths)
    assert np.array_equal(sim.delivered, executed.delivered)
    assert sim.lengths is flow.lengths


def test_flow_sweep_smoke():
    schemes = {k: SCHEMES[k] for k in ("tables-lowest-port", "landmark-rewriting")}
    families = {k: FAMILIES[k] for k in ("cycle", "petersen")}
    cells, skipped, stats = flow_sweep(
        schemes=schemes, families=families, models=("uniform", "zipf")
    )
    assert len(cells) == 8  # 2 schemes x 2 families x 2 models
    assert {c.demand_model for c in cells} == {"uniform", "zipf"}
    table = format_flow(cells)
    assert "maxload" in table and "thru(a)" in table


def test_resilience_sweep_flow_hook():
    from repro.analysis.resilience import format_resilience, resilience_sweep

    schemes = {"tables-lowest-port": SCHEMES["tables-lowest-port"]}
    families = {"petersen": FAMILIES["petersen"]}
    cells, curves, skipped, stats = resilience_sweep(
        schemes=schemes,
        families=families,
        edge_ks=(1, 2),
        node_ks=(1,),
        per_k=1,
        flow="zipf",
    )
    assert all(c.delivered_traffic is not None for c in cells)
    assert all(0.0 <= c.delivered_traffic <= 1.0 + 1e-9 for c in cells)
    assert all(c.peak_load is not None and c.peak_load >= 0.0 for c in cells)
    assert all(curve.traffic for curve in curves)
    assert "traffic" in format_resilience(curves)
    # Without the hook the fields stay None and the column disappears.
    cells2, curves2, _, _ = resilience_sweep(
        schemes=schemes, families=families, edge_ks=(1,), node_ks=(), per_k=1
    )
    assert all(c.delivered_traffic is None for c in cells2)
    assert "traffic" not in format_resilience(curves2)


def test_churn_sweep_flow_hook():
    from repro.analysis.churn import churn_sweep, format_churn

    schemes = {"tables-lowest-port": SCHEMES["tables-lowest-port"]}
    families = {"cycle": FAMILIES["cycle"]}
    cells, summaries, skipped, stats = churn_sweep(
        schemes=schemes, families=families, steps=2, flow="zipf"
    )
    measured = [c for c in cells if c.load_delta_fraction is not None]
    assert measured, "flow metrics missing from every churn step"
    assert all(c.max_congestion >= 0.0 for c in measured)
    assert all(c.load_delta_fraction >= 0.0 for c in measured)
    assert all(s.mean_load_delta is not None for s in summaries)
    assert "moved" in format_churn(summaries)


def test_flow_cell_declines_generic_schemes(petersen):
    from repro.analysis.runner import ExperimentCache
    from repro.routing.model import SchemeInapplicableError

    class OpaqueScheme:
        name = "opaque"

        def config_fingerprint(self):
            return "opaque"

        def build(self, graph):
            class RF:
                def compile_program(self):
                    return GenericProgram(num_vertices=graph.n)

            return RF()

    with pytest.raises(SchemeInapplicableError):
        flow_cell(
            OpaqueScheme(),
            petersen,
            "petersen",
            "opaque",
            ("uniform",),
            cache=ExperimentCache(None),
        )
