"""Tests for CDG construction and deadlock-free VC assignment."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import repro
from repro.routing import (
    assign_vcs,
    build_cdg,
    build_routing_table,
    find_cycle,
    is_acyclic,
    ndbt_route,
    path_dependencies,
    paths_are_deadlock_free,
    single_shortest_paths,
    validate_assignment,
)
from repro.routing.paths import PathSet
from repro.topology import LAYOUT_4X5, Layout, Topology, folded_torus, mesh


class TestCDG:
    def test_path_dependencies(self):
        deps = path_dependencies((0, 1, 2, 3))
        assert deps == [(((0, 1)), ((1, 2))), (((1, 2)), ((2, 3)))]

    def test_single_hop_no_deps(self):
        assert path_dependencies((0, 1)) == []

    def test_build_cdg_nodes_are_channels(self):
        g = build_cdg([(0, 1, 2)])
        assert (1, 2) in g[(0, 1)]

    def test_cycle_detected_in_ring_routes(self):
        # routes that chase each other around a 4-ring
        paths = [(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)]
        g = build_cdg(paths)
        assert not is_acyclic(g)
        cyc = find_cycle(g)
        assert cyc is not None and len(cyc) >= 3

    def test_acyclic_routes(self):
        paths = [(0, 1, 2), (0, 1, 3)]
        assert paths_are_deadlock_free(paths)

    def test_find_cycle_none_for_dag(self):
        g = build_cdg([(0, 1, 2)])
        assert find_cycle(g) is None


class TestVCAssignment:
    def test_ring_needs_two_vcs(self):
        lay = Layout(rows=1, cols=4)
        t = Topology(lay, [(0, 1), (1, 2), (2, 3), (3, 0)])
        routes = single_shortest_paths(t, seed=0)
        vca = assign_vcs(routes, seed=0)
        assert vca.num_vcs >= 2
        validate_assignment(routes, vca)

    def test_folded_torus_four_vcs(self):
        """Paper IV-A: 4 VCs suffice for all 20-router configurations,
        with Folded Torus binding the minimum at 4."""
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=0)
        vca = assign_vcs(routes, seed=0)
        assert 2 <= vca.num_vcs <= 4
        validate_assignment(routes, vca)

    def test_mesh_within_paper_vc_budget(self):
        """Paper IV-A: 4 VCs suffice for every 20-router configuration.
        Mesh monotone paths still mix turn directions, so layers > 1."""
        m = mesh(LAYOUT_4X5)
        routes = ndbt_route(m, seed=0)
        vca = assign_vcs(routes, seed=0)
        assert vca.num_vcs <= 4
        validate_assignment(routes, vca)

    def test_every_layer_acyclic(self):
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=1)
        vca = assign_vcs(routes, seed=1)
        for layer in vca.layers:
            assert is_acyclic(build_cdg(layer))

    def test_layer_weights_balanced(self):
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=0)
        vca = assign_vcs(routes, seed=0)
        w = vca.layer_weights()
        if len(w) > 1:
            assert max(w) - min(w) <= max(w)  # sanity: no empty layers
            assert min(w) > 0

    def test_multi_path_input_rejected(self):
        m = mesh(LAYOUT_4X5)
        from repro.routing import enumerate_shortest_paths

        full = enumerate_shortest_paths(m)
        with pytest.raises(ValueError):
            assign_vcs(full)

    def test_max_vcs_enforced(self):
        lay = Layout(rows=1, cols=4)
        t = Topology(lay, [(0, 1), (1, 2), (2, 3), (3, 0)])
        routes = single_shortest_paths(t, seed=0)
        with pytest.raises(RuntimeError):
            assign_vcs(routes, max_vcs=1)


class TestRoutingTable:
    def test_table_routes_all_flows(self):
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=0)
        vca = assign_vcs(routes, seed=0)
        table = build_routing_table(routes, vca)
        table.validate()
        assert table.num_vcs == vca.num_vcs

    def test_route_of_matches_source_paths(self):
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=0)
        table = build_routing_table(routes)
        for (s, d), plist in routes.paths.items():
            assert table.route_of(s, d) == plist[0]

    def test_vc_consistency(self):
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=0)
        vca = assign_vcs(routes, seed=0)
        table = build_routing_table(routes, vca)
        for (s, d), vc in vca.assignment.items():
            assert table.vc(s, d) == vc

    def test_default_single_vc(self):
        m = mesh(LAYOUT_4X5)
        routes = ndbt_route(m, seed=0)
        table = build_routing_table(routes)
        assert table.num_vcs == 1
        assert table.vc(0, 1) == 0


# ---------------------------------------------------------------------------
# Property tests: cycle search against an independent scipy oracle, and the
# incremental layering against a rebuild-every-eviction reference.
# ---------------------------------------------------------------------------


@st.composite
def path_sets(draw, max_nodes=7, max_paths=12):
    """Random walks over a small random digraph, as routes."""
    n = draw(st.integers(2, max_nodes))
    arcs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
            max_size=3 * n,
        )
    )
    succ = {}
    for u, v in sorted(arcs):
        succ.setdefault(u, []).append(v)
    starts = sorted(succ)
    paths = []
    for _ in range(draw(st.integers(1, max_paths))):
        walk = [draw(st.sampled_from(starts))]
        for _ in range(draw(st.integers(1, 5))):
            nxt = succ.get(walk[-1])
            if not nxt:
                break
            walk.append(draw(st.sampled_from(nxt)))
        if len(walk) >= 2:
            paths.append(tuple(walk))
    return paths


def _scc_acyclic(g) -> bool:
    """Oracle: every strongly connected component is a single channel."""
    index = {c: i for i, c in enumerate(g)}
    rows = [index[u] for u in g for _ in g[u]]
    cols = [index[v] for u in g for v in g[u]]
    m = csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(index), len(index))
    )
    n_comp, _ = connected_components(m, directed=True, connection="strong")
    return n_comp == len(index)


PROPS = dict(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(**PROPS)
@given(paths=path_sets())
def test_find_cycle_is_a_closed_chain_and_agrees_with_scc_oracle(paths):
    g = build_cdg(paths)
    cyc = find_cycle(g)
    if cyc is not None:
        assert cyc
        for (u, v), (nu, _) in zip(cyc, cyc[1:] + cyc[:1]):
            assert v in g[u]  # an edge of the CDG
            assert v == nu  # chained, and the last edge closes on the first
        assert len({u for u, _ in cyc}) == len(cyc)  # a simple cycle
    assert (cyc is None) == is_acyclic(g) == _scc_acyclic(g)


def _reference_assign(routes, max_vcs, seed, attempts=3):
    """The layering procedure spelled out with a CDG rebuilt from scratch
    after every eviction and a full acyclicity check per balancing move."""
    best = None
    for k in range(attempts):
        rng = np.random.default_rng(seed + 7919 * k)
        remaining = [(sd, routes[sd][0]) for sd in routes.pairs()]
        layers = []
        while remaining:
            if len(layers) >= max_vcs:
                break
            layer, evicted = list(remaining), []
            g = build_cdg([p for _, p in layer])
            while (cycle := find_cycle(g)) is not None:
                a, b = cycle[int(rng.integers(len(cycle)))]
                inducing = set(g[a][b])
                evicted += [fl for fl in layer if fl[1] in inducing]
                layer = [fl for fl in layer if fl[1] not in inducing]
                g = build_cdg([p for _, p in layer])
            layers.append(layer)
            remaining = evicted
        if remaining:
            continue
        changed = len(layers) > 1
        while changed:
            changed = False
            weights = [sum(len(p) - 1 for _, p in l) for l in layers]
            src = int(np.argmax(weights))
            order = sorted(range(len(layers)), key=lambda k: weights[k])
            for flow in sorted(layers[src], key=lambda fl: -(len(fl[1]) - 1)):
                for dst in order:
                    if dst == src or (
                        weights[dst] + len(flow[1]) - 1 >= weights[src]
                    ):
                        continue
                    if is_acyclic(build_cdg([p for _, p in layers[dst]] + [flow[1]])):
                        layers[dst].append(flow)
                        layers[src].remove(flow)
                        changed = True
                        break
                if changed:
                    break
        if best is None or len(layers) < len(best):
            best = layers
    return best


@st.composite
def routed_topologies(draw):
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(3, 4))
    lay = Layout(rows=rows, cols=cols)
    n = lay.n
    links = {(k, k + 1) for k in range(n - 1)} | {(k + 1, k) for k in range(n - 1)}
    links |= {(n - 1, 0), (0, n - 1)}
    extra = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=n,
        )
    )
    topo = Topology(lay, sorted(links | extra), name="prop")
    return single_shortest_paths(topo, seed=draw(st.integers(0, 3)))


@settings(**dict(PROPS, max_examples=40))
@given(routes=routed_topologies(), seed=st.integers(0, 50))
def test_incremental_layering_matches_rebuild_reference(routes, seed):
    ref = _reference_assign(routes, max_vcs=16, seed=seed)
    vca = assign_vcs(routes, max_vcs=16, seed=seed)
    assert vca.layers == [[p for _, p in layer] for layer in ref]
    validate_assignment(routes, vca)


def test_import_repro_leaves_networkx_unloaded():
    """Runtime dependencies are numpy and scipy only."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = "import sys, repro, repro.cli; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
