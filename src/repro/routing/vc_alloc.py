"""Deadlock-free VC assignment by acyclic CDG layering (paper IV-A).

Implements the DFSSSP-style procedure the paper applies (Domke et al.
[15]): all routes start in VC 0; while the layer's channel dependency
graph has a cycle, pick one back-edge of the cycle at random and evict
every route inducing that dependency to the next VC; repeat per layer.
The result is a partition of routes into layers whose per-layer CDGs are
acyclic, hence deadlock-free with one escape VC per layer.

Layers are then load-balanced using path-length-weighted VC occupancy
(a path traversing three links has weight three), matching Section IV-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cdg import (
    Channel,
    Dependency,
    build_cdg,
    is_acyclic,
    path_dependencies,
    search_cycle,
)
from .paths import Path, PathSet

Flow = Tuple[Tuple[int, int], Path]


@dataclass
class VCAssignment:
    """Maps each flow's route to a virtual channel layer."""

    num_vcs: int
    assignment: Dict[Tuple[int, int], int]  # flow (s,d) -> vc
    layers: List[List[Path]] = field(default_factory=list)

    def vc_of(self, s: int, d: int) -> int:
        return self.assignment[(s, d)]

    def layer_weights(self) -> List[int]:
        """Path-length-weighted occupancy per VC (the balancing metric)."""
        return [sum(len(p) - 1 for p in layer) for layer in self.layers]


def assign_vcs(
    routes: PathSet,
    max_vcs: int = 8,
    seed: int = 0,
    attempts: int = 3,
) -> VCAssignment:
    """Partition single-path routes into acyclic VC layers.

    ``routes`` must contain exactly one path per flow (e.g. from
    :func:`repro.routing.ndbt.ndbt_route` or MCLB).  Because the back-edge
    choice is randomized (paper IV-A), ``attempts`` independent runs are
    made and the fewest-layer assignment kept.  Raises if every attempt
    needs more than ``max_vcs`` layers (does not occur for the paper's
    configurations: 4 VCs suffice for every 20-router case, with Folded
    Torus the 4-VC outlier; 48-router irregular networks may need more).
    """
    flows: List[Flow] = []
    for sd in routes.pairs():
        plist = routes[sd]
        if len(plist) != 1:
            raise ValueError(
                f"flow {sd} has {len(plist)} routes; VC assignment needs one"
            )
        flows.append((sd, plist[0]))
    deps = [path_dependencies(p) for _, p in flows]
    best: Optional[VCAssignment] = None
    last_err: Optional[Exception] = None
    for k in range(max(1, attempts)):
        try:
            cand = _assign_vcs_once(
                flows, deps, max_vcs=max_vcs, seed=seed + 7919 * k
            )
        except RuntimeError as e:
            last_err = e
            continue
        if best is None or cand.num_vcs < best.num_vcs:
            best = cand
    if best is None:
        raise last_err if last_err is not None else RuntimeError("VC assignment failed")
    return best


def _assign_vcs_once(
    flows: List[Flow],
    deps: List[List[Dependency]],
    max_vcs: int,
    seed: int,
) -> VCAssignment:
    rng = np.random.default_rng(seed)
    remaining = list(range(len(flows)))
    layers: List[List[int]] = []
    while remaining:
        if len(layers) >= max_vcs:
            raise RuntimeError(
                f"VC assignment exceeded {max_vcs} layers; routes are too cyclic"
            )
        layer, remaining = _peel_layer(remaining, deps, rng)
        layers.append(layer)

    layers = _balance_layers(layers, flows, deps)

    assignment = {}
    path_layers: List[List[Path]] = []
    for vc, layer in enumerate(layers):
        path_layers.append([flows[f][1] for f in layer])
        for f in layer:
            assignment[flows[f][0]] = vc
    return VCAssignment(
        num_vcs=len(layers), assignment=assignment, layers=path_layers
    )


def _peel_layer(
    members: List[int],
    deps: List[List[Dependency]],
    rng: np.random.Generator,
) -> Tuple[List[int], List[int]]:
    """Split ``members`` (flow ids) into an acyclic layer and the evicted.

    While the layer's CDG has a cycle, pick one of its edges at random
    (paper: "simple, random selection of the cycle-forming back edge ...
    gave sufficiently low required virtual channels") and evict every
    route inducing that dependency.  The layer keeps ``members`` order;
    the evicted routes are listed in eviction order.

    The CDG is maintained incrementally rather than rebuilt after every
    eviction, yet :func:`search_cycle` sees it exactly as
    :func:`build_cdg` of the surviving routes would order it: every
    channel and every edge remembers the positions at which the layer's
    routes mention it, and its order key is the first position whose
    route is still in the layer.
    """
    # Positions follow build_cdg's insertion order: dependency by
    # dependency, the tail channel before the head.
    node_occ: Dict[Channel, List[Tuple[int, int]]] = {}
    edge_occ: Dict[Dependency, List[Tuple[int, int]]] = {}
    pos = 0
    for f in members:
        for dep in deps[f]:
            a, b = dep
            node_occ.setdefault(a, []).append((pos, f))
            node_occ.setdefault(b, []).append((pos + 1, f))
            edge_occ.setdefault(dep, []).append((pos, f))
            pos += 2
    alive = dict.fromkeys(members, True)
    node_ptr = dict.fromkeys(node_occ, 0)
    edge_ptr = dict.fromkeys(edge_occ, 0)
    node_key = {c: occ[0][0] for c, occ in node_occ.items()}
    succ: Dict[Channel, Dict[Channel, int]] = {c: {} for c in node_occ}
    for (a, b), occ in edge_occ.items():
        succ[a][b] = occ[0][0]
    # Channels whose successor dicts are no longer in key order.
    stale: set = set()

    def successors(c: Channel):
        s = succ[c]
        if c in stale:
            stale.discard(c)
            s = succ[c] = dict(sorted(s.items(), key=itemgetter(1)))
        return iter(s)

    def advance(occ, ptr, key):
        """Move ``key``'s pointer past evicted routes; new key or None."""
        k = ptr[key]
        while k < len(occ) and not alive[occ[k][1]]:
            k += 1
        ptr[key] = k
        return occ[k][0] if k < len(occ) else None

    evicted: List[int] = []
    while True:
        cycle = search_cycle(
            sorted(node_key, key=node_key.__getitem__), successors
        )
        if cycle is None:
            break
        back = cycle[int(rng.integers(len(cycle)))]
        moved = []
        for _, f in edge_occ[back][edge_ptr[back]:]:
            if alive[f]:
                alive[f] = False
                moved.append(f)
        evicted.extend(moved)
        for f in moved:
            for dep in deps[f]:
                a, b = dep
                key = advance(edge_occ[dep], edge_ptr, dep)
                if key is None:
                    succ[a].pop(b, None)
                elif key != succ[a][b]:
                    succ[a][b] = key
                    stale.add(a)
                for c in dep:
                    key = advance(node_occ[c], node_ptr, c)
                    if key is None:
                        node_key.pop(c, None)
                    else:
                        node_key[c] = key
    return [f for f in members if alive[f]], evicted


def _balance_layers(
    layers: List[List[int]],
    flows: List[Flow],
    deps: List[List[Dependency]],
) -> List[List[int]]:
    """Greedy re-balancing by path-length weight, preserving acyclicity.

    Moves routes from the heaviest layer to lighter layers when the move
    keeps the receiving layer's CDG acyclic.  Each layer's CDG is kept
    as dependency counts, so a trial move only asks whether the route's
    new dependencies close a cycle through the (acyclic) layer.
    """
    if len(layers) <= 1:
        return layers

    w = [len(p) - 1 for _, p in flows]
    heaviest_first = [-x for x in w]
    weights = [sum(w[f] for f in layer) for layer in layers]
    graphs: List[Dict[Channel, Dict[Channel, int]]] = []
    for layer in layers:
        g: Dict[Channel, Dict[Channel, int]] = {}
        for f in layer:
            _add_deps(g, deps[f], 1)
        graphs.append(g)

    changed = True
    while changed:
        changed = False
        src = int(np.argmax(weights))
        order = sorted(range(len(layers)), key=weights.__getitem__)
        for f in sorted(layers[src], key=heaviest_first.__getitem__):
            for dst in order:
                if dst == src:
                    continue
                if weights[dst] + w[f] >= weights[src]:
                    continue
                if _stays_acyclic(graphs[dst], deps[f]):
                    layers[dst].append(f)
                    layers[src].remove(f)
                    weights[dst] += w[f]
                    weights[src] -= w[f]
                    _add_deps(graphs[dst], deps[f], 1)
                    _add_deps(graphs[src], deps[f], -1)
                    changed = True
                    break
            if changed:
                break
    return layers


def _add_deps(g: Dict[Channel, Dict[Channel, int]], deps, step: int) -> None:
    """Add (``step=1``) or remove (``-1``) one route's dependency counts."""
    for a, b in deps:
        succ = g.setdefault(a, {})
        n = succ.get(b, 0) + step
        if n:
            succ[b] = n
        else:
            del succ[b]


def _stays_acyclic(g: Dict[Channel, Dict[Channel, int]], deps) -> bool:
    """Whether acyclic ``g`` plus one route's dependencies is acyclic.

    Any new cycle runs through a new edge ``(a, b)``, i.e. ``b`` reaches
    ``a`` in the union graph.
    """
    new = [(a, b) for a, b in deps if b not in g.get(a, ())]
    if not new:
        return True
    extra: Dict[Channel, List[Channel]] = {}
    for a, b in new:
        extra.setdefault(a, []).append(b)
    for a, b in new:
        seen = {b}
        todo = [b]
        while todo:
            u = todo.pop()
            for v in (*g.get(u, ()), *extra.get(u, ())):
                if v == a:
                    return False
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
    return True


def validate_assignment(routes: PathSet, vca: VCAssignment) -> None:
    """Assert every layer's CDG is acyclic and every flow is assigned."""
    for vc, layer in enumerate(vca.layers):
        if not is_acyclic(build_cdg(layer)):
            raise AssertionError(f"VC layer {vc} has a cyclic CDG")
    for sd in routes.pairs():
        if sd not in vca.assignment:
            raise AssertionError(f"flow {sd} unassigned")
