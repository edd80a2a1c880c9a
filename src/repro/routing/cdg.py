"""Channel dependency graphs (Dally & Seitz deadlock theory, paper II-F).

A CDG node is a directed channel ``(i, j)``; an edge ``(a,b) -> (b,c)``
exists when some route occupies channel ``(a,b)`` and then ``(b,c)``.
Acyclic CDGs are sufficient for deadlock-free wormhole routing; the VC
allocator (:mod:`repro.routing.vc_alloc`) partitions routes into layers
whose per-layer CDGs are acyclic.

A CDG is a plain insertion-ordered dict ``{channel: {channel: [paths]}}``
mapping each channel to its successors, each successor to the routes
inducing that dependency.  Every channel appears as a key, sinks with an
empty successor dict.  Channels are inserted in order of first
appearance (the tail of a dependency before its head) and successors in
order of their first inducing route — the order the VC allocator's
cycle search relies on (see :func:`find_cycle`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .paths import Path

Channel = Tuple[int, int]
Dependency = Tuple[Channel, Channel]
CDG = Dict[Channel, Dict[Channel, List[Path]]]


def path_dependencies(path: Path) -> List[Dependency]:
    """Consecutive channel pairs a route occupies."""
    chans = [(path[k], path[k + 1]) for k in range(len(path) - 1)]
    return [(chans[k], chans[k + 1]) for k in range(len(chans) - 1)]


def build_cdg(paths: Iterable[Path]) -> CDG:
    """CDG of a set of routes; edges annotated with the inducing paths."""
    g: CDG = {}
    for p in paths:
        for a, b in path_dependencies(p):
            succ = g.get(a)
            if succ is None:
                succ = g[a] = {}
            if b not in g:
                g[b] = {}
            inducing = succ.get(b)
            if inducing is None:
                succ[b] = [p]
            else:
                inducing.append(p)
    return g


def find_cycle(g: CDG) -> Optional[List[Dependency]]:
    """One directed cycle as a list of CDG edges, or ``None`` if acyclic."""
    return search_cycle(g, lambda u: iter(g[u]))


def search_cycle(
    nodes: Iterable[Channel],
    successors: Callable[[Channel], Iterator[Channel]],
) -> Optional[List[Dependency]]:
    """Edge-DFS cycle search over ``nodes`` in order.

    The traversal is the one networkx's ``find_cycle(G,
    orientation="original")`` makes over ``edge_dfs``: start nodes in
    ``nodes`` order, each successor iterator consumed once (re-entering a
    node resumes its iterator), backtracking by popping the active path
    back to the current edge's tail, and the returned cycle trimmed to
    start at the edge leaving the node that closed it.  The VC allocator
    draws a random index into the returned cycle, so keeping this order
    is what keeps its layers reproducible.
    """
    explored: set = set()
    for start in nodes:
        if start in explored:
            continue
        path: List[Dependency] = []  # the active path's edges
        seen = {start}
        active = {start}
        previous_head = None
        iters: Dict[Channel, Iterator[Channel]] = {}
        stack = [start]
        while stack:
            tail = stack[-1]
            it = iters.get(tail)
            if it is None:
                it = iters[tail] = successors(tail)
            head = next(it, None)
            if head is None:
                stack.pop()
                continue
            if head in explored:
                # Everything reachable from an explored node is explored
                # and acyclic: networkx walks into it but every edge it
                # finds there is skipped, so the walk is elided here.
                continue
            stack.append(head)
            if previous_head is not None and tail != previous_head:
                # Backtracked: pop the active path to the edge ending at
                # this edge's tail.
                while True:
                    if not path:
                        active = {tail}
                        break
                    active.remove(path.pop()[1])
                    if path and path[-1][1] == tail:
                        break
            path.append((tail, head))
            if head in active:
                for i, (u, _) in enumerate(path):
                    if u == head:
                        return path[i:]
            seen.add(head)
            active.add(head)
            previous_head = head
        explored |= seen
    return None


def is_acyclic(g: CDG) -> bool:
    """True when ``g`` has no directed cycle (Kahn's algorithm)."""
    indeg = dict.fromkeys(g, 0)
    for succ in g.values():
        for v in succ:
            indeg[v] = indeg.get(v, 0) + 1
    ready = [u for u, d in indeg.items() if d == 0]
    removed = 0
    while ready:
        u = ready.pop()
        removed += 1
        for v in g.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return removed == len(indeg)


def paths_are_deadlock_free(paths: Iterable[Path]) -> bool:
    """True when the routes' CDG is acyclic (single-VC deadlock freedom)."""
    return is_acyclic(build_cdg(list(paths)))
