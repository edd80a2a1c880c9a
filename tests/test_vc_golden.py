"""Golden regression digests for deadlock-free VC layering.

The digests below were recorded from the networkx-based CDG layering
that ``routing/cdg.py`` and ``routing/vc_alloc.py`` originally shipped.
The randomized back-edge choice indexes the cycle that ``find_cycle``
returns, so any change to cycle-search order, CDG node/successor order,
or balancing would move some layer of some case.  Matching every digest
proves the current layering produces bit-identical ``VCAssignment``s —
and therefore that cached ``routing`` results stay valid without a
``TASK_VERSION`` bump.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.mclb import mclb_route
from repro.experiments.registry import roster
from repro.faults import reroute
from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.runner.tasks import default_max_vcs
from repro.topology import LAYOUT_4X5, folded_torus, mesh


def vca_digest(vca) -> str:
    doc = [
        vca.num_vcs,
        sorted([list(sd), vc] for sd, vc in vca.assignment.items()),
        [[list(p) for p in layer] for layer in vca.layers],
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


#: (link class, roster entry, seed) -> digest, for the 9 Fig. 6 roster
#: tables routed the way ``routing_task`` routes them.
ROSTER_GOLDEN = {
    "small/Kite-Small/0":
        "f1fee969787b7d85819b1b83094cd59a8459b2afaf3120c11ebe2af568781f80",
    "small/Kite-Small/1":
        "72a2e848cb523e373ccbd11828b57402232ab063c440140492524ab7d2850360",
    "small/Kite-Small/5":
        "0445be4a05f6943bcdd5b9bb03f52026032ddcdc92c0b59771715ade1a044d7e",
    "small/NS-LatOp-small/0":
        "850eb43c96fc66ac4be1d447f9206ed18ab6275207a3e2ef7f52a3196d8f4460",
    "small/NS-LatOp-small/1":
        "a459180e5b58f165358155185c1053c6e436fb6469d71a6c2c552997843388e3",
    "small/NS-LatOp-small/5":
        "a4f6c0d683940d2a14ce08b7f0fe00afbb2726d85a15629bcd32078a2baf24d9",
    "medium/FoldedTorus/0":
        "9a7c3bc03091c9f8a6bb5be4c41c39c6088c184bec9274fbd3488ce8d48b94bd",
    "medium/FoldedTorus/1":
        "d4c8de520a18c13d14b59f4ec5385f5bd0231f61d24a9f2828234e76dd64bce3",
    "medium/FoldedTorus/5":
        "049494704d9f678b39ac1fd1aba26813f63db6c185c186c26e29520b3b07a8b5",
    "medium/Kite-Medium/0":
        "7df7ec27458fa5f4b841015923eb5ed19b852a0e757cbc04bbd530f983924327",
    "medium/Kite-Medium/1":
        "ac291bd0de4912b6ac484c2a96f82a374cce3f319602778d13b55025eb495430",
    "medium/Kite-Medium/5":
        "75dd28f5da75de29edc63feed2f6ba0b96c781b6d8e44b48b979fd8bcc7861c0",
    "medium/NS-LatOp-medium/0":
        "8bae7caa4e2f061ec59eb84579d33eae0192f0303eda6abc773e55d2907ef7e0",
    "medium/NS-LatOp-medium/1":
        "9bf06cddcbfd5d98efe37b65685b67db5480c1a4c6ced249525f680bf8415006",
    "medium/NS-LatOp-medium/5":
        "4f84c2792754db4baf58d10a79aff8b2c3596e9b64ff6d6e4691c39eb5814159",
    "large/ButterDonut/0":
        "93d34f4526f33dee6c28be8a807a2a1b4d2f13b0f098ce4734b349e2e9e799a5",
    "large/ButterDonut/1":
        "14d2cc9a0823735aaf4cbe6beaa69faea30b40bb362caf16931241e3e2c43b21",
    "large/ButterDonut/5":
        "d0724d0cb60a732c2dd1b60a322f50e4ddc9bc340cfaa153b9989d1a2de88578",
    "large/DoubleButterfly/0":
        "a00e89e1540d262366517052caae7ebe6365191f76560f01acf9a86fc034dc7a",
    "large/DoubleButterfly/1":
        "652bf856d8c39f003a29612724c2c26e84918048a1e806dc75af3168fb4e04c6",
    "large/DoubleButterfly/5":
        "3abc8fbdb005ebd8c4ad8f3341e1487dd9779b2f61ab57639ac724f3e2f83dbf",
    "large/Kite-Large/0":
        "8869c5690bffc0502285f8543c523987ec37bd123587a90222f2d3682a18d3cd",
    "large/Kite-Large/1":
        "5705800e8637f4e14c2d2d60fbae7b20629675a1f33a71b64b8b1703f715001a",
    "large/Kite-Large/5":
        "c1d5fdd829fe73d16a36364d654204cdc11e2f53a7c7eabf85cfffdf62f81733",
    "large/NS-LatOp-large/0":
        "df400a84c117f3d4ba38b7a0b1afe6ea9a7a6faf9117e92dabc22528bb1e6a71",
    "large/NS-LatOp-large/1":
        "ff3c384f5dde5495f1bae6a359fd87f9e629c3313889d825d15bf9cdb3a6810e",
    "large/NS-LatOp-large/5":
        "46ffc6894ad1fc58684b4a9e20eebc4ea05871104091eeeedba8f48858663474",
}

#: ndbt-routed 4x5 expert topologies, ``assign_vcs`` defaults, seed 0.
EXPERT_GOLDEN = {
    "FoldedTorus":
        "9a7c3bc03091c9f8a6bb5be4c41c39c6088c184bec9274fbd3488ce8d48b94bd",
    "Mesh":
        "fc0cc0bc3b94c9675d516e25ff5d3921cc9147906defcdba20ba9d530273e031",
}

#: The VC assignment behind one survivor table (FoldedTorus 4x5).
SURVIVOR_GOLDEN = (
    "653e8f41626d7261a2f7612858e46e1c3b488021bb334557062e49ce267cd65d"
)

SEEDS = (0, 1, 5)


_ENTRIES = {
    e.name: e
    for cls in ("small", "medium", "large")
    for e in roster(cls, 20, allow_generate=False)
}
_MCLB_ROUTES = {}


def _roster_routes(entry, seed):
    if entry.policy == "mclb":
        if entry.name not in _MCLB_ROUTES:
            _MCLB_ROUTES[entry.name] = mclb_route(
                entry.topology, time_limit=60.0
            ).routes
        return _MCLB_ROUTES[entry.name]
    assert entry.policy == "ndbt"
    return ndbt_route(entry.topology, seed=seed)


@pytest.mark.parametrize("case", sorted(ROSTER_GOLDEN))
def test_roster_assignments_match_golden(case):
    _, name, seed = case.split("/")
    entry, seed = _ENTRIES[name], int(seed)
    vca = assign_vcs(
        _roster_routes(entry, seed),
        max_vcs=default_max_vcs(entry.topology.n), seed=seed,
    )
    assert vca_digest(vca) == ROSTER_GOLDEN[case]


def test_roster_golden_covers_fig6_cast():
    assert len(ROSTER_GOLDEN) == 9 * len(SEEDS)
    assert {k.split("/")[1] for k in ROSTER_GOLDEN} == set(_ENTRIES)


@pytest.mark.parametrize(
    "name,build", [("FoldedTorus", folded_torus), ("Mesh", mesh)]
)
def test_expert_assignments_match_golden(name, build):
    routes = ndbt_route(build(LAYOUT_4X5), seed=0)
    assert vca_digest(assign_vcs(routes, seed=0)) == EXPERT_GOLDEN[name]


def test_survivor_assignment_matches_golden(monkeypatch):
    """FoldedTorus 4x5 with three links (both directions) and router 7
    dead: the layering behind its survivor table."""
    topo = folded_torus(LAYOUT_4X5)
    routes = ndbt_route(topo, seed=0)
    table = build_routing_table(routes, assign_vcs(routes, seed=0))
    dead_links = frozenset(
        l for (u, v) in sorted(topo.directed_links)[:3] for l in ((u, v), (v, u))
    )
    captured = []

    def capture(*args, **kwargs):
        captured.append(assign_vcs(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(reroute, "assign_vcs", capture)
    reroute.survivor_table(table, dead_links, frozenset({7}), seed=3)
    assert len(captured) == 1
    assert vca_digest(captured[0]) == SURVIVOR_GOLDEN
