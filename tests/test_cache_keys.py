"""Cache-key stability: golden digests, canonical-JSON oracle, table memo.

A cache key is the SHA-256 of a payload's canonical JSON.  The digests
below were recorded from the plain recursive walk (``canonicalize`` +
``json.dumps``, kept here as :func:`reference_json`) before table docs
learned to carry their own canonical text.  Matching every digest proves
the keys are byte-identical, so no cached MILP, routing or simulation
result is orphaned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
from typing import Any, Dict, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSchedule
from repro.fullsys.closedloop import RetryPolicy
from repro.fullsys.workloads import PARSEC
from repro.runner import tasks
from repro.runner.artifacts import default_tasks
from repro.runner.executor import payload_fingerprint
from repro.runner.hashing import CanonicalDoc, canonical_json, config_hash
from repro.runner.orchestrator import task_key
from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.routing.tables import CSRRoutingTable
from repro.topology import LAYOUT_4X5, Layout, Topology, folded_torus, mesh


# ---------------------------------------------------------------------------
# The reference oracle: the original recursive walk.
# ---------------------------------------------------------------------------

def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to plain JSON types with a deterministic layout."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": list(obj.shape), "data": obj.tolist()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: canonicalize(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                k = json.dumps(canonicalize(k), sort_keys=True)
            out[k] = canonicalize(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(json.dumps(canonicalize(v), sort_keys=True) for v in obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


def reference_json(obj: Any) -> str:
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


def digest(key: str) -> str:
    """Digest of a key, so the golden table stays one line per payload."""
    return hashlib.sha256(key.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Representative payloads: one per task family, both table formats.
# ---------------------------------------------------------------------------

def _dict_table():
    topo = folded_torus(LAYOUT_4X5)
    routes = ndbt_route(topo, seed=0)
    return build_routing_table(routes, assign_vcs(routes, seed=0))


def _csr_table():
    from repro.routing.dest_tree import bfs_dest_table

    table = bfs_dest_table(mesh(Layout(rows=3, cols=3)), max_vcs=4, seed=1)
    assert isinstance(table, CSRRoutingTable)
    return table


def _payloads() -> Dict[str, Tuple[str, Dict[str, Any]]]:
    from repro.core.netsmith import NetSmithConfig
    from repro.pipeline.design import DesignPoint

    table, csr = _dict_table(), _csr_table()
    uni = tasks.TrafficSpec.uniform(table.topology.n)
    faults = FaultSchedule.link_outage([(0, 1)], down_cycle=50, up_cycle=300)
    retry = RetryPolicy(timeout=400, retries=2, backoff=16, seed=3)
    workload = PARSEC[0]
    artifact = default_tasks()[0].payload
    return {
        "sim_point/dict": ("sim_point", tasks.sim_point_payload(
            table, uni, 0.1, 100, 400, 2,
        )),
        "sim_point/dict+faults+sim_kw": ("sim_point", tasks.sim_point_payload(
            table, tasks.TrafficSpec.hotspot(20, (3, 7), 0.3), 0.05, 80, 300,
            5, sim_kw={"vc_buffer_flits": 6, "extra_hop_latency": 1},
            faults=faults,
        )),
        "sim_point/csr": ("sim_point", tasks.sim_point_payload(
            csr, tasks.TrafficSpec.uniform(9), 0.2, 100, 400, 0,
        )),
        "sim_batch/dict": ("sim_batch", tasks.sim_batch_payload(
            table, uni, [(0.05, 0), (0.1, 1), (0.15, 2)], 100, 400,
        )),
        "sim_batch/csr": ("sim_batch", tasks.sim_batch_payload(
            csr, tasks.TrafficSpec.uniform(9), [(0.1, 4)], 100, 400,
            mode="exact",
        )),
        "sat_search/dict": ("sat_search", tasks.sat_search_payload(
            table, uni, 0.01, 1.0, 6, 100, 400, 0, faults=faults,
        )),
        "closed_loop/dict": ("closed_loop", tasks.closed_loop_payload(
            table, workload, "medium", 200, 800, 1,
        )),
        "closed_loop/dict+faults": ("closed_loop", tasks.closed_loop_payload(
            table, workload, "medium", 200, 800, 1, faults=faults,
            retry=retry,
        )),
        "recovery/dict": ("recovery", tasks.recovery_payload(
            table, workload, "medium", faults, retry, 2000, 100, 4,
        )),
        "generation": ("generation", tasks.generation_payload(
            DesignPoint(rows=4, cols=5, link_class="small", strategy="sa",
                        sa_steps=300, seed=2),
            seed_incumbent=2.5, seed_links=[(1, 0), (0, 1)],
        )),
        "routing": ("routing", tasks.routing_payload(
            table.topology, "ndbt", 0, 8,
        )),
        "gap_curve": ("gap_curve", tasks.gap_curve_payload(
            NetSmithConfig(layout=LAYOUT_4X5, link_class="small"), 5.0,
            "bnb-small", time_points=(1.0, 2.0),
        )),
        "artifact": ("artifact", artifact),
    }


#: Recorded from the plain walk before the table-doc fast path existed.
GOLDEN = {
    "artifact":
        "29d1ad49f0179834b83b775a0a6f6636045e47eccc796f9304423cf709e11971",
    "closed_loop/dict":
        "37fdf396376882c01566ec93150527475017ea7a20b8086e981cea61f2992bc6",
    "closed_loop/dict+faults":
        "b3d80837f1b8f82e484b62e81c95e517b70b3c47f6ec13e3349871541576f8e3",
    "gap_curve":
        "6cc658e624667a005357c2fcf315bf500ff8ae4491b75a9711ea6f348de7716b",
    "generation":
        "5944a189a2c33c34edcc255c30736e9718064927bfefb3c928b58c8399662573",
    "recovery/dict":
        "9f8c55e007e72f4d861453b8231942354ad100d4d3a1fd09cefd1dc56f63a0d5",
    "routing":
        "6e705fa2acc73385892ba3c854b538d7a9a1a268d8863099bd1c428268dfc953",
    "sat_search/dict":
        "f99d5789f38ee0249537707ab3f60b21935574dbee24771ab84eab6840534d59",
    "sim_batch/csr":
        "09f755230a103d0dae22054510b7a977f852c87a1a7acf5d89c0962c4be803d3",
    "sim_batch/dict":
        "7686c919b7f866a271238b14438ceee8bd4a75bac8b2047650502c34f67ec7e8",
    "sim_point/csr":
        "17b17a3cb1f627a97264daf3b22a3c10e5c6ad5044e92ffdb13bfad5c76d214b",
    "sim_point/dict":
        "c26516fac4386aec1c54d2f1cb526860bf51d38d96dffde89917242c3d5e82e6",
    "sim_point/dict+faults+sim_kw":
        "179c212484f7aa25035745bdde0e024c8e9b385cb18509908c157a0e3c9028f9",
}


@pytest.fixture(scope="module")
def payloads():
    return _payloads()


def test_golden_keys_cover_every_task_family(payloads):
    families = {name for name, _ in payloads.values()}
    assert families == set(tasks.TASK_FUNCTIONS)
    assert set(GOLDEN) == set(payloads)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_key(payloads, case):
    name, payload = payloads[case]
    assert digest(task_key(name, payload)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_key_matches_reference_walk(payloads, case):
    name, payload = payloads[case]
    text = reference_json({"task": name, "payload": payload})
    assert task_key(name, payload) == hashlib.sha256(text.encode()).hexdigest()


#: The cache entries a cold ``repro run fig6-coherence`` writes: count and
#: SHA-256 of the sorted key list, recorded before the table-doc fast
#: path existed.  Equal key sets mean a cache filled by any earlier run
#: is served entirely from hits.
FIG6_COHERENCE_KEYS = (
    49, "f285e4fca097f85382618f3b4778e0cc3bfce4eb91bed4968378372369c1aceb"
)


def _cache_keys(root):
    return sorted(
        f.split(".")[0]
        for _, _, files in os.walk(root)
        for f in files
        if f.endswith((".json", ".json.z")) and len(f.split(".")[0]) == 64
    )


def _repro_run(*argv):
    """``python -m repro run ...`` in a fresh interpreter, so no
    in-process memo (routed rosters) hides a cache lookup."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "repro", "run", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )


def test_fig6_coherence_cache_keys_unchanged(tmp_path):
    cache = str(tmp_path / "cache")
    cold = _repro_run("fig6-coherence", "--cache-dir", cache)
    keys = _cache_keys(cache)
    listing = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert (len(keys), listing) == FIG6_COHERENCE_KEYS
    warm = _repro_run("fig6-coherence", "--cache-dir", cache)
    assert warm.stdout == cold.stdout
    assert "49 hits / 0 misses" in warm.stderr


# ---------------------------------------------------------------------------
# canonical_json equals the reference walk on arbitrary values.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Pair:
    first: Any
    second: Any = None


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]
)
_text = st.text(max_size=6) | st.sampled_from(["é", "日本", "\U0001f600", '"\\'])
_ints = st.integers() | st.sampled_from([2, 10, -1, 2**63])
_json_scalars = st.none() | st.booleans() | _ints | _floats | _text
_numpy_scalars = (
    st.integers(-(2**31), 2**31 - 1).map(np.int64)
    | st.integers(-128, 127).map(np.int8)
    | _floats.map(np.float64)
    | st.floats(width=32).map(np.float32)
)
_arrays = st.sampled_from([np.int64, np.float64, np.int8]).flatmap(
    lambda dt: st.lists(
        st.integers(-9, 9), min_size=0, max_size=6
    ).map(lambda xs, dt=dt: np.array(xs, dtype=dt).reshape(
        (2, len(xs) // 2) if len(xs) % 2 == 0 else (len(xs),)
    ))
) | st.just(np.array([[np.nan, -0.0], [np.inf, 1.5]]))

#: Hashable values: dict keys and set members.
_hashable = st.recursive(
    _json_scalars | _numpy_scalars,
    lambda inner: (
        st.tuples(inner, inner)
        | st.frozensets(inner, max_size=3)
        | st.builds(_Pair, inner, inner)
    ),
    max_leaves=6,
)

#: JSON-clean docs, the only kind a CanonicalDoc may wrap.
_clean = st.recursive(
    _json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4)
    ),
    max_leaves=12,
)
_pre_encoded = st.dictionaries(_text, _clean, max_size=4).map(
    CanonicalDoc
)

_values = st.recursive(
    _json_scalars | _numpy_scalars | _arrays | _pre_encoded,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.sets(_hashable, max_size=4)
        | st.frozensets(_hashable, max_size=3)
        | st.dictionaries(_hashable, inner, max_size=4)
        | st.dictionaries(_text, inner, max_size=4)
        | st.dictionaries(st.sampled_from([2, 10, "2", "10", 1, 1.0]),
                          inner, max_size=4)
        | st.builds(_Pair, inner, inner)
        | st.builds(lambda d: {"table": d, "rest": d}, _pre_encoded)
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_values)
def test_canonical_json_matches_reference_walk(value):
    assert canonical_json(value) == reference_json(value)


@settings(max_examples=100, deadline=None)
@given(_pre_encoded)
def test_pre_encoded_doc_survives_pickling(doc):
    clone = pickle.loads(pickle.dumps({"table": doc}))["table"]
    assert type(clone) is CanonicalDoc
    assert reference_json(dict(clone)) == reference_json(dict(doc))
    assert config_hash(clone) == config_hash(dict(doc)) == config_hash(doc)
    assert clone.text == doc.text == reference_json(doc)


def test_int_keys_sort_as_text():
    value = {2: "a", 10: "b", (1, 2): {3, 1}}
    assert canonical_json(value) == '{"10":"b","2":"a","[1, 2]":["1","3"]}'
    assert canonical_json(value) == reference_json(value)


@pytest.mark.parametrize("bad", [
    object(),
    {"a": [object()]},
    {1: object(), "1": 2},  # the overwritten value is still encoded
    np.bool_(True),
    complex(1, 2),
    {frozenset({object()}): 1},
])
def test_unsupported_types_raise_type_error(bad):
    with pytest.raises(TypeError):
        reference_json(bad)
    with pytest.raises(TypeError):
        canonical_json(bad)
    expected = hashlib.sha256(repr(bad).encode("utf-8")).hexdigest()
    assert payload_fingerprint(bad) == expected


def test_pre_encoded_doc_is_read_only():
    doc = CanonicalDoc({"a": 1})
    for mutate in (
        lambda: doc.__setitem__("a", 2),
        lambda: doc.__delitem__("a"),
        lambda: doc.update(a=2),
        lambda: doc.pop("a"),
        lambda: doc.setdefault("b", 1),
        lambda: doc.clear(),
    ):
        with pytest.raises(TypeError):
            mutate()
    assert doc == {"a": 1}


# ---------------------------------------------------------------------------
# The per-table doc memo.
# ---------------------------------------------------------------------------

def _sim_key(table) -> str:
    payload = tasks.sim_point_payload(
        table, tasks.TrafficSpec.uniform(table.topology.n), 0.1, 100, 400, 0,
    )
    return task_key("sim_point", payload)


def _fresh_key(table, name, link_class) -> str:
    doc = dict(tasks.encode_table(table))
    doc.update(name=name, link_class=link_class)
    return _sim_key(tasks.decode_table(doc))


@pytest.mark.parametrize("make", [_dict_table, _csr_table])
def test_memo_follows_renames(make):
    table = make()
    before = _sim_key(table)
    assert tasks.encode_table(table) is tasks.encode_table(table)
    # What Runner.tables does to a decoded table after construction.
    table.topology.name = "renamed"
    renamed = _sim_key(table)
    assert renamed != before
    assert renamed == _fresh_key(table, "renamed", table.topology.link_class)
    table.topology.link_class = "large"
    relinked = _sim_key(table)
    assert relinked not in (before, renamed)
    assert relinked == _fresh_key(table, "renamed", "large")


@pytest.mark.parametrize("make", [_dict_table, _csr_table])
def test_equal_tables_share_keys(make):
    a, b = make(), make()
    assert a is not b
    assert _sim_key(a) == _sim_key(b)
    assert tasks.encode_table(a).text == tasks.encode_table(b).text


def test_runner_tables_rename_reaches_keys(tmp_path):
    from repro.runner import RoutingJob, Runner

    topo = folded_torus(LAYOUT_4X5)
    twin = Topology.from_adjacency(topo.layout, topo.adj, "Twin", "small")
    runner = Runner(parallel=1, cache_dir=str(tmp_path))
    first, second = runner.tables(
        [RoutingJob(topo, policy="ndbt"), RoutingJob(twin, policy="ndbt")]
    )
    assert tasks.encode_table(first)["name"] == topo.name
    assert tasks.encode_table(second)["name"] == "Twin"
    assert _sim_key(second) == _fresh_key(first, "Twin", "small")
    assert _sim_key(first) != _sim_key(second)
