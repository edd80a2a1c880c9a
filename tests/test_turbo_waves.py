"""Look-ahead turbo waves and int32 batch traces.

``Runner.multi_seed_curves`` in turbo mode gives every live seed its
next *k* rates per wave (``k`` bounded by the expected injected events
of the wave), and ``pregenerate_batch`` stores its events as int32.
Neither may move a number:

* the golden digests below were recorded from the one-rate-per-wave
  runner and the int64 trace that preceded both changes; turbo lanes
  are batch-composition-invariant and curves are truncated at their
  first saturated point, so every digest must still match;
* exact mode does not speculate: it simulates exactly the points its
  curves keep;
* a turbo wave stays within ``workers x TURBO_TASK_EVENTS`` expected
  events unless one rung per seed already exceeds it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.runner import Runner, orchestrator
from repro.runner.tasks import TrafficSpec
from repro.sim import (
    hotspot,
    latency_throughput_curve,
    run_batch,
    shuffle_pattern,
    uniform_random,
)
from repro.sim import batch as batch_mod
from repro.sim.burst import BurstSpec
from repro.sim.trace import pregenerate_batch
from repro.topology import LAYOUT_4X5, folded_torus

N = LAYOUT_4X5.n
BUDGET = dict(warmup=150, measure=400)


@pytest.fixture(scope="module")
def table():
    topo = folded_torus(LAYOUT_4X5)
    routes = ndbt_route(topo, seed=0)
    return build_routing_table(routes, assign_vcs(routes, max_vcs=8, seed=0))


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _curves_doc(curves):
    return [
        [s, c.name, c.link_class,
         [[p.offered_rate, p.avg_latency_cycles,
           p.throughput_packets_node_cycle, p.saturated] for p in c.points]]
        for s, c in curves.items()
    ]


# ---------------------------------------------------------------------------
# Golden digests (recorded before look-ahead waves and int32 traces).
# ---------------------------------------------------------------------------

#: Lanes crossing saturation (~0.2 uniform on this table), plus an idle
#: lane and a rate past 1 (the floor-plus-Bernoulli count law).
LADDER = (0.0, 0.02, 0.1, 0.2, 0.3, 0.55, 1.2)

BATCH_GOLDEN = {
    "uniform":
        "ed60a3610359992257a59ba67ddb436aa438162881f2a68a234fa0b513a47215",
    "shuffle":
        "b51867c8d4e533832d68fb9462d8cd73d83768f690da6090dc5cd6e97b33e2ca",
    "hotspot":
        "0d94f9cd9f4571a7509b0dbc7cd77b4d516d5de78b9007d6e02a4bcb554ac8c3",
    "mmpp":
        "06c5c0da399b32637a1147efe8a76b5b2c2e17a63ed764494af54e0a5a7ea494",
}


def _pattern(name):
    return {
        "uniform": lambda: uniform_random(N),
        "shuffle": lambda: shuffle_pattern(N),
        "hotspot": lambda: hotspot(N, LAYOUT_4X5.mc_routers()),
        "mmpp": lambda: uniform_random(N).with_burst(
            BurstSpec(kind="mmpp", p_on=0.1, p_off=0.3)
        ),
    }[name]()


@pytest.mark.parametrize("pattern", sorted(BATCH_GOLDEN))
def test_turbo_batch_stats_golden(table, pattern):
    lanes = [(r, s) for s in (0, 1) for r in LADDER]
    stats = run_batch(table, _pattern(pattern), lanes, mode="turbo", **BUDGET)
    assert _sha([asdict(st) for st in stats]) == BATCH_GOLDEN[pattern]


CURVE_RATES = (0.02, 0.08, 0.12, 0.15, 0.17, 0.2, 0.3)

#: label -> (traffic, seeds, stop_after_saturation, digest) for
#: ``Runner(parallel=2).multi_seed_curves(mode="turbo")``.
CURVES_GOLDEN = {
    "uniform": (
        "uniform", list(range(6)), True,
        "48e8933ca6bb58856855f9101492cc1b2d592d42959815e7a2a4d051a670507f",
    ),
    "shuffle": (
        "shuffle", [4, 1, 7], True,
        "0da4b917bc0230f8cc51fbd25c029b6398bd48ea9f536e13f5ab34c4d0623935",
    ),
    "uniform-nostop": (
        "uniform", [2, 3], False,
        "3260b04d176da3555c6c7942e47d0d67d16808849d4fab77ffd362164686fb46",
    ),
}


@pytest.mark.parametrize("label", sorted(CURVES_GOLDEN))
def test_turbo_multi_seed_curves_golden(table, tmp_path, label):
    kind, seeds, stop, digest = CURVES_GOLDEN[label]
    spec = getattr(TrafficSpec, kind)(N)
    with Runner(parallel=2, cache_dir=str(tmp_path)) as r:
        curves = r.multi_seed_curves(
            table, spec, CURVE_RATES, seeds, mode="turbo",
            stop_after_saturation=stop, **BUDGET,
        )
    assert list(curves) == seeds
    doc = _curves_doc(curves)
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Wave planning: exact economy, turbo event budget.
# ---------------------------------------------------------------------------


class _WaveLog(Runner):
    """Records the lanes of every ``batch_points`` wave."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.waves = []

    def batch_points(self, table, traffic, lanes, *a, **kw):
        self.waves.append([(float(r), int(s)) for r, s in lanes])
        return super().batch_points(table, traffic, lanes, *a, **kw)


def test_exact_mode_simulates_only_kept_points(table, monkeypatch):
    simulated = []
    real = batch_mod.run_batch

    def counting(table, traffic, lanes, *a, **kw):
        simulated.extend(lanes)
        return real(table, traffic, lanes, *a, **kw)

    monkeypatch.setattr(batch_mod, "run_batch", counting)
    with Runner(parallel=1, no_cache=True) as r:
        curves = r.multi_seed_curves(
            table, TrafficSpec.uniform(N), CURVE_RATES, [0, 1, 2],
            mode="exact", **BUDGET,
        )
    assert len(simulated) == sum(len(c.points) for c in curves.values())
    assert any(c.points[-1].saturated for c in curves.values())


@pytest.mark.parametrize("budget", [1 << 10, 3000, 1 << 13, 1 << 18])
def test_turbo_waves_respect_event_budget(table, monkeypatch, budget):
    monkeypatch.setattr(batch_mod, "TURBO_TASK_EVENTS", budget)
    seeds = [5, 2, 9]
    cycles = BUDGET["warmup"] + BUDGET["measure"]
    with _WaveLog(parallel=1, no_cache=True) as r:
        curves = r.multi_seed_curves(
            table, TrafficSpec.uniform(N), CURVE_RATES, seeds,
            mode="turbo", **BUDGET,
        )
    cap = r.parallel * budget
    cursor = {s: 0 for s in seeds}
    for wave in r.waves:
        order = list(dict.fromkeys(s for _, s in wave))
        # Seed-major, in the caller's seed order, each seed's rungs
        # contiguous and ascending along the ladder from its cursor.
        assert order == [s for s in seeds if s in order]
        rungs = {s: [rt for rt, ss in wave if ss == s] for s in order}
        assert [s for _, s in wave] == [s for s in order for _ in rungs[s]]
        for s, rs in rungs.items():
            assert rs, s  # at least one rung per live seed
            assert rs == list(CURVE_RATES[cursor[s]: cursor[s] + len(rs)])
            cursor[s] += len(rs)
        events = sum(rt for rt, _ in wave) * N * cycles
        k = max(len(rs) for rs in rungs.values())
        assert events <= cap or k == 1, (wave, events, cap)
        # ... and looks as far ahead as the budget allows.
        nxt = sum(
            CURVE_RATES[cursor[s]] for s in order
            if cursor[s] < len(CURVE_RATES)
        )
        if nxt:
            assert events + nxt * N * cycles > cap, (wave, events, cap)
    # The curves do not depend on how far the waves looked ahead.
    with Runner(parallel=1, no_cache=True) as r:
        monkeypatch.setattr(batch_mod, "TURBO_TASK_EVENTS", 1)
        one_rung = r.multi_seed_curves(
            table, TrafficSpec.uniform(N), CURVE_RATES, seeds,
            mode="turbo", **BUDGET,
        )
    assert curves == one_rung


def test_wave_rungs_largest_within_budget():
    rungs = orchestrator._wave_rungs
    rates = (0.125, 0.25, 0.5)  # exact in binary: events add up exactly
    # One seed at the ladder's foot: its first k rates cost 1, 3, 7 events.
    assert rungs(rates, [0], 8, 3) == 2
    assert rungs(rates, [0], 8, 7) == 3
    assert rungs(rates, [0], 8, 1e9) == 3  # never past the ladder's end
    assert rungs(rates, [0], 8, 0.5) == 1  # at least one rung
    # A seed at the last rate adds nothing once its rates run out:
    # 4 + 1, then + 2, then + 4.
    assert rungs(rates, [2, 0], 8, 7) == 2
    assert rungs(rates, [2, 0], 8, 6.5) == 1
    assert rungs(rates, [2, 0], 8, 11) == 3


def test_sim_full_turbo_table_is_one_wave():
    """The benchmark's 16-seed medium turbo curves (n=20, 400+1500
    cycles, two workers) plan six rungs per seed: one wave per table."""
    from repro.experiments.fig6 import DEFAULT_RATES

    k = orchestrator._wave_rungs(
        DEFAULT_RATES, [0] * 16, 20 * 1900, 2 * batch_mod.TURBO_TASK_EVENTS
    )
    assert k == 6


# ---------------------------------------------------------------------------
# Duplicate seeds.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["exact", "turbo"])
def test_duplicate_seeds_collapse(table, mode):
    rates = (0.02, 0.1, 0.2, 0.3)
    with Runner(parallel=1, no_cache=True) as r:
        dup = r.multi_seed_curves(
            table, TrafficSpec.uniform(N), rates, [3, 1, 3], mode=mode,
            **BUDGET,
        )
        single = r.multi_seed_curves(
            table, TrafficSpec.uniform(N), rates, [3, 1], mode=mode,
            **BUDGET,
        )
    assert list(dup) == [3, 1]
    assert dup == single
    if mode == "exact":
        want = latency_throughput_curve(
            table, uniform_random(N), rates, seed=3, **BUDGET
        )
        assert dup[3] == want


# ---------------------------------------------------------------------------
# int32 batch traces.
# ---------------------------------------------------------------------------


def test_batch_trace_events_are_int32():
    lanes = [(0.0, 0), (0.3, 1), (1.2, 2)]
    tr = pregenerate_batch(uniform_random(N), N, lanes, 300)
    for arr in (tr.ev_cycle, tr.ev_src, tr.ev_dst, tr.ev_size):
        assert arr.dtype == np.int32
    empty = pregenerate_batch(uniform_random(N), N, [(0.0, 0)], 300)
    assert empty.ev_cycle.dtype == np.int32 and empty.ev_cycle.size == 0


@pytest.mark.parametrize(
    "lanes", [[(0.0, 0)], [(0.2, 4)], [(0.0, 1), (0.15, 2), (0.0, 3), (0.4, 5)]]
)
def test_offered_in_counts_window_per_lane(lanes):
    tr = pregenerate_batch(uniform_random(N), N, lanes, 400)
    for lo, hi in [(0, 400), (100, 300), (250, 250), (399, 400)]:
        want = [
            int(((seg >= lo) & (seg < hi)).sum())
            for seg in (
                tr.ev_cycle[tr.lane_bounds[b]: tr.lane_bounds[b + 1]]
                for b in range(tr.n_lanes)
            )
        ]
        got = tr.offered_in(lo, hi)
        assert got.tolist() == want
        assert got.dtype == np.int64
