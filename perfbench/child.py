"""One measured user command, run in this fresh interpreter.

``python perfbench/child.py '<spec json>'`` runs the commands the spec
names through the public API, the way ``python -m repro run <name>``
does (imports, a :class:`~repro.runner.Runner`, the experiment), and
writes what they produced to ``spec["out"]``: set-up time, a digest of
every result, the output checks, the cache and supervision counters,
and, when ``spec["trace_dir"]`` is set, the per-layer trace.

Spec keys:

* ``commands``: ``[[name, full], ...]``; ``name`` is a ``repro run``
  experiment or ``turbo-seeds`` (``Runner.multi_seed_curves``, the
  ``repro simulate --seeds 16 --engine turbo`` path, over the medium
  roster);
* ``seed``: seed of every routing and simulation input;
* ``cache_dir``, ``workers``;
* ``allowed_hits``: ``null`` (any cache hit is fine) or the list of keys
  that may hit; any other hit fails the ``cold`` check;
* ``tables_only``: route every table the commands look up, then stop
  before the first simulation (used to prepare a table-only cache);
* ``t_spawn``: wall-clock time just before this interpreter was spawned
  (set-up time runs from there to the first layer call);
* ``trace_dir``: ``null`` or a directory for :mod:`tracer` records;
* ``out``: path of the JSON result.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time


def _curve_doc(curve):
    return [
        [p.offered_rate, p.avg_latency_cycles,
         p.throughput_packets_node_cycle, p.saturated]
        for p in curve.points
    ]


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace_dir"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.install(spec["trace_dir"])

    import numpy
    import scipy

    from repro.experiments.fig6 import DEFAULT_RATES
    from repro.experiments.registry import get_experiment, roster, routed_entries
    from repro.runner import MISS, ResultCache, Runner, TrafficSpec, orchestrator

    t_imported = time.time()

    class CheckedCache(ResultCache):
        """Counts hits on keys outside ``allowed`` (a cold-phase check)."""

        def __init__(self, root, allowed):
            super().__init__(root)
            self.allowed = allowed
            self.unexpected_hits = 0

        def get(self, key):
            value = super().get(key)
            if value is not MISS and self.allowed is not None \
                    and key not in self.allowed:
                self.unexpected_hits += 1
            return value

    class RoutingDone(Exception):
        pass

    class TablesOnlyRunner(Runner):
        def curves(self, *a, **kw):
            raise RoutingDone

        closed_loops = multi_seed_curves = curves

    allowed = spec.get("allowed_hits")
    cache = CheckedCache(spec["cache_dir"], None if allowed is None else set(allowed))
    runner_cls = TablesOnlyRunner if spec.get("tables_only") else Runner
    runner = runner_cls(parallel=spec["workers"], cache=cache)
    seed = spec["seed"]

    def run_command(name, full):
        if name == "turbo-seeds":
            entries = roster("medium", 20, allow_generate=False, runner=runner)
            tables = routed_entries(entries, seed=seed, runner=runner)
            seeds = [seed + k for k in range(16)]
            curves = {}
            for entry, table in zip(entries, tables):
                per_seed = runner.multi_seed_curves(
                    table, TrafficSpec.uniform(table.topology.n),
                    DEFAULT_RATES, seeds, link_class="medium",
                    warmup=400, measure=1500, mode="turbo",
                )
                for s, curve in per_seed.items():
                    curves[f"{entry.name}/seed{s}"] = curve
            return "turbo", curves
        result = get_experiment(name).run(runner, fast=not full, seed=seed)
        if name == "fig8":
            return "fig8", result
        return "fig6", result.curves

    # Set-up ends at the first layer call: the first cache key the
    # runner computes (every routing, simulation and lookup starts there).
    # By then the interpreter has imported, built the Runner and loaded
    # the first roster.
    first_call = []
    task_key = orchestrator.task_key

    def marked_task_key(*args, **kwargs):
        if not first_call:
            first_call.append(time.time())
        return task_key(*args, **kwargs)

    orchestrator.task_key = marked_task_key
    commands = [tuple(c) for c in spec["commands"]]

    out = {"commands": []}
    for name, full in commands:
        if spec.get("tables_only"):
            try:
                run_command(name, full)
            except RoutingDone:
                continue
            raise RuntimeError(f"{name}: no simulation stage reached")
        kind, result = run_command(name, full)
        rec = {"name": name, "full": full, "kind": kind, "checks": {}}
        if kind == "fig8":
            doc = {
                "rows": [[r.workload, sorted(r.speedups.items()),
                          sorted(r.latency_reductions.items())]
                         for r in result.rows],
                "geomean": sorted(result.geomean.items()),
            }
            speedups = [v for r in result.rows for v in r.speedups.values()]
            speedups += list(result.geomean.values())
            rec["checks"]["fig8_speedups_finite_positive"] = bool(speedups) and all(
                math.isfinite(v) and v > 0 for v in speedups
            )
        else:
            doc = {k: [c.link_class, _curve_doc(c)] for k, c in result.items()}
            rec["checks"]["lowest_rate_unsaturated"] = bool(result) and all(
                c.points and not c.points[0].saturated for c in result.values()
            )
            rec["unsaturated_points"] = sum(
                not p.saturated for c in result.values() for p in c.points
            )
        blob = json.dumps(doc, sort_keys=True).encode()
        rec["digest"] = hashlib.sha256(blob).hexdigest()
        out["commands"].append(rec)
    runner.close()  # joins the pool's workers

    health = runner.health
    out.update(
        setup_s=(first_call or [time.time()])[0] - spec["t_spawn"],
        import_s=t_imported - spec["t_spawn"],
        cache={
            "hits": cache.stats.hits, "misses": cache.stats.misses,
            "puts": cache.stats.puts, "errors": cache.stats.errors,
            "unexpected_hits": cache.unexpected_hits,
        },
        retries=health.retries,
        quarantined=max(health.quarantined, len(runner.failures)),
        workers=runner.parallel,
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    )
    if tracer is not None:
        tracer.add_busy("setup.import", t_imported - spec["t_spawn"])
        out["trace"] = tracer.collect()
    with open(spec["out"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
