"""Repository benchmark: host time of the paths users run, end to end and
per layer.

    python3 perfbench/run.py --workload fig6-cold --seed 1 --seconds 45 --trace 0

Each measured *command* runs in a fresh interpreter (``child.py``) with
two runner workers, as a user's ``python -m repro run ...`` would.  One
*repetition* runs the workload's commands in order, on a fresh copy of
the workload's prepared cache.  Repetitions repeat while the next one is
expected to end nearer to ``--seconds`` than stopping does (at least
one), and every metric is the median over them.  Cache preparation
happens outside the measured time.

Workloads (why each was chosen is in ``BENCHMARK.json``):

* ``fig6-cold``: ``run fig6-coherence`` (fast budget, seed 0) on an empty
  cache, then the same command again on the cache it filled (every
  lookup hits); routing and VC layering dominate, and the rerun measures
  imports, hashing and result decoding.
* ``sim-full``: ``run fig6-coherence --full``, ``fig6-memory --full`` and
  ``fig8 --full``, then ``Runner.multi_seed_curves`` (16 seeds, 9 rates,
  turbo mode) over the 3-topology medium roster, with the routing tables
  cached and every simulation cold; the ``fast``, ``fastloop`` and
  batched engines dominate.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (spawn to exit of
every command), ``cpu_s`` (user+sys of each command's process and its
pool workers, from ``wait4``), ``setup_s`` (interpreter start to the
first layer call: imports, Runner construction and the first roster) and
``peak_rss_mb`` (the largest peak resident set of any process in a
command's tree).  Sums over a repetition's commands, except the peak.

The three times are given at a reference host speed.  The shared host's
speed drifts by a fifth or more over minutes, which no number of
repetitions averages away, so each median is multiplied by
``PROBE_REF_S`` over the median time of ``_host_probe()``, a fixed load
that does not use the program, run on each worker CPU before and after
every command.  The probe does not change with the program, so a change
to the program moves the scaled times as it moves the unscaled ones; the
stamp line gives the unscaled medians and the probe time.  Per-layer
times are unscaled.

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of ``tracer.py`` (medians over the traced ones), plus
``trace.overhead_s``, the traced minus the untraced wall time.

Output checks (each a counted operation; a failure makes
``correct: false``): every repetition yields the same result digests;
traced results equal untraced ones; a warm rerun hits every lookup,
writes nothing and reproduces the cold run's digest; a cold command
hits no cache key except the prepared tables; no task is quarantined;
the lowest-rate point of every curve is unsaturated; Fig. 8 speedups are
finite and positive.

The last stdout line is the result JSON; the line before it stamps the
run with the source version, interpreter and library versions, ``nproc``,
the worker count, the host probe time and the unscaled times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

WORKERS = 2
CHILD_TIMEOUT_S = 150

#: Seconds ``_probe_load`` takes on the reference host.  End-to-end times
#: are reported at that host speed (see the module docstring).
PROBE_REF_S = 0.2
#: End-to-end metrics scaled to the reference host speed.
SPEED_SCALED = ("wall_s", "cpu_s", "setup_s")

#: name -> (commands as [experiment, full budget, warm], cache state,
#: seeded).  A warm command reruns an earlier command of the repetition
#: on the cache that command filled.  A seeded workload uses the
#: benchmark seed as the experiments' seed (routing and simulation).
#: fig6-cold is not seeded: it runs ``repro run fig6-coherence`` as the
#: CLI does, at the experiments' seed 0, because nearly all of its cost
#: is VC layering, whose randomized attempts make one seed's routing cost
#: 25% above or below another's (4.4 to 7.1 s over seeds 1-8), more than
#: a regression bound can absorb.
WORKLOADS = {
    "fig6-cold": (
        [["fig6-coherence", False, False], ["fig6-coherence", False, True]],
        "empty", False,
    ),
    "sim-full": (
        [["fig6-coherence", True, False], ["fig6-memory", True, False],
         ["fig8", True, False], ["turbo-seeds", True, False]],
        "tables", True,
    ),
}

#: Layers timed by ``tracer.py`` (each yields ``<name>_s`` and
#: ``<name>.calls``), grouped for the "largest layer" report.
GROUPS = {
    "routing": ("routing.assign_vcs", "routing.mclb_route",
                "routing.ndbt_route", "routing.build_routing_table"),
    "sim": ("sim.run_point", "sim.compile_for_engine", "sim.trace"),
    "fullsys": ("fullsys.run_workload",),
    "batch": ("batch.run_batch",),
    "runner": ("runner.task_key", "runner.cache_get", "runner.cache_put",
               "runner.encode", "runner.decode"),
    "setup": ("setup.import", "experiments.roster"),
}
TIMED_LAYERS = tuple(name for names in GROUPS.values() for name in names)

#: Per workload, the group(s) that should take the most busy time.
EXPECTED_LARGEST = {
    "fig6-cold": ("routing",),
    "sim-full": ("sim", "fullsys", "batch"),
}


class ChildFailed(RuntimeError):
    pass


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _cache_keys(cache_dir: str):
    """Keys of the entries stored under a cache root."""
    keys = []
    for sub in sorted(os.listdir(cache_dir)):
        path = os.path.join(cache_dir, sub)
        if len(sub) == 2 and os.path.isdir(path):
            keys += [f.split(".")[0] for f in os.listdir(path)
                     if not f.startswith(".tmp-")]
    return keys


def _copy_entries(src: str, dst: str) -> None:
    """Copy a cache's entries (not its journal) to a fresh root."""
    os.makedirs(dst)
    for sub in os.listdir(src):
        if len(sub) == 2 and os.path.isdir(os.path.join(src, sub)):
            shutil.copytree(os.path.join(src, sub), os.path.join(dst, sub))


def _probe_load() -> float:
    """Seconds a fixed program-independent load takes on this CPU now.

    Half Python-object work (a breadth-first search over a dict of lists,
    as in routing), half numpy work on arrays of a few MB (as in the
    simulation engines).
    """
    import numpy as np

    t0 = time.perf_counter()
    rng = random.Random(12345)
    n = 20_000
    adj = {v: [rng.randrange(n) for _ in range(4)] for v in range(n)}
    seen = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen[w] = seen[v] + 1
                    nxt.append(w)
        frontier = nxt
    a = np.arange(1 << 18, dtype=np.int64)
    perm = (a * 7919) % a.size
    for _ in range(30):
        a = ((a * 3 + 1) % 1009)[perm]
    return time.perf_counter() - t0


def _host_probe() -> float:
    """Mean time of ``_probe_load`` run at once on each CPU the runner's
    workers use, each in a forked process pinned to its CPU."""
    r, w = os.pipe()
    pids = []
    for cpu in sorted(os.sched_getaffinity(0))[:WORKERS]:
        pid = os.fork()
        if pid == 0:
            try:
                os.sched_setaffinity(0, {cpu})
                os.write(w, struct.pack("d", _probe_load()))
            finally:
                os._exit(0)
        pids.append(pid)
    os.close(w)
    for pid in pids:
        os.waitpid(pid, 0)
    data = b""
    while chunk := os.read(r, 64):
        data += chunk
    os.close(r)
    if len(data) != 8 * len(pids):
        raise RuntimeError("host probe failed")
    return statistics.mean(struct.unpack(f"{len(pids)}d", data))


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


class Bench:
    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.commands, self.cache_mode, seeded = WORKLOADS[workload]
        self.seed = seed if seeded else 0
        self.work = work
        self.tmp = os.path.join(work, "tmp")
        os.makedirs(self.tmp)
        self._n = 0
        self.checks = []  # (name, passed)
        self.versions = {}
        self.prepared = None  # cache root copied into every repetition
        self.allowed = None  # keys a cold command may hit; None = any
        self.digests = {}  # command name -> digest of the first repetition
        self.probes = []  # _host_probe() before and after every command

    def check(self, name: str, passed: bool) -> None:
        self.checks.append((name, bool(passed)))
        if not passed:
            print(f"[perfbench] CHECK FAILED: {name}", file=sys.stderr)

    def spawn(self, commands, cache_dir, allowed, trace=False, tables_only=False):
        """Run commands in one fresh interpreter: (wall s, cpu s, rss MB, result)."""
        self._n += 1
        out = os.path.join(self.work, f"out-{self._n}.json")
        log = os.path.join(self.work, f"child-{self._n}.log")
        trace_dir = None
        if trace:
            trace_dir = os.path.join(self.work, f"trace-{self._n}")
            os.makedirs(trace_dir)
        pythonpath = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=SRC + (os.pathsep + pythonpath if pythonpath else ""),
            TMPDIR=self.tmp,
        )
        spec = {
            "commands": commands, "seed": self.seed, "cache_dir": cache_dir,
            "workers": WORKERS, "allowed_hits": allowed,
            "tables_only": tables_only, "trace_dir": trace_dir, "out": out,
        }
        with open(log, "w") as logf:
            t0 = time.perf_counter()
            spec["t_spawn"] = time.time()
            proc = subprocess.Popen(
                [sys.executable, CHILD, json.dumps(spec)], cwd=ROOT, env=env,
                stdin=subprocess.DEVNULL, stdout=logf, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not os.path.exists(out):
            with open(log) as fh:
                tail = fh.read()[-3000:]
            raise ChildFailed(
                f"{commands} exited {proc.returncode}:\n{tail}"
            )
        with open(out) as fh:
            result = json.load(fh)
        self.versions = result["versions"]
        self.check("no_quarantine", result["quarantined"] == 0)
        if allowed is not None:
            self.check("cold_no_cache_hit", result["cache"]["unexpected_hits"] == 0)
        for rec in result["commands"]:
            for name, passed in rec["checks"].items():
                self.check(f"{rec['name']}:{name}", passed)
        return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, result

    def prepare(self) -> None:
        """Fill the cache state every repetition starts from (unmeasured).

        Bytecode is compiled first, so that no measured interpreter pays
        for it in a fresh checkout.
        """
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", SRC, HERE],
            check=True, stdout=subprocess.DEVNULL,
        )
        if self.cache_mode == "empty":
            self.allowed = []
            return
        self.prepared = os.path.join(self.work, "prepared")
        self.spawn([c[:2] for c in self.commands], self.prepared, None,
                   tables_only=True)
        self.allowed = _cache_keys(self.prepared)
        self.check("tables_prepared", len(self.allowed) > 0)

    def rep(self, trace: bool = False):
        """One repetition: every command of the workload, each in its own
        interpreter, against a cache in the prepared state."""
        self._n += 1
        cache_dir = os.path.join(self.work, f"cache-{self._n}")
        if self.prepared is None:
            os.makedirs(cache_dir)
        else:
            _copy_entries(self.prepared, cache_dir)
        rep = {"wall_s": 0.0, "cpu_s": 0.0, "setup_s": 0.0, "peak_rss_mb": 0.0,
               "children": [], "digests": {}, "command_walls": []}
        for name, full, warm in self.commands:
            self.probes.append(_host_probe())
            wall, cpu, rss, result = self.spawn(
                [[name, full]], cache_dir, None if warm else self.allowed,
                trace=trace,
            )
            rep["wall_s"] += wall
            rep["command_walls"].append(wall)
            rep["cpu_s"] += cpu
            rep["setup_s"] += result["setup_s"]
            rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
            rep["children"].append(result)
            (rec,) = result["commands"]
            if warm:
                c = result["cache"]
                self.check(f"{name}:warm_all_hits", c["misses"] == 0 and c["hits"] > 0)
                self.check(f"{name}:warm_no_writes", c["puts"] == 0)
                self.check(f"{name}:warm_matches_cold",
                           rec["digest"] == rep["digests"].get(name))
            else:
                rep["digests"][name] = rec["digest"]
        self.probes.append(_host_probe())
        shutil.rmtree(cache_dir)
        for name, digest in rep["digests"].items():
            if name in self.digests:
                self.check(f"{name}:same_digest_every_rep",
                           digest == self.digests[name])
            else:
                self.digests[name] = digest
        return rep


def layer_metrics(rep) -> dict:
    """Per-layer figures of one traced repetition (all its commands)."""
    busy, incl, calls, counts = {}, {}, {}, {}
    queue_wait = unsat_points = unsat_lanes = 0.0
    hits = misses = retries = quarantined = 0
    for child in rep["children"]:
        t = child["trace"]
        for dst, src in ((busy, t["busy"]), (incl, t["incl"]),
                         (calls, t["calls"]), (counts, t["counts"])):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        queue_wait += t["queue_wait_s"]
        hits += child["cache"]["hits"]
        misses += child["cache"]["misses"]
        retries += child["retries"]
        quarantined += child["quarantined"]
        for rec in child["commands"]:
            if rec["kind"] == "fig6":
                unsat_points += rec["unsaturated_points"]
            elif rec["kind"] == "turbo":
                unsat_lanes += rec["unsaturated_points"]
    m = {}
    for name in TIMED_LAYERS:
        m[f"{name}_s"] = busy.get(name, 0.0)
        m[f"{name}.calls"] = calls.get(name, 0)
    cycles = counts.get("sim.cycles", 0)
    lanes = counts.get("batch.lanes", 0)
    points = calls.get("sim.run_point", 0)
    batches = calls.get("batch.run_batch", 0)
    m.update({
        "routing.vcs_used": counts.get("routing.vcs_used", 0),
        "sim.cycles": cycles,
        "sim.host_us_per_cycle":
            1e6 * incl.get("sim.run_point", 0.0) / cycles if cycles else 0.0,
        "sim.useful_point_ratio": unsat_points / points if points else 0.0,
        "batch.lanes": lanes,
        "batch.mean_width": lanes / batches if batches else 0.0,
        "batch.ms_per_lane":
            1e3 * incl.get("batch.run_batch", 0.0) / lanes if lanes else 0.0,
        "batch.useful_lane_ratio": unsat_lanes / lanes if lanes else 0.0,
        "fullsys.runs": counts.get("fullsys.runs", 0),
        "runner.hits": hits,
        "runner.misses": misses,
        "runner.cache_bytes_written": counts.get("runner.cache_bytes_written", 0),
        "runner.retries": retries,
        "runner.quarantined": quarantined,
        "runner.queue_wait_s": queue_wait,
    })
    return m


def _report_groups(workload: str, m: dict) -> None:
    totals = {g: sum(m[f"{n}_s"] for n in names) for g, names in GROUPS.items()}
    expected = EXPECTED_LARGEST[workload]
    combined = sum(totals[g] for g in expected)
    others = {g: v for g, v in totals.items() if g not in expected}
    ok = all(combined > v for v in others.values())
    shares = ", ".join(f"{g} {v:.3f}s" for g, v in sorted(
        totals.items(), key=lambda kv: -kv[1]))
    print(f"[perfbench] {workload} layer busy time: {shares}", file=sys.stderr)
    print(f"[perfbench] {workload}: {'+'.join(expected)} is "
          f"{'' if ok else 'NOT '}the largest layer", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"[perfbench] no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(args.workload, args.seed, work)
    untraced, traced, rep_times = [], [], []
    error = None
    try:
        bench.prepare()
        t0 = time.perf_counter()
        while True:
            t_rep = time.perf_counter()
            untraced.append(bench.rep())
            if args.trace:
                traced.append(bench.rep(trace=True))
                for name, digest in traced[-1]["digests"].items():
                    bench.check(f"{name}:traced_matches_untraced",
                                digest == untraced[-1]["digests"][name])
            rep_times.append(time.perf_counter() - t_rep)
            elapsed = time.perf_counter() - t0
            # Another repetition runs only if it is expected to end nearer
            # to ``--seconds`` than stopping now does.
            if elapsed + statistics.median(rep_times) / 2 > args.seconds:
                break
    except ChildFailed as exc:
        error = exc
        bench.check("command_completed", False)
        print(f"[perfbench] {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    values = {}
    if args.trace and traced:
        per_rep = [layer_metrics(rep) for rep in traced]
        values = {name: statistics.median(r[name] for r in per_rep)
                  for name in per_rep[0]}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in untraced)
        )
        _report_groups(args.workload, values)
    elif not args.trace and untraced:
        values = {name: statistics.median(r[name] for r in untraced)
                  for name in SPEED_SCALED + ("peak_rss_mb",)}
    raw = {name: values[name] for name in SPEED_SCALED if name in values}
    probe_s = statistics.median(bench.probes) if bench.probes else None
    for name in raw:
        values[name] *= PROBE_REF_S / probe_s
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    for i, rep in enumerate(untraced):
        print(f"[perfbench] rep {i}: wall {rep['wall_s']:.3f}s "
              f"cpu {rep['cpu_s']:.3f}s setup {rep['setup_s']:.3f}s "
              f"rss {rep['peak_rss_mb']:.1f}MB (commands: "
              f"{' '.join(f'{w:.2f}s' for w in rep['command_walls'])})",
              file=sys.stderr)

    failed = sum(not ok for _, ok in bench.checks)
    stamp = {
        "workload": args.workload, "seed": args.seed,
        "experiment_seed": bench.seed,
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        **bench.versions,
        "nproc": len(os.sched_getaffinity(0)), "workers": WORKERS,
        "repetitions": len(untraced), "traced_repetitions": len(traced),
        "host_probe_s": probe_s, "unscaled": raw,
    }
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": failed == 0 and error is None and bool(metrics),
        "attempted": max(1, len(bench.checks)),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 and error is None else 1


if __name__ == "__main__":
    raise SystemExit(main())
