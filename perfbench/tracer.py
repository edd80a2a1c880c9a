"""Per-layer tracing for the benchmark, installed from outside the program.

``install(out_dir)`` wraps each layer's public functions with a span
recorder.  Nothing in ``src/`` changes: a wrapper replaces the original
everywhere the program looks it up, which means every loaded ``repro``
module attribute bound to the function, the class attribute for methods,
and the entries of ``repro.runner.tasks.TASK_FUNCTIONS`` that
``Runner.run_tasks`` dispatches through.  A missing target raises, so a
rename in ``src/`` fails the traced run instead of silently zeroing a
layer.

Spans nest.  A layer's busy time is its *self* time: the span's duration
minus the time of the spans it encloses, so the layers of one process
add up to that process's traced time without double counting.

Worker processes.  Install before the runner's pool forks, and the
workers inherit the wrappers.  A fork hook clears the inherited
aggregates, and each worker appends what it recorded to
``<out_dir>/w-<pid>.jsonl`` after every runner task.  ``collect()`` in
the main process merges those files with its own record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class Tracer:
    """Span and counter aggregates of one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.stack: List[List[float]] = []  # per open span: [child seconds]
        self.busy: Dict[str, float] = {}  # self seconds
        self.incl: Dict[str, float] = {}  # inclusive seconds
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        #: (kind, start, end) of runner tasks and run_tasks calls.
        self.intervals: List[Tuple[str, float, float]] = []

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def add_busy(self, name: str, seconds: float) -> None:
        self.busy[name] = self.busy.get(name, 0.0) + seconds
        self.incl[name] = self.incl.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
        interval: Optional[str] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            frame = [0.0]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tracer.busy[name] = tracer.busy.get(name, 0.0) + dur - frame[0]
                tracer.incl[name] = tracer.incl.get(name, 0.0) + dur
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if interval is not None:
                    tracer.intervals.append((interval, t0, t1))
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            if interval == "task" and not stack and os.getpid() != tracer.main_pid:
                tracer.flush_worker()
            return result

        return wrapper

    def _snapshot(self) -> Dict[str, Any]:
        return {
            "busy": self.busy, "incl": self.incl, "calls": self.calls,
            "counts": self.counts, "intervals": self.intervals,
        }

    def flush_worker(self) -> None:
        """Append this worker's record since the last flush, then clear it."""
        path = os.path.join(self.out_dir, f"w-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(self._snapshot()) + "\n")
        self._reset()

    def collect(self) -> Dict[str, Any]:
        """This process's record merged with every worker's flushed records."""
        merged = json.loads(json.dumps(self._snapshot()))
        for fname in sorted(os.listdir(self.out_dir)):
            if not (fname.startswith("w-") and fname.endswith(".jsonl")):
                continue
            with open(os.path.join(self.out_dir, fname)) as fh:
                for line in fh:
                    rec = json.loads(line)
                    for key in ("busy", "incl", "calls", "counts"):
                        for name, v in rec[key].items():
                            merged[key][name] = merged[key].get(name, 0) + v
                    merged["intervals"].extend(rec["intervals"])
        merged["queue_wait_s"] = _queue_wait(merged.pop("intervals"))
        return merged


def _queue_wait(intervals: List[List[Any]]) -> float:
    """Time inside ``run_tasks`` calls that no runner task (in any
    process) was computing."""
    tasks = sorted((s, e) for kind, s, e in intervals if kind == "task")
    total = 0.0
    for kind, start, end in intervals:
        if kind != "run_tasks":
            continue
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in tasks:
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        total += (end - start) - covered
    return total


# ---------------------------------------------------------------------------
# What to wrap.
# ---------------------------------------------------------------------------

def _count_vcs(tracer, args, kwargs, result):
    tracer.count("routing.vcs_used", result.num_vcs)


def _count_cycles(tracer, args, kwargs, result):
    from repro.sim import sweep

    bound = inspect.signature(sweep.run_point).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.count(
        "sim.cycles", bound.arguments["warmup"] + bound.arguments["measure"]
    )


def _count_lanes(tracer, args, kwargs, result):
    tracer.count("batch.lanes", len(result))


def _count_runs(tracer, args, kwargs, result):
    tracer.count("fullsys.runs", 1)


def _count_bytes(tracer, args, kwargs, result):
    cache, key = args[0], args[1]
    for path in (cache.zpath_for(key), cache.path_for(key)):
        if os.path.exists(path):
            tracer.count("runner.cache_bytes_written", os.path.getsize(path))
            return


#: (layer name, module, attribute path, result hook).  The attribute path
#: names a module-level function or ``Class.method``.
TARGETS = [
    ("routing.assign_vcs", "repro.routing.vc_alloc", "assign_vcs", _count_vcs),
    ("routing.mclb_route", "repro.core.mclb", "mclb_route", None),
    ("routing.ndbt_route", "repro.routing.ndbt", "ndbt_route", None),
    ("routing.build_routing_table", "repro.routing.tables",
     "build_routing_table", None),
    ("sim.run_point", "repro.sim.sweep", "run_point", _count_cycles),
    # Every engine reaches its compile through CompiledNetwork.for_table
    # (compile_for_engine included); the constructor runs once per compile.
    ("sim.compile_for_engine", "repro.sim.fastnet", "CompiledNetwork.__init__",
     None),
    ("sim.trace", "repro.sim.trace", "TraceStream.next_chunk", None),
    ("sim.trace", "repro.sim.trace", "pregenerate_batch", None),
    ("batch.run_batch", "repro.sim.batch", "run_batch", _count_lanes),
    ("fullsys.run_workload", "repro.fullsys.speedup", "run_workload",
     _count_runs),
    ("runner.task_key", "repro.runner.orchestrator", "task_key", None),
    ("runner.cache_get", "repro.runner.cache", "ResultCache.get", None),
    ("runner.cache_put", "repro.runner.cache", "ResultCache.put", _count_bytes),
    ("runner.encode", "repro.runner.tasks", "encode_table", None),
    ("runner.encode", "repro.runner.tasks", "stats_to_dict", None),
    ("runner.decode", "repro.runner.tasks", "decode_table", None),
    ("runner.decode", "repro.runner.tasks", "stats_from_dict", None),
    ("runner.decode", "repro.runner.tasks", "batch_stats_from_dict", None),
    ("runner.decode", "repro.runner.tasks", "workload_result_from_dict", None),
    ("experiments.roster", "repro.experiments.registry", "roster", None),
]

#: Imported before patching, so that the generic rebinding below reaches
#: every module the measured paths call through.
_PRELOAD = (
    "repro.cli",
    "repro.experiments.registry",
    "repro.experiments.fig6",
    "repro.experiments.fig8",
    "repro.fullsys",
    "repro.fullsys.speedup",
    "repro.fullsys.fastloop",
    "repro.routing",
    "repro.core.mclb",
    "repro.sim",
    "repro.sim.batch",
    "repro.runner",
)


def _rebind(orig: Callable, new: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``orig`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def install(out_dir: str) -> Tracer:
    """Wrap every layer in :data:`TARGETS` and the runner's task functions."""
    for name in _PRELOAD:
        importlib.import_module(name)
    from repro.runner import orchestrator, tasks

    tracer = Tracer(out_dir)
    os.register_at_fork(after_in_child=tracer._reset)
    for layer, mod_name, path, hook in TARGETS:
        mod = importlib.import_module(mod_name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(layer, orig, hook))
            continue
        orig = getattr(mod, path)
        _rebind(orig, tracer.wrap(layer, orig, hook))

    # The dispatch table holds its own references to task functions and
    # decoders; rebuild it from the (now wrapped) module attributes.
    for task_name, (fn, decode) in list(tasks.TASK_FUNCTIONS.items()):
        wrapped_fn = tracer.wrap("runner.task", fn, interval="task")
        _rebind(fn, wrapped_fn)
        decode = getattr(tasks, getattr(decode, "__name__", ""), decode)
        tasks.TASK_FUNCTIONS[task_name] = (wrapped_fn, decode)
    orchestrator.Runner.run_tasks = tracer.wrap(
        "runner.run_tasks", orchestrator.Runner.run_tasks, interval="run_tasks"
    )
    return tracer
