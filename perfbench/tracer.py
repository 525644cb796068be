"""Span tracing for the benchmark, installed from outside the package.

The tracer swaps timing wrappers in for public names at the places where
other modules look them up (``solver.svt``, the ``solve`` bound in
``harness`` and ``cli``, ``HankelLift.lift`` ...), runs the workload, and
puts the originals back.  Nothing under ``src/`` knows it is being traced.

Spans are kept in memory as ``(id, parent, name, thread, trial, start, end)``
and reduced only at the end.  A span's self time is its duration minus the
union of the intervals its child spans cover; spans that start on a pool
thread with nothing open on that thread are children of the entry span
the benchmark called, so pool work is not counted twice.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time

# Span name -> where it is looked up: (module, class or None, attribute,
# whether entering it starts a new trial on this thread).
TARGETS = {
    "harness.run_phase_transition": [
        ("hankel_recover", None, "run_phase_transition", False),
        ("hankel_recover.cli", None, "run_phase_transition", False),
    ],
    "harness.run_norm_scan": [
        ("hankel_recover", None, "run_norm_scan", False),
        ("hankel_recover.cli", None, "run_norm_scan", False),
    ],
    "cli.main": [("hankel_recover.cli", None, "main", True)],
    "solver.solve": [
        ("hankel_recover.harness", None, "solve", False),
        ("hankel_recover.cli", None, "solve", False),
    ],
    "solver.svt": [("hankel_recover.solver", None, "svt", False)],
    "solver.success": [
        ("hankel_recover.harness", None, "success", False),
        ("hankel_recover.cli", None, "success", False),
    ],
    "measurement.sample_ensemble": [
        ("hankel_recover.harness", None, "sample_ensemble", False),
        ("hankel_recover.cli", None, "sample_ensemble", False),
    ],
    "measurement.measure": [
        ("hankel_recover.harness", None, "measure", False),
        ("hankel_recover.cli", None, "measure", False),
    ],
    "measurement.project_affine": [("hankel_recover.solver", None, "project_affine", False)],
    "measurement.project_ball": [("hankel_recover.solver", None, "project_ball", False)],
    "hankel.lift": [
        ("hankel_recover.hankel", "HankelLift", "lift", False),
        # run_norm_scan lifts once per sample, so each call is one trial.
        ("hankel_recover.harness", None, "lift", True),
    ],
    "hankel.lift_adjoint": [("hankel_recover.hankel", "HankelLift", "lift_adjoint", False)],
    "modal.random_instance": [
        # The first call of every phase-transition trial.
        ("hankel_recover.harness", None, "random_instance", True),
        ("hankel_recover.cli", None, "random_instance", False),
    ],
    "modal.synthesize": [
        ("hankel_recover.harness", None, "synthesize", False),
        ("hankel_recover.cli", None, "synthesize", False),
    ],
    "modal.matrix_pencil": [("hankel_recover.cli", None, "matrix_pencil", False)],
}

SPAN_NAMES = tuple(TARGETS)

# Enough to compare solver results between a traced and an untraced pass.
RESULT_SPANS = ("solver.solve", "solver.success")


class Tracer:
    """Context manager that wraps the named spans while it is open.

    ``solves`` collects ``(iterations, converged)`` of every solve and
    ``outcomes`` ``(converged, success)`` of every success check, so that
    passes with different wrappers can be compared on results.
    """

    def __init__(self, names=SPAN_NAMES):
        self.names = tuple(names)
        self.spans = []
        self.solves = []
        self.outcomes = []
        self._ids = itertools.count()
        self._trials = itertools.count()
        self._local = threading.local()
        self._root = None
        self._saved = []

    def __enter__(self):
        for name in self.names:
            for module, cls, attr, starts_trial in TARGETS[name]:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls, None)
                # A name the program no longer binds stays unwrapped, so its
                # span reads as missing rather than as zero time.
                if owner is None or attr not in vars(owner):
                    continue
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, starts_trial))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, starts_trial):
        tracer = self
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if starts_trial:
                local.trial = next(tracer._trials)
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._root
            if parent is None:
                tracer._root = sid
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if tracer._root == sid:
                    tracer._root = None
                tracer.spans.append(
                    (sid, parent, name, threading.get_ident(), getattr(local, "trial", None), start, end)
                )
            if name == "solver.solve":
                tracer.solves.append((int(result.iterations), bool(result.converged)))
            elif name == "solver.success":
                tracer.outcomes.append((bool(args[0].converged), bool(result)))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def layer_table(self):
        """Per span name: ``(calls, self seconds, mean inclusive microseconds)``."""
        children = {}
        for sid, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        table = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for sid, _, name, _, _, start, end in self.spans:
            row = table[name]
            row[0] += 1
            row[1] += (end - start) - _union_length(children.get(sid, ()))
            row[2] += end - start
        return {
            name: (calls, self_s, inclusive / calls * 1e6 if calls else None)
            for name, (calls, self_s, inclusive) in table.items()
        }

    def parallel_efficiency(self):
        """``(workers, efficiency)`` over the phase-transition calls, or None.

        Workers is the largest number of threads that ran trials inside one
        call; efficiency is the summed span of every trial (first span start
        to last span end) over workers times the calls' wall time.
        """
        calls = [s for s in self.spans if s[2] == "harness.run_phase_transition"]
        if not calls:
            return None
        by_id = {s[0]: s for s in self.spans}
        call_ids = {s[0] for s in calls}
        trials = {}
        for span in self.spans:
            top = span
            while top[1] is not None and top[1] not in call_ids:
                top = by_id[top[1]]
            if top[1] is None or span[4] is None:
                continue
            key = (top[1], span[4])
            lo, hi, thread = trials.get(key, (span[5], span[6], span[3]))
            trials[key] = (min(lo, span[5]), max(hi, span[6]), thread)
        workers = max(
            len({thread for (call, _), (_, _, thread) in trials.items() if call == cid})
            for cid in call_ids
        )
        if workers == 0:
            return None
        busy = sum(hi - lo for lo, hi, _ in trials.values())
        wall = sum(s[6] - s[5] for s in calls)
        return workers, busy / (workers * wall)


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
