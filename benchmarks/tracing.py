"""Per-layer spans recorded from outside the program.

The layers are measrep's modules. ``Tracer.install`` wraps each public
function of each layer module, and ``coding.BlockCode.decode``, and
rebinds every module attribute in the ``measrep`` package that holds
the original function. ``vnsynth`` imports ``tensor`` by name from
``qcore``, so both bindings get the wrapper; calls that go through
module globals, such as ``_eval_assignment`` calling
``solve_box_quadratic_qubit``, reach it too. ``uninstall`` restores
every binding.

A span records its name, start, end, parent span and job id. Spans are
kept in memory and written out when the run ends. A span's self time is
its duration minus the durations of its child spans; calls are nested
and single-threaded, so children never overlap.

``dagger``, ``identity``, ``frobenius`` and ``density`` are not wrapped:
each call costs less than a span would, and they sit inside the
search's per-candidate loop.

``tracemalloc`` runs only inside ``hill_climb_search`` and
``simulate_block_protocol``, and only in a separate allocation phase
after the traced pass: the job holding each function's longest traced
call runs once more with ``tracemalloc`` on around that function. It
slows the hill climb's many small Python allocations about threefold,
so keeping it out of the traced pass keeps span times honest. numpy
reports its array allocations to ``tracemalloc``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "io", "qcore", "vnsynth", "rms", "subroutines", "coding")
UNWRAPPED = {"qcore.dagger", "qcore.identity", "qcore.frobenius", "qcore.density"}
ALLOC_SPANS = {"vnsynth.hill_climb_search", "coding.simulate_block_protocol"}
SEARCH_SPANS = ("vnsynth.exhaustive_search", "vnsynth.hill_climb_search")

# Per-layer metrics of one pass over the job list: (name, unit, better).
PER_LAYER = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("io.load_measurement.calls", "count", "lower"),
    ("io.load_measurement.s", "s", "lower"),
    ("qcore.tensor.calls", "count", "lower"),
    ("qcore.tensor.s", "s", "lower"),
    ("qcore.hermitian_eig.calls", "count", "lower"),
    ("qcore.hermitian_eig.s", "s", "lower"),
    ("qcore.haar_states.s", "s", "lower"),
    ("qcore.validate_povm.s", "s", "lower"),
    ("vnsynth.hill_climb_search.calls", "count", "lower"),
    ("vnsynth.hill_climb_search.s", "s", "lower"),
    ("vnsynth.hill_climb_search.peak_alloc_mb", "MB", "lower"),
    ("vnsynth.exhaustive_search.calls", "count", "lower"),
    ("vnsynth.exhaustive_search.s", "s", "lower"),
    ("vnsynth.solve_box_quadratic_qubit.calls", "count", "lower"),
    ("vnsynth.partitions_per_s", "1/s", "higher"),
    ("vnsynth.build_partition_povm.s", "s", "lower"),
    ("vnsynth.construct_states.s", "s", "lower"),
    ("vnsynth.implemented_povm.s", "s", "lower"),
    ("rms.rms_monte_carlo_povm.calls", "count", "lower"),
    ("rms.rms_monte_carlo_povm.s", "s", "lower"),
    ("rms.samples_per_s", "1/s", "higher"),
    ("subroutines.cloning_error_rate.calls", "count", "lower"),
    ("subroutines.cloning_error_rate.s", "s", "lower"),
    ("subroutines.run_post_measurement.calls", "count", "lower"),
    ("subroutines.run_post_measurement.s", "s", "lower"),
    ("subroutines.select_cloning_basis.s", "s", "lower"),
    ("subroutines.chernoff_information.s", "s", "lower"),
    ("coding.blahut_arimoto.calls", "count", "lower"),
    ("coding.blahut_arimoto.s", "s", "lower"),
    ("coding.blahut_arimoto.iterations", "count", "lower"),
    ("coding.simulate_block_protocol.calls", "count", "lower"),
    ("coding.simulate_block_protocol.s", "s", "lower"),
    ("coding.simulate_block_protocol.peak_alloc_mb", "MB", "lower"),
    ("coding.BlockCode.decode.s", "s", "lower"),
    ("coding.exact_repetition_error.s", "s", "lower"),
    ("coding.random_codebook.s", "s", "lower"),
    ("coding.trials_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def _bound_arg(fn, name):
    sig = inspect.signature(fn)
    return lambda args, kwargs, result: sig.bind(*args, **kwargs).arguments[name]


# Work counted at a span, from its arguments or result.
COUNTERS = {
    "rms.rms_monte_carlo_povm": ("samples", lambda fn: _bound_arg(fn, "samples")),
    "coding.simulate_block_protocol": ("trials", lambda fn: _bound_arg(fn, "trials")),
    "coding.blahut_arimoto": (
        "iterations", lambda fn: lambda args, kwargs, result: result.iterations),
}


class Tracer:
    """Wraps measrep's layer functions and records one span per call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.counts = defaultdict(float)  # (span name, counter) -> total
        self.peaks = defaultdict(float)  # span name -> largest tracemalloc peak
        self.job = -1
        self.alloc_phase = False  # True: only measure ALLOC_SPANS peaks
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self
        alloc = name in ALLOC_SPANS
        counter = None
        if name in COUNTERS:
            label, make = COUNTERS[name]
            counter = (label, make(fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.alloc_phase:
                if not alloc:
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peaks[name] = max(tracer.peaks[name], peak / 2**20)
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if counter is not None:
                tracer.counts[name, counter[0]] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, fn, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "measrep"
                                   or mod_name.startswith("measrep.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def install(self, measrep) -> None:
        for layer in LAYERS:
            mod = getattr(measrep, layer)
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._rebind(fn, self._wrap(name, fn))
        block_code = measrep.coding.BlockCode
        self._undo.append((block_code, "decode", block_code.decode))
        block_code.decode = self._wrap("coding.BlockCode.decode", block_code.decode)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def alloc_jobs(self) -> list:
        """Job ids holding the longest traced call of each ALLOC_SPANS name."""
        longest = {}
        for name, start, end, _, job in self.spans:
            if name in ALLOC_SPANS and end - start > longest.get(name, (-1.0, 0))[0]:
                longest[name] = (end - start, job)
        return sorted({job for _, job in longest.values()})

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")

    def summary(self) -> dict:
        """Calls, total and self seconds per span name.

        Totals count only the outermost span of a name, so a function
        that reaches itself through another layer is not counted twice.
        """
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)  # span index -> time in direct children
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        self_s = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if not self._has_ancestor(parent, (name,)):
                total[name] += end - start
        return {name: {"calls": calls[name], "s": total[name], "self_s": self_s[name]}
                for name in calls}

    def _has_ancestor(self, index, names) -> bool:
        while index >= 0:
            if self.spans[index][0] in names:
                return True
            index = self.spans[index][3]
        return False

    def scored_in_search(self) -> int:
        """Partitions scored inside the exhaustive and hill-climb searches."""
        return sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "vnsynth.solve_box_quadratic_qubit"
            and self._has_ancestor(parent, SEARCH_SPANS)
        )

    def per_layer(self, passes: int, overhead_frac: float) -> dict:
        """Every ``PER_LAYER`` metric, per pass over the job list."""
        spans = self.summary()

        def stat(name, key):
            return spans.get(name, {}).get(key, 0) / passes

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        search_s = sum(stat(n, "s") for n in SEARCH_SPANS)
        out = {}
        for metric, _, _ in PER_LAYER:
            base, _, key = metric.rpartition(".")
            if key in ("calls", "s", "self_s"):
                out[metric] = stat(base, key)
            elif key == "peak_alloc_mb":
                out[metric] = self.peaks.get(base, 0.0)
        out["vnsynth.partitions_per_s"] = rate(self.scored_in_search() / passes,
                                               search_s)
        out["rms.samples_per_s"] = rate(
            self.counts["rms.rms_monte_carlo_povm", "samples"] / passes,
            stat("rms.rms_monte_carlo_povm", "s"))
        out["coding.blahut_arimoto.iterations"] = (
            self.counts["coding.blahut_arimoto", "iterations"] / passes)
        out["coding.trials_per_s"] = rate(
            self.counts["coding.simulate_block_protocol", "trials"] / passes,
            stat("coding.simulate_block_protocol", "s"))
        out["trace.overhead_frac"] = overhead_frac
        return out
