"""Layer spans for a traced benchmark run, recorded from outside the program.

Each traced name is replaced where its caller looks it up (`sweep` and `cli`
import functions by name, so `sweep.measure_epsilons` and
`noise.measure_epsilons` are different lookups).  A name that no longer
exists is skipped and its metrics are reported as absent, so deleting a
function never breaks the benchmark.

Spans nest on one stack.  A span's self time is its duration minus the time
its child spans cover; the self times of all layers add up to the root span.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

LAYERS = ("cli", "sweep", "noise", "gates", "statevector", "hardy", "selftest")

# Spans whose individual durations are kept, for percentiles.
PERCENTILE_SPANS = ("noise.point",)


def _steps(result, args, kwargs) -> int:
    return len(result.steps)


def _rows(result, args, kwargs) -> int:
    return len(result)


def _bytes_written(result, args, kwargs) -> int:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# (module, attribute path, span name, layer, counter of work done)
SPANS = (
    ("hardysim.cli", "diagonal_sweep", "sweep.sweep", "sweep", None),
    ("hardysim.cli", "surface_sweep", "sweep.sweep", "sweep", None),
    ("hardysim.cli", "write_csv", "sweep.csv_write", "sweep", _bytes_written),
    ("hardysim.cli", "read_csv", "sweep.csv_read", "sweep", _rows),
    ("hardysim.cli", "performance_report", "sweep.report", "sweep", None),
    ("hardysim.cli", "run_validation_suites", "selftest.suites", "selftest", None),
    ("hardysim.sweep", "measure_epsilons", "noise.point", "noise", None),
    ("hardysim.noise", "simulate_noisy", "noise.simulate", "noise", None),
    ("hardysim.noise", "depolarizing_kraus", "noise.kraus", "noise", None),
    ("hardysim.noise", "sample_shots", "noise.sample", "noise", None),
    ("hardysim.noise", "estimate_epsilons", "noise.estimate", "noise", None),
    ("hardysim.noise", "experiment_circuit", "gates.circuit_build", "gates", _steps),
    ("hardysim.noise", "apply_channel", "statevector.channel", "statevector", None),
    ("hardysim.hardy", "apply_gate", "statevector.gate", "statevector", None),
    ("hardysim.statevector", "apply_gate", "statevector.gate", "statevector", None),
    ("hardysim.selftest", "circuit_unitary", "statevector.unitary", "statevector", None),
    # One class object serves every caller, so it is replaced once.
    ("hardysim.hardy", "HardyParams.from_degrees", "hardy.params", "hardy", None),
    ("hardysim.selftest", "hardy_vector", "hardy.vector", "hardy", None),
)

# Calls counted without a span: (module, attribute path, counter name).
# `noise` reaches numpy through its own `np` name; only that lookup is counted.
COUNTERS = (("hardysim.noise", "np.random.default_rng", "noise.rng"),)


class _Delegate:
    """Stand-in for a module: overrides some attributes, forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Aggregates span durations, call counts, self times and work counts."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.durations = {name: [] for name in PERCENTILE_SPANS}
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self.layer_of: dict[str, str] = {}

    def wrap(self, fn, name: str, layer: str, counter=None):
        stack, clock = self._stack, time.perf_counter
        self.layer_of[name] = layer
        kept = self.durations[name] if name in PERCENTILE_SPANS else None

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[0]
                self.calls[name] += 1
                if kept is not None:
                    kept.append(elapsed)
            if counter is not None:
                self.work[name] += counter(result, args, kwargs)
            return result

        return traced

    def count(self, fn, name: str):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace every traced and counted name that still exists."""
        for module, path, name, layer, counter in SPANS:
            if self._replace(module, path, lambda fn: self.wrap(fn, name, layer, counter)):
                self.installed.add(name)
        for module, path, name in COUNTERS:
            if self._replace(module, path, lambda fn: self.count(fn, name)):
                self.installed.add(name)

    def _replace(self, module: str, path: str, make) -> bool:
        names = path.split(".")
        try:
            objs = [importlib.import_module(module)]
        except ModuleNotFoundError:
            self.missing.append(f"{module}.{path}")
            return False
        for name in names:
            objs.append(getattr(objs[-1], name, None))
        if objs[-1] is None:
            self.missing.append(f"{module}.{path}")
            return False
        holder, attr = objs[-2], names[-1]
        if isinstance(holder, type):
            raw = vars(holder)[attr]
            if isinstance(raw, classmethod):
                setattr(holder, attr, classmethod(make(raw.__func__)))
            else:
                setattr(holder, attr, make(raw))
            return True
        # A name reached through module attributes (`noise.np.random`) is
        # replaced by delegates, so only this caller's lookup changes.
        replacement = make(objs[-1])
        for depth in range(len(names) - 1, 0, -1):
            replacement = _Delegate(objs[depth], **{names[depth]: replacement})
        setattr(objs[0], names[0], replacement)
        return True

    def summary(self) -> dict:
        """Plain-data aggregates for the parent process."""
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_time.items():
            layer_self[self.layer_of[name]] += seconds
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "layer_self": layer_self,
            "calls": dict(self.calls),
            "work": dict(self.work),
            "durations": self.durations,
            "installed": sorted(self.installed),
            "missing": self.missing,
        }

