"""Spans around the calls into each sqzmzi layer, recorded from outside.

`Tracer.install` replaces the layer functions at their module attributes
(every sqzmzi module that imported a function by name gets the wrapper too)
and `uninstall` puts the originals back.  A span is
[name, start, end, parent index, raised, value]; spans of one operation are
kept in a list, and `op_metrics` turns them into counts and self times.  A
function that a later version of the package removes or renames is listed in
`absent` and the metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("model", "quadratures", "photostats", "sensitivity", "oracle", "cli")

# private functions whose spans feed a per-layer metric
PRIVATE = {
    "oracle": ("_spawn_streams", "_sample_detector_quadratures", "_propagate", "_moments_of"),
    "cli": ("_write_output",),
}

# one-line formulas called from every layer: a span would cost more than the
# call, so their time stays with the caller
UNWRAPPED = ("model.inefficiency", "model.technical_noise_factor")

RENDER = ("cli.render_csv", "cli.render_json")
CLI_ROOT = "cli.main"
DRAW = "oracle.draw"
STATS_BUILT = "quadratures.QuadratureStats.__post_init__"
MOMENTS_FULL = "oracle._moments_of"
MOMENTS_BATCH = "oracle._moments_of.batch"

# per-layer metric -> (unit, names whose absence makes it absent)
METRICS = {
    "model.validate_calls": ("count/op", ("model.validate",)),
    "model.self_ms": ("ms/op", ("model.validate",)),
    "quadratures.calls": ("count/op", ("quadratures.detector_field_stats",)),
    "quadratures.stats_built": ("count/op", (STATS_BUILT,)),
    "quadratures.self_ms": ("ms/op", ("quadratures.detector_field_stats",)),
    "photostats.calls": ("count/op", ("photostats.photon_second_moments",)),
    "photostats.self_ms": ("ms/op", ("photostats.photon_second_moments",)),
    "sensitivity.points": ("count/op", ("sensitivity.phase_uncertainty",)),
    "sensitivity.self_ms": ("ms/op", ("sensitivity.phase_uncertainty",)),
    "sensitivity.raised": ("count/op", ("sensitivity.phase_uncertainty",)),
    "cli.commands": ("count/op", ()),
    "cli.self_ms": ("ms/op", ()),
    "cli.render_ms": ("ms/op", RENDER),
    "cli.output_bytes": ("B/op", ("cli._write_output",)),
    "oracle.runs": ("count/op", ("oracle.run",)),
    "oracle.samples": ("count/op", ("oracle.run",)),
    "oracle.normals_drawn": ("count/op", ("oracle._spawn_streams",)),
    "oracle.draws_per_unique": ("ratio", ("oracle.run", "oracle._spawn_streams")),
    "oracle.draw_ms": ("ms/op", ("oracle._spawn_streams",)),
    "oracle.propagate_ms": ("ms/op", ("oracle._propagate",)),
    "oracle.run_self_ms": ("ms/op", ("oracle.run",)),
    "oracle.moments_ms": ("ms/op", ("oracle._moments_of",)),
    "oracle.batch_se_ms": ("ms/op", ("oracle._moments_of",)),
    "oracle.peak_alloc_mib": ("MiB", ("oracle.run",)),
}

# every name a metric depends on must be installed, or it is reported absent
EXPECTED = sorted({name for _, names in METRICS.values() for name in names})


class _CountingStream:
    """Stands in for a numpy Generator and records each standard_normal draw."""

    def __init__(self, tracer: "Tracer", gen) -> None:
        self._tracer = tracer
        self._gen = gen

    def standard_normal(self, size):
        return self._tracer.call(DRAW, self._gen.standard_normal, (size,), {}, value=size)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Records spans while `recording` is set; `install` puts the wrappers in."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.layers: list[str] = []
        self.recording = False
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._runs: list[int] = []  # sample counts of the open oracle.run spans
        self.alloc_measured = False

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        if not self.recording:
            return -1
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, False, 0])
        self.stack.append(i)
        self.layers.append(name.split(".", 1)[0])
        return i

    def close(self, i: int, raised: bool = False, value=0) -> None:
        if i < 0:
            return
        span = self.spans[i]
        span[2] = time.perf_counter()
        span[4] = raised
        span[5] = value
        self.stack.pop()
        self.layers.pop()

    def call(self, name: str, fn, args, kwargs, value=0):
        """fn(*args, **kwargs) inside a span."""
        i = self.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.close(i, raised=True)
            raise
        self.close(i, value=value)
        return out

    def begin_op(self) -> None:
        self.spans, self.stack, self.layers = [], [], []
        self.recording = True

    def end_op(self) -> list[list]:
        self.recording = False
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers ------------------------------------------------------------
    def _boundary(self, name: str, fn):
        """A span only where the call crosses into the layer from outside it;
        calls within a layer add nothing to its self time, only overhead."""
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording or (tracer.layers and tracer.layers[-1] == layer):
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs)

        return traced

    def _always(self, name: str, fn, value=None):
        """A span on every call; value(args) is stored with it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, value(args) if value else 0)

        return traced

    def _generator(self, name: str, fn):
        """A span around each step of the generator."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                i = tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.close(i)
                    return
                except BaseException:
                    tracer.close(i, raised=True)
                    raise
                tracer.close(i)
                yield item

        return traced

    def _oracle_run(self, name: str, fn):
        """Records (samples, seed, tracemalloc peak in MiB) with the span.

        tracemalloc more than doubles the cost of a run, so only the first
        traced run measures its peak; the others record 0."""
        tracer = self

        @functools.wraps(fn)
        def traced(params, phi, config, *args, **kwargs):
            i = tracer.open(name)
            if i < 0:
                return fn(params, phi, config, *args, **kwargs)
            tracer._runs.append(config.n_samples)
            measure = not tracer.alloc_measured
            if measure:
                tracemalloc.start()
            peak = 0.0
            raised = True
            try:
                out = fn(params, phi, config, *args, **kwargs)
                raised = False
                return out
            finally:
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.alloc_measured = True
                tracer._runs.pop()
                tracer.close(i, raised=raised, value=(config.n_samples, config.seed, peak))

        return traced

    def _moments_of(self, fn):
        """Full-sample moments and batch moments get separate span names."""
        tracer = self

        @functools.wraps(fn)
        def traced(n1, n2):
            full = not tracer._runs or n1.size == tracer._runs[-1]
            return tracer.call(MOMENTS_FULL if full else MOMENTS_BATCH, fn, (n1, n2), {})

        return traced

    def _spawn_streams(self, name: str, fn):
        """Hands out counting stand-ins for the per-channel generators."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            streams = tracer.call(name, fn, args, kwargs)
            if not tracer.recording:
                return streams
            return {ch: _CountingStream(tracer, gen) for ch, gen in streams.items()}

        return traced

    def _wrapper(self, name: str, fn):
        if name == "oracle.run":
            return self._oracle_run(name, fn)
        if name == "oracle._moments_of":
            return self._moments_of(fn)
        if name == "oracle._spawn_streams":
            return self._spawn_streams(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._generator(name, fn)
        if name == "cli._write_output":
            return self._always(name, fn, value=lambda args: len(args[0].encode()))
        if name in RENDER or name.startswith("oracle."):
            return self._always(name, fn)
        return self._boundary(name, fn)

    def install(self) -> None:
        """Wrap the public functions of every layer plus the named private ones."""
        package = [m for n, m in list(sys.modules.items()) if n == "sqzmzi" or n.startswith("sqzmzi.")]
        installed = set()
        for layer in LAYERS:
            module = sys.modules.get(f"sqzmzi.{layer}")
            if module is None:
                continue
            targets = {
                attr: fn
                for attr, fn in vars(module).items()
                if inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and (not attr.startswith("_") or attr in PRIVATE.get(layer, ()))
                and f"{layer}.{attr}" not in UNWRAPPED
            }
            for attr, fn in targets.items():
                name = f"{layer}.{attr}"
                wrapped = self._wrapper(name, fn)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapped)
                installed.add(name)
            if layer == "quadratures" and hasattr(module, "QuadratureStats"):
                cls = module.QuadratureStats
                post = cls.__dict__.get("__post_init__")
                if post is not None:
                    self._patch(cls, "__post_init__", self._always(STATS_BUILT, post))
                    installed.add(STATS_BUILT)
        self.absent = [name for name in EXPECTED if name not in installed]

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def op_metrics(spans: list[list]) -> dict[str, float]:
    """Counts and self times (ms) of one operation's spans.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the benchmark is single-threaded.
    """
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
    by_name: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    out: dict[str, float] = defaultdict(float)
    unique_draws: set[tuple[int, int]] = set()
    for s, own in zip(spans, self_s):
        name = s[0]
        by_name[name] += own
        count[name] += 1
        layer = name.split(".", 1)[0]
        if name not in RENDER and name != STATS_BUILT and layer != "oracle":
            layer_self[layer] += own
        if name not in (CLI_ROOT, STATS_BUILT, DRAW):
            layer_calls[layer] += 1
        if name == "sensitivity.phase_uncertainty" and s[4]:
            out["sensitivity.raised"] += 1
        if name == "cli._write_output":
            out["cli.output_bytes"] += s[5]
        if name == DRAW:
            out["oracle.normals_drawn"] += s[5]
        if name == "oracle.run":
            n, seed, peak = s[5]
            out["oracle.samples"] += n
            unique_draws.add((n, seed))
            out["oracle.peak_alloc_mib"] = max(out["oracle.peak_alloc_mib"], peak)
    # stats construction is quadratures work even though it is not a call
    layer_self["quadratures"] += by_name.get(STATS_BUILT, 0.0)
    out["model.validate_calls"] = count["model.validate"]
    out["model.self_ms"] = 1e3 * layer_self["model"]
    out["quadratures.calls"] = layer_calls["quadratures"]
    out["quadratures.stats_built"] = count[STATS_BUILT]
    out["quadratures.self_ms"] = 1e3 * layer_self["quadratures"]
    out["photostats.calls"] = layer_calls["photostats"]
    out["photostats.self_ms"] = 1e3 * layer_self["photostats"]
    out["sensitivity.points"] = count["sensitivity.phase_uncertainty"]
    out["sensitivity.self_ms"] = 1e3 * layer_self["sensitivity"]
    out["cli.commands"] = count[CLI_ROOT]
    out["cli.self_ms"] = 1e3 * layer_self["cli"]
    out["cli.render_ms"] = 1e3 * sum(by_name.get(n, 0.0) for n in RENDER)
    out["oracle.runs"] = count["oracle.run"]
    out["oracle.draw_ms"] = 1e3 * by_name.get(DRAW, 0.0)
    out["oracle.propagate_ms"] = 1e3 * by_name.get("oracle._propagate", 0.0)
    out["oracle.run_self_ms"] = 1e3 * by_name.get("oracle.run", 0.0)
    out["oracle.moments_ms"] = 1e3 * by_name.get(MOMENTS_FULL, 0.0)
    out["oracle.batch_se_ms"] = 1e3 * by_name.get(MOMENTS_BATCH, 0.0)
    # normals drawn per normal a fresh (seed, n) needs: 12 channels x n samples
    out["_unique_normals"] = sum(12 * n for n, _ in unique_draws)
    return dict(out)
