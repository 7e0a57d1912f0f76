"""Per-layer counts and busy times for the thzlink benchmark.

The tracer wraps the public functions each module exposes, at the names the
pipeline looks them up by (``thzlink.scenario.absorption_coefficient``,
``thzlink.cli.resolve``, ...), and restores them afterwards; the program's
source is not touched. Spans nest: a span's self time is its duration minus
the time of the traced spans it encloses, so ``scenario.cache_self_s`` is
``get_or_compute`` without the absorption kernel it calls on a miss.
Counts and file sizes are taken after a span ends, outside its time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, layer). A layer's busy time is reported as <layer>_s.
FUNCTIONS = (
    ("thzlink.scenario", "absorption_coefficient", "absorption.kernel"),
    ("thzlink.scenario", "load_catalog", "catalog.load"),
    ("thzlink.scenario", "build_layers", "atmosphere.build_layers"),
    ("thzlink.scenario", "layer_path_segments", "geometry.segments"),
    ("thzlink.scenario", "transmittance", "channel.transmittance"),
    ("thzlink.scenario", "rain_attenuation", "channel.weather"),
    ("thzlink.scenario", "cloud_attenuation", "channel.weather"),
    ("thzlink.scenario", "total_noise_psd", "link.noise"),
    ("thzlink.cli", "resolve", "scenario.resolve"),
    ("thzlink.sweep", "resolve", "scenario.resolve"),
    ("thzlink.cli", "write_outputs", "scenario.write_outputs"),
    ("thzlink.cli", "write_sweep_csv", "sweep.write_csv"),
)

# Reported per-layer metrics, in output order: (name, unit, better).
METRICS = (
    ("absorption.kernel_s", "s", "lower"),
    ("absorption.spectra", "count", "lower"),
    ("absorption.kernel_points", "count", "lower"),
    ("absorption.line_layer_evals", "count", "lower"),
    ("catalog.load_s", "s", "lower"),
    ("catalog.records", "count", "lower"),
    ("atmosphere.build_layers_s", "s", "lower"),
    ("atmosphere.layers", "count", "lower"),
    ("geometry.segments_s", "s", "lower"),
    ("geometry.segments", "count", "lower"),
    ("channel.transmittance_s", "s", "lower"),
    ("channel.weather_s", "s", "lower"),
    ("channel.weather_evals", "count", "lower"),
    ("link.noise_s", "s", "lower"),
    ("link.noise_points", "count", "lower"),
    ("scenario.cache_lookups", "count", "lower"),
    ("scenario.cache_hits", "count", "higher"),
    ("scenario.cache_key_s", "s", "lower"),
    ("scenario.cache_self_s", "s", "lower"),
    ("scenario.cache_files_written", "count", "lower"),
    ("scenario.cache_mb_written", "MB", "lower"),
    ("scenario.resolve_s", "s", "lower"),
    ("scenario.resolve_self_s", "s", "lower"),
    ("scenario.write_outputs_s", "s", "lower"),
    ("sweep.write_csv_s", "s", "lower"),
    ("sweep.csv_mb", "MB", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_MB = 1024.0 * 1024.0


class Tracer:
    """Accumulates per-layer busy time, self time and counts."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list[float]] = []   # per open span: [child time]
        self._restore: list = []

    # -- spans ------------------------------------------------------------

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span for ``layer``; returns its result."""
        self._stack.append([0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = self._stack.pop()[0]
            self.busy[layer] += duration
            self.self_time[layer] += duration - children
            if self._stack:
                self._stack[-1][0] += duration

    def _wrap(self, layer: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            if counter is not None:
                counter(result, *args, **kwargs)
            return result
        return traced

    # -- counters, taken after the span ---------------------------------

    def _count_kernel(self, result, catalog, state, grid, *args, **kwargs):
        self.counts["absorption.spectra"] += 1
        self.counts["absorption.kernel_points"] += result.grid.size
        self.counts["absorption.line_layer_evals"] += len(catalog)

    def _count_records(self, result, source, *args, **kwargs):
        if isinstance(source, (str, Path)):
            with open(source, "rb") as fh:
                self.counts["catalog.records"] += sum(
                    1 for raw in fh if raw.strip())

    def _count_layers(self, result, *args, **kwargs):
        self.counts["atmosphere.layers"] += len(result)

    def _count_segments(self, result, *args, **kwargs):
        self.counts["geometry.segments"] += len(result)

    def _count_weather(self, result, *args, **kwargs):
        self.counts["channel.weather_evals"] += 1

    def _count_noise(self, result, f, sky, rx):
        if sky is not None:
            self.counts["link.noise_points"] += sky.transmittances.size

    def _count_csv(self, result, file, *args, **kwargs):
        if isinstance(file, (str, Path)):
            self.counts["sweep.csv_mb"] += Path(file).stat().st_size / _MB

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace the traced functions; :meth:`uninstall` puts them back."""
        from thzlink.scenario import SpectrumCache

        counters = {
            "absorption.kernel": self._count_kernel,
            "catalog.load": self._count_records,
            "atmosphere.build_layers": self._count_layers,
            "geometry.segments": self._count_segments,
            "channel.weather": self._count_weather,
            "link.noise": self._count_noise,
            "sweep.write_csv": self._count_csv,
        }
        for module_name, attr, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr,
                    self._wrap(layer, original, counters.get(layer)))

        original_key = SpectrumCache.__dict__["key"]
        original_get = SpectrumCache.__dict__["get_or_compute"]
        self._restore.append((SpectrumCache, "key", original_key))
        self._restore.append((SpectrumCache, "get_or_compute", original_get))
        SpectrumCache.key = staticmethod(
            self._wrap("scenario.cache_key", original_key.__func__))
        tracer = self

        @functools.wraps(original_get)
        def get_or_compute(cache, key, compute):
            computed = []

            def counted_compute():
                computed.append(True)
                return compute()

            result = tracer.call("scenario.cache", original_get, cache, key,
                                 counted_compute)
            tracer.counts["scenario.cache_lookups"] += 1
            if not computed:
                tracer.counts["scenario.cache_hits"] += 1
            elif cache.directory is not None:
                tracer.counts["scenario.cache_files_written"] += 1
                size = (cache.directory / f"{key}.npy").stat().st_size
                tracer.counts["scenario.cache_mb_written"] += size / _MB
            return result

        SpectrumCache.get_or_compute = get_or_compute

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- report --------------------------------------------------------------

    def per_pass(self, passes: int) -> dict[str, float]:
        """Every per-layer metric except the overhead, averaged per pass."""
        values = {}
        for name, _, _ in METRICS:
            if name == "trace.overhead_s":
                continue
            if name.endswith("_self_s"):
                total = self.self_time[name[:-len("_self_s")]]
            elif name.endswith("_s"):
                total = self.busy[name[:-2]]
            else:
                total = self.counts[name]
            values[name] = total / passes
        return values
