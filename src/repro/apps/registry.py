"""Application registry: name -> factory, with paper-scale and test-scale
parameter presets.

``make_app(name, scale)`` builds one of the six paper applications:

* ``scale="paper"`` — the input sizes of Section 4.2 (64K keys, 512
  molecules, 1M-point FFT, 258² Ocean grid ...); slow under simulation.
* ``scale="bench"`` — reduced sizes preserving the sharing/synchronization
  structure, used by the benchmark harness (minutes, not hours).
* ``scale="test"`` — small sizes for the test suite (seconds).

:func:`register_app` adds a named preset table, making the new app a
first-class citizen of ``repro run/check/sweep``.  Prefixed app ids
resolve inside :func:`make_app`, so they flow through the sweep cache and
the multiprocessing fan-out unchanged: ``fuzz:SEED`` (generated
workload), ``trace:PATH`` (recorded-trace replay) and ``image:INNER``
(wrap any app id in a final-memory-capturing oracle shim).
"""
from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.apps.api import Application

if TYPE_CHECKING:
    from repro.config import SimConfig
from repro.apps.fft import FFTApp
from repro.apps.is_sort import ISApp
from repro.apps.ocean import OceanApp
from repro.apps.raytrace import RaytraceApp
from repro.apps.water_nsquared import WaterNsquaredApp
from repro.apps.water_spatial import WaterSpatialApp

_PRESETS: Dict[str, Dict[str, Callable[[], Application]]] = {
    "is": {
        "paper": lambda: ISApp(num_keys=65536, num_buckets=1024,
                               repetitions=5),
        "bench": lambda: ISApp(num_keys=16384, num_buckets=1024,
                               repetitions=5),
        "test": lambda: ISApp(num_keys=2048, num_buckets=256,
                              repetitions=2),
    },
    "raytrace": {
        "paper": lambda: RaytraceApp(tasks_per_proc=64, pixels_per_task=16,
                                     scene_words=16384),
        "bench": lambda: RaytraceApp(tasks_per_proc=32, pixels_per_task=16,
                                     scene_words=8192),
        "test": lambda: RaytraceApp(tasks_per_proc=8, pixels_per_task=4,
                                    scene_words=2048),
    },
    "water-ns": {
        "paper": lambda: WaterNsquaredApp(num_molecules=512, steps=5),
        "bench": lambda: WaterNsquaredApp(num_molecules=128, steps=3),
        "test": lambda: WaterNsquaredApp(num_molecules=48, steps=2),
    },
    "fft": {
        "paper": lambda: FFTApp(sqrt_n=1024),
        "bench": lambda: FFTApp(sqrt_n=64),
        "test": lambda: FFTApp(sqrt_n=16),
    },
    "ocean": {
        "paper": lambda: OceanApp(grid=258, iterations=450),
        "bench": lambda: OceanApp(grid=66, iterations=60),
        "test": lambda: OceanApp(grid=34, iterations=8),
    },
    "water-sp": {
        "paper": lambda: WaterSpatialApp(num_molecules=512, steps=5),
        "bench": lambda: WaterSpatialApp(num_molecules=256, steps=5),
        "test": lambda: WaterSpatialApp(num_molecules=64, steps=2),
    },
}

APP_NAMES = tuple(_PRESETS)
SCALES = ("paper", "bench", "test")


def register_app(name: str,
                 presets: Dict[str, Callable[[], Application]]) -> None:
    """Register (or replace) a named app with per-scale factories."""
    global APP_NAMES
    missing = [s for s in SCALES if s not in presets]
    if missing:
        raise ValueError(f"app {name!r} presets missing scales {missing}")
    _PRESETS[name] = dict(presets)
    APP_NAMES = tuple(_PRESETS)


def _resolve_fuzz(rest: str, scale: str,
                  config: Optional["SimConfig"]) -> Application:
    from repro.fuzz.generator import GeneratedApp, generate_spec, load_spec
    if config is not None and config.workload is not None:
        spec = config.workload
        # the id and the config must agree on which workload this is —
        # a mismatch means a stale config was reused for a different cell
        if rest not in (str(spec.seed), spec.name, f"fuzz:{spec.seed}"):
            raise ValueError(
                f"app id 'fuzz:{rest}' does not match config.workload "
                f"(seed {spec.seed})")
        return GeneratedApp(spec)
    if rest.isdigit() or (rest.startswith("-") and rest[1:].isdigit()):
        return GeneratedApp(generate_spec(int(rest), scale))
    return GeneratedApp(load_spec(rest, scale))


def _resolve_trace(rest: str, scale: str,
                   config: Optional["SimConfig"]) -> Application:
    from repro.fuzz.trace import TraceApp
    return TraceApp(rest)


def _resolve_image(rest: str, scale: str,
                   config: Optional["SimConfig"]) -> Application:
    from repro.check.oracle import MemoryImageApp
    return MemoryImageApp(make_app(rest, scale, config=config))


#: prefix -> resolver(rest, scale, config) for ``prefix:rest`` app ids
_RESOLVERS: Dict[str, Callable[..., Application]] = {
    "fuzz": _resolve_fuzz, "trace": _resolve_trace, "image": _resolve_image}


def make_app(name: str, scale: str = "bench",
             config: Optional["SimConfig"] = None) -> Application:
    """Build the application named ``name`` at ``scale``.

    ``name`` is either a preset key (``"is"``, ``"ocean"``, ...) or a
    prefixed id handled by a registered resolver (``"fuzz:17"``,
    ``"trace:run.jsonl"``, ``"image:fuzz:17"``).  ``config`` is consulted
    only by resolvers (e.g. ``fuzz:`` prefers ``config.workload``).
    """
    prefix, _, rest = name.partition(":")
    if rest and prefix in _RESOLVERS:
        return _RESOLVERS[prefix](rest, scale, config)
    try:
        presets = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown app {name!r}; choose from {APP_NAMES}") \
            from None
    if scale not in presets:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    return presets[scale]()
