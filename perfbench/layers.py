"""Map code to the benchmark's named layers and bucket profiler self time.

A layer is named after the modules under ``src/repro`` that own it.
Every function's self time (``cProfile``'s ``tottime``) goes to the
layer of the file that defines it; anything defined outside the
``repro`` package (NumPy, the standard library, builtins, and this
benchmark's own wrappers) lands in ``other``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Iterable, Tuple, Union

#: Layer -> (paths relative to the ``repro`` package, excluded paths).
#: An entry ending in ``/`` is a directory prefix; any other entry names
#: one file.  A module belongs to a layer when it matches an entry and
#: no exclusion.  The rules
#: are disjoint; ``tests/test_layers.py`` checks that every module under
#: ``src/repro`` matches exactly one of them.
RULES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "sim": (("sim/",), ()),
    "cluster": (("cluster/",), ()),
    "core.cashmere": (("core/cashmere/",), ()),
    "core.treadmarks": (("core/treadmarks/",), ()),
    "core.hlrc": (("core/hlrc/",), ()),
    "core.common": (
        ("core/__init__.py", "core/base.py", "core/lrc.py",
         "core/intervals.py"),
        (),
    ),
    "core.runtime": (("core/runtime/", "core/fastpath.py"), ()),
    "memory": (("memory/",), ()),
    "apps": (("apps/",), ("apps/kernels.py",)),
    "apps.kernels": (("apps/kernels.py",), ()),
    "stats": (("stats/",), ()),
    "harness": (
        ("harness/", "__init__.py", "api.py", "config.py", "options.py"),
        (),
    ),
    "serving.http": (("serving/server.py", "serving/__init__.py"), ()),
    "serving.codec": (("serving/codec.py",), ()),
    "serving.sched": (
        ("serving/batcher.py", "serving/singleflight.py"),
        (),
    ),
    "serving.client": (("serving/client.py", "serving/loadgen.py"), ()),
}

OTHER = "other"

#: Builtins in which an event loop sleeps waiting for work.  Their time
#: is idle, not any layer's work, and is left out of every layer.
IDLE = frozenset({"<method 'poll' of 'select.epoll' objects>"})

#: Every layer the benchmark reports, in report order.
LAYERS: Tuple[str, ...] = tuple(RULES) + (OTHER,)


def _matches(rel: str, layer: str) -> bool:
    include, exclude = RULES[layer]
    if any(rel.startswith(p) for p in exclude):
        return False
    return any(
        rel == p if p.endswith(".py") else rel.startswith(p)
        for p in include
    )


def matching_layers(rel: str) -> list:
    """Every layer whose rule matches the package-relative path."""
    return [layer for layer in RULES if _matches(rel, layer)]


class LayerMap:
    """Resolve code file names to layers, relative to one ``repro`` root."""

    def __init__(self, package_dir: str) -> None:
        self.root = os.path.realpath(package_dir) + os.sep
        self._memo: Dict[str, str] = {}

    def layer_of(self, filename: str) -> str:
        layer = self._memo.get(filename)
        if layer is not None:
            return layer
        layer = OTHER
        real = os.path.realpath(filename) if filename[:1] not in "~<" else ""
        if real.startswith(self.root):
            rel = real[len(self.root):].replace(os.sep, "/")
            found = matching_layers(rel)
            if len(found) != 1:
                raise ValueError(
                    f"{rel} maps to {found or 'no layer'}, not one layer"
                )
            layer = found[0]
        self._memo[filename] = layer
        return layer


def self_times(
    profile: Union[cProfile.Profile, str], layers: LayerMap
) -> Dict[str, float]:
    """Self seconds per layer from a finished profile or a profile file
    (every layer present, zero where nothing ran; idle waits left out)."""
    out = {layer: 0.0 for layer in LAYERS}
    stats = pstats.Stats(profile)
    for (filename, _line, name), row in stats.stats.items():
        if name not in IDLE:
            out[layers.layer_of(filename)] += row[2]  # tottime
    return out


def add_into(total: Dict[str, float], part: Dict[str, float]) -> None:
    for layer, seconds in part.items():
        total[layer] = total.get(layer, 0.0) + seconds


def package_modules(package_dir: str) -> Iterable[str]:
    """Package-relative paths of every module under ``package_dir``."""
    for dirpath, _dirs, files in os.walk(package_dir):
        for name in files:
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, package_dir).replace(os.sep, "/")


def repro_package_dir() -> str:
    """The directory of the imported ``repro`` package."""
    import repro

    return os.path.dirname(repro.__file__)
