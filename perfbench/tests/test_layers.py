"""The layer map: complete, disjoint, and faithful to wall time."""

import cProfile
import json
import os
import time

import numpy

from layers import (
    LAYERS,
    OTHER,
    LayerMap,
    matching_layers,
    package_modules,
    repro_package_dir,
    self_times,
)

PACKAGE = repro_package_dir()
BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)


def test_every_module_maps_to_exactly_one_layer():
    modules = list(package_modules(PACKAGE))
    assert len(modules) > 50
    for rel in modules:
        assert len(matching_layers(rel)) == 1, (rel, matching_layers(rel))


def test_every_named_layer_owns_a_module():
    owned = {matching_layers(rel)[0] for rel in package_modules(PACKAGE)}
    assert owned == set(LAYERS) - {OTHER}


def test_only_frames_outside_repro_land_in_other():
    layers = LayerMap(PACKAGE)
    for rel in package_modules(PACKAGE):
        assert layers.layer_of(os.path.join(PACKAGE, rel)) != OTHER, rel
    for outside in (numpy.__file__, json.__file__, __file__, "~", "<string>"):
        assert layers.layer_of(outside) == OTHER, outside


def test_kernels_are_their_own_layer():
    layers = LayerMap(PACKAGE)
    assert layers.layer_of(os.path.join(PACKAGE, "apps", "kernels.py")) == "apps.kernels"
    assert layers.layer_of(os.path.join(PACKAGE, "apps", "sor.py")) == "apps"
    assert layers.layer_of(os.path.join(PACKAGE, "core", "fastpath.py")) == "core.runtime"


def test_every_layer_is_a_per_layer_metric():
    with open(BENCHMARK_JSON) as stream:
        names = {m["name"] for m in json.load(stream)["per_layer"]}
    assert {f"{layer}.self_s" for layer in LAYERS} <= names


def test_self_times_sum_to_the_traced_wall_time():
    from repro import api

    api.run_point("sor", "csm_poll", 4, scale="tiny")  # imports, warm-up
    profile = cProfile.Profile()
    started = time.perf_counter()
    profile.enable()
    for variant in ("csm_poll", "tmk_mc_poll", "hlrc_poll"):
        api.run_point("sor", variant, 4, scale="tiny")
    profile.disable()
    wall = time.perf_counter() - started
    times = self_times(profile, LayerMap(PACKAGE))
    assert set(times) == set(LAYERS)
    assert times["sim"] > 0 and times["apps"] > 0
    assert abs(sum(times.values()) - wall) / wall < 0.05
