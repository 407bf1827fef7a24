"""Checks of the benchmark itself: exact counts, and tracing that undoes itself.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
"""

import argparse
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer, namespaces  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

echosep = run.import_echosep()


def lookup_table():
    """Everything the tracer may touch: module attributes and function defaults."""
    table = {}
    for ns in namespaces(echosep):
        for attr, value in vars(ns).items():
            table[(id(ns), attr)] = value
            if isinstance(value, types.FunctionType) and value.__defaults__:
                table[(id(value), "__defaults__")] = value.__defaults__
    return table


def test_uninstall_restores_every_wrapped_attribute():
    before = lookup_table()
    tracer = Tracer(echosep)
    tracer.install()
    try:
        assert echosep.optimizer.update_aec.__wrapped__ is before[
            (id(echosep.optimizer), "update_aec")]
        assert echosep.optimizer.covariance is not before[(id(echosep.optimizer), "covariance")]
        # the default argument update_aec(score=score_spherical) is traced too
        original_aec = echosep.optimizer.update_aec.__wrapped__
        assert original_aec.__defaults__[0] is echosep.model.score_spherical
        assert hasattr(echosep.model.score_spherical, "__wrapped__")
    finally:
        tracer.uninstall()
    after = lookup_table()
    assert after.keys() == before.keys()
    for key, value in before.items():
        if key[1] == "__defaults__":
            assert all(a is b for a, b in zip(after[key], value)), key
        else:
            assert after[key] is value, key


class Probe(Workload):
    """Records, per scene, whether the program's functions were wrapped."""

    name = "probe"
    pool_size = 2

    def __init__(self, echosep, seed, workdir):
        super().__init__(echosep, seed, workdir)
        self.wrapped = []

    def run(self, k):
        self.wrapped.append(hasattr(self.echosep.optimizer.update_aec, "__wrapped__"))
        return None

    def check(self, k, out):
        return {"sier_db": 1.0, "erle_aec_db": 1.0, "misalignment": 0.1}


def test_traced_run_alternates_and_untraced_scenes_are_unwrapped(tmp_path):
    args = argparse.Namespace(seed=0, seconds=0.0)
    bench = run.Run(echosep, Probe, args, tmp_path, reference={})
    bench.setup(import_s=0.0)
    bench.loop(Tracer(echosep))
    assert bench.workload.wrapped == [False, True]
    assert not hasattr(echosep.optimizer.update_aec, "__wrapped__")
    assert not bench.failures


def traced_scene(name, tmp_path):
    workload = WORKLOADS[name](echosep, 0, tmp_path)
    try:
        workload.prepare()
        tracer = Tracer(echosep)
        tracer.install()
        try:
            _, seconds = tracer.root(lambda: workload.run(0))
        finally:
            tracer.uninstall()
    finally:
        workload.close()
    return tracer, seconds


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_and_self_times_add_up(name, tmp_path):
    first, seconds = traced_scene(name, tmp_path / "a")
    second, _ = traced_scene(name, tmp_path / "b")
    assert dict(first.calls) == dict(second.calls)
    assert dict(first.counts) == dict(second.counts)
    assert first.calls["optimizer.update_aec"] == 50
    assert first.counts["model.covariance.flops_computed"] > 0
    # self times partition the scene span
    assert sum(first.self_s.values()) == pytest.approx(seconds, rel=1e-9)
    layers = first.report(1)
    assert layers["bench.attributed_ratio"] > 0.99
