"""Every exported name resolves and every exported function has a caller.

Nothing star-imports echosep, so a stale __all__ entry, or an exported
function that only the tests call, would otherwise go unnoticed.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import echosep
from echosep import cli, stft

MODULES = ("stft", "model", "optimizer", "scenegen", "metrics", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_resolves(name):
    module = importlib.import_module(f"echosep.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_name_the_package_imports_is_the_modules_object():
    tree = ast.parse(Path(echosep.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"echosep.{node.module}")
        for alias in node.names:
            assert getattr(echosep, alias.name) is getattr(module, alias.name), alias.name


# Exported functions that no program path calls. benchmarks/tracer.py wraps
# each of them by name, so they stay exported while the benchmark traces them.
UNCALLED = {"blocking_matrix", "cost", "interference_whitener", "score_stats"}


def test_the_program_paths_call_every_exported_function(tmp_path):
    """Each function a module defines and lists in __all__ is called, but UNCALLED.

    The paths run in-process under sys.setprofile: bench with one short run,
    a narrowband simulate and a run with every algorithm, and a convolutive
    simulate from tiny WAVs.
    """
    rng = np.random.default_rng(0)
    sources, rirs = [], []
    for name in ("soi", "loud", "intf"):
        sources.append(str(tmp_path / f"{name}.wav"))
        stft.write_wav(sources[-1], 0.1 * rng.standard_normal(4000), 16000)
        rirs.append(str(tmp_path / f"{name}_rir.wav"))
        stft.write_wav(rirs[-1], np.eye(8, 2), 16000)
    config = tmp_path / "convolutive.json"
    config.write_text(json.dumps({"source_wavs": sources, "rir_wavs": rirs}))
    small = ["--duration", "0.3", "--frame", "512", "--hop", "256", "--mics", "2"]
    argvs = [["bench", "--runs", "1", "--iterations", "2", *small, "--out", tmp_path / "b"],
             ["simulate", *small, "--out", tmp_path / "n"],
             *(["run", "--scene", tmp_path / "n", "--algo", algo, "--iterations", "2",
                "--out", tmp_path / algo] for algo in cli.CLI_ALGORITHMS),
             ["simulate", "--config", config, *small, "--out", tmp_path / "c"]]

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes = [cli.main([str(a) for a in argv]) for argv in argvs]
        finally:
            sys.setprofile(None)
    assert codes == [0] * len(argvs)
    uncalled = set()
    for name in MODULES:
        module = importlib.import_module(f"echosep.{name}")
        for export in module.__all__:
            obj = getattr(module, export)
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and obj.__code__ not in called):
                uncalled.add(export)
    assert uncalled == UNCALLED
