"""CLI behavior: simulate/run/bench subcommands, config handling, determinism."""

import argparse
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from echosep import cli, metrics, optimizer, scenegen, stft
from echosep.cli import ExperimentSpec, main


def run_cli(argv):
    return main(argv)


def simulate_args(out, seed=3, duration=0.6, extra=()):
    return ["simulate", "--out", str(out), "--seed", str(seed),
            "--duration", str(duration), "--frame", "512", "--hop", "256",
            "--mics", "3", *extra]


def test_simulate_writes_manifest_and_wavs(tmp_path):
    out = tmp_path / "made" / "nested"  # missing directories get created
    assert run_cli(simulate_args(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == "echosep-scene-v1"
    config_keys = {"mics", "ser_db", "ier_db", "enr_db", "seed", "duration_s"}
    assert set(manifest["config"]) == config_keys
    assert {f.name for f in fields(scenegen.ScenarioConfig)} == config_keys
    for name in ("mixture", "loudspeaker", "soi", "echo", "interference", "noise"):
        assert (out / f"{name}.wav").exists()
    data, rate = stft.read_wav(out / "mixture.wav")
    assert rate == 16000
    assert data.shape == (int(0.6 * 16000), 3)


def test_simulate_five_seconds_sample_count(tmp_path):
    assert run_cli(["simulate", "--out", str(tmp_path), "--seed", "1",
                    "--duration", "5.0"]) == 0
    data, rate = stft.read_wav(tmp_path / "mixture.wav")
    assert rate == 16000
    assert data.shape[0] == 80000


def test_simulate_deterministic_manifest(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(simulate_args(a))
    run_cli(simulate_args(b))
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    assert (a / "mixture.wav").read_bytes() == (b / "mixture.wav").read_bytes()


def test_run_none_outputs_first_microphone(tmp_path):
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir))
    out = tmp_path / "proc"
    assert run_cli(["run", "--scene", str(scene_dir), "--algo", "unprocessed",
                    "--out", str(out)]) == 0
    enhanced, _ = stft.read_wav(out / "enhanced.wav")
    mixture, _ = stft.read_wav(scene_dir / "mixture.wav")
    np.testing.assert_array_equal(enhanced[:, 0], mixture[:, 0])


def test_run_joint_writes_outputs_and_is_deterministic(tmp_path):
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir, duration=0.8))
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        code = run_cli(["run", "--scene", str(scene_dir), "--algo", "joint",
                        "--out", str(out), "--iterations", "8"])
        assert code == 0
        outs.append(out)
    d1 = (outs[0] / "diagnostics.json").read_bytes()
    d2 = (outs[1] / "diagnostics.json").read_bytes()
    assert d1 == d2
    assert (outs[0] / "enhanced.wav").read_bytes() == (outs[1] / "enhanced.wav").read_bytes()
    diag = json.loads(d1)
    assert len(diag["iterations"]) == 8
    assert "metrics" in diag
    with np.load(outs[0] / "filters.npz") as npz:
        assert npz["h"].shape[1] == 3


def strict_json(text):
    """text parsed as RFC 8259 JSON, which has no NaN, Infinity or -Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_run_every_algorithm_writes_one_diagnostics_schema(tmp_path):
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir))
    for algo in cli.CLI_ALGORITHMS:
        out = tmp_path / algo
        assert run_cli(["run", "--scene", str(scene_dir), "--algo", algo, "--out", str(out),
                        "--iterations", "3"]) == 0
        diag = strict_json((out / "diagnostics.json").read_text())
        assert diag["algorithm"] == algo
        assert isinstance(diag["iterations"], list)
        assert len(diag["iterations"]) in (0, 3)
        assert set(diag["metrics"]) == set(metrics.CSV_COLUMNS)
        with np.load(out / "filters.npz") as npz:  # allow_pickle=False
            assert all(np.all(np.isfinite(npz[k])) for k in npz.files)
            assert sorted(npz.files) == ["a", "bp_scale", "h", "w"]
            if algo in ("unprocessed", "ls_aec"):  # no beamformer: the scale is 1
                np.testing.assert_array_equal(npz["bp_scale"], 1.0)


@pytest.mark.parametrize("algo", list(cli.CLI_ALGORITHMS))
def test_run_writes_non_finite_values_as_null(tmp_path, monkeypatch, algo):
    """A non-finite record value, as off_block_db is at zero total energy, is written null."""
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir))
    monkeypatch.setattr(optimizer, "off_block_energy_db", lambda v: -np.inf)
    out = tmp_path / "out"
    assert run_cli(["run", "--scene", str(scene_dir), "--algo", algo, "--out", str(out),
                    "--iterations", "2"]) == 0
    diag = strict_json((out / "diagnostics.json").read_text())
    assert [r["off_block_db"] for r in diag["iterations"]] == [None] * len(diag["iterations"])
    assert all(np.isfinite(v) for v in diag["metrics"].values() if isinstance(v, float))


def test_run_reference_channel_beyond_scene_exits_one(tmp_path):
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir))  # 3 microphones
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"reference_channel": 4}))
    for algo in cli.CLI_ALGORITHMS:
        assert run_cli(["run", "--scene", str(scene_dir), "--algo", algo,
                        "--config", str(cfg_path), "--out", str(tmp_path / algo),
                        "--iterations", "1"]) == 1


def test_bench_unprocessed_has_zero_erle(tmp_path):
    assert run_cli(["bench", "--out", str(tmp_path), "--runs", "2", "--seed", "5",
                    "--duration", "0.6", "--frame", "512", "--hop", "256",
                    "--mics", "3", "--algo", "unprocessed"]) == 0
    lines = (tmp_path / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 4  # header + 2 runs + mean
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "unprocessed"
        assert fields[5] == "0.00" and fields[6] == "0.00"


def test_bench_single_run_mean_equals_row(tmp_path):
    assert run_cli(["bench", "--out", str(tmp_path), "--runs", "1", "--seed", "9",
                    "--duration", "0.6", "--frame", "512", "--hop", "256",
                    "--mics", "3", "--algo", "joint", "--iterations", "5"]) == 0
    lines = (tmp_path / "results.csv").read_text().strip().split("\n")
    run_row = lines[1].split(",")
    mean_row = lines[2].split(",")
    assert mean_row[1] == "mean"
    assert run_row[2:] == mean_row[2:]


def test_bench_forms_no_whitener_or_cost(monkeypatch):
    """bench reads no iteration record, so its runs form no cost J; run still does.

    A record's J is 2 sum_f nu_f plus model.log_det_terms, so that count is the cost's.

    No run forms a whitener, records or not; the count of
    test_runs_form_the_cost_once_per_iteration_and_no_whitener checks that.
    """
    calls = {"log_det_terms": 0}

    def counting(name):
        original = getattr(cli._optimizer, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(cli._optimizer, name, counting(name))
    spec = ExperimentSpec(runs=1, seed=9, duration_s=0.6, frame_len=512, hop=256, mics=3,
                          iterations=3)
    reports = cli.run_bench(spec)
    assert [r.algorithm for r in reports] == list(cli.CLI_ALGORITHMS)
    assert calls == {"log_det_terms": 0}
    cli.run_algorithm("joint", cli._make_scene(spec, spec.seed), spec.run_config())
    assert calls == {"log_det_terms": 3}


def _scored_on_fresh_scenes(spec):
    """The reports bench gives, from one run and one evaluate_run per freshly made scene."""
    reports = []
    for seed in range(spec.seed, spec.seed + spec.runs):
        for name in spec.algorithms:
            scene = cli._make_scene(spec, seed)
            res = cli.run_algorithm(name, scene, spec.run_config())
            reports.append(metrics.evaluate_run(
                scene, res.state, res.diagnostics.bp_scale, algorithm=name, seed=seed,
                iterations=spec.iterations, reference_channel=spec.reference_channel))
    return reports


def test_narrowband_bench_reads_each_image_once_per_scene(monkeypatch):
    """Scoring five runs of a scene forms each image once, and the reports do not move."""
    reads, read = {}, scenegen._Images.__getitem__

    def counted(images, name):
        reads[name] = reads.get(name, 0) + 1
        return read(images, name)

    spec = ExperimentSpec(runs=2, seed=9, duration_s=0.3, frame_len=512, hop=256, mics=3,
                          iterations=2)
    monkeypatch.setattr(scenegen._Images, "__getitem__", counted)
    reports = cli.run_bench(spec)
    assert reads == dict.fromkeys(scenegen.COMPONENTS, spec.runs)
    assert [r.algorithm for r in reports] == list(cli.CLI_ALGORITHMS) * spec.runs
    assert reports == _scored_on_fresh_scenes(spec)


@pytest.mark.parametrize("algorithms", [("joint",), tuple(cli.CLI_ALGORITHMS)],
                         ids=["one", "all"])
def test_convolutive_bench_analyzes_each_signal_once_per_scene(tmp_path, monkeypatch,
                                                                algorithms):
    """A scene analyzes its mixture and loudspeaker, then each image once for all its runs."""
    rng = np.random.default_rng(0)
    sources, rirs = [], []
    for name in ("soi", "loud", "intf"):
        sources.append(str(tmp_path / f"{name}.wav"))
        stft.write_wav(sources[-1], 0.1 * rng.standard_normal(4000), 16000)
        rirs.append(str(tmp_path / f"{name}_rir.wav"))
        stft.write_wav(rirs[-1], np.eye(8, 2), 16000)
    spec = ExperimentSpec(source_wavs=sources, rir_wavs=rirs, runs=2,
                          seed=4, duration_s=0.3, frame_len=512, hop=256, mics=2,
                          iterations=2, algorithms=algorithms)
    calls, analyze = [], stft.analyze

    def counted(*args, **kwargs):
        calls.append(1)
        return analyze(*args, **kwargs)

    monkeypatch.setattr(stft, "analyze", counted)
    reports = cli.run_bench(spec)
    assert len(calls) == (2 + 4) * spec.runs
    assert reports == _scored_on_fresh_scenes(spec)


def test_bench_rejects_unknown_algorithm_before_work(tmp_path):
    """So does an empty list, from --algo or the config file: a config error, not 0 runs."""
    out = tmp_path / "never"
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"algorithms": []}))
    for extra in (["--algo", "sorcery"], ["--algo", ","], ["--algo", ""],
                  ["--config", str(empty)]):
        code = run_cli(["bench", "--out", str(out), "--runs", "1", *extra])
        assert code == 1, extra
    assert not out.exists()


def test_every_flag_sets_the_spec_field_it_is_named_after():
    """Each subcommand takes exactly the flags it reads; every dest names what it sets.

    A dest is an ExperimentSpec field, so from_args, which drops other names,
    reads it; the exceptions are the config file, run's scene and run's
    algorithm, which main and from_args read by name.
    """
    scene_flags = {"seed", "mics", "duration_s", "frame_len", "hop"}
    expected = {
        "simulate": {"config", "out"} | scene_flags,
        "run": {"config", "out", "iterations", "scene", "algo"},
        "bench": {"config", "out", "iterations", "runs", "algorithms"} | scene_flags,
    }
    spec_fields = set(ExperimentSpec.__dataclass_fields__)
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert subparsers.dest == "command"
    assert set(subparsers.choices) == set(expected)
    for command, sub in subparsers.choices.items():
        dests = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        assert dests == expected[command], command
        assert dests - spec_fields <= {"config", "scene", "algo"}, command
    args = parser.parse_args(["bench", "--duration", "1.5", "--frame", "256",
                              "--algo", "joint, ive"])
    spec = ExperimentSpec.from_args(args)
    assert (spec.duration_s, spec.frame_len, spec.algorithms) == (1.5, 256, ("joint", "ive"))


@pytest.mark.parametrize("argv", [
    ["run", "--scene", "s", "--algo", "ls_aec", "--frame", "512"],
    ["run", "--scene", "s", "--seed", "5", "--mics", "9", "--duration", "99", "--hop", "7"],
    ["simulate", "--iterations", "5"],
], ids=["run_frame", "run_scene_flags", "simulate_iterations"])
def test_a_flag_the_subcommand_does_not_read_exits_one(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    assert "error: unrecognized arguments: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scenario_deterministic():
    spec = ExperimentSpec()
    assert spec.scenario(42) == spec.scenario(42)


def test_scenario_draw_order_is_pinned():
    """Uniform SER, IER, ENR, then the scene seed: the draws every saved scene was made with."""
    cfg = ExperimentSpec().scenario(0)
    assert (cfg.ser_db, cfg.ier_db, cfg.enr_db, cfg.seed) == (
        8.184808436607272, 1.3489335688193516, 25.409735239361947, 161576974)
    assert (cfg.mics, cfg.duration_s) == (4, 5.0)


def test_scenario_covers_ranges():
    spec = ExperimentSpec()
    draws = [spec.scenario(seed) for seed in range(10_000)]
    ser = np.array([d.ser_db for d in draws])
    ier = np.array([d.ier_db for d in draws])
    enr = np.array([d.enr_db for d in draws])
    assert 5.0 <= ser.min() and ser.max() <= 10.0
    assert 0.0 <= ier.min() and ier.max() <= 5.0
    assert 25.0 <= enr.min() and enr.max() <= 35.0
    # draws actually spread over the ranges
    assert ser.max() - ser.min() > 4.5
    assert ier.max() - ier.min() > 4.5


def test_scenario_collapsed_ranges():
    spec = ExperimentSpec(ser_db=(7.0, 7.0), ier_db=(2.0, 2.0), enr_db=(30.0, 30.0))
    d = spec.scenario(1)
    assert (d.ser_db, d.ier_db, d.enr_db) == (7.0, 2.0, 30.0)


@pytest.mark.parametrize("field, value", [
    ("ser_db", 5), ("ser_db", [10, 5]), ("ier_db", [0, "5"]), ("enr_db", [25, 30, 35]),
    ("ier_db", [None, 5]), ("enr_db", [25, float("inf")]),
], ids=["scalar", "reversed", "string", "three", "null", "infinite"])
def test_config_range_that_is_not_an_ordered_pair_exits_one(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: value}))
    code = run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "scene")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be a pair [low, high] of finite numbers "
                          "with low <= high, got ")
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("field, value, index", [
    ("ser_db", [True, 5], 0), ("ier_db", [0, True], 1),
], ids=["ser_db_low", "ier_db_high"])
def test_config_range_with_a_bool_exits_one(tmp_path, capsys, field, value, index):
    """JSON's true is no number: the error names the range's item, and nothing is written."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: value}))
    assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "scene")]) == 1
    assert capsys.readouterr().err == f"error: {field}[{index}] must be float, got True\n"
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("command, value", [
    ("simulate", "inf"), ("simulate", "nan"), ("bench", float("inf")),
], ids=["simulate_inf", "simulate_nan", "bench_config_infinity"])
def test_a_duration_that_is_not_finite_exits_one(tmp_path, capsys, command, value):
    """A duration given as a flag or in the config file must be finite; no traceback."""
    argv = [command, "--out", str(tmp_path / "out")]
    if isinstance(value, str):
        argv += ["--duration", value]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"duration_s": value}))  # writes Infinity
        argv += ["--config", str(cfg_path)]
    assert run_cli(argv) == 1
    message = f"error: duration must be finite and positive, got {value} s\n"
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def test_a_hop_of_a_whole_frame_exits_one_naming_hop_and_frame_len(tmp_path, capsys):
    """The window is not a setting, so the framing error names the two flags that are."""
    argv = ["simulate", "--frame", "512", "--hop", "512", "--out", str(tmp_path / "out")]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == ("error: hop (512) and frame_len (512) do not give "
                                       "the window constant overlap-add\n")
    assert not (tmp_path / "out").exists()


# One value of the wrong type for each ExperimentSpec field: a bool where an
# int is declared, a string for a number, a number or string for a list.
WRONG_TYPES = {
    "seed": 1.5, "runs": "2", "mics": "4", "duration_s": "2", "sample_rate": 16e3,
    "frame_len": "512", "hop": True, "iterations": 2.5, "reference_channel": False,
    "ser_db": 5, "ier_db": "0, 5", "enr_db": None, "algorithms": "joint",
    "source_wavs": "a.wav", "rir_wavs": 7, "out": 5,
}


def test_wrong_types_cover_every_spec_field():
    assert set(WRONG_TYPES) == {f.name for f in fields(ExperimentSpec)}


@pytest.mark.parametrize("field, value", WRONG_TYPES.items(), ids=list(WRONG_TYPES))
def test_config_field_of_the_wrong_type_exits_one(tmp_path, capsys, field, value):
    """The config error names the field; no traceback, and nothing is written."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: value}))
    argv = ["simulate", "--config", str(cfg_path)]
    if field != "out":
        argv += ["--out", str(tmp_path / "scene")]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be ")
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("field, value", [
    ("algorithms", ["joint", ["ive"]]), ("source_wavs", ["a.wav", 5, "c.wav"]),
    ("rir_wavs", ["a.wav", "b.wav", None]),
], ids=["algorithms", "source_wavs", "rir_wavs"])
def test_config_list_item_of_the_wrong_type_exits_one(tmp_path, capsys, field, value):
    """Each item of a list field is a string; the error names the field and the index."""
    cfg = {"source_wavs": ["a.wav"] * 3, "rir_wavs": ["b.wav"] * 3,
           field: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "scene")]) == 1
    index = next(i for i, v in enumerate(value) if not isinstance(v, str))
    assert capsys.readouterr().err == (f"error: {field}[{index}] must be str, "
                                       f"got {value[index]!r}\n")
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("text", ["5", '[["seed", 1]]', "null"], ids=["number", "list", "null"])
def test_config_file_that_is_not_an_object_exits_one(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "scene")]) == 1
    assert capsys.readouterr().err.startswith("error: config file must be dict, got ")
    assert not (tmp_path / "scene").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = {"seed": 11, "mics": 3, "duration_s": 0.6, "frame_len": 512, "hop": 256,
           "iterations": 4, "algorithms": ["unprocessed", "joint"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "bench"
    code = run_cli(["bench", "--config", str(cfg_path), "--out", str(out),
                    "--runs", "1", "--seed", "12"])
    assert code == 0
    text = (out / "results.csv").read_text()
    assert "unprocessed,12," in text  # flag overrode config seed
    assert "joint,12," in text


def test_config_unknown_key_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"warp_factor": 9}))
    assert run_cli(["bench", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1


def test_missing_config_rejected(tmp_path, capsys):
    assert run_cli(["bench", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'nope.json'}: "
                                       "No such file or directory\n")


@pytest.mark.parametrize("make, reason", [
    (lambda p: p.mkdir(), "Is a directory"),
    (lambda p: p.write_text("{"),
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
], ids=["a_directory", "not_json"])
def test_unreadable_config_exits_one_naming_it(tmp_path, capsys, make, reason):
    cfg_path = tmp_path / "cfg"
    make(cfg_path)
    assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "scene")]) == 1
    assert capsys.readouterr().err == f"error: {cfg_path}: {reason}\n"
    assert not (tmp_path / "scene").exists()


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(runs=0)
    with pytest.raises(ValueError):
        ExperimentSpec(algorithms=("joint", "unknown"))
    with pytest.raises(ValueError):
        ExperimentSpec(algorithms=())
    with pytest.raises(ValueError):
        ExperimentSpec(source_wavs=["a.wav"] * 3)  # needs rir_wavs too


def test_cli_algorithms_cover_table():
    assert set(cli.CLI_ALGORITHMS) == {"unprocessed", "ls_aec", "ive", "bnlms_ive", "joint"}


@pytest.mark.parametrize("ref", [1, 2])
def test_every_registered_algorithm_returns_a_run_result(ref):
    """Each entry returns a RunResult; without a beamformer s_hat is e's reference channel."""
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=3, seed=4),
                                       n_freqs=16, n_frames=40)
    run_cfg = optimizer.RunConfig(iterations=3, reference_channel=ref)
    for name in cli.CLI_ALGORITHMS:
        res = cli.run_algorithm(name, scene, run_cfg)
        assert isinstance(res, optimizer.RunResult), name
        if name in ("unprocessed", "ls_aec"):
            np.testing.assert_array_equal(res.s_hat, res.e[:, :, ref - 1])
            np.testing.assert_array_equal(res.diagnostics.bp_scale, np.ones(16))
            assert res.diagnostics.records == []
        else:
            assert len(res.diagnostics.records) == 3


@pytest.mark.parametrize("ref", [1, 2])
def test_every_algorithm_forms_its_error_signal_and_output_from_the_inputs(ref):
    """RunResult.e is x - h u to the bit, and s_hat is e's extraction times the scale.

    The runs hold no e; they form s_hat as w^H x - (w^H h) u, so it matches
    w^H e at rounding level only.
    """
    scene = scenegen.render_narrowband(scenegen.ScenarioConfig(mics=3, seed=4),
                                       n_freqs=16, n_frames=40)
    run_cfg = optimizer.RunConfig(iterations=3, reference_channel=ref)
    for name in cli.CLI_ALGORITHMS:
        res = cli.run_algorithm(name, scene, run_cfg)
        # the runs without a loudspeaker take u = 0
        u = (np.zeros_like(scene.loudspeaker) if name in ("unprocessed", "ive")
             else scene.loudspeaker)
        e = scene.mixture - res.state.h[:, None, :] * u[:, :, None]
        assert np.array_equal(res.e, e), name
        s = (e @ res.state.w.conj()[:, :, None])[:, :, 0]
        np.testing.assert_allclose(res.s_hat, res.diagnostics.bp_scale[:, None] * s,
                                   rtol=1e-12, err_msg=name)


def _traced_peak(argv):
    """The tracemalloc peak, in bytes, of one echosep command run in this process."""
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_and_run_hold_each_signal_once(tmp_path):
    """Peak memory of simulate and of a joint run, relative to the scene's STFT tensors.

    The reference is the bytes of the scene's six STFT tensors (mixture,
    loudspeaker and four component images). simulate renders with one image
    at a time besides the mixture, then synthesizes and writes one WAV at a
    time, forming each narrowband image only to synthesize it. run checks
    every WAV as it loads the scene, analyzes only the mixture and
    loudspeaker there and keeps the images' samples, forms no (F, T, M)
    error signal, and analyzes each component image only to reduce its
    output to an energy before the next. That measured 0.84 and 1.27 times
    the tensors' bytes; a render that formed all four images before summing
    them measured 1.09 for simulate, a run that held all six tensors 1.51,
    and one that held every time signal, e and every evaluated output 2.36.
    """
    warm = tmp_path / "warm"  # first calls import what numpy loads lazily
    run_cli(simulate_args(warm, duration=1.0))
    run_cli(["run", "--scene", str(warm), "--algo", "joint", "--out", str(tmp_path / "w"),
             "--iterations", "2"])
    scene_dir = tmp_path / "scene"
    simulate_peak = _traced_peak(simulate_args(scene_dir, duration=1.0))
    run_peak = _traced_peak(["run", "--scene", str(scene_dir), "--algo", "joint",
                             "--out", str(tmp_path / "run"), "--iterations", "3"])
    scene = scenegen.load_scene(scene_dir)
    tensors = (scene.mixture.nbytes + scene.loudspeaker.nbytes
               + sum(img.nbytes for img in scene.images.values()))
    assert simulate_peak <= 0.9 * tensors, simulate_peak / tensors
    assert run_peak <= 1.35 * tensors, run_peak / tensors


def test_run_numerical_failure_exits_two(tmp_path):
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir))
    # silence the loudspeaker: least-squares echo canceller has no excitation
    silent = np.zeros((int(0.6 * 16000), 1), dtype=np.float32)
    stft.write_wav(scene_dir / "loudspeaker.wav", silent, 16000)
    code = run_cli(["run", "--scene", str(scene_dir), "--algo", "ls_aec",
                    "--out", str(tmp_path / "out")])
    assert code == 2


def test_run_non_finite_mixture_exits_one(tmp_path):
    assert run_non_finite_mixture(tmp_path, "joint") == 1


@pytest.mark.parametrize("algo", [a for a in cli.CLI_ALGORITHMS if a != "joint"])
def test_run_non_finite_mixture_exits_one_every_algorithm(tmp_path, algo):
    assert run_non_finite_mixture(tmp_path, algo) == 1


def run_non_finite_mixture(tmp_path, algo):
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir))
    mixture, rate = stft.read_wav(scene_dir / "mixture.wav")
    mixture[1000, 1] = np.nan
    stft.write_wav(scene_dir / "mixture.wav", mixture, rate)
    return run_cli(["run", "--scene", str(scene_dir), "--algo", algo,
                    "--out", str(tmp_path / "out")])


def test_convolutive_workflow_end_to_end(tmp_path):
    from scipy.io import wavfile

    rng = np.random.default_rng(31)
    sr, m = 16000, 2
    src_paths, rir_files = [], []
    for name in ("soi", "loud", "intf"):
        sig = (rng.standard_normal(sr) * 0.1).astype(np.float32)
        p = tmp_path / f"{name}.wav"
        wavfile.write(p, sr, sig)
        src_paths.append(str(p))
        rir = rng.standard_normal((400, m)) * np.exp(-np.arange(400) / 80.0)[:, None]
        rir[0] = 1.0
        pr = tmp_path / f"{name}_rir.wav"
        wavfile.write(pr, sr, (0.5 * rir).astype(np.float32))
        rir_files.append(str(pr))
    cfg = {"mics": m, "duration_s": 1.0,
           "frame_len": 512, "hop": 256, "iterations": 6, "seed": 2,
           "source_wavs": src_paths, "rir_wavs": rir_files}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    scene_dir = tmp_path / "scene"
    assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(scene_dir)]) == 0
    run_dir = tmp_path / "run"
    assert run_cli(["run", "--config", str(cfg_path), "--scene", str(scene_dir),
                    "--algo", "joint", "--out", str(run_dir)]) == 0
    diag = json.loads((run_dir / "diagnostics.json").read_text())
    assert len(diag["iterations"]) == 6
    bench_dir = tmp_path / "bench"
    assert run_cli(["bench", "--config", str(cfg_path), "--runs", "1",
                    "--out", str(bench_dir)]) == 0
    text = (bench_dir / "results.csv").read_text()
    assert text.count("\n") == 11  # header + 5 runs + 5 means


def _simulate_convolutive(tmp_path, sources):
    """simulate --config's exit code for two-mic identity RIRs and sources by name."""
    src_paths, rir_files = [], []
    for name in ("soi", "loud", "intf"):
        src_paths.append(str(tmp_path / f"{name}.wav"))
        if name in sources:
            sources[name](src_paths[-1])
        else:
            stft.write_wav(src_paths[-1],
                           np.random.default_rng(33).standard_normal(16000) * 0.1, 16000)
        rir_files.append(str(tmp_path / f"{name}_rir.wav"))
        stft.write_wav(rir_files[-1], np.eye(8, 2), 16000)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mics": 2, "duration_s": 0.5,
                                    "frame_len": 512, "hop": 256,
                                    "source_wavs": src_paths, "rir_wavs": rir_files}))
    return run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "scene")])


def test_simulate_config_with_both_wav_lists_writes_a_convolutive_scene(tmp_path):
    """The WAV lists decide the scene: rendered from them, so no narrowband truth is saved."""
    assert _simulate_convolutive(tmp_path, {}) == 0
    manifest = json.loads((tmp_path / "scene" / "manifest.json").read_text())
    assert "truth_file" not in manifest
    assert not (tmp_path / "scene" / "truth.npz").exists()


BOTH_OR_NEITHER = ("error: source_wavs and rir_wavs must both be given (a convolutive scene) "
                   "or neither (a narrowband scene)\n")


@pytest.mark.parametrize("cfg, err", [
    ({"source_wavs": ["a.wav"] * 3}, BOTH_OR_NEITHER),
    ({"rir_wavs": ["b.wav"] * 3}, BOTH_OR_NEITHER),
    ({"source_wavs": ["a.wav"] * 2, "rir_wavs": ["b.wav"] * 2},
     "error: expected three sources and three RIRs: target, loudspeaker, interferer\n"),
    ({"mode": "narrowband", "source_wavs": ["a.wav"] * 3, "rir_wavs": ["b.wav"] * 3},
     "error: unknown config keys: ['mode']\n"),
], ids=["sources_alone", "rirs_alone", "two_of_each", "mode_key"])
def test_simulate_config_whose_wav_lists_give_no_scene_exits_one(tmp_path, capsys, cfg, err):
    """One list alone names both; a scene's kind is no config key, so mode is unknown."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "scene")]) == 1
    assert capsys.readouterr().err == err
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("silent, length", [("soi", 16000), ("intf", 16000), ("intf", 0)],
                         ids=["silent_target", "silent_interferer", "empty_interferer"])
def test_simulate_convolutive_silent_or_empty_source_exits_one(tmp_path, capsys, silent, length):
    code = _simulate_convolutive(
        tmp_path, {silent: lambda path: stft.write_wav(path, np.zeros(length), 16000)})
    assert code == 1
    reason = ("no samples" if length == 0
              else f"image through {tmp_path / silent}_rir.wav has zero power")
    assert capsys.readouterr().err == f"error: {tmp_path / silent}.wav: {reason}\n"


def test_simulate_convolutive_directory_source_exits_one(tmp_path, capsys):
    """A source that is a directory is one error line naming the configured path."""
    assert _simulate_convolutive(tmp_path, {"loud": lambda path: Path(path).mkdir()}) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'loud.wav'}: Is a directory\n"


def test_cli_never_imports_scipy(tmp_path):
    """Neither importing echosep nor simulating and running a scene loads scipy."""
    code = (
        "import sys, echosep, echosep.cli\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "after_import = loaded()\n"
        f"scene, out = {str(tmp_path / 'scene')!r}, {str(tmp_path / 'run')!r}\n"
        "assert echosep.cli.main(['simulate', '--out', scene, '--seed', '3', '--duration',"
        " '0.6', '--frame', '512', '--hop', '256', '--mics', '3']) == 0\n"
        "assert echosep.cli.main(['run', '--scene', scene, '--algo', 'joint', '--out', out,"
        " '--iterations', '3']) == 0\n"
        "print(after_import, loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] []"


def test_run_unknown_algorithm_exits_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--scene", str(tmp_path / "ghost"), "--algo", "sorcery",
                 "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    assert "error: argument --algo: invalid choice: 'sorcery'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _truncate_truth(scene_dir):
    with np.load(scene_dir / "truth.npz") as npz:
        a_soi = npz["a_soi"]
    np.savez(scene_dir / "truth.npz", a_soi=a_soi)


def _remove(file):
    return lambda scene_dir: (scene_dir / file).unlink()


def _overwrite(file, data):
    return lambda scene_dir: (scene_dir / file).write_bytes(data)


def _rewrite_wav(name, edit, rate=16000):
    def broken(scene_dir):
        data, _ = stft.read_wav(scene_dir / f"{name}.wav")
        stft.write_wav(scene_dir / f"{name}.wav", edit(data), rate)
    return broken


def _edit_manifest(edit):
    def broken(scene_dir):
        path = scene_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
    return broken


@pytest.mark.parametrize("break_scene, message", [
    (_truncate_truth, "truth.npz: truth lacks echo_atf, bg_mix"),
    (_edit_manifest(lambda m: m.pop("gains")), "manifest.json: manifest lacks gains"),
    (_edit_manifest(lambda m: m["frame"].pop("frame_len")),
     "manifest.json: frame lacks frame_len"),
    (_edit_manifest(lambda m: m["frame"].pop("hop")), "manifest.json: frame lacks hop"),
    (_edit_manifest(lambda m: m["config"].pop("ser_db")), "manifest.json: config lacks ser_db"),
    (_edit_manifest(lambda m: m.update(config=7)), "manifest.json: config must be dict, got 7"),
    (_edit_manifest(lambda m: m["files"].pop("soi")), "manifest.json: files lacks soi"),
    (_edit_manifest(lambda m: m["config"].update(duration_s=float("inf"))),
     "duration must be finite and positive, got inf s"),
    (_edit_manifest(lambda m: m["config"].update(duration_s="0.6")),
     "manifest.json: config.duration_s must be float, got '0.6'"),
    (_edit_manifest(lambda m: m["config"].update(mics="4")),
     "manifest.json: config.mics must be int, got '4'"),
    (_rewrite_wav("soi", lambda d: d[:-5000]),
     "soi.wav: (4600, 3) samples x channels at 16000 Hz, expected (9600, 3) at 16000 Hz"),
    (_rewrite_wav("noise", lambda d: d[:, :2]),
     "noise.wav: (9600, 2) samples x channels at 16000 Hz, expected (9600, 3) at 16000 Hz"),
    (_rewrite_wav("loudspeaker", lambda d: np.tile(d, 3)),
     "loudspeaker.wav: (9600, 3) samples x channels at 16000 Hz, "
     "expected (9600, 1) at 16000 Hz"),
    (_rewrite_wav("mixture", lambda d: d, rate=8000),
     "mixture.wav: (9600, 3) samples x channels at 8000 Hz, expected (9600, 3) at 16000 Hz"),
    (_remove("echo.wav"), "echo.wav: No such file or directory"),
    (_remove("truth.npz"), "truth.npz: No such file or directory"),
    (_overwrite("truth.npz", b""), "truth.npz: No data left in file"),
    (_overwrite("truth.npz", b"PK\x03\x04garbage"), "truth.npz: File is not a zip file"),
    (_overwrite("manifest.json", b"{"),
     "manifest.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
], ids=["truth_without_every_array", "manifest_without_gains", "frame_without_frame_len",
        "frame_without_hop", "config_without_ser_db", "config_not_a_mapping",
        "files_without_soi", "infinite_duration", "duration_as_a_string", "mics_as_a_string",
        "short_component", "component_missing_channels",
        "loudspeaker_with_three_channels", "mixture_at_another_rate",
        "component_file_absent", "truth_file_absent", "truth_file_empty",
        "truth_file_not_a_zip", "manifest_not_json"])
def test_run_malformed_scene_exits_one(tmp_path, capsys, break_scene, message):
    """A malformed saved scene is an error line that names the file at fault.

    Malformed: a truth array, a manifest key or a nested field is missing or
    of the wrong type, the duration is not finite, a WAV has another length,
    channel count or rate than the manifest declares, a file it names is
    absent, or the manifest or truth file cannot be parsed. More edits of
    each kind are in test_run_edited_scene_exits_zero_or_names_the_file.
    """
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir))
    break_scene(scene_dir)
    capsys.readouterr()
    code = run_cli(["run", "--scene", str(scene_dir), "--algo", "joint",
                    "--out", str(tmp_path / "out"), "--iterations", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(message + "\n")


@pytest.mark.parametrize("name", scenegen.COMPONENTS)
@pytest.mark.parametrize("edit, rate", [(lambda d: d[:, :2], 16000), (lambda d: d, 8000)],
                         ids=["channels", "rate"])
def test_run_checks_every_image_before_any_algorithm(tmp_path, capsys, monkeypatch,
                                                     name, edit, rate):
    """An image is analyzed only when read, but its WAV is checked when the scene loads.

    A wrong channel count or rate exits 1 naming the file; no algorithm runs
    and no output directory is made.
    """
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir))
    _rewrite_wav(name, edit, rate)(scene_dir)
    ran = []
    for algo in ("run_unprocessed", "run_ls_aec", "run_ive_only", "run_bnlms_ive", "run_joint"):
        monkeypatch.setattr(optimizer, algo, lambda *args, **kw: ran.append(args))
    capsys.readouterr()
    code = run_cli(["run", "--scene", str(scene_dir), "--algo", "joint",
                    "--out", str(tmp_path / "out"), "--iterations", "1"])
    assert code == 1 and ran == []
    assert capsys.readouterr().err.startswith(f"error: {name}.wav: ")
    assert not (tmp_path / "out").exists()


# The keys of a saved manifest, dotted below the top level: those that hold a
# number, and the others (mappings and strings).
MANIFEST_NUMBERS = [*(f"config.{f.name}" for f in fields(scenegen.ScenarioConfig)),
                    *(f"gains.{name}" for name in scenegen.COMPONENTS),
                    "sample_rate", "frame.frame_len", "frame.hop"]
MANIFEST_OTHERS = ["schema", "config", "gains", "files", "frame", "truth_file",
                   *(f"files.{name}" for name in ("mixture", "loudspeaker", *scenegen.COMPONENTS))]
TRUTH_ARRAYS = ["a_soi", "echo_atf", "bg_mix"]
NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def _edits(file, numbers, others, retypes, shapes=()):
    """(file, key, operation, value) edits: drop a key, change a value's type, make a
    number non-finite or negative, or give an array another shape."""
    key = st.sampled_from(numbers + others)
    edits = [st.tuples(st.just(file), key, st.just("drop"), st.none()),
             st.tuples(st.just(file), key, st.just("retype"), st.sampled_from(retypes)),
             st.tuples(st.just(file), st.sampled_from(numbers), st.just("non_finite"),
                       st.sampled_from(NON_FINITE)),
             st.tuples(st.just(file), st.sampled_from(numbers), st.just("negative"), st.none())]
    if shapes:
        edits.append(st.tuples(st.just(file), key, st.just("shape"), st.sampled_from(shapes)))
    return st.one_of(edits)


def _edit_manifest_key(manifest, key, operation, value):
    """Apply the edit; True if the run must fail, as a key dropped or of another type."""
    *parents, leaf = key.split(".")
    holder = reduce(lambda m, k: m[k], parents, manifest)
    old = holder.pop(leaf)
    if operation == "drop":
        return key != "truth_file"  # a scene without truth loads
    assume(operation != "retype" or type(value) is not type(old))
    holder[leaf] = -old if operation == "negative" else value
    # JSON has one number type: an int stands for a float, no other change of type
    return operation == "retype" and (type(old), type(value)) != (float, int)


def _edit_truth_array(arrays, key, operation, value):
    """Apply the edit; True if the run must fail: every edit but a sign change."""
    old = arrays.pop(key)
    if operation == "drop":
        return True
    arrays[key] = {
        "retype": lambda: np.full(old.shape, value),
        "non_finite": lambda: np.where(np.arange(old.size).reshape(old.shape) == 1, value, old),
        "negative": lambda: -old,
        "shape": lambda: {"bins": old[:3], "narrow": old[..., :-1], "axis": old[..., None]}[value],
    }[operation]()
    return operation != "negative"


@pytest.fixture(scope="module")
def saved_scene(tmp_path_factory):
    scene_dir = tmp_path_factory.mktemp("saved") / "scene"
    assert run_cli(simulate_args(scene_dir)) == 0
    return scene_dir


@settings(max_examples=150)
@given(edit=st.one_of(
    _edits("manifest.json", MANIFEST_NUMBERS, MANIFEST_OTHERS,
           [True, "16000", None, [512], {"soi": 1.0}, 7, 0.5]),
    _edits("truth.npz", TRUTH_ARRAYS, [], [True, "x"], ["bins", "narrow", "axis"]),
))
@example(edit=("manifest.json", "sample_rate", "retype", "16000"))
@example(edit=("manifest.json", "frame.frame_len", "retype", "512"))
@example(edit=("manifest.json", "frame.frame_len", "retype", 512.5))
@example(edit=("manifest.json", "files.mixture", "retype", 5))
@example(edit=("manifest.json", "truth_file", "retype", 3))
@example(edit=("manifest.json", "gains.soi", "retype", "x"))
@example(edit=("manifest.json", "config", "retype", 7))
@example(edit=("manifest.json", "config.mics", "retype", "4"))
@example(edit=("manifest.json", "config.mics", "retype", True))
@example(edit=("manifest.json", "config.duration_s", "retype", "0.6"))
@example(edit=("truth.npz", "a_soi", "shape", "bins"))
@example(edit=("truth.npz", "bg_mix", "shape", "narrow"))
@example(edit=("truth.npz", "echo_atf", "non_finite", float("nan")))
def test_run_edited_scene_exits_zero_or_names_the_file(saved_scene, edit):
    """An edited saved scene runs (exit 0, strict JSON diagnostics) or is one error line.

    The line names the file at fault; a key dropped or of another type, and
    an edited truth array, exit 1 with a line that names the key or array.
    """
    file, key, operation, value = edit
    with tempfile.TemporaryDirectory() as tmp:
        scene_dir, out = Path(tmp) / "scene", Path(tmp) / "out"
        shutil.copytree(saved_scene, scene_dir)
        if file == "manifest.json":
            manifest = json.loads((scene_dir / file).read_text())
            must_fail = _edit_manifest_key(manifest, key, operation, value)
            (scene_dir / file).write_text(json.dumps(manifest))
        else:
            with np.load(scene_dir / file) as npz:
                arrays = dict(npz)
            must_fail = _edit_truth_array(arrays, key, operation, value)
            np.savez(scene_dir / file, **arrays)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(["run", "--scene", str(scene_dir), "--algo", "joint",
                            "--out", str(out), "--iterations", "1"])
        err = err.getvalue()
        if code == 0:
            assert not must_fail and err == ""
            strict_json((out / "diagnostics.json").read_text())
        else:
            assert code == 1 and err.count("\n") == 1, err
            assert re.match(r"error: \S*\.(json|npz|wav): ", err), err
        if must_fail:
            assert code == 1 and re.match(rf"error: (\S*/)?{re.escape(file)}: ", err), err
            assert key.split(".")[-1] in err, err


def test_run_scene_file_that_is_a_directory_exits_one(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir))
    (scene_dir / "arrays").mkdir()
    _edit_manifest(lambda m: m.update(truth_file="arrays"))(scene_dir)
    capsys.readouterr()
    assert run_cli(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "arrays" in err


def test_run_loads_a_manifest_with_keys_and_arrays_it_does_not_read(tmp_path):
    """Older manifests carried two more config keys; extra keys and arrays are ignored."""
    scene_dir, old_dir = tmp_path / "scene", tmp_path / "old"
    run_cli(simulate_args(scene_dir))
    run_cli(simulate_args(old_dir))
    path = old_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"].update(mode="narrowband", rir_paths=None)
    manifest["frame"]["window"] = "sqrt_hann"
    manifest["has_truth"] = True
    path.write_text(json.dumps(manifest))
    with np.load(old_dir / "truth.npz") as npz:
        np.savez(old_dir / "truth.npz", **npz, extra=np.zeros(3))
    assert scenegen.load_scene(old_dir).config == scenegen.load_scene(scene_dir).config
    for name, d in (("new", scene_dir), ("old", old_dir)):
        assert run_cli(["run", "--scene", str(d), "--algo", "joint",
                        "--out", str(tmp_path / f"run_{name}"), "--iterations", "2"]) == 0
    assert ((tmp_path / "run_old" / "diagnostics.json").read_bytes()
            == (tmp_path / "run_new" / "diagnostics.json").read_bytes())


def test_run_missing_scene_exits_one(tmp_path, capsys):
    code = run_cli(["run", "--scene", str(tmp_path / "ghost"), "--algo", "joint",
                    "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'ghost'}: No such file or directory\n"
