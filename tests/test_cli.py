"""CLI behavior: simulate/run/bench subcommands, config handling, determinism."""

import json
import numpy as np
import pytest

from echosep import cli, metrics, stft
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
                    "--out", str(out), "--frame", "512", "--hop", "256"]) == 0
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
                        "--out", str(out), "--frame", "512", "--hop", "256",
                        "--iterations", "8"])
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


def test_run_every_algorithm_writes_one_diagnostics_schema(tmp_path):
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir))
    for algo in cli.CLI_ALGORITHMS:
        out = tmp_path / algo
        assert run_cli(["run", "--scene", str(scene_dir), "--algo", algo, "--out", str(out),
                        "--frame", "512", "--hop", "256", "--iterations", "3"]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["algorithm"] == algo
        assert isinstance(diag["iterations"], list)
        assert len(diag["iterations"]) in (0, 3)
        assert set(diag["metrics"]) == set(metrics.CSV_COLUMNS)
        with np.load(out / "filters.npz") as npz:  # allow_pickle=False
            assert all(np.all(np.isfinite(npz[k])) for k in npz.files)


def test_run_reference_channel_beyond_scene_exits_one(tmp_path):
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir))  # 3 microphones
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"reference_channel": 4}))
    for algo in cli.CLI_ALGORITHMS:
        assert run_cli(["run", "--scene", str(scene_dir), "--algo", algo,
                        "--config", str(cfg_path), "--out", str(tmp_path / algo),
                        "--frame", "512", "--hop", "256", "--iterations", "1"]) == 1


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


def test_bench_rejects_unknown_algorithm_before_work(tmp_path):
    out = tmp_path / "never"
    code = run_cli(["bench", "--out", str(out), "--runs", "1", "--algo", "sorcery"])
    assert code == 1
    assert not out.exists()


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


def test_missing_config_rejected(tmp_path):
    assert run_cli(["bench", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)]) == 1


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(runs=0)
    with pytest.raises(ValueError):
        ExperimentSpec(mode="quantum")
    with pytest.raises(ValueError):
        ExperimentSpec(algorithms=("joint", "unknown"))
    with pytest.raises(ValueError):
        ExperimentSpec(mode="convolutive")  # needs wav lists


def test_cli_algorithms_cover_table():
    assert set(cli.CLI_ALGORITHMS) == {"unprocessed", "ls_aec", "ive", "bnlms_ive", "joint"}


def test_run_numerical_failure_exits_two(tmp_path):
    scene_dir = tmp_path / "scene"
    run_cli(simulate_args(scene_dir))
    # silence the loudspeaker: least-squares echo canceller has no excitation
    silent = np.zeros((int(0.6 * 16000), 1), dtype=np.float32)
    stft.write_wav(scene_dir / "loudspeaker.wav", silent, 16000, dtype="float32")
    code = run_cli(["run", "--scene", str(scene_dir), "--algo", "ls_aec",
                    "--out", str(tmp_path / "out"), "--frame", "512", "--hop", "256"])
    assert code == 2


def test_convolutive_workflow_end_to_end(tmp_path):
    from scipy.io import wavfile

    rng = np.random.default_rng(31)
    sr, m = 16000, 2
    src_paths, rir_paths = [], []
    for name in ("soi", "loud", "intf"):
        sig = (rng.standard_normal(sr) * 0.1).astype(np.float32)
        p = tmp_path / f"{name}.wav"
        wavfile.write(p, sr, sig)
        src_paths.append(str(p))
        rir = rng.standard_normal((400, m)) * np.exp(-np.arange(400) / 80.0)[:, None]
        rir[0] = 1.0
        pr = tmp_path / f"{name}_rir.wav"
        wavfile.write(pr, sr, (0.5 * rir).astype(np.float32))
        rir_paths.append(str(pr))
    cfg = {"mode": "convolutive", "mics": m, "duration_s": 1.0,
           "frame_len": 512, "hop": 256, "iterations": 6, "seed": 2,
           "source_wavs": src_paths, "rir_wavs": rir_paths}
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


def test_run_missing_scene_exits_one(tmp_path):
    code = run_cli(["run", "--scene", str(tmp_path / "ghost"), "--algo", "joint",
                    "--out", str(tmp_path / "out")])
    assert code == 1
