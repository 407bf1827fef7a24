"""Command-line entry point: scene simulation, algorithm runs, benchmarks.

Subcommands:
  simulate  render a scene and write it as WAVs plus a JSON manifest
  run       process a saved scene with one algorithm, write the result
  bench     run algorithms over seeded scenes and write a metrics CSV

Configuration comes from an optional JSON file (--config) whose keys mirror
the flags; flags override file values. Exit codes: 0 success, 1 configuration
error, 2 numerical failure at runtime.
"""

import argparse
import json
import sys
import numpy as np
from dataclasses import dataclass, field
from pathlib import Path

from . import metrics as _metrics
from . import optimizer as _optimizer
from . import scenegen as _scenegen
from . import stft as _stft
from .model import DemixState, NumericsError

__all__ = ["main", "ExperimentSpec", "run_algorithm", "run_bench"]


def _reference_output(e, h, run_cfg):
    """Result of a condition without a beamformer: the reference channel of e.

    w = a = that channel's unit vector, so s_hat = w^H e, and there is no
    backprojection scale and no iteration record.
    """
    n_freqs, _, m = e.shape
    if run_cfg.reference_channel > m:
        raise ValueError(f"reference channel {run_cfg.reference_channel} exceeds {m} microphones")
    ref = run_cfg.reference_channel - 1
    w = np.zeros((n_freqs, m), dtype=np.complex128)
    w[:, ref] = 1.0
    return _optimizer.RunResult(s_hat=e[:, :, ref], e=e, state=DemixState(h=h, w=w, a=w.copy()),
                                diagnostics=_optimizer.RunDiagnostics())


def _unprocessed(scene, run_cfg):
    return _reference_output(scene.mixture, np.zeros_like(scene.mixture[:, 0, :]), run_cfg)


def _ls_aec(scene, run_cfg):
    e, h = _optimizer.run_ls_aec(scene.mixture, scene.loudspeaker)
    return _reference_output(e, h, run_cfg)


def _ive(scene, run_cfg):
    return _optimizer.run_ive_only(scene.mixture, run_cfg, truth=scene.truth)


def _bnlms_ive(scene, run_cfg):
    return _optimizer.run_bnlms_ive(scene.mixture, scene.loudspeaker, run_cfg, truth=scene.truth)


def _joint(scene, run_cfg):
    return _optimizer.run_joint(scene.mixture, scene.loudspeaker, run_cfg, truth=scene.truth)


# The algorithms by name, in table order; each maps (scene, RunConfig) to a
# RunResult.
CLI_ALGORITHMS = {
    "unprocessed": _unprocessed,
    "ls_aec": _ls_aec,
    "ive": _ive,
    "bnlms_ive": _bnlms_ive,
    "joint": _joint,
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce a simulation, run, or benchmark."""

    seed: int = 0
    mode: str = "narrowband"
    runs: int = 50
    mics: int = 4
    duration_s: float = 5.0
    sample_rate: int = 16000
    frame_len: int = 2048
    hop: int = 1024
    iterations: int = 50
    reference_channel: int = 1
    ser_db: tuple = (5.0, 10.0)
    ier_db: tuple = (0.0, 5.0)
    enr_db: tuple = (25.0, 35.0)
    algorithms: tuple = tuple(CLI_ALGORITHMS)
    source_wavs: list = field(default_factory=list)
    rir_wavs: list = field(default_factory=list)
    out: str = "."

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.mode not in ("narrowband", "convolutive"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        for name in self.algorithms:
            if name not in CLI_ALGORITHMS:
                raise ConfigError(
                    f"unknown algorithm {name!r}; choose from {sorted(CLI_ALGORITHMS)}"
                )
        if self.mode == "convolutive" and (not self.source_wavs or not self.rir_wavs):
            raise ConfigError("convolutive mode needs source_wavs and rir_wavs")

    def frame_spec(self):
        return _stft.FrameSpec.default(self.frame_len, self.hop, self.sample_rate)

    def ranges(self):
        return _scenegen.ScenarioRanges(
            ser_db=tuple(self.ser_db),
            ier_db=tuple(self.ier_db),
            enr_db=tuple(self.enr_db),
            mics=self.mics,
            duration_s=self.duration_s,
            mode=self.mode,
        )

    def run_config(self):
        return _optimizer.RunConfig(
            iterations=self.iterations, reference_channel=self.reference_channel
        )

    @classmethod
    def from_args(cls, args):
        values = {}
        if getattr(args, "config", None):
            path = Path(args.config)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            try:
                loaded = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
            unknown = set(loaded) - {f for f in cls.__dataclass_fields__}
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            values.update(loaded)
        overrides = {
            "seed": args.seed,
            "mode": args.mode,
            "runs": getattr(args, "runs", None),
            "mics": getattr(args, "mics", None),
            "duration_s": getattr(args, "duration", None),
            "iterations": getattr(args, "iterations", None),
            "frame_len": getattr(args, "frame", None),
            "hop": getattr(args, "hop", None),
            "out": getattr(args, "out", None),
        }
        algo = getattr(args, "algo", None)
        if algo:
            overrides["algorithms"] = tuple(a.strip() for a in algo.split(",") if a.strip())
        values.update({k: v for k, v in overrides.items() if v is not None})
        try:
            return cls(**values)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def _make_scene(spec, seed):
    cfg = _scenegen.sample_scenario(np.random.default_rng(seed), spec.ranges())
    if spec.mode == "narrowband":
        return _scenegen.render_narrowband(cfg, frame_spec=spec.frame_spec())
    return _scenegen.render_convolutive(
        cfg, spec.source_wavs, spec.rir_wavs, frame_spec=spec.frame_spec()
    )


def run_algorithm(name, scene, run_cfg):
    """Run one registered algorithm on a scene; returns its RunResult."""
    return CLI_ALGORITHMS[name](scene, run_cfg)


def run_bench(spec):
    """Benchmark all requested algorithms over seeded scenes; returns reports."""
    reports = []
    for i in range(spec.runs):
        seed = spec.seed + i
        scene = _make_scene(spec, seed)
        for name in spec.algorithms:
            res = run_algorithm(name, scene, spec.run_config())
            rep = _metrics.evaluate_run(
                scene,
                res.state,
                res.diagnostics.bp_scale,
                algorithm=name,
                seed=seed,
                iterations=spec.iterations,
                reference_channel=spec.reference_channel,
            )
            reports.append(rep)
    return reports


def cmd_simulate(spec):
    scene = _make_scene(spec, spec.seed)
    out = Path(spec.out)
    manifest = _scenegen.save_scene(scene, out)
    print(f"wrote scene to {manifest.parent} (manifest: {manifest.name})")
    return 0


def cmd_run(spec, scene_path, algo):
    if algo not in CLI_ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}; choose from {sorted(CLI_ALGORITHMS)}")
    scene = _scenegen.load_scene(scene_path)
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    sr = scene.frame_spec.sample_rate
    run_cfg = spec.run_config()
    ref = spec.reference_channel - 1

    res = run_algorithm(algo, scene, run_cfg)
    mixture = scene.time_signals["mixture"]
    if algo == "unprocessed":  # exact, without an STFT round trip
        out_time = mixture[:, ref:ref + 1]
    else:
        spg = _stft.Spectrogram(res.s_hat[:, :, None], scene.frame_spec)
        out_time = _stft.synthesize(spg, length=mixture.shape[0])
    _stft.write_wav(out / "enhanced.wav", out_time, sr, dtype="float32")
    bp_scale = res.diagnostics.bp_scale
    filters = {"h": res.state.h, "w": res.state.w, "a": res.state.a, "bp_scale": bp_scale}
    np.savez(out / "filters.npz", **{k: v for k, v in filters.items() if v is not None})

    rep = _metrics.evaluate_run(
        scene, res.state, bp_scale, algorithm=algo,
        seed=scene.config.seed, iterations=spec.iterations,
        reference_channel=spec.reference_channel,
    )
    diagnostics = {"algorithm": algo, **res.diagnostics.as_dict(), "metrics": rep.row()}
    (out / "diagnostics.json").write_text(
        json.dumps(diagnostics, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {out / 'enhanced.wav'} and diagnostics.json")
    return 0


def cmd_bench(spec):
    reports = run_bench(spec)
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    _metrics.write_csv(reports, csv_path, algorithm_order=list(spec.algorithms))
    print(f"wrote {csv_path} ({len(reports)} runs)")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; config errors are 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _build_parser():
    parser = _Parser(prog="echosep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=("narrowband", "convolutive"), default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--mics", type=int, default=None)
        p.add_argument("--duration", type=float, default=None, help="scene length in seconds")
        p.add_argument("--iterations", type=int, default=None)
        p.add_argument("--frame", type=int, default=None, help="STFT frame length")
        p.add_argument("--hop", type=int, default=None, help="STFT hop size")

    p_sim = sub.add_parser("simulate", help="render a scene to WAVs + manifest")
    common(p_sim)

    p_run = sub.add_parser("run", help="process a saved scene")
    common(p_run)
    p_run.add_argument("--scene", required=True, help="scene directory or manifest path")
    p_run.add_argument("--algo", default="joint")

    p_bench = sub.add_parser("bench", help="benchmark algorithms over seeded scenes")
    common(p_bench)
    p_bench.add_argument("--runs", type=int, default=None)
    p_bench.add_argument("--algo", default=None,
                         help="comma-separated algorithm list "
                              f"(default: {','.join(CLI_ALGORITHMS)})")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            algo = args.algo
            args_no_algo = argparse.Namespace(**{**vars(args), "algo": None})
            spec = ExperimentSpec.from_args(args_no_algo)
            code = cmd_run(spec, args.scene, algo)
        else:
            spec = ExperimentSpec.from_args(args)
            if args.command == "simulate":
                code = cmd_simulate(spec)
            else:
                code = cmd_bench(spec)
    except (NumericsError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
