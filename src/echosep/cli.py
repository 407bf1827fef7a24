"""Command-line entry point: scene simulation, algorithm runs, benchmarks.

Subcommands:
  simulate  render a scene and write it as WAVs plus a JSON manifest
  run       process a saved scene with one algorithm, write the result
  bench     run algorithms over seeded scenes and write a metrics CSV

Configuration comes from an optional JSON file (--config) whose keys are
ExperimentSpec's fields; each flag sets the field its argparse dest names and
overrides the file's value. A subcommand takes only the flags it reads: run
has no scene flags, simulate no --iterations. Exit codes: 0 success,
1 a configuration or input file that is missing, unreadable or malformed,
2 numerical failure at runtime.
"""

import argparse
import json
import sys
import numpy as np
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import metrics as _metrics
from . import optimizer as _optimizer
from . import scenegen as _scenegen
from . import stft as _stft
from .model import NumericsError

__all__ = ["main", "ExperimentSpec", "run_algorithm", "run_bench"]


# The algorithms by name, in table order; each maps (scene, RunConfig) to a
# RunResult. Each looks its run up in optimizer at call time, so a wrapper
# patched onto optimizer.run_* is the one called.
CLI_ALGORITHMS = {
    "unprocessed": lambda scene, cfg: _optimizer.run_unprocessed(scene.mixture, cfg),
    "ls_aec": lambda scene, cfg: _optimizer.run_ls_aec(scene.mixture, scene.loudspeaker, cfg),
    "ive": lambda scene, cfg: _optimizer.run_ive_only(scene.mixture, cfg, truth=scene.truth),
    "bnlms_ive": lambda scene, cfg: _optimizer.run_bnlms_ive(
        scene.mixture, scene.loudspeaker, cfg, truth=scene.truth),
    "joint": lambda scene, cfg: _optimizer.run_joint(
        scene.mixture, scene.loudspeaker, cfg, truth=scene.truth),
}


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce a simulation, run, or benchmark."""

    seed: int = 0
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
    source_wavs: list = field(default_factory=list)  # with rir_wavs, a convolutive scene
    rir_wavs: list = field(default_factory=list)
    out: str = "."

    def __post_init__(self):
        for name in ("ser_db", "ier_db", "enr_db"):
            pair = getattr(self, name)
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(v, (int, float)) and np.isfinite(v) for v in pair)
                    and pair[0] <= pair[1]):
                raise ValueError(f"{name} must be a pair [low, high] of finite numbers "
                                 f"with low <= high, got {pair!r}")
        for f in fields(self):
            _scenegen.check_type(getattr(self, f.name), f.type, f.name)
        for name, kind in (("ser_db", float), ("ier_db", float), ("enr_db", float),
                           ("algorithms", str), ("source_wavs", str), ("rir_wavs", str)):
            for i, item in enumerate(getattr(self, name)):
                _scenegen.check_type(item, kind, f"{name}[{i}]")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not self.algorithms:
            raise ValueError("algorithms must name at least one algorithm")
        for name in self.algorithms:
            if name not in CLI_ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {name!r}; choose from {sorted(CLI_ALGORITHMS)}"
                )
        if bool(self.source_wavs) != bool(self.rir_wavs):
            raise ValueError("source_wavs and rir_wavs must both be given (a convolutive "
                             "scene) or neither (a narrowband scene)")

    def frame_spec(self):
        return _stft.FrameSpec(self.frame_len, self.hop, self.sample_rate)

    def scenario(self, seed):
        """The scene drawn for seed: SER, IER and ENR uniform in their ranges, then its seed."""
        rng = np.random.default_rng(seed)
        return _scenegen.ScenarioConfig(
            mics=self.mics,
            ser_db=float(rng.uniform(*self.ser_db)),
            ier_db=float(rng.uniform(*self.ier_db)),
            enr_db=float(rng.uniform(*self.enr_db)),
            seed=int(rng.integers(0, 2**31 - 1)),
            duration_s=self.duration_s,
        )

    def run_config(self):
        return _optimizer.RunConfig(
            iterations=self.iterations, reference_channel=self.reference_channel
        )

    @classmethod
    def from_args(cls, args):
        """The config file's values, overridden by every spec field the command line set."""
        values = {}
        if args.config:
            try:
                loaded = json.loads(Path(args.config).read_text())
            except (OSError, ValueError) as exc:
                raise _scenegen.file_error(args.config, exc) from None
            loaded = _scenegen.check_type(loaded, dict, "config file")
            unknown = set(loaded) - {f for f in cls.__dataclass_fields__}
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            values.update(loaded)
        values.update({k: v for k, v in vars(args).items()
                       if k in cls.__dataclass_fields__ and v is not None})
        return cls(**values)


def _make_scene(spec, seed):
    cfg = spec.scenario(seed)
    if spec.source_wavs:
        return _scenegen.render_convolutive(
            cfg, spec.source_wavs, spec.rir_wavs, frame_spec=spec.frame_spec())
    return _scenegen.render_narrowband(cfg, frame_spec=spec.frame_spec())


def run_algorithm(name, scene, run_cfg):
    """Run one registered algorithm on a scene; returns its RunResult."""
    return CLI_ALGORITHMS[name](scene, run_cfg)


def run_bench(spec):
    """Benchmark all requested algorithms over seeded scenes; returns reports.

    A scene's algorithms all run first, each keeping its state and bp_scale;
    each image is then read once and every run scored on it, in table order.
    """
    run_cfg = replace(spec.run_config(), records=False)  # no report reads a record
    reports = []
    for i in range(spec.runs):
        seed = spec.seed + i
        scene = _make_scene(spec, seed)
        runs = []
        for name in spec.algorithms:
            res = run_algorithm(name, scene, run_cfg)
            runs.append((res.state, res.diagnostics.bp_scale))
            del res  # its outputs are not scored
        read = replace(scene, images=dict(scene.images))
        for name, (state, bp_scale) in zip(spec.algorithms, runs):
            reports.append(_metrics.evaluate_run(
                read, state, bp_scale, algorithm=name, seed=seed,
                iterations=spec.iterations, reference_channel=spec.reference_channel))
        del scene, read, runs  # rendering the next scene needs none of them
    return reports


def cmd_simulate(spec):
    scene = _make_scene(spec, spec.seed)
    out = Path(spec.out)
    manifest = _scenegen.save_scene(scene, out)
    print(f"wrote scene to {manifest.parent} (manifest: {manifest.name})")
    return 0


def cmd_run(spec, scene_path, algo):
    scene = _scenegen.load_scene(scene_path)
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    sr = scene.frame_spec.sample_rate
    ref = spec.reference_channel - 1

    res = run_algorithm(algo, scene, spec.run_config())
    mixture = scene.time_signals["mixture"]
    if algo == "unprocessed":  # exact, without an STFT round trip
        out_time = mixture[:, ref:ref + 1]
    else:
        out_time = _stft.synthesize(res.s_hat, scene.frame_spec, length=mixture.shape[0])
    _stft.write_wav(out / "enhanced.wav", out_time, sr)
    bp_scale = res.diagnostics.bp_scale
    np.savez(out / "filters.npz", h=res.state.h, w=res.state.w, a=res.state.a, bp_scale=bp_scale)

    rep = _metrics.evaluate_run(
        scene, res.state, bp_scale, algorithm=algo,
        seed=scene.config.seed, iterations=spec.iterations,
        reference_channel=spec.reference_channel,
    )
    diagnostics = {"algorithm": algo, **res.diagnostics.as_dict(), "metrics": rep.row()}
    strict = json.loads(json.dumps(diagnostics), parse_constant=lambda c: None)  # NaN, inf: null
    (out / "diagnostics.json").write_text(
        json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {out / 'enhanced.wav'} and diagnostics.json")
    return 0


def cmd_bench(spec):
    reports = run_bench(spec)
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    _metrics.write_csv(reports, csv_path)
    print(f"wrote {csv_path} ({len(reports)} runs)")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; config errors are 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _algorithm_list(text):
    return tuple(a.strip() for a in text.split(",") if a.strip())


def _build_parser():
    parser = _Parser(prog="echosep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, scene=True, iterations=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output directory")
        if scene:  # the flags that draw a scene
            p.add_argument("--seed", type=int)
            p.add_argument("--mics", type=int)
            p.add_argument("--duration", dest="duration_s", type=float,
                           help="scene length in seconds")
            p.add_argument("--frame", dest="frame_len", type=int, help="STFT frame length")
            p.add_argument("--hop", type=int, help="STFT hop size")
        if iterations:
            p.add_argument("--iterations", type=int)
        return p

    command("simulate", "render a scene to WAVs + manifest", iterations=False)

    p_run = command("run", "process a saved scene", scene=False)
    p_run.add_argument("--scene", required=True, help="scene directory or manifest path")
    p_run.add_argument("--algo", default="joint", choices=tuple(CLI_ALGORITHMS))

    p_bench = command("bench", "benchmark algorithms over seeded scenes")
    p_bench.add_argument("--runs", type=int)
    p_bench.add_argument("--algo", dest="algorithms", type=_algorithm_list,
                         help="comma-separated algorithm list "
                              f"(default: {','.join(CLI_ALGORITHMS)})")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = ExperimentSpec.from_args(args)
        if args.command == "simulate":
            code = cmd_simulate(spec)
        elif args.command == "run":
            code = cmd_run(spec, args.scene, args.algo)
        else:
            code = cmd_bench(spec)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
