"""Synthetic acoustic scenes for testing and benchmarking.

Narrowband mode draws per-bin multiplicative transfer functions and builds the
microphone mixture as an exact sum of component images (target source, echo,
interference, sensor noise), keeping the true mixing parameters for
diagnostics. Convolutive mode renders time-domain scenes from user-supplied
impulse-response WAV files, convolving with numpy's real FFT. Component
images are scaled to requested source-to-echo, interference-to-echo and
echo-to-noise power ratios measured at the first microphone.
"""

import json
import numpy as np
from collections.abc import Mapping
from dataclasses import dataclass, asdict, field, fields
from pathlib import Path

from . import stft as _stft

__all__ = [
    "ScenarioConfig",
    "SceneTruth",
    "Scene",
    "synth_sources",
    "render_narrowband",
    "render_convolutive",
    "save_scene",
    "load_scene",
]

COMPONENTS = ("soi", "echo", "interference", "noise")


@dataclass
class ScenarioConfig:
    """A concrete sampled scene: geometry-free power ratios plus bookkeeping."""

    mics: int = 4
    ser_db: float = 7.5
    ier_db: float = 2.5
    enr_db: float = 30.0
    seed: int = 0
    duration_s: float = 5.0

    def __post_init__(self):
        for f in fields(self):  # int also for float, as in JSON; bool is an int that none takes
            value = getattr(self, f.name)
            kinds = (int, np.integer) + ((float, np.floating) if f.type is float else ())
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"{f.name} must be {f.type.__name__}, got {value!r}")
        if self.mics < 2:
            raise ValueError("scenes need at least 2 microphones")
        if not (np.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration must be finite and positive, got {self.duration_s} s")
        for name in ("ser_db", "ier_db"):
            v = getattr(self, name)
            if np.isnan(v) or v == np.inf:
                raise ValueError(f"{name} must be finite or -inf (component off)")
        if np.isnan(self.enr_db) or self.enr_db == -np.inf:
            raise ValueError("enr_db must be finite or +inf (noise off)")


@dataclass
class SceneTruth:
    """True narrowband mixing parameters (available in narrowband mode only)."""

    a_soi: np.ndarray    # (F, M) target steering vectors
    echo_atf: np.ndarray  # (F, M) loudspeaker-to-microphone transfer
    bg_mix: np.ndarray   # (F, M, M-1) interference mixing matrix


@dataclass
class Scene:
    """Mixture plus ground-truth component images in the STFT domain.

    mixture = sum of images (exact); frame_spec is None for scenes generated
    directly on an abstract frequency grid. time_signals holds time-domain
    renditions keyed like images plus "mixture"/"loudspeaker" for a scene
    rendered in the time domain, but only "mixture", the one a run reads, for
    a loaded scene.
    """

    mixture: np.ndarray      # (F, T, M)
    loudspeaker: np.ndarray  # (F, T)
    images: dict             # name -> (F, T, M)
    config: ScenarioConfig
    truth: SceneTruth = None
    frame_spec: object = None
    gains: dict = field(default_factory=dict)
    time_signals: dict = None


def _circular_gauss(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def synth_sources(rng, n_freqs, n_frames, n_bg=1):
    """Draw model-matched source spectra.

    The target source has joint broadband activity: each frame is an i.i.d.
    circular unit vector across frequency scaled by an exponential radial
    envelope, which makes the per-bin magnitudes strongly super-Gaussian.
    Background sources and the loudspeaker signal are independent; the
    background is stationary circular Gaussian, the loudspeaker reuses the
    non-Gaussian broadband construction.

    Returns (s, q, u): (F, T), (F, T, n_bg), (F, T).
    """
    s = _spherical_nongauss(rng, n_freqs, n_frames)
    q = _circular_gauss(rng, (n_freqs, n_frames, n_bg))
    u = _spherical_nongauss(rng, n_freqs, n_frames)
    return s, q, u


def _spherical_nongauss(rng, n_freqs, n_frames):
    g = _circular_gauss(rng, (n_freqs, n_frames))
    g /= np.linalg.norm(g, axis=0, keepdims=True)
    radius = rng.exponential(scale=1.0, size=n_frames)
    # normalize to unit average per-bin power
    radius *= np.sqrt(n_freqs / np.mean(radius**2))
    return g * radius[None, :]


def _power(x, channel=0):
    return float(np.mean(np.abs(x[..., channel]) ** 2))


def _mix(raw, cfg):
    """Scale raw (soi, echo, interference, noise) images in place to cfg's ratios; sum them.

    The echo keeps its level; the other gains make SER, IER and ENR at
    microphone 1 match cfg exactly. Returns (images, mixture, gains).
    """
    images = dict(zip(COMPONENTS, raw))
    p_echo = _power(images["echo"])
    ratios_db = {"soi": cfg.ser_db, "interference": cfg.ier_db, "noise": -cfg.enr_db}
    gains = {name: float(np.sqrt(p_echo * 10.0 ** (db / 10.0) / _power(images[name])))
             for name, db in ratios_db.items()}
    gains["echo"] = 1.0
    for name in ratios_db:
        images[name] *= gains[name]
    mixture = images["soi"] + images["echo"] + images["interference"] + images["noise"]
    return images, mixture, gains


def render_narrowband(cfg, frame_spec=None, n_freqs=None, n_frames=None):
    """Build a narrowband scene with exact component images and known mixing.

    The grid is taken from frame_spec + cfg.duration_s when given, otherwise
    from explicit n_freqs/n_frames. Component gains are set so the power
    ratios measured at microphone 1 match cfg exactly.
    """
    if frame_spec is not None:
        n_samples = int(round(cfg.duration_s * frame_spec.sample_rate))
        n_freqs = frame_spec.n_freqs
        n_frames = frame_spec.n_frames(n_samples)
    if n_freqs is None or n_frames is None:
        raise ValueError("render_narrowband needs a frame_spec or explicit n_freqs/n_frames")
    rng = np.random.default_rng(cfg.seed)
    m = cfg.mics
    s, q, u = synth_sources(rng, n_freqs, n_frames, n_bg=m - 1)
    a_soi = _circular_gauss(rng, (n_freqs, m))
    echo_atf = _circular_gauss(rng, (n_freqs, m))
    bg_mix = _circular_gauss(rng, (n_freqs, m, m - 1))
    soi = a_soi[:, None, :] * s[:, :, None]
    echo = echo_atf[:, None, :] * u[:, :, None]
    interference = np.einsum("fmk,ftk->ftm", bg_mix, q)
    del s, q  # only the images read the sources
    noise = _circular_gauss(rng, (n_freqs, n_frames, m))
    images, mixture, gains = _mix((soi, echo, interference, noise), cfg)
    return Scene(
        mixture=mixture,
        loudspeaker=u,
        images=images,
        config=cfg,
        truth=SceneTruth(a_soi=a_soi, echo_atf=echo_atf, bg_mix=bg_mix),
        frame_spec=frame_spec,
        gains=gains,
    )


def _analyzed_scene(signals, cfg, frame_spec, gains, truth=None, keep=()):
    """A Scene analyzing (name, samples) pairs one at a time; keeps the samples named in keep."""
    tensors, kept = {}, {}
    for name, sig in signals:
        tensors[name] = _stft.analyze(sig, frame_spec)
        if name in keep:
            kept[name] = sig
    return Scene(
        mixture=tensors.pop("mixture"),
        loudspeaker=tensors.pop("loudspeaker")[:, :, 0],
        images={k: tensors[k] for k in COMPONENTS},
        config=cfg,
        truth=truth,
        frame_spec=frame_spec,
        gains=gains,
        time_signals=kept,
    )


def _load_rir(path, n_mics, sample_rate):
    rir, rate = _stft.read_wav(path)
    if rate != sample_rate:
        raise ValueError(f"RIR {path}: sample rate {rate} != {sample_rate}")
    if rir.shape[1] != n_mics:
        raise ValueError(f"RIR {path}: {rir.shape[1]} channels, expected {n_mics}")
    return rir


def _convolve(sig, rir, n_samples):
    """First n_samples of the linear convolution of sig with each RIR channel.

    One real FFT of the source and one batched over the RIR channels, at a
    power-of-two length that holds the whole convolution, so nothing wraps.
    """
    n_fft = 1 << (len(sig) + len(rir) - 2).bit_length()
    spectrum = np.fft.rfft(rir, n_fft, axis=0)
    spectrum *= np.fft.rfft(sig, n_fft)[:, None]
    return np.fft.irfft(spectrum, n_fft, axis=0)[:n_samples]


def render_convolutive(cfg, source_wavs, rir_wavs, frame_spec):
    """Render a time-domain scene from dry sources and impulse responses.

    source_wavs : paths of mono WAVs [target, loudspeaker, interferer]
    rir_wavs : paths of M-channel RIR WAVs in the same order, one channel
        per microphone, matching sample rates.

    Component images are the convolutions, scaled like the narrowband case;
    sensor noise is white Gaussian. True mixing parameters are not available
    in this mode. A source that is empty, or whose image is silent, raises
    ValueError.
    """
    if len(source_wavs) != 3 or len(rir_wavs) != 3:
        raise ValueError("expected three sources and three RIRs: target, loudspeaker, interferer")
    for p in list(source_wavs) + list(rir_wavs):
        if not Path(p).exists():
            raise FileNotFoundError(f"missing input file: {p}")
    sr = frame_spec.sample_rate
    n_samples = int(round(cfg.duration_s * sr))
    m = cfg.mics
    dry = []
    for path in source_wavs:
        data, rate = _stft.read_wav(path)
        if rate != sr:
            raise ValueError(f"source {path}: sample rate {rate} != {sr}")
        mono = data[:, 0]
        if len(mono) == 0:
            raise ValueError(f"source {path}: no samples")
        if len(mono) < n_samples:
            reps = int(np.ceil(n_samples / len(mono)))
            mono = np.tile(mono, reps)
        dry.append(mono[:n_samples])
    rirs = [_load_rir(p, m, sr) for p in rir_wavs]

    raw = [_convolve(sig, rir, n_samples) for sig, rir in zip(dry, rirs)]
    for image, source, rir in zip(raw, source_wavs, rir_wavs):
        if _power(image) <= 0:
            raise ValueError(f"source {source} through RIR {rir}: image has zero power")
    noise = np.random.default_rng(cfg.seed).standard_normal((n_samples, m))
    images, mixture, gains = _mix((*raw, noise), cfg)
    time_signals = {**images, "loudspeaker": dry[1][:, None], "mixture": mixture}
    return _analyzed_scene(time_signals.items(), cfg, frame_spec, gains, keep=time_signals)


def save_scene(scene, out_dir):
    """Write a scene as a WAV set plus a JSON manifest; returns manifest path.

    The WAVs hold the stored time signals of a scene rendered in the time
    domain, otherwise the syntheses of its STFT tensors, each synthesized
    and written before the next.
    """
    if scene.frame_spec is None:
        raise ValueError("cannot save a scene without a frame spec")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sr = scene.frame_spec.sample_rate
    tensors = {"mixture": scene.mixture, "loudspeaker": scene.loudspeaker, **scene.images}
    n_samples = int(round(scene.config.duration_s * sr))
    files = {name: f"{name}.wav" for name in tensors}
    stored = scene.time_signals or {}
    for name, x in tensors.items():  # no signal outlives its file
        sig = stored[name] if name in stored else _stft.synthesize(x, scene.frame_spec)
        _stft.write_wav(out / files[name], sig[:n_samples], sr, dtype="float32")
        del sig
    manifest = {
        "schema": "echosep-scene-v1",
        "config": asdict(scene.config),
        "gains": scene.gains,
        "files": files,
        "sample_rate": sr,
        "frame": {"frame_len": scene.frame_spec.frame_len, "hop": scene.frame_spec.hop},
    }
    if scene.truth is not None:
        np.savez(out / "truth.npz", **asdict(scene.truth))
        manifest["truth_file"] = "truth.npz"
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _declared(values, names, where):
    """values' entries for names, ignoring any others; one missing raises ValueError."""
    if not isinstance(values, Mapping):
        raise ValueError(f"{where} is not a mapping")
    missing = [n for n in names if n not in values]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(missing)}")
    return {n: values[n] for n in names}


def load_scene(manifest_path):
    """Load a scene saved by save_scene, analyzing each WAV to STFT as it is read.

    Each part is built from the fields it declares; other keys and arrays
    are ignored, and a missing one raises ValueError naming its file, as does
    a WAV of another shape or rate than save_scene writes. time_signals keeps
    the mixture's samples alone.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict) or manifest.get("schema") != "echosep-scene-v1":
        raise ValueError(f"not a scene manifest: {manifest_path}")
    top = _declared(manifest, ("config", "gains", "files", "sample_rate", "frame"),
                    f"{manifest_path}: manifest")
    base = manifest_path.parent
    cfg = ScenarioConfig(**_declared(top["config"], [f.name for f in fields(ScenarioConfig)],
                                     f"{manifest_path}: config"))
    sr = top["sample_rate"]
    frame = _declared(top["frame"], ("frame_len", "hop"), f"{manifest_path}: frame")
    spec = _stft.FrameSpec.default(frame["frame_len"], frame["hop"], sr)
    files = _declared(top["files"], ("mixture", "loudspeaker", *COMPONENTS),
                      f"{manifest_path}: files")

    def read(name):  # the samples, channels and rate save_scene writes, or ValueError
        data, rate = _stft.read_wav(base / files[name])
        shape = (int(round(cfg.duration_s * sr)), 1 if name == "loudspeaker" else cfg.mics)
        if data.shape != shape or rate != sr:
            raise ValueError(f"{files[name]}: {data.shape} samples x channels at {rate} Hz, "
                             f"expected {shape} at {sr} Hz")
        return data

    truth = None
    if manifest.get("truth_file"):
        with np.load(base / manifest["truth_file"]) as npz:
            truth = SceneTruth(**_declared(npz, [f.name for f in fields(SceneTruth)],
                                           f"{manifest['truth_file']}: truth"))
    return _analyzed_scene(((name, read(name)) for name in files), cfg, spec, top["gains"],
                           truth, keep=("mixture",))
