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
import zipfile
import numpy as np
from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass, asdict, field, fields
from functools import partial
from numbers import Integral, Real
from pathlib import Path

from . import stft as _stft

__all__ = [
    "ScenarioConfig",
    "SceneTruth",
    "Scene",
    "render_narrowband",
    "render_convolutive",
    "save_scene",
    "load_scene",
    "check_type",
]

COMPONENTS = ("soi", "echo", "interference", "noise")


def check_type(value, kind, name):
    """value if it may stand for a field declared kind, else ValueError naming the field.

    As JSON gives values: never a bool (an int to Python); an integer for int,
    any real for float, a list or tuple for tuple and list, a mapping for dict.
    """
    accepted = {int: Integral, float: Real, tuple: (list, tuple), list: (list, tuple),
                dict: Mapping}
    if isinstance(value, bool) or not isinstance(value, accepted.get(kind, kind)):
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def file_error(file, reason):  # not in __all__: only failure paths call it
    """The one input-file error, ValueError("<file>: <reason>"); an OSError gives its strerror."""
    return ValueError(f"{file}: {getattr(reason, 'strerror', None) or reason}")


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
        for f in fields(self):
            check_type(getattr(self, f.name), f.type, f.name)
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


class _Images(Mapping):
    """Component images by name, read-only; each entry is a callable that forms it on each read."""

    def __init__(self, entries):
        self._entries = entries

    def __getitem__(self, name):
        return self._entries[name]()

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


@dataclass
class Scene:
    """Mixture plus ground-truth component images in the STFT domain.

    mixture = sum of images (exact); frame_spec is None for scenes generated
    directly on an abstract frequency grid. A scene holds no image: each read
    of one forms a fresh array. A narrowband scene forms its soi and echo
    images from the truth, the target spectrum, the loudspeaker and the soi
    gain, and its interference and noise images by drawing them again from
    the generator states the render kept. A time-domain scene,
    convolutive or loaded, holds no image spectrum: time_signals holds the
    samples of every image, "mixture" and "loudspeaker", and each read of an
    image analyzes its own. A narrowband scene has no time_signals.
    """

    mixture: np.ndarray      # (F, T, M)
    loudspeaker: np.ndarray  # (F, T)
    images: Mapping          # name -> (F, T, M), read-only
    config: ScenarioConfig
    truth: SceneTruth = None
    frame_spec: object = None
    gains: dict = field(default_factory=dict)
    time_signals: dict = None


def _circular_gauss(rng, shape):
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)  # each draw freed once written
    z.imag = rng.standard_normal(shape)
    z /= np.sqrt(2.0)  # the ufunc of (re + 1j im) / sqrt(2), so the same bytes
    return z


def _spherical_nongauss(rng, n_freqs, n_frames):
    g = _circular_gauss(rng, (n_freqs, n_frames))
    g /= np.linalg.norm(g, axis=0, keepdims=True)
    radius = rng.exponential(scale=1.0, size=n_frames)
    # normalize to unit average per-bin power
    radius *= np.sqrt(n_freqs / np.mean(radius**2))
    g *= radius[None, :]
    return g


def _power(x, channel=0):
    return float(np.mean(np.abs(x[..., channel]) ** 2))


def _image(transfer, source, gain=None):
    """A source's image transfer x source, (F, T, M), scaled in place by gain if one is given."""
    image = transfer[:, None, :] * source[:, :, None]
    if gain is not None:
        image *= gain  # as _mix scales it, so the same bytes
    return image


def _drawn(draw, state, shape, gain, mixing=None):
    """draw(rng, shape) from the PCG64 state, through (F, M, K) mixing if given, times gain."""
    bit_generator = np.random.PCG64()
    bit_generator.state = state
    image = draw(np.random.Generator(bit_generator), shape)
    if mixing is not None:
        image = np.einsum("fmk,ftk->ftm", mixing, image)  # as the render mixes q
    image *= gain  # as _mix scales it
    return image


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
    mixture = images["soi"] + images["echo"]  # one buffer; the order of the sums fixes its bytes
    mixture += images["interference"]
    mixture += images["noise"]
    return images, mixture, gains


def render_narrowband(cfg, frame_spec=None, n_freqs=None, n_frames=None):
    """Build a narrowband scene with exact component images and known mixing.

    The grid is taken from frame_spec + cfg.duration_s when given, otherwise
    from explicit n_freqs/n_frames. Component gains are set so the power
    ratios measured at microphone 1 match cfg exactly. The scene holds the
    mixture, target s, loudspeaker u, truth, gains and the generator states
    from just before the background and the noise draws, from which each
    read draws those images again with the draw function this render used.
    """
    if frame_spec is not None:
        n_samples = int(round(cfg.duration_s * frame_spec.sample_rate))
        n_freqs = frame_spec.n_freqs
        n_frames = frame_spec.n_frames(n_samples)
    if n_freqs is None or n_frames is None:
        raise ValueError("render_narrowband needs a frame_spec or explicit n_freqs/n_frames")
    rng = np.random.default_rng(cfg.seed)
    m, draw = cfg.mics, _circular_gauss  # the images read later draw with this render's function
    s = _spherical_nongauss(rng, n_freqs, n_frames)
    q_state = rng.bit_generator.state  # each read of the interference draws q again from here
    q = draw(rng, (n_freqs, n_frames, m - 1))
    u = _spherical_nongauss(rng, n_freqs, n_frames)
    a_soi = draw(rng, (n_freqs, m))
    echo_atf = draw(rng, (n_freqs, m))
    bg_mix = draw(rng, (n_freqs, m, m - 1))
    soi, echo = _image(a_soi, s), _image(echo_atf, u)
    interference = np.einsum("fmk,ftk->ftm", bg_mix, q)
    del q  # only the interference image reads it
    noise_state = rng.bit_generator.state
    noise = draw(rng, (n_freqs, n_frames, m))
    _, mixture, gains = _mix((soi, echo, interference, noise), cfg)
    return Scene(
        mixture=mixture,
        loudspeaker=u,
        images=_Images({
            "soi": partial(_image, a_soi, s, gains["soi"]),
            "echo": partial(_image, echo_atf, u),  # the echo's gain is 1
            "interference": partial(_drawn, draw, q_state, (n_freqs, n_frames, m - 1),
                                    gains["interference"], bg_mix),
            "noise": partial(_drawn, draw, noise_state, (n_freqs, n_frames, m), gains["noise"])}),
        config=cfg,
        truth=SceneTruth(a_soi=a_soi, echo_atf=echo_atf, bg_mix=bg_mix),
        frame_spec=frame_spec,
        gains=gains,
    )


def _analyzed_scene(samples, cfg, frame_spec, gains, truth=None):
    """A Scene holding samples by name: mixture and loudspeaker analyzed now, images on read."""
    return Scene(
        mixture=_stft.analyze(samples["mixture"], frame_spec),
        loudspeaker=_stft.analyze(samples["loudspeaker"], frame_spec)[:, :, 0],
        images=_Images({k: partial(_stft.analyze, samples[k], frame_spec) for k in COMPONENTS}),
        config=cfg,
        truth=truth,
        frame_spec=frame_spec,
        gains=gains,
        time_signals=samples,
    )


def _read(path, sample_rate, shape, folder="."):
    """The samples of the WAV folder/path, of sample_rate and shape (samples None: any length).

    Any other file, one without samples, or none, raises file_error naming
    path as given.
    """
    try:
        data, rate = _stft.read_wav(Path(folder, path))
    except (OSError, ValueError) as exc:
        raise file_error(path, exc) from None
    n, channels = shape
    if rate != sample_rate or data.shape[1] != channels or n not in (None, len(data)):
        raise file_error(path, f"{data.shape} samples x channels at {rate} Hz, expected "
                               f"({'any' if n is None else n}, {channels}) at {sample_rate} Hz")
    if len(data) == 0:
        raise file_error(path, "no samples")
    return data


def _convolve(sig, rir, n_samples):
    """First n_samples of the linear convolution of sig with each RIR channel.

    One real FFT of the source and one batched over the RIR channels, at a
    power-of-two length that holds the whole convolution, so nothing wraps.
    """
    n_fft = 1 << (len(sig) + len(rir) - 2).bit_length()
    spectrum = np.fft.rfft(rir, n_fft, axis=0)
    spectrum *= np.fft.rfft(sig, n_fft)[:, None]
    return np.fft.irfft(spectrum, n_fft, axis=0)[:n_samples].copy()  # not a view of n_fft rows


def render_convolutive(cfg, source_wavs, rir_wavs, frame_spec):
    """Render a time-domain scene from dry sources and impulse responses.

    source_wavs : paths of mono WAVs [target, loudspeaker, interferer]
    rir_wavs : paths of M-channel RIR WAVs in the same order, one channel
        per microphone, matching sample rates.

    Component images are the convolutions, scaled like the narrowband case;
    sensor noise is white Gaussian. True mixing parameters are not available
    in this mode. A WAV that _read rejects (a source must be mono) or a
    source whose image is silent raises file_error naming it.
    """
    if len(source_wavs) != 3 or len(rir_wavs) != 3:
        raise ValueError("expected three sources and three RIRs: target, loudspeaker, interferer")
    sr = frame_spec.sample_rate
    n_samples = int(round(cfg.duration_s * sr))
    m = cfg.mics
    dry = []
    for path in source_wavs:
        mono = _read(path, sr, (None, 1))[:, 0]
        if len(mono) < n_samples:
            reps = int(np.ceil(n_samples / len(mono)))
            mono = np.tile(mono, reps)
        dry.append(mono[:n_samples])
    rirs = [_read(p, sr, (None, m)) for p in rir_wavs]

    raw = [_convolve(sig, rir, n_samples) for sig, rir in zip(dry, rirs)]
    for image, source, rir in zip(raw, source_wavs, rir_wavs):
        if _power(image) <= 0:
            raise file_error(source, f"image through {rir} has zero power")
    noise = np.random.default_rng(cfg.seed).standard_normal((n_samples, m))
    images, mixture, gains = _mix((*raw, noise), cfg)
    time_signals = {**images, "loudspeaker": dry[1][:, None], "mixture": mixture}
    return _analyzed_scene(time_signals, cfg, frame_spec, gains)


def save_scene(scene, out_dir):
    """Write a scene as a WAV set plus a JSON manifest; returns manifest path.

    The WAVs hold the time signals of a time-domain scene, convolutive or
    loaded, otherwise the syntheses of its STFT tensors, each synthesized
    and written before the next.
    """
    if scene.frame_spec is None:
        raise ValueError("cannot save a scene without a frame spec")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sr = scene.frame_spec.sample_rate
    tensors = ChainMap({"mixture": scene.mixture, "loudspeaker": scene.loudspeaker}, scene.images)
    n_samples = int(round(scene.config.duration_s * sr))
    files = {name: f"{name}.wav" for name in ("mixture", "loudspeaker", *scene.images)}
    stored = scene.time_signals or {}
    for name in files:  # no signal outlives its file; an image is read as it is synthesized
        sig = stored[name] if name in stored else _stft.synthesize(tensors[name], scene.frame_spec)
        _stft.write_wav(out / files[name], sig[:n_samples], sr)
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


# The manifest fields load_scene reads, each with its type; a dict is a nested mapping.
_MANIFEST = {"config": {f.name: f.type for f in fields(ScenarioConfig)},
             "gains": dict.fromkeys(COMPONENTS, float),
             "files": dict.fromkeys(("mixture", "loudspeaker", *COMPONENTS), str),
             "sample_rate": int, "frame": {"frame_len": int, "hop": int}}


def _walk(values, table, key=""):
    """values' entries for table's keys, each checked by check_type; others are ignored."""
    missing = [k for k in table if k not in values]
    if missing:
        raise ValueError(f"{key or 'manifest'} lacks {', '.join(missing)}")
    out = {}
    for k, kind in table.items():
        name = f"{key}.{k}" if key else k  # dotted below the top level
        out[k] = check_type(values[k], dict if isinstance(kind, dict) else kind, name)
        if isinstance(kind, dict):
            out[k] = _walk(out[k], kind, name)
    return out


def load_scene(manifest_path):
    """Load a scene saved by save_scene: every file checked now, each image analyzed on read.

    Each manifest field read must be present, of its type and in range before
    any file opens; other keys and arrays are ignored. A failure raises
    file_error naming the file, as do a manifest or truth file that is absent
    or cannot be read or parsed, a truth array not finite or not of the
    frame's and mics' shape, and a WAV that _read rejects: absent, not a WAV,
    or of another shape or rate than save_scene writes. The mixture and
    loudspeaker are analyzed to STFT here; time_signals holds every WAV's
    samples, and each read of an image analyzes its own, so save_scene
    writes a loaded scene's files back byte for byte.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    checked = manifest_path  # the file an error below names
    try:
        manifest = json.loads(manifest_path.read_text())
        if not isinstance(manifest, dict) or manifest.get("schema") != "echosep-scene-v1":
            raise ValueError("schema is not echosep-scene-v1")
        top = _walk(manifest, _MANIFEST)
        truth_file = check_type(manifest.get("truth_file", ""), str, "truth_file")
        cfg = ScenarioConfig(**top["config"])
        sr, files, m = top["sample_rate"], top["files"], cfg.mics
        spec = _stft.FrameSpec(top["frame"]["frame_len"], top["frame"]["hop"], sr)
        truth, checked = None, truth_file
        if truth_file:  # arrays of the frame's and mics' shape, each finite
            f = spec.n_freqs
            shapes = {"a_soi": (f, m), "echo_atf": (f, m), "bg_mix": (f, m, m - 1)}
            with np.load(manifest_path.parent / truth_file) as npz:
                truth = SceneTruth(**_walk(npz, dict.fromkeys(shapes, np.ndarray), "truth"))
            for k, shape in shapes.items():
                array = getattr(truth, k)
                if array.shape != shape:
                    raise ValueError(f"{k} has shape {array.shape}, expected {shape}")
                if not (np.issubdtype(array.dtype, np.number) and np.all(np.isfinite(array))):
                    raise ValueError(f"{k} must hold finite numbers")
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:  # the last two from np.load
        raise file_error(checked, exc) from None
    n = int(round(cfg.duration_s * sr))  # the samples, channels and rate save_scene writes
    samples = {name: _read(file, sr, (n, 1 if name == "loudspeaker" else m), manifest_path.parent)
               for name, file in files.items()}
    return _analyzed_scene(samples, cfg, spec, top["gains"], truth)
