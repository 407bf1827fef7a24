"""Scene generation: source statistics, rendering, file I/O."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import formulas
from echosep import scenegen, stft
from echosep.scenegen import (
    ScenarioConfig,
    load_scene,
    render_convolutive,
    render_narrowband,
    save_scene,
)


def test_synth_sources_statistics():
    rng = np.random.default_rng(2)
    s, q, u = formulas.synth_sources(rng, 64, 2000, n_bg=2)
    # background circularity
    pseudo = np.abs(np.mean(q[:, :, 0] ** 2, axis=1))
    power = np.mean(np.abs(q[:, :, 0]) ** 2, axis=1)
    assert np.all(pseudo / power < 0.1)
    # per-bin magnitudes of the target are super-Gaussian
    kurt = np.mean(np.abs(s) ** 4) / np.mean(np.abs(s) ** 2) ** 2 - 2.0
    assert kurt > 0.0
    # target and loudspeaker are uncorrelated
    corr = np.abs(np.mean(s * u.conj()))
    corr /= np.sqrt(np.mean(np.abs(s) ** 2) * np.mean(np.abs(u) ** 2))
    assert corr < 0.05


def test_narrowband_additivity_is_exact():
    cfg = ScenarioConfig(mics=3, seed=3)
    scene = render_narrowband(cfg, n_freqs=16, n_frames=40)
    total = sum(scene.images[k] for k in ("soi", "echo", "interference", "noise"))
    np.testing.assert_array_equal(scene.mixture, total)


def test_narrowband_component_switches():
    cfg = ScenarioConfig(mics=3, seed=4, ier_db=-np.inf, enr_db=np.inf)
    scene = render_narrowband(cfg, n_freqs=8, n_frames=30)
    assert np.all(scene.images["interference"] == 0)
    assert np.all(scene.images["noise"] == 0)
    np.testing.assert_array_equal(
        scene.mixture, scene.images["soi"] + scene.images["echo"]
    )


def test_narrowband_ratios_measured_at_first_microphone():
    cfg = ScenarioConfig(mics=4, ser_db=6.25, ier_db=1.5, enr_db=28.0, seed=5)
    scene = render_narrowband(cfg, n_freqs=64, n_frames=200)

    def power(name):
        return np.mean(np.abs(scene.images[name][:, :, 0]) ** 2)

    ser = 10 * np.log10(power("soi") / power("echo"))
    ier = 10 * np.log10(power("interference") / power("echo"))
    enr = 10 * np.log10(power("echo") / power("noise"))
    assert abs(ser - 6.25) <= 0.01
    assert abs(ier - 1.5) <= 0.01
    assert abs(enr - 28.0) <= 0.01


def test_narrowband_truth_reproduces_echo_image():
    cfg = ScenarioConfig(mics=3, seed=6)
    scene = render_narrowband(cfg, n_freqs=12, n_frames=25)
    echo = scene.truth.echo_atf[:, None, :] * scene.loudspeaker[:, :, None]
    np.testing.assert_array_equal(echo, scene.images["echo"])


def test_narrowband_images_are_formed_on_each_read(monkeypatch):
    """Each read is a fresh array with the bytes _mix summed; the images cannot be replaced."""
    summed, mix = {}, scenegen._mix

    def spy(raw, cfg):
        images, mixture, gains = mix(raw, cfg)
        summed.update(images)
        return images, mixture, gains

    monkeypatch.setattr(scenegen, "_mix", spy)
    scene = render_narrowband(ScenarioConfig(mics=3, seed=8), n_freqs=9, n_frames=20)
    for name in scenegen.COMPONENTS:
        first, second = scene.images[name], scene.images[name]
        assert not np.shares_memory(first, second), name
        assert first.tobytes() == second.tobytes() == summed[name].tobytes(), name
        first[...] = 0
        assert scene.images[name].tobytes() == second.tobytes(), name
    with pytest.raises(TypeError):
        scene.images["soi"] = second


def test_held_narrowband_scenes_keep_no_image():
    """A held scene costs its mixture, loudspeaker and target spectrum.

    The truth, the gains and the two generator states add under 2%. Holding
    the interference and noise images as well measured 2.35 times these
    bytes.
    """
    def render(seed):
        return render_narrowband(ScenarioConfig(mics=4, seed=seed), n_freqs=128, n_frames=200)

    render(0)  # first calls import what numpy loads lazily
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scenes = [render(seed) for seed in range(4)]
        held = (tracemalloc.get_traced_memory()[0] - before) / len(scenes)
    finally:
        tracemalloc.stop()
    scene = scenes[0]
    floor = scene.mixture.nbytes + 2 * scene.loudspeaker.nbytes  # s has u's shape
    assert held <= 1.05 * floor, held / floor


def test_narrowband_seed_determinism():
    cfg = ScenarioConfig(mics=3, seed=7)
    a = render_narrowband(cfg, n_freqs=8, n_frames=20)
    b = render_narrowband(cfg, n_freqs=8, n_frames=20)
    np.testing.assert_array_equal(a.mixture, b.mixture)
    np.testing.assert_array_equal(a.loudspeaker, b.loudspeaker)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(mics=1)
    with pytest.raises(ValueError):
        ScenarioConfig(duration_s=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(ser_db=np.inf)


def _write_sources_and_rirs(tmp_path, sr, m, delay=None):
    rng = np.random.default_rng(8)
    paths_src, paths_rir = [], []
    for i, name in enumerate(("soi", "loud", "intf")):
        sig = rng.standard_normal(sr) * 0.1
        p = tmp_path / f"{name}.wav"
        stft.write_wav(p, sig, sr)
        paths_src.append(p)
        rir = np.zeros((64, m))
        if delay is None:
            rir[0, :] = 1.0  # unit impulse
        else:
            rir[delay, :] = 1.0
        pr = tmp_path / f"{name}_rir.wav"
        stft.write_wav(pr, rir, sr)
        paths_rir.append(pr)
    return paths_src, paths_rir


def test_convolutive_unit_impulse_rir(tmp_path):
    sr, m = 16000, 3
    srcs, rirs = _write_sources_and_rirs(tmp_path, sr, m)
    cfg = ScenarioConfig(mics=m, seed=9, duration_s=0.5)
    spec = stft.FrameSpec(512, 256, sr)
    scene = render_convolutive(cfg, srcs, rirs, frame_spec=spec)
    # echo image is the (unscaled) loudspeaker signal on every channel
    loud, _ = stft.read_wav(srcs[1])
    n = scene.time_signals["echo"].shape[0]
    for ch in range(m):
        np.testing.assert_allclose(
            scene.time_signals["echo"][:, ch], loud[:n, 0], atol=1e-7
        )


def test_convolutive_pure_delay_rir(tmp_path):
    sr, m, d = 16000, 2, 17
    srcs, rirs = _write_sources_and_rirs(tmp_path, sr, m, delay=d)
    cfg = ScenarioConfig(mics=m, seed=10, duration_s=0.5)
    spec = stft.FrameSpec(512, 256, sr)
    scene = render_convolutive(cfg, srcs, rirs, frame_spec=spec)
    loud, _ = stft.read_wav(srcs[1])
    n = scene.time_signals["echo"].shape[0]
    np.testing.assert_allclose(
        scene.time_signals["echo"][d:n, 0], loud[: n - d, 0], atol=1e-7
    )


def test_convolutive_echo_is_the_linear_convolution(tmp_path):
    """Each echo channel is the loudspeaker convolved with a long decaying RIR."""
    sr, m = 16000, 3
    srcs, rirs = _write_sources_and_rirs(tmp_path, sr, m)
    rng = np.random.default_rng(21)
    rir = rng.standard_normal((400, m)) * np.exp(-np.arange(400) / 80.0)[:, None]
    stft.write_wav(rirs[1], rir, sr)
    cfg = ScenarioConfig(mics=m, seed=22, duration_s=0.5)
    scene = render_convolutive(cfg, srcs, rirs, frame_spec=stft.FrameSpec(512, 256, sr))
    loud, _ = stft.read_wav(srcs[1])
    rir, _ = stft.read_wav(rirs[1])  # the float32-rounded taps the render used
    echo = scene.time_signals["echo"]
    n = echo.shape[0]
    for ch in range(m):
        np.testing.assert_allclose(echo[:, ch], np.convolve(loud[:, 0], rir[:, ch])[:n],
                                   rtol=0, atol=1e-9)


@pytest.mark.parametrize("index, length, reason", [
    (0, 16000, "soi.wav: image through .*soi_rir.wav has zero power"),
    (2, 16000, "intf.wav: image through .*intf_rir.wav has zero power"),
    (2, 0, "intf.wav: no samples"),
], ids=["silent_target", "silent_interferer", "empty_interferer"])
def test_convolutive_silent_or_empty_source_rejected(tmp_path, index, length, reason):
    sr, m = 16000, 2
    srcs, rirs = _write_sources_and_rirs(tmp_path, sr, m)
    stft.write_wav(srcs[index], np.zeros(length), sr)
    cfg = ScenarioConfig(mics=m, seed=23, duration_s=0.5)
    with pytest.raises(ValueError, match=reason):
        render_convolutive(cfg, srcs, rirs, frame_spec=stft.FrameSpec(512, 256, sr))


def test_convolutive_images_own_their_samples(tmp_path):
    """An image is its own n_samples rows, not a view of the longer FFT buffer."""
    sr, m = 16000, 2
    srcs, rirs = _write_sources_and_rirs(tmp_path, sr, m)
    cfg = ScenarioConfig(mics=m, seed=24, duration_s=0.5)
    scene = render_convolutive(cfg, srcs, rirs, frame_spec=stft.FrameSpec(512, 256, sr))
    for name in ("soi", "echo", "interference", "noise"):
        image = scene.time_signals[name]
        assert image.base is None and image.shape == (8000, m), name


def test_convolutive_energy_additivity(tmp_path):
    sr, m = 16000, 2
    srcs, rirs = _write_sources_and_rirs(tmp_path, sr, m)
    cfg = ScenarioConfig(mics=m, seed=11, duration_s=5.0)
    spec = stft.FrameSpec(1024, 512, sr)
    scene = render_convolutive(cfg, srcs, rirs, frame_spec=spec)
    mix_p = np.sum(scene.time_signals["mixture"] ** 2)
    comp_p = sum(np.sum(scene.time_signals[k] ** 2)
                 for k in ("soi", "echo", "interference", "noise"))
    assert abs(10 * np.log10(mix_p / comp_p)) <= 1.0


@pytest.mark.parametrize("kind, index, make, reason", [
    ("rir", 1, lambda p: None, "No such file or directory"),
    ("source", 0, lambda p: p.mkdir(), "Is a directory"),
    ("source", 2, lambda p: p.write_text("not audio"), "not a RIFF/WAVE file"),
    ("source", 1, lambda p: stft.write_wav(p, np.zeros((100, 2)), 16000),
     "(100, 2) samples x channels at 16000 Hz, expected (any, 1) at 16000 Hz"),
    ("rir", 0, lambda p: stft.write_wav(p, np.eye(8, 2), 8000),
     "(8, 2) samples x channels at 8000 Hz, expected (any, 2) at 16000 Hz"),
    ("rir", 2, lambda p: stft.write_wav(p, np.eye(8, 3), 16000),
     "(8, 3) samples x channels at 16000 Hz, expected (any, 2) at 16000 Hz"),
    ("rir", 1, lambda p: stft.write_wav(p, np.zeros((0, 2)), 16000), "no samples"),
], ids=["missing_rir", "directory_source", "source_not_a_wav", "stereo_source",
        "rir_at_another_rate", "rir_with_another_channel_count", "empty_rir"])
def test_convolutive_input_wav_rejected_naming_its_path(tmp_path, monkeypatch, kind, index,
                                                        make, reason):
    """Every input WAV is read one way: a fault is ValueError("<path as given>: <reason>")."""
    sr, m = 16000, 2
    srcs, rirs = _write_sources_and_rirs(tmp_path, sr, m)
    monkeypatch.chdir(tmp_path)
    make(tmp_path / "bad.wav")
    (srcs if kind == "source" else rirs)[index] = "bad.wav"
    cfg = ScenarioConfig(mics=m, seed=13, duration_s=0.5)
    with pytest.raises(ValueError) as exc:
        render_convolutive(cfg, srcs, rirs, frame_spec=stft.FrameSpec(512, 256, sr))
    assert str(exc.value) == f"bad.wav: {reason}"


def test_narrowband_scene_bytes_are_pinned():
    """The rendered tensors of one small scene, to the byte.

    Rendering releases each source once its image is formed; the draws and
    the arithmetic stay as they were, so the scene's bytes do not move.
    """
    scene = render_narrowband(ScenarioConfig(mics=3, seed=21), n_freqs=16, n_frames=40)
    digest = hashlib.sha256()
    for name in ("soi", "echo", "interference", "noise"):
        digest.update(scene.images[name].tobytes())
    digest.update(scene.mixture.tobytes())
    digest.update(scene.loudspeaker.tobytes())
    assert digest.hexdigest() == "9f07693976a01b624190796a111a987ad229e5d53aad95080ed6aad802868007"


def _reference_render(monkeypatch, render):
    """render() with the draws and the mixer as the expressions in formulas."""
    with monkeypatch.context() as patch:
        patch.setattr(scenegen, "_circular_gauss", formulas.circular_gauss)
        patch.setattr(scenegen, "_spherical_nongauss", formulas.spherical_nongauss)
        patch.setattr(scenegen, "_mix", formulas.mix)
        return render()


def _scene_bytes(scene):
    arrays = [scene.mixture, scene.loudspeaker, *scene.images.values(), *scene.gains.values()]
    if scene.truth is not None:
        arrays += [scene.truth.a_soi, scene.truth.echo_atf, scene.truth.bg_mix]
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("mics", [2, 3, 4, 6])
@pytest.mark.parametrize("seed, n_freqs, n_frames, ier_db, enr_db", [
    (0, 17, 30, 2.5, 30.0), (1, 5, 64, 0.0, 25.0), (2, 33, 9, -np.inf, np.inf),
], ids=["seed0", "seed1", "components_off"])
def test_narrowband_render_is_bitwise_the_reference(monkeypatch, mics, seed, n_freqs, n_frames,
                                                     ier_db, enr_db):
    """In-place draws and mixing give the bytes of the expressions they replace."""
    cfg = ScenarioConfig(mics=mics, seed=seed, ier_db=ier_db, enr_db=enr_db)

    def render():
        return render_narrowband(cfg, n_freqs=n_freqs, n_frames=n_frames)

    assert _scene_bytes(render()) == _scene_bytes(_reference_render(monkeypatch, render))


def test_convolutive_render_is_bitwise_the_reference(tmp_path, monkeypatch):
    sr, m = 16000, 3
    srcs, rirs = _write_sources_and_rirs(tmp_path, sr, m, delay=5)
    cfg = ScenarioConfig(mics=m, seed=25, duration_s=0.5)

    def render():
        return render_convolutive(cfg, srcs, rirs, frame_spec=stft.FrameSpec(512, 256, sr))

    assert _scene_bytes(render()) == _scene_bytes(_reference_render(monkeypatch, render))


def test_scene_save_load_round_trip(tmp_path):
    cfg = ScenarioConfig(mics=3, seed=14, duration_s=1.0)
    spec = stft.FrameSpec(512, 256, 16000)
    scene = render_narrowband(cfg, frame_spec=spec)
    manifest = save_scene(scene, tmp_path / "scene")
    loaded = load_scene(manifest)
    assert loaded.config == scene.config
    assert loaded.truth is not None
    np.testing.assert_allclose(loaded.truth.echo_atf, scene.truth.echo_atf)
    assert loaded.mixture.shape == scene.mixture.shape
    # superposition survives the WAV round trip (same linear pipeline for
    # every component; error limited by the float32 files)
    total = sum(loaded.images[k] for k in ("soi", "echo", "interference", "noise"))
    rel = np.linalg.norm(loaded.mixture - total) / np.linalg.norm(loaded.mixture)
    assert rel < 1e-5
    # the loaded scene keeps every WAV's samples
    mix_t = loaded.time_signals["mixture"]
    assert list(loaded.time_signals) == ["mixture", "loudspeaker", *scenegen.COMPONENTS]
    total_t = sum(stft.read_wav(tmp_path / "scene" / f"{k}.wav")[0]
                  for k in ("soi", "echo", "interference", "noise"))
    assert np.max(np.abs(mix_t - total_t)) < 1e-5


def test_saving_a_loaded_scene_writes_its_files_back_byte_for_byte(tmp_path):
    """A loaded scene holds every WAV's samples, so save_scene writes back each file it read."""
    cfg = ScenarioConfig(mics=3, seed=15, duration_s=0.5)
    save_scene(render_narrowband(cfg, frame_spec=stft.FrameSpec(512, 256, 16000)),
               tmp_path / "a")
    save_scene(load_scene(tmp_path / "a"), tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(names) == 8 and sorted(p.name for p in (tmp_path / "b").iterdir()) == names
    for name in names:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes(), name


@pytest.mark.parametrize("source", ["loaded", "convolutive"])
def test_time_domain_images_are_analyzed_on_each_read(tmp_path, source):
    """Each read is a fresh array with the bytes of analyze over the image's samples.

    A loaded scene's samples are its WAVs, a convolutive scene's its
    time_signals; the images cannot be replaced.
    """
    spec = stft.FrameSpec(512, 256, 16000)
    cfg = ScenarioConfig(mics=3, seed=16, duration_s=0.5)
    if source == "loaded":
        scene = load_scene(save_scene(render_narrowband(cfg, frame_spec=spec), tmp_path / "s"))
        samples = {k: stft.read_wav(tmp_path / "s" / f"{k}.wav")[0] for k in scene.images}
    else:
        scene = render_convolutive(cfg, *_write_sources_and_rirs(tmp_path, 16000, 3), spec)
        samples = scene.time_signals
    for name in ("soi", "echo", "interference", "noise"):
        expected = stft.analyze(samples[name], spec).tobytes()
        first, second = scene.images[name], scene.images[name]
        assert not np.shares_memory(first, second), name
        assert first.tobytes() == second.tobytes() == expected, name
        first[...] = 0
        assert scene.images[name].tobytes() == expected, name
    with pytest.raises(TypeError):
        scene.images["soi"] = second
