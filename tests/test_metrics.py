"""Metrics: shadow filtering, ERLE, power ratios, CSV output."""

import numpy as np
import pytest

from echosep import metrics, scenegen
from echosep.metrics import MetricsReport, component_pass, csv_text, erle, ratios
from echosep.model import DemixState
from echosep.optimizer import RunConfig, run_bnlms_ive, run_joint, run_ls_aec, run_unprocessed
from echosep.scenegen import ScenarioConfig, render_narrowband


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def small_scene(seed=0, n_freqs=24, n_frames=80, mics=3):
    cfg = ScenarioConfig(mics=mics, seed=seed)
    return render_narrowband(cfg, n_freqs=n_freqs, n_frames=n_frames)


def outputs(state, scene, bp_scale):
    """Every component's output, passed one at a time."""
    return {name: component_pass(state, name, img, scene.loudspeaker, bp_scale)
            for name, img in scene.images.items()}


def energy(x):
    return float(np.sum(np.abs(x) ** 2))


def unprocessed_report(scene, seed):
    un = run_unprocessed(scene.mixture)
    return metrics.evaluate_run(scene, un.state, un.diagnostics.bp_scale,
                                algorithm="unprocessed", seed=seed)


def test_component_pass_superposition():
    """The components' outputs add up to s_hat, with a beamformer and without."""
    scene = small_scene()
    res = run_joint(scene.mixture, scene.loudspeaker, RunConfig(iterations=10))
    out = outputs(res.state, scene, res.diagnostics.bp_scale)
    np.testing.assert_allclose(sum(out.values()), res.s_hat, rtol=1e-8)
    ls = run_ls_aec(scene.mixture, scene.loudspeaker)
    out = outputs(ls.state, scene, ls.diagnostics.bp_scale)
    np.testing.assert_allclose(sum(out.values()), ls.s_hat, rtol=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("run", [run_joint, run_bnlms_ive, run_ls_aec],
                         ids=["joint", "bnlms_ive", "ls_aec"])
def test_component_pass_of_a_runs_input_is_its_output_to_the_bit(run, seed):
    """A run's x passed as the echo image, with its u, gives its s_hat bit for bit.

    component_pass extracts through the run's own front end, so the metrics
    score the output the run returns.
    """
    scene = small_scene(seed=seed)
    res = run(scene.mixture, scene.loudspeaker, RunConfig(iterations=10))
    out = component_pass(res.state, "echo", res.x, res.u, res.diagnostics.bp_scale)
    np.testing.assert_array_equal(out, res.s_hat)


def test_component_pass_perfect_filter_removes_echo():
    scene = small_scene(seed=1)
    n_freqs, _, m = scene.mixture.shape
    un = run_unprocessed(scene.mixture)  # no beamformer: w is microphone 1, the scale 1
    un.state.h = scene.truth.echo_atf.copy()
    out = outputs(un.state, scene, un.diagnostics.bp_scale)
    assert np.max(np.abs(out["echo"])) <= 1e-12
    state = DemixState.initial(n_freqs, m)
    state.h = scene.truth.echo_atf.copy()
    state.w = crandn(np.random.default_rng(1), (n_freqs, m))
    out = outputs(state, scene, np.ones(n_freqs))
    assert np.max(np.abs(out["echo"])) <= 1e-12


def test_component_pass_zero_filter_passes_echo_through():
    scene = small_scene(seed=2)
    for ref in (1, 2):
        un = run_unprocessed(scene.mixture, RunConfig(reference_channel=ref))
        out = component_pass(un.state, "echo", scene.images["echo"], scene.loudspeaker,
                             un.diagnostics.bp_scale)
        np.testing.assert_array_equal(out, scene.images["echo"][:, :, ref - 1])


def test_erle_arithmetic():
    rng = np.random.default_rng(3)
    p = energy(crandn(rng, (8, 30)))
    assert erle(p, p) == pytest.approx(0.0)
    assert erle(p, p * 10 ** (-1.0)) == pytest.approx(10.0)
    assert erle(p, 0.0) == 99.0


def test_ratios_symmetry_and_caps():
    rng = np.random.default_rng(4)
    p = energy(crandn(rng, (6, 50)))
    sir, ser, sier = ratios(p, 0.0, p, 0.0)
    assert sir == pytest.approx(0.0)
    assert ser == 99.0
    assert sier == pytest.approx(0.0)


def test_ratios_halved_interference_gains_3dB():
    rng = np.random.default_rng(5)
    soi = crandn(rng, (6, 50))
    intf = crandn(rng, (6, 50))
    sir0, _, _ = ratios(energy(soi), 0.0, energy(intf), 0.0)
    sir1, _, _ = ratios(energy(soi), 0.0, energy(intf / np.sqrt(2.0)), 0.0)
    assert sir1 - sir0 == pytest.approx(10 * np.log10(2), abs=1e-9)


def test_unprocessed_power_consistency_relation():
    # 1/sier ~= 1/sir + 1/ser in linear power when noise is weak
    scene = small_scene(seed=6, n_freqs=64, n_frames=300)
    rep = unprocessed_report(scene, seed=6)
    lhs = 10 ** (-rep.sier_db / 10)
    rhs = 10 ** (-rep.sir_db / 10) + 10 ** (-rep.ser_db / 10)
    assert abs(10 * np.log10(lhs / rhs)) <= 0.5
    assert rep.erle_aec_db == pytest.approx(0.0)
    assert rep.erle_bf_db == pytest.approx(0.0)


def test_unprocessed_erle_zero_with_frame_spec():
    from echosep import stft

    cfg = ScenarioConfig(mics=3, seed=7, duration_s=0.6)
    spec = stft.FrameSpec(512, 256, 16000)
    scene = render_narrowband(cfg, frame_spec=spec)
    rep = unprocessed_report(scene, seed=7)
    assert rep.erle_aec_db == pytest.approx(0.0)
    assert rep.erle_bf_db == pytest.approx(0.0)


def test_scale_invariance_of_ratios():
    rng = np.random.default_rng(8)
    parts = [crandn(rng, (4, 40)) for _ in range(4)]
    base = ratios(*[energy(p) for p in parts])
    scaled = ratios(*[energy(7.3 * p) for p in parts])
    np.testing.assert_allclose(scaled, base, atol=1e-12)


def test_sier_bounded_by_sir_and_ser():
    scene = small_scene(seed=9)
    rep = unprocessed_report(scene, seed=9)
    assert rep.sier_db <= min(rep.sir_db, rep.ser_db) + 3.02


def test_csv_schema_and_formatting():
    reports = [
        MetricsReport(4.777, 7.394, 2.801, 0.0, 0.0, algorithm="unprocessed", seed=2),
        MetricsReport(7.02, 19.78, 6.73, 11.39, 16.36, algorithm="joint", seed=1),
        MetricsReport(6.9, 19.1, 6.5, 11.1, 16.1, algorithm="joint", seed=2),
    ]
    text = csv_text(reports, algorithm_order=["unprocessed", "joint"])
    lines = text.strip().split("\n")
    assert lines[0] == "algorithm,seed,sir_db,ser_db,sier_db,erle_aec_db,erle_bf_db"
    # per-run rows sorted by seed, then the requested algorithm order
    assert lines[1].startswith("joint,1,")
    assert lines[2].startswith("unprocessed,2,")
    assert lines[3].startswith("joint,2,")
    assert lines[4].startswith("unprocessed,mean,")
    assert lines[5] == "joint,mean,6.96,19.44,6.62,11.25,16.23"
    assert "4.78" in lines[2]  # two-decimal formatting


def test_write_csv_deterministic(tmp_path):
    reports = [
        MetricsReport(1.0, 2.0, 3.0, 4.0, 5.0, algorithm="joint", seed=0),
        MetricsReport(1.5, 2.5, 3.5, 4.5, 5.5, algorithm="joint", seed=1),
    ]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    metrics.write_csv(reports, p1, ["joint"])
    metrics.write_csv(list(reports), p2, ["joint"])
    assert p1.read_bytes() == p2.read_bytes()
