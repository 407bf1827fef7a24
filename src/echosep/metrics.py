"""Echo/interference metrics via shadow filtering of ground-truth images.

Each component image is passed through the estimated linear pipeline (echo
subtraction, then beamforming and backprojection scaling), so the output
decomposes exactly into per-component contributions. Ratios are computed on
time-domain signals when the scene carries a frame spec (edge frames
excluded), otherwise directly on the STFT tensors.
"""

import io
import numpy as np
from dataclasses import dataclass

from . import stft as _stft
from .model import DemixState
from .scenegen import COMPONENTS

__all__ = [
    "MetricsReport",
    "component_pass",
    "erle",
    "ratios",
    "evaluate_run",
    "write_csv",
    "csv_text",
]

DB_CAP = 99.0
CSV_COLUMNS = ("algorithm", "seed", "sir_db", "ser_db", "sier_db", "erle_aec_db", "erle_bf_db")


@dataclass
class MetricsReport:
    sir_db: float
    ser_db: float
    sier_db: float
    erle_aec_db: float
    erle_bf_db: float
    algorithm: str = ""
    seed: int = 0
    iterations: int = 0

    def row(self):
        return {c: getattr(self, c) for c in CSV_COLUMNS}


def component_pass(state, images, u, bp_scale=None):
    """Pass each component image through the estimated pipeline.

    Only the echo component has a loudspeaker part, so it alone changes at
    the echo-cancellation stage: echo - h u. The extraction stage applies
    w^H and the backprojection scale uniformly.

    Returns (aec_stage, bse_stage): dicts of (F, T, M) and (F, T) arrays.
    """
    aec_stage = {}
    bse_stage = {}
    for name, img in images.items():
        contrib = img - state.h[:, None, :] * u[:, :, None] if name == "echo" else img
        aec_stage[name] = contrib
        out = np.einsum("fm,ftm->ft", state.w.conj(), contrib)
        if bp_scale is not None:
            out = bp_scale[:, None] * out
        bse_stage[name] = out
    return aec_stage, bse_stage


def _db_ratio(num, den):
    if num <= 0.0:
        return -DB_CAP
    if den <= 0.0:
        return DB_CAP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CAP, DB_CAP))


def erle(echo_image, echo_residual):
    """Echo attenuation in dB: input echo power over residual echo power."""
    p_in = float(np.sum(np.abs(echo_image) ** 2))
    p_res = float(np.sum(np.abs(echo_residual) ** 2))
    return _db_ratio(p_in, p_res)


def ratios(soi_out, echo_out, intf_out, noise_out):
    """(SIR, SER, SIER) in dB from per-component output contributions."""
    p_s = float(np.sum(np.abs(soi_out) ** 2))
    p_e = float(np.sum(np.abs(echo_out) ** 2))
    p_i = float(np.sum(np.abs(intf_out) ** 2))
    p_n = float(np.sum(np.abs(noise_out) ** 2))
    return (
        _db_ratio(p_s, p_i),
        _db_ratio(p_s, p_e),
        _db_ratio(p_s, p_i + p_e + p_n),
    )


def _to_time(tf_signal, frame_spec):
    spg = _stft.Spectrogram(
        tf_signal[:, :, None] if tf_signal.ndim == 2 else tf_signal, frame_spec
    )
    out = _stft.synthesize(spg)
    trim = min(frame_spec.frame_len, out.shape[0] // 4)
    return out[trim:out.shape[0] - trim]


def evaluate_run(scene, state=None, bp_scale=None,
                 algorithm="", seed=0, iterations=0, reference_channel=1):
    """Compute the metric report for one processed scene.

    state None means the unprocessed condition (h = 0). Without a
    backprojection scale there is no beamformer, and the echo-cancellation
    stage at the reference channel is the final output (unprocessed and LS
    AEC conditions).
    """
    ref = reference_channel - 1
    if state is None:
        state = DemixState.initial(scene.mixture.shape[0], scene.n_channels)
    aec_stage, bse_stage = component_pass(state, scene.images, scene.loudspeaker, bp_scale)
    if bp_scale is not None:
        out = {name: bse_stage[name] for name in COMPONENTS}
    else:
        out = {name: aec_stage[name][:, :, ref] for name in COMPONENTS}

    echo_ref_in = scene.images["echo"][:, :, ref]
    echo_ref_res = aec_stage["echo"][:, :, ref]
    echo_out = out["echo"]

    if scene.frame_spec is not None:
        spec = scene.frame_spec
        echo_ref_in = _to_time(echo_ref_in, spec)
        echo_ref_res = _to_time(echo_ref_res, spec)
        out = {name: _to_time(sig, spec) for name, sig in out.items()}
        echo_out = out["echo"]

    sir, ser, sier = ratios(out["soi"], echo_out, out["interference"], out["noise"])
    return MetricsReport(
        sir_db=sir,
        ser_db=ser,
        sier_db=sier,
        erle_aec_db=erle(echo_ref_in, echo_ref_res),
        erle_bf_db=erle(echo_ref_in, echo_out),
        algorithm=algorithm,
        seed=seed,
        iterations=iterations,
    )


def csv_text(reports, algorithm_order=None):
    """Render reports as CSV: per-run rows sorted by seed, then mean rows.

    Column order and float formatting are fixed so identical inputs yield
    byte-identical output.
    """
    if algorithm_order is None:
        algorithm_order = []
        for r in reports:
            if r.algorithm not in algorithm_order:
                algorithm_order.append(r.algorithm)
    rank = {name: i for i, name in enumerate(algorithm_order)}
    rows = sorted(reports, key=lambda r: (r.seed, rank.get(r.algorithm, len(rank))))
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")

    def fmt(row):
        return ",".join(
            [str(row["algorithm"]), str(row["seed"])]
            + [f"{row[c]:.2f}" for c in CSV_COLUMNS[2:]]
        )

    for r in rows:
        buf.write(fmt(r.row()) + "\n")
    for name in algorithm_order:
        group = [r for r in reports if r.algorithm == name]
        if not group:
            continue
        mean_row = {"algorithm": name, "seed": "mean"}
        for c in CSV_COLUMNS[2:]:
            mean_row[c] = float(np.mean([getattr(r, c) for r in group]))
        buf.write(fmt(mean_row) + "\n")
    return buf.getvalue()


def write_csv(reports, path, algorithm_order=None):
    text = csv_text(reports, algorithm_order)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path
