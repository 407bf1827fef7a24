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


def component_pass(state, images, u, bp_scale):
    """Pass each component image through the estimated pipeline to the output.

    The pipeline is linear: echo subtraction e = x - h u, then w^H and the
    backprojection scale. Only the echo component has a loudspeaker part, so
    its output alone subtracts (w^H h) u. A run without a beamformer has w
    the reference channel's unit vector and a scale of 1.

    Returns a dict of each component's (F, T) output.
    """
    w_col = state.w.conj()[:, :, None]
    out = {}
    for name, img in images.items():
        y = (img @ w_col)[:, :, 0]
        if name == "echo":
            y -= np.sum(state.w.conj() * state.h, axis=1)[:, None] * u
        out[name] = bp_scale[:, None] * y
    return out


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
    out = _stft.synthesize(tf_signal, frame_spec)
    trim = min(frame_spec.frame_len, out.shape[0] // 4)
    return out[trim:out.shape[0] - trim]


def evaluate_run(scene, state, bp_scale,
                 algorithm="", seed=0, iterations=0, reference_channel=1):
    """Compute the metric report for one processed scene.

    Without a beamformer (unprocessed and LS AEC conditions) the state's w
    is the reference channel's unit vector, so the echo-cancellation stage
    at the reference channel is the final output.
    """
    ref = reference_channel - 1
    out = component_pass(state, scene.images, scene.loudspeaker, bp_scale)
    echo_ref_in = scene.images["echo"][:, :, ref]
    echo_ref_res = echo_ref_in - state.h[:, ref, None] * scene.loudspeaker

    if scene.frame_spec is not None:
        spec = scene.frame_spec
        echo_ref_in = _to_time(echo_ref_in, spec)
        echo_ref_res = _to_time(echo_ref_res, spec)
        out = {name: _to_time(sig, spec) for name, sig in out.items()}

    sir, ser, sier = ratios(out["soi"], out["echo"], out["interference"], out["noise"])
    return MetricsReport(
        sir_db=sir,
        ser_db=ser,
        sier_db=sier,
        erle_aec_db=erle(echo_ref_in, echo_ref_res),
        erle_bf_db=erle(echo_ref_in, out["echo"]),
        algorithm=algorithm,
        seed=seed,
        iterations=iterations,
    )


def csv_text(reports, algorithm_order):
    """Render reports as CSV: per-run rows sorted by seed, then mean rows.

    Rows of one seed, and the mean rows, follow algorithm_order. Column
    order and float formatting are fixed so identical inputs yield
    byte-identical output.
    """
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


def write_csv(reports, path, algorithm_order):
    text = csv_text(reports, algorithm_order)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path
