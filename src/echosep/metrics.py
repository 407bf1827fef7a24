"""Echo/interference metrics via shadow filtering of ground-truth images.

Each component image is passed through the run's own linear front end
(model.extract: echo subtraction, then beamforming) and its backprojection
scale, so the output decomposes exactly into per-component contributions.
Ratios are computed on time-domain signals when the scene carries a frame
spec (edge frames excluded), otherwise directly on the STFT tensors.
"""

import io
import numpy as np
from dataclasses import dataclass

from . import stft as _stft
from .model import extract

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


def component_pass(state, name, image, u, bp_scale):
    """Pass one component image through the estimated pipeline to the output, (F, T).

    The pipeline is the run's own linear front end, model.extract, then the
    backprojection scale. Only the echo component has a loudspeaker part, so
    it alone is passed with u. A run without a beamformer has w the
    reference channel's unit vector and a scale of 1.
    """
    s = extract(image, u if name == "echo" else None, state)[1]
    s *= bp_scale[:, None]
    return s


def _db_ratio(num, den):
    if num <= 0.0:
        return -DB_CAP
    if den <= 0.0:
        return DB_CAP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CAP, DB_CAP))


def erle(p_echo, p_residual):
    """Echo attenuation in dB from the input echo's energy and the residual echo's."""
    return _db_ratio(p_echo, p_residual)


def ratios(p_soi, p_echo, p_intf, p_noise):
    """(SIR, SER, SIER) in dB from the energies of the components' outputs."""
    return (_db_ratio(p_soi, p_intf), _db_ratio(p_soi, p_echo),
            _db_ratio(p_soi, p_intf + p_echo + p_noise))


def _energy(tf_signal, frame_spec=None):
    """Energy of an (F, T) signal; given a frame spec, of its synthesis without edge frames."""
    if frame_spec is not None:
        out = _stft.synthesize(tf_signal, frame_spec)
        trim = min(frame_spec.frame_len, out.shape[0] // 4)
        tf_signal = out[trim:out.shape[0] - trim]
    return float(np.sum(np.abs(tf_signal) ** 2))


def evaluate_run(scene, state, bp_scale,
                 algorithm="", seed=0, iterations=0, reference_channel=1):
    """Compute the metric report for one processed scene.

    Without a beamformer (unprocessed and LS AEC conditions) the state's w
    is the reference channel's unit vector, so the echo-cancellation stage
    at the reference channel is the final output. Each signal is formed
    and reduced to its energy before the next. Each image is read once, and
    a read forms it; run_bench scores all runs of a scene on one read each.
    """
    u, spec, ref = scene.loudspeaker, scene.frame_spec, reference_channel - 1
    p = {}
    for name, img in scene.images.items():
        p[name] = _energy(component_pass(state, name, img, u, bp_scale), spec)
        if name == "echo":
            p_echo = _energy(img[:, :, ref], spec)
            p_residual = _energy(img[:, :, ref] - state.h[:, ref, None] * u, spec)
        del img  # not held while the next image is formed
    sir, ser, sier = ratios(p["soi"], p["echo"], p["interference"], p["noise"])
    return MetricsReport(
        sir_db=sir,
        ser_db=ser,
        sier_db=sier,
        erle_aec_db=erle(p_echo, p_residual),
        erle_bf_db=erle(p_echo, p["echo"]),
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
