"""Demixing model: parameter state, constraint constructions, score statistics.

The estimator is a cascade of an echo-cancelling filter h (subtracting the
loudspeaker contribution from each microphone) and a beamformer w extracting a
single source of interest from the error signal e. The background estimate z
is obtained through a blocking matrix built from the steering-vector estimate
a, which itself is tied to w through an orthogonality (decorrelation)
constraint. Everything is per frequency bin; the source model couples bins
only through the broadband score function.

Array conventions: signals are (n_freqs, n_frames) or (n_freqs, n_frames,
n_channels); per-bin parameters are stacked on a leading frequency axis.
"""

import numpy as np
from dataclasses import dataclass

__all__ = [
    "NumericsError",
    "DemixState",
    "ScoreStats",
    "blocking_matrix",
    "apply_demixer",
    "orthogonal_constraint_atf",
    "score_spherical",
    "score_gauss",
    "score_stats",
    "covariance",
    "interference_whitener",
    "cost",
    "transmission_matrix",
    "off_block_energy_db",
]

# Floor on the broadband frame radius; silent frames carry no gradient.
SCORE_RADIUS_FLOOR = 1e-12
# Relative diagonal loading applied to covariances before inversion.
DEFAULT_LOADING = 1e-6


class NumericsError(RuntimeError):
    """Raised when a numerical precondition fails (degenerate covariance etc.)."""


@dataclass
class DemixState:
    """Per-frequency parameters and cached statistics of the demixer.

    h : (F, M) echo-path filter estimates
    w : (F, M) extraction beamformer
    a : (F, M) steering-vector estimate tied to w by the orthogonal constraint
    C_ee : (F, M, M) sample covariance of the error signal e
    C_zz : (F, M-1, M-1) sample covariance of the background estimate z
    R : (F, M, M) interference whitener B^H C_zz^{-1} B
    active : (F,) bool, bins currently updated (False = frozen/degenerate)
    """

    h: np.ndarray
    w: np.ndarray
    a: np.ndarray
    C_ee: np.ndarray = None
    C_zz: np.ndarray = None
    R: np.ndarray = None
    active: np.ndarray = None

    @classmethod
    def initial(cls, n_freqs, n_channels):
        """Pass-through initialization: h = 0, w = a = first unit vector."""
        h = np.zeros((n_freqs, n_channels), dtype=np.complex128)
        w = np.zeros((n_freqs, n_channels), dtype=np.complex128)
        w[:, 0] = 1.0
        return cls(h=h, w=w, a=w.copy(), active=np.ones(n_freqs, dtype=bool))

    @property
    def n_freqs(self):
        return self.h.shape[0]

    @property
    def n_channels(self):
        return self.h.shape[1]


@dataclass
class ScoreStats:
    """Per-frequency time averages of the score function and its derivatives.

    nu : (F,) E[s_hat * phi]        (score normalizer)
    rho : (F,) E[d phi / d s_hat*]
    xi : (F,) E[d phi / d s_hat]
    """

    nu: np.ndarray
    rho: np.ndarray
    xi: np.ndarray


def blocking_matrix(a):
    """Construct the blocking matrix annihilating the steering direction a.

    For a = (gamma, g^T)^T the matrix is B = (g, -gamma * I), which satisfies
    B a = 0 identically. Accepts a single vector (M,) or a stack (F, M) and
    returns (M-1, M) or (F, M-1, M) accordingly.
    """
    a = np.asarray(a, dtype=np.complex128)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    n_freqs, m = a.shape
    if m < 2:
        raise ValueError("blocking matrix needs at least 2 channels")
    b = np.zeros((n_freqs, m - 1, m), dtype=np.complex128)
    b[:, :, 0] = a[:, 1:]
    idx = np.arange(m - 1)
    b[:, idx, idx + 1] = -a[:, :1]
    return b[0] if single else b


def apply_demixer(x, u, state):
    """Run the demixing cascade on microphone and loudspeaker spectra.

    e = x - h u (echo-cancelled error), s_hat = w^H e (source estimate),
    z_hat = B(a) e (background estimate).
    """
    if x.shape[2] != state.n_channels:
        raise ValueError(
            f"microphone channel count {x.shape[2]} does not match state ({state.n_channels})"
        )
    e = x - state.h[:, None, :] * u[:, :, None]
    s_hat = np.einsum("fm,ftm->ft", state.w.conj(), e)
    b = blocking_matrix(state.a)
    z_hat = np.einsum("fkm,ftm->ftk", b, e)
    return e, s_hat, z_hat


def orthogonal_constraint_atf(C_ee, w):
    """Steering-vector estimate a = C_ee w / (w^H C_ee w).

    Enforces the decorrelation of background and source estimates; by
    construction w^H a = 1. Works on single matrices or (F, ...) stacks.
    """
    C_ee = np.asarray(C_ee, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    single = w.ndim == 1
    if single:
        C_ee = C_ee[None]
        w = w[None]
    cw = np.einsum("fmn,fn->fm", C_ee, w)
    denom = np.einsum("fm,fm->f", w.conj(), cw)
    if np.any(np.abs(denom) < np.finfo(float).tiny) or not np.all(np.isfinite(denom)):
        raise NumericsError("degenerate error covariance: w^H C_ee w is zero")
    a = cw / denom[:, None]
    return a[0] if single else a


def score_spherical(s_hat):
    """Score of the broadband spherical (jointly active) source model.

    phi_f = conj(s_f) / r with r the frame radius sqrt(sum_f |s_f|^2).
    Returns (phi, dphi_dconj, dphi_dplain), each shaped like s_hat, where
    dphi_dconj = d phi_f / d s_f* and dphi_dplain = d phi_f / d s_f
    (same-bin Wirtinger derivatives).
    """
    s = np.asarray(s_hat, dtype=np.complex128)
    r = np.sqrt(np.sum(np.abs(s) ** 2, axis=0, keepdims=True))
    r = np.maximum(r, SCORE_RADIUS_FLOOR)
    phi = s.conj() / r
    mag2 = np.abs(s) ** 2
    dphi_dconj = 1.0 / r - mag2 / (2.0 * r**3)
    dphi_dplain = -(s.conj() ** 2) / (2.0 * r**3)
    return phi, dphi_dconj, dphi_dplain


def score_gauss(s_hat):
    """Score of a stationary unit-variance Gaussian source: phi = conj(s)."""
    s = np.asarray(s_hat, dtype=np.complex128)
    return s.conj(), np.ones_like(s), np.zeros_like(s)


def score_stats(s_hat, score=score_spherical):
    """Time-averaged score statistics nu, rho, xi per frequency bin."""
    if s_hat.shape[1] < 2:
        raise ValueError("score statistics need at least 2 frames")
    phi, dconj, dplain = score(s_hat)
    return ScoreStats(
        nu=np.mean(s_hat * phi, axis=1),
        rho=np.mean(dconj, axis=1),
        xi=np.mean(dplain, axis=1),
    )


def covariance(frames, loading=0.0):
    """Sample covariance (1/T) sum_t v v^H, optionally diagonally loaded.

    frames : (..., T, M) -> (..., M, M); loading adds loading*tr(C)/M to the
    diagonal, which guarantees invertibility for any nonzero input. State
    covariances are kept unloaded; loading is applied where inverses are
    taken.
    """
    v = np.asarray(frames, dtype=np.complex128)
    if v.shape[-2] < 1:
        raise ValueError("covariance needs at least one frame")
    c = np.swapaxes(v, -1, -2) @ v.conj() / v.shape[-2]
    if loading:
        c = load_diagonal(c, loading)
    # force exact Hermitian symmetry against accumulation error
    return 0.5 * (c + np.conj(np.swapaxes(c, -1, -2)))


def load_diagonal(c, loading=DEFAULT_LOADING):
    """Add loading*tr(C)/dim to the diagonal of (..., M, M) matrices."""
    c = np.array(c, dtype=np.complex128, copy=True)
    m = c.shape[-1]
    tr = np.einsum("...mm->...", c).real / m
    idx = np.arange(m)
    c[..., idx, idx] += loading * tr[..., None]
    return c


def interference_whitener(b, C_zz, loading=DEFAULT_LOADING):
    """R = B^H C_zz^{-1} B with a mask of invertible bins.

    The background covariance is diagonally loaded before inversion. Bins
    whose covariance is numerically dead (zero trace or non-finite) get
    R = 0 and ok=False; callers freeze those bins.
    """
    b = np.asarray(b, dtype=np.complex128)
    C_zz = np.asarray(C_zz, dtype=np.complex128)
    n_freqs, k, m = b.shape
    if k == 0:
        return np.zeros((n_freqs, m, m), dtype=np.complex128), np.ones(n_freqs, dtype=bool)
    if loading:
        C_zz = load_diagonal(C_zz, loading)
    tr = np.einsum("fkk->f", C_zz).real
    ok = np.isfinite(tr) & (tr > np.finfo(float).tiny)
    safe = np.where(ok[:, None, None], C_zz, np.eye(k)[None])
    try:
        x = np.linalg.solve(safe, b)
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        for f in range(n_freqs):
            if not ok[f]:
                continue
            try:
                x[f] = np.linalg.solve(safe[f], b[f])
            except np.linalg.LinAlgError:
                ok[f] = False
    r = np.swapaxes(b, 1, 2).conj() @ x
    r[~ok] = 0.0
    return 0.5 * (r + np.conj(np.swapaxes(r, -1, -2))), ok


def neg_log_density_spherical(s_hat):
    """Per-frame -log p for the spherical model, 2*r, constants dropped."""
    return 2.0 * np.sqrt(np.sum(np.abs(s_hat) ** 2, axis=0))


def cost(state, e, s_hat):
    """Diagnostic cost: E[-log p(s_hat) + sum_f e^H R e] - (M-2) sum_f log|gamma|^2.

    Never used by the updates; serves convergence monitoring and
    finite-difference validation of the gradients.
    """
    m = state.n_channels
    re = e @ np.swapaxes(state.R, 1, 2)
    quad = np.sum((e.conj() * re).real, axis=(0, 2))
    j = float(np.mean(neg_log_density_spherical(s_hat) + quad))
    if m != 2:
        gamma = state.a[:, 0]
        mag2 = np.abs(gamma) ** 2
        if np.any(mag2 <= 0.0):
            raise NumericsError("degenerate steering estimate: gamma = 0")
        j -= (m - 2) * float(np.sum(np.log(mag2)))
    return j


def transmission_matrix(state, a_soi, bg_mix, echo_atf):
    """Overall source-to-estimate transmission per bin, (F, M+1, M+1).

    Rows map (true source, true background sources, loudspeaker) to
    (s_hat, z_hat, u) through the current demixer; built from the state's
    w, a and h together with the true mixing parameters. Block-diagonality
    of the result measures separation quality.
    """
    w, a, h = state.w, state.a, state.h
    n_freqs, m = w.shape
    b = blocking_matrix(a)
    w_aec_conj = -np.einsum("fm,fm->f", w.conj(), h)
    h_bg = -np.einsum("fkm,fm->fk", b, h)
    v = np.zeros((n_freqs, m + 1, m + 1), dtype=np.complex128)
    v[:, 0, 0] = np.einsum("fm,fm->f", w.conj(), a_soi)
    v[:, 0, 1:m] = np.einsum("fm,fmk->fk", w.conj(), bg_mix)
    v[:, 0, m] = np.einsum("fm,fm->f", w.conj(), echo_atf) + w_aec_conj
    v[:, 1:m, 0] = np.einsum("fkm,fm->fk", b, a_soi)
    v[:, 1:m, 1:m] = np.einsum("fkm,fmj->fkj", b, bg_mix)
    v[:, 1:m, m] = np.einsum("fkm,fm->fk", b, echo_atf) + h_bg
    v[:, m, m] = 1.0
    return v


def off_block_energy_db(v):
    """Energy outside the 1/(M-1)/1 diagonal blocks over total energy, in dB."""
    v = np.asarray(v)
    m = v.shape[-1] - 1
    mask = np.zeros((m + 1, m + 1), dtype=bool)
    mask[0, 0] = True
    mask[1:m, 1:m] = True
    mask[m, m] = True
    total = float(np.sum(np.abs(v) ** 2))
    off = float(np.sum(np.abs(v) ** 2 * (~mask)))
    if total <= 0.0:
        return -np.inf
    return 10.0 * np.log10(max(off / total, 1e-300))
