"""Newton-type parameter updates, the iteration driver, and baseline algorithms.

Each iteration updates the echo-path filter h (an interference- and
source-aware multichannel block-NLMS step), then the extraction beamformer w
(a fast fixed-point step on the echo-cancelled signal), then rescales w so the
source estimate has unit power. Statistics are recomputed from the current
signals after every filter update. The scale ambiguity of the extracted
source is resolved afterwards by projecting onto a reference error channel.

Baselines: per-channel BNLMS interleaved with the same extraction update,
batch least-squares echo cancellation alone, and extraction alone.
"""

import numpy as np
from dataclasses import asdict, dataclass, field

from .model import (
    DemixState,
    load_diagonal,
    NumericsError,
    blocking_matrix,
    cost,
    covariance,
    interference_whitener,
    off_block_energy_db,
    score_spherical,
    score_stats,
    transmission_matrix,
    DEFAULT_LOADING,
)

__all__ = [
    "RunConfig",
    "IterationRecord",
    "RunDiagnostics",
    "RunResult",
    "grad_h",
    "grad_w",
    "hessian_h",
    "circularity_check",
    "update_aec",
    "update_bse",
    "normalize_w",
    "backprojection_scale",
    "backproject",
    "run_joint",
    "run_bnlms_ive",
    "run_ls_aec",
    "run_ive_only",
]

# Bins whose score normalizer or Newton curvature falls below this are frozen
# for the iteration.
DEAD_BIN_FLOOR = 1e-12
# Absolute floor on the background covariance, relative to the error-signal
# power scale; keeps the interference whitener bounded when the background
# estimate is numerically zero (e.g. a noise-free echo-only scene).
BACKGROUND_FLOOR = 1e-10


@dataclass
class RunConfig:
    """Iteration settings shared by all algorithms."""

    iterations: int = 50
    loading: float = DEFAULT_LOADING
    reference_channel: int = 1  # 1-based microphone index for backprojection

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.reference_channel < 1:
            raise ValueError("reference_channel is 1-based and must be >= 1")


@dataclass
class IterationRecord:
    iteration: int
    cost: float
    delta_h: float
    delta_w: float
    nu_median: float
    rho_median: float
    frozen_bins: int
    off_block_db: float = None


@dataclass
class RunDiagnostics:
    records: list = field(default_factory=list)
    bp_scale: np.ndarray = None

    def as_dict(self):
        return {"iterations": [asdict(r) for r in self.records]}


@dataclass
class RunResult:
    """What every algorithm returns; diagnostics.bp_scale is None without a beamformer."""

    s_hat: np.ndarray  # (F, T) output: backprojected source estimate, or the
                       # reference channel of e when there is no beamformer
    e: np.ndarray      # (F, T, M) echo-cancelled error signal
    state: DemixState
    diagnostics: RunDiagnostics


def grad_h(e, u, s_hat, state, score=score_spherical, normalize=True):
    """Gradient of the cost w.r.t. conj(h): -E[(phi*/nu* w + R e) u*] per bin.

    With normalize=False the score is used raw (no nu division), matching the
    plain cost gradient that finite differences reproduce.
    """
    phi, _, _ = score(s_hat)
    weight = phi.conj()
    if normalize:
        nu = np.mean(s_hat * phi, axis=1)
        safe = np.where(np.abs(nu) > DEAD_BIN_FLOOR, nu, 1.0)
        weight = np.where(
            np.abs(nu)[:, None] > DEAD_BIN_FLOOR, weight / safe.conj()[:, None], 0.0
        )
    term = weight[:, :, None] * state.w[:, None, :] + np.einsum("fmn,ftn->ftm", state.R, e)
    return -np.mean(term * u.conj()[:, :, None], axis=1)


def grad_w(e, s_hat, state, score=score_spherical, normalize=True):
    """Gradient of the cost w.r.t. conj(w): E[e phi/nu] - a per bin."""
    phi, _, _ = score(s_hat)
    term = np.mean(e * phi[:, :, None], axis=1)
    if normalize:
        nu = np.mean(s_hat * phi, axis=1)
        safe = np.where(np.abs(nu) > DEAD_BIN_FLOOR, nu, 1.0)
        term = np.where(np.abs(nu)[:, None] > DEAD_BIN_FLOOR, term / safe[:, None], 0.0)
    return term - state.a


def hessian_h(u, state, stats, normalize=True):
    """Curvature matrix inverted by the echo-path update, per bin.

    (R + (rho*/nu*) w w^H) * E[|u|^2]; with normalize=False the rho*/nu*
    weight is replaced by plain rho* (the unnormalized second derivative).
    For M = 1 with a Gaussian score this reduces to E[|u|^2].
    """
    upow = np.mean(np.abs(u) ** 2, axis=1)
    if normalize:
        safe = np.where(np.abs(stats.nu) > DEAD_BIN_FLOOR, stats.nu, 1.0)
        weight = np.where(np.abs(stats.nu) > DEAD_BIN_FLOOR, stats.rho.conj() / safe.conj(), 0.0)
    else:
        weight = stats.rho.conj()
    outer = state.w[:, :, None] * state.w.conj()[:, None, :]
    return (state.R + weight[:, None, None] * outer) * upow[:, None, None]


def circularity_check(u):
    """Per-bin |E[u^2]| / E[|u|^2]; near zero for circular signals."""
    if u.shape[1] < 2:
        raise ValueError("circularity check needs at least 2 frames")
    pseudo = np.abs(np.mean(u**2, axis=1))
    power = np.mean(np.abs(u) ** 2, axis=1)
    return np.divide(pseudo, power, out=np.zeros_like(power), where=power > 0)


def _solve_with_retry(mats, rhs, ok, loading):
    """Batched linear solve; singular bins get one loaded retry, then drop out."""
    n_freqs, m = rhs.shape
    safe = np.where(ok[:, None, None], mats, np.eye(m)[None])
    b = np.where(ok[:, None], rhs, 0.0)
    try:
        sol = np.linalg.solve(safe, b[:, :, None])[:, :, 0]
        bad = ~np.all(np.isfinite(sol), axis=1)
    except np.linalg.LinAlgError:
        sol = np.zeros_like(b)
        bad = ok.copy()
    for f in np.nonzero(bad & ok)[0]:
        mat = mats[f]
        for attempt in range(2):  # plain solve, then one loaded retry
            if attempt:
                mat = mats[f] + (loading * np.trace(mats[f]).real / m) * np.eye(m)
            try:
                candidate = np.linalg.solve(mat, rhs[f])
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(candidate)):
                sol[f] = candidate
                break
        else:
            sol[f] = 0.0
            ok[f] = False
    sol[~ok] = 0.0
    return sol, ok


def update_aec(state, x, u, score=score_spherical, loading=DEFAULT_LOADING,
               e=None, s_hat=None):
    """One Newton step on the echo-path filter h for every active bin.

    Uses the state's current R and w; the error signal and source estimate
    are recomputed from the state's h unless passed in (they must then be
    consistent with the state). Returns (h_new, active_mask); bins without
    excitation, with a dead score normalizer, or with a singular curvature
    matrix are left unchanged.
    """
    if e is None:
        e = x - state.h[:, None, :] * u[:, :, None]
    if s_hat is None:
        s_hat = (e @ state.w.conj()[:, :, None])[:, :, 0]
    phi, dconj, _ = score(s_hat)
    nu = np.mean(s_hat * phi, axis=1)
    rho = np.mean(dconj, axis=1)
    upow = np.mean(np.abs(u) ** 2, axis=1)

    ok = state.active & (np.abs(nu) > DEAD_BIN_FLOOR) & (upow > np.finfo(float).tiny)
    safe_nu = np.where(ok, nu, 1.0)
    weight = phi.conj() / safe_nu.conj()[:, None]
    term = weight[:, :, None] * state.w[:, None, :] + e @ np.swapaxes(state.R, 1, 2)
    rhs = np.mean(term * u.conj()[:, :, None], axis=1)
    outer = state.w[:, :, None] * state.w.conj()[:, None, :]
    hess = (state.R + (rho.conj() / safe_nu.conj())[:, None, None] * outer) * upow[:, None, None]
    ok &= np.all(np.isfinite(hess), axis=(1, 2)) & np.all(np.isfinite(rhs), axis=1)

    step, ok = _solve_with_retry(hess, rhs, ok, loading)
    return state.h + step, ok


def update_bse(state, e, s_hat, score=score_spherical, loading=DEFAULT_LOADING):
    """One fixed-point step on the beamformer w for every active bin.

    w += nu*/(nu* - rho*) C_ee^{-1} (E[e phi/nu] - a), the approximate
    Newton step of the extraction contrast; the sign of the curvature
    denominator is the one that contracts toward the fixed point (the same
    structure as one-unit FastICA). Bins where the curvature nu - rho
    vanishes are skipped. Returns (w_new, active_mask); the caller is
    expected to renormalize.
    """
    phi, dconj, _ = score(s_hat)
    nu = np.mean(s_hat * phi, axis=1)
    rho = np.mean(dconj, axis=1)
    curv = nu.conj() - rho.conj()
    ok = state.active & (np.abs(nu) > DEAD_BIN_FLOOR) & (np.abs(curv) > DEAD_BIN_FLOOR)

    safe_nu = np.where(ok, nu, 1.0)
    corr = (np.swapaxes(e, 1, 2) @ phi[:, :, None])[:, :, 0] / e.shape[1]
    direction = corr / safe_nu[:, None] - state.a
    ok &= np.all(np.isfinite(direction), axis=1)
    step, ok = _solve_with_retry(load_diagonal(state.C_ee, loading), direction, ok, loading)
    factor = np.where(ok, safe_nu.conj() / np.where(ok, curv, 1.0), 0.0)
    return state.w + factor[:, None] * step, ok


def normalize_w(state):
    """Rescale w per bin so the source estimate has unit power.

    Divides by sqrt(w^H C_ee w); raises if that power is not positive on an
    active bin. Frozen bins are left untouched.
    """
    power = np.einsum("fm,fmn,fn->f", state.w.conj(), state.C_ee, state.w).real
    if np.any(state.active & ~(power > 0.0)):
        raise NumericsError("cannot normalize: estimated source power is not positive")
    scale = np.where(state.active, 1.0 / np.sqrt(np.where(power > 0, power, 1.0)), 1.0)
    state.w = state.w * scale[:, None]
    return state


def backprojection_scale(s_hat, e, reference_channel=1):
    """Per-bin scale minimizing E[|alpha s_hat - e_ref|^2].

    Bins whose source estimate is identically zero get scale 0 (nothing to
    project); an all-zero estimate is an error.
    """
    ref = e[:, :, reference_channel - 1]
    power = np.mean(np.abs(s_hat) ** 2, axis=1)
    if not np.any(power > 0.0):
        raise NumericsError("cannot backproject: source estimate has zero power")
    corr = np.mean(s_hat.conj() * ref, axis=1)
    return np.divide(corr, power, out=np.zeros_like(corr), where=power > 0)


def backproject(s_hat, e, reference_channel=1):
    """Resolve the extraction scale by projecting onto a reference error channel."""
    return backprojection_scale(s_hat, e, reference_channel)[:, None] * s_hat


def _refresh_background(state, e, loading):
    """Recompute a, C_zz and R from the cached e/C_ee and the current w."""
    cw = (state.C_ee @ state.w[:, :, None])[:, :, 0]
    denom = np.sum(state.w.conj() * cw, axis=1)
    ok = np.isfinite(denom) & (np.abs(denom) > np.finfo(float).tiny)
    state.a = np.where(ok[:, None], cw / np.where(ok, denom, 1.0)[:, None], state.a)
    m = state.n_channels
    if m >= 2:
        b = blocking_matrix(state.a)
        z = e @ np.swapaxes(b, 1, 2)
        state.C_zz = covariance(z)
        e_scale = np.einsum("fmm->f", state.C_ee).real / m
        b_scale = np.sum(np.abs(b) ** 2, axis=(1, 2)) / (m - 1)
        idx = np.arange(m - 1)
        state.C_zz[:, idx, idx] += (BACKGROUND_FLOOR * e_scale * b_scale)[:, None]
        state.R, whiten_ok = interference_whitener(b, state.C_zz, loading)
        ok &= whiten_ok
    else:
        state.R = np.zeros((state.n_freqs, 1, 1), dtype=np.complex128)
    state.active = ok
    return (e @ state.w.conj()[:, :, None])[:, :, 0]


def _refresh(state, x, u, loading):
    """Recompute signals and statistics from the current filters.

    Returns (e, s_hat); updates C_ee, a, C_zz, R and the active-bin mask in
    place. Bins with a degenerate error covariance are frozen.
    """
    e = x - state.h[:, None, :] * u[:, :, None]
    state.C_ee = covariance(e)
    s = _refresh_background(state, e, loading)
    return e, s


def _bnlms_step(state, x, u, e=None):
    """Independent per-channel batch-NLMS step on h (one step reaches LS)."""
    if e is None:
        e = x - state.h[:, None, :] * u[:, :, None]
    upow = np.mean(np.abs(u) ** 2, axis=1)
    ok = upow > np.finfo(float).tiny
    corr = np.mean(e * u.conj()[:, :, None], axis=1)
    step = np.where(ok[:, None], corr / np.where(ok, upow, 1.0)[:, None], 0.0)
    return state.h + step, ok


def _run(x, u, cfg, aec_mode, truth=None):
    """Shared iteration driver for the joint algorithm and its variants."""
    x, u = _inputs(x, u)
    n_freqs, _, m = x.shape
    if cfg.reference_channel > m:
        raise ValueError(f"reference channel {cfg.reference_channel} exceeds {m} microphones")
    state = DemixState.initial(n_freqs, m)
    diag = RunDiagnostics()

    e, s = _refresh(state, x, u, cfg.loading)
    for it in range(cfg.iterations):
        frozen = int(np.sum(~state.active))
        h_old = state.h.copy()
        if aec_mode == "joint":
            state.h, ok = update_aec(state, x, u, loading=cfg.loading, e=e, s_hat=s)
            frozen = max(frozen, int(np.sum(~ok)))
        elif aec_mode == "bnlms":
            state.h, _ = _bnlms_step(state, x, u, e=e)

        if aec_mode in ("joint", "bnlms"):
            e, s = _refresh(state, x, u, cfg.loading)
        w_old = state.w.copy()
        if m >= 2:
            state.w, ok = update_bse(state, e, s, loading=cfg.loading)
            frozen = max(frozen, int(np.sum(~ok)))
        normalize_w(state)

        s = _refresh_background(state, e, cfg.loading)
        stats = score_stats(s)
        try:
            cost_value = cost(state, e, s)
        except NumericsError:  # fully cancelled bins can degenerate the log term
            cost_value = float("nan")
        record = IterationRecord(
            iteration=it,
            cost=cost_value,
            delta_h=float(np.linalg.norm(state.h - h_old)),
            delta_w=float(np.linalg.norm(state.w - w_old)),
            nu_median=float(np.median(stats.nu.real)),
            rho_median=float(np.median(stats.rho.real)),
            frozen_bins=frozen,
        )
        if truth is not None:
            v = transmission_matrix(state, truth.a_soi, truth.bg_mix, truth.echo_atf)
            record.off_block_db = off_block_energy_db(v)
        diag.records.append(record)

    e, s = _refresh(state, x, u, cfg.loading)
    diag.bp_scale = backprojection_scale(s, e, cfg.reference_channel)
    s_hat = diag.bp_scale[:, None] * s
    return RunResult(s_hat=s_hat, e=e, state=state, diagnostics=diag)


def run_joint(x, u, cfg=None, truth=None):
    """Joint echo-path and beamformer estimation (the full algorithm)."""
    cfg = cfg or RunConfig()
    return _run(x, u, cfg, aec_mode="joint", truth=truth)


def run_bnlms_ive(x, u, cfg=None, truth=None):
    """Per-channel BNLMS echo canceller interleaved with the extraction update."""
    cfg = cfg or RunConfig()
    return _run(x, u, cfg, aec_mode="bnlms", truth=truth)


def run_ive_only(x, cfg=None, truth=None):
    """Extraction without echo cancellation: h frozen at zero."""
    cfg = cfg or RunConfig()
    return _run(x, None, cfg, aec_mode="frozen", truth=truth)


def _inputs(x, u):
    """Validate microphone (F, T, M) and loudspeaker (F, T) spectra; u None is silence."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 3:
        raise ValueError("expected shape (n_freqs, n_frames, n_channels)")
    if u is None:
        u = np.zeros(x.shape[:2], dtype=np.complex128)
    u = np.asarray(u, dtype=np.complex128)
    if x.shape[:2] != u.shape:
        raise ValueError("microphone and loudspeaker spectrograms disagree in shape")
    return x, u


def run_ls_aec(x, u):
    """Batch least-squares echo canceller, no beamformer.

    Returns (e, h) with h = E[x u*] / E[|u|^2] per bin and channel.
    """
    x, u = _inputs(x, u)
    upow = np.mean(np.abs(u) ** 2, axis=1)
    if not np.any(upow > 0):
        raise NumericsError("least-squares echo canceller needs a nonzero loudspeaker signal")
    ok = upow > np.finfo(float).tiny
    h = np.where(
        ok[:, None],
        np.mean(x * u.conj()[:, :, None], axis=1) / np.where(ok, upow, 1.0)[:, None],
        0.0,
    )
    e = x - h[:, None, :] * u[:, :, None]
    return e, h
