"""Newton-type parameter updates, the iteration driver, and baseline algorithms.

Each iteration updates the echo-path filter h (an interference- and
source-aware multichannel block-NLMS step, a Newton step in closed form),
then the extraction beamformer w (a fast fixed-point step on the
echo-cancelled signal), then rescales w so the source estimate has unit
power. The iteration runs on sufficient statistics: the data enter through
C_xx = E[x x^H], E[x u*] and E[|u|^2], computed once per run, and through one
pass of score-weighted moments per half-step at the current filters. The
error covariance C_ee and the moments of the error signal e = x - h u follow
in closed form, so e is formed only once, at the end, where the scale
ambiguity of the extracted source is resolved by projecting onto a reference
error channel.

Each quantity is formed when its inputs move. C_ee and the loaded inverse
that the BSE step applies depend on h alone, so they are formed at the start
and after each echo step that moved h: a run makes one inversion per echo
path (n for joint, one for BNLMS and ive), not one solve per BSE step. a and
the active mask follow w, and are refreshed from the held C_ee after every
BSE step. The background covariance C_zz = B C_ee B^H is formed only for the
cost record; the mask needs its trace alone.

With RunConfig.records set (the default) each iteration also writes an
IterationRecord: the cost (the interference whitener's only reader), filter
deltas, score medians and, given the truth, the off-block energy. Without it
none of these is formed, nor the last iteration's moment pass, which only its
record reads: n iterations make 2n passes (joint) or n, not 2n + 1 or n + 1.

Baselines: per-channel BNLMS interleaved with the same extraction update,
batch least-squares echo cancellation alone, and extraction alone.
"""

import numpy as np
from dataclasses import asdict, dataclass, field

from .model import (
    DemixState,
    NumericsError,
    background_covariance,
    background_power,
    cost,
    covariance,
    interference_whitener,
    loaded_inverse,
    off_block_energy_db,
    orthogonal_constraint_atf,
    score_spherical,
    transmission_matrix,
    DEFAULT_LOADING,
)

__all__ = [
    "RunConfig",
    "IterationRecord",
    "RunDiagnostics",
    "RunResult",
    "DataStats",
    "Moments",
    "moments",
    "grad_h",
    "grad_w",
    "hessian_h",
    "circularity_check",
    "update_aec",
    "update_bse",
    "normalize_w",
    "backprojection_scale",
    "run_joint",
    "run_bnlms_ive",
    "run_ls_aec",
    "run_ive_only",
]

# Bins whose score normalizer or Newton curvature falls below this, or whose
# error power falls below this share of the microphone power, are frozen.
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
    records: bool = True  # form an IterationRecord (cost, whitener, truth) each iteration

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


@dataclass
class DataStats:
    """Second-order statistics of the data, computed once per run."""

    C_xx: np.ndarray  # (F, M, M) E[x x^H]
    r_xu: np.ndarray  # (F, M) E[x u*]
    P_u: np.ndarray   # (F,) E[|u|^2]

    @classmethod
    def of(cls, x, u):
        return cls(covariance(x), *_echo_moments(x, u))

    def error_cross(self, h):
        """E[e u*] = r_xu - h P_u for the error signal e = x - h u."""
        return self.r_xu - h * self.P_u[:, None]

    def error_covariance(self, h):
        """C_ee = C_xx - r_xu h^H - h r_xu^H + P_u h h^H for e = x - h u.

        A bin whose trace falls below DEAD_BIN_FLOOR times that of C_xx holds
        a fully cancelled echo, and what is left of it is rounding; it gets
        C_ee = 0, as a pass over the exact e gives, which freezes it.
        """
        c = (self.C_xx - self.r_xu[:, :, None] * h.conj()[:, None, :]
             - h[:, :, None] * self.error_cross(h).conj()[:, None, :])
        c = 0.5 * (c + np.conj(np.swapaxes(c, 1, 2)))
        tr = np.einsum("fmm->f", c).real
        c[~(tr > DEAD_BIN_FLOOR * np.einsum("fmm->f", self.C_xx).real)] = 0.0
        return c


@dataclass
class Moments:
    """Score-weighted moments at the current filters, from one pass over the frames."""

    s: np.ndarray      # (F, T) source estimate w^H e
    y: np.ndarray      # (F, T) beamformed microphones w^H x, valid while w holds
    nu: np.ndarray     # (F,) E[s phi], the score normalizer
    rho: np.ndarray    # (F,) E[d phi / d s*]
    e_phi: np.ndarray  # (F, M) E[e phi]
    u_phi: np.ndarray  # (F,) E[u phi]


def moments(x, u, state, score=score_spherical, y=None):
    """One pass at the state's h and w: s = w^H x - (w^H h) u, its score, the moments.

    score(s) returns phi and rho = E[d phi / d s*]. s is formed in one buffer,
    c u with c = w^H h, then subtracted from y = w^H x in place. E[x phi] and
    E[u phi] are batched dot products over the frame axis, and the rest
    follows in closed form: E[e phi] = E[x phi] - h E[u phi] and
    nu = E[s phi] = w^H E[x phi] - c E[u phi], so neither e nor s phi is
    formed. The result holds while h and w do: the driver passes the moments
    behind one iteration's diagnostics on to the next iteration's first step
    instead of making the pass again. y holds while w does; when given, as
    after an echo step that moved only h, it is not formed again.
    """
    if y is None:
        y = (x @ state.w.conj()[:, :, None])[:, :, 0]
    c = np.sum(state.w.conj() * state.h, axis=1)
    s = c[:, None] * u
    np.subtract(y, s, out=s)
    phi, rho = score(s)
    phi_col = phi[:, :, None]
    n_frames = s.shape[1]
    x_phi = (np.swapaxes(x, 1, 2) @ phi_col)[:, :, 0] / n_frames
    u_phi = (u[:, None, :] @ phi_col)[:, 0, 0] / n_frames
    nu = np.sum(state.w.conj() * x_phi, axis=1) - c * u_phi
    return Moments(s=s, y=y, nu=nu, rho=rho,
                   e_phi=x_phi - state.h * u_phi[:, None], u_phi=u_phi)


def _score_weight(nu, normalize):
    """1/nu per bin (0 where the normalizer is dead), or 1 without normalization."""
    if not normalize:
        return np.ones_like(nu)
    live = np.abs(nu) > DEAD_BIN_FLOOR
    return np.where(live, 1.0 / np.where(live, nu, 1.0), 0.0)


def grad_h(state, data, mom, normalize=True):
    """Gradient of the cost w.r.t. conj(h): -(E[phi* u*]/nu* w + R E[e u*]) per bin.

    With normalize=False the score is used raw (no nu division), matching the
    plain cost gradient that finite differences reproduce.
    """
    weight = np.conj(mom.u_phi * _score_weight(mom.nu, normalize))
    r_eu = (state.R @ data.error_cross(state.h)[:, :, None])[:, :, 0]
    return -(weight[:, None] * state.w + r_eu)


def grad_w(state, mom, normalize=True):
    """Gradient of the cost w.r.t. conj(w): E[e phi]/nu - a per bin."""
    return mom.e_phi * _score_weight(mom.nu, normalize)[:, None] - state.a


def hessian_h(state, data, mom, normalize=True):
    """Curvature matrix of the echo-path Newton step, per bin.

    (R + (rho*/nu*) w w^H) * E[|u|^2]; with normalize=False the rho*/nu*
    weight is replaced by plain rho* (the unnormalized second derivative).
    update_aec solves with it in closed form and never forms it.
    For M = 1 with a Gaussian score this reduces to E[|u|^2]. Only mom.nu
    and mom.rho are read, so a ScoreStats serves as well as Moments.
    """
    weight = np.conj(mom.rho * _score_weight(mom.nu, normalize))
    outer = state.w[:, :, None] * state.w.conj()[:, None, :]
    return (state.R + weight[:, None, None] * outer) * data.P_u[:, None, None]


def circularity_check(u):
    """Per-bin |E[u^2]| / E[|u|^2]; near zero for circular signals."""
    if u.shape[1] < 2:
        raise ValueError("circularity check needs at least 2 frames")
    pseudo = np.abs(np.mean(u**2, axis=1))
    power = np.mean(np.abs(u) ** 2, axis=1)
    return np.divide(pseudo, power, out=np.zeros_like(power), where=power > 0)


def update_aec(state, x, u, data, score=score_spherical, mom=None):
    """One Newton step on the echo-path filter h for every active bin.

    solve(hessian_h, -grad_h) in closed form: any whitener R = B^H X B has
    R a = 0, and w^H a = 1, so with r = E[e u*], kappa = conj(E[u phi]/nu) and
    alpha = conj(rho/nu) the step is (r + a (kappa - alpha w^H r) / alpha) / P_u,
    the least-squares step plus a correction along a. mom holds the moments
    at the state's h and w; when not given, they come from one pass over x
    and u with the given score. Returns (h_new, active_mask); bins with
    P_u <= tiny, |nu| or |alpha| <= DEAD_BIN_FLOOR, or a non-finite step are
    left unchanged.
    """
    if mom is None:
        mom = moments(x, u, state, score)
    live = np.abs(mom.nu) > DEAD_BIN_FLOOR
    nu = np.where(live, mom.nu, 1.0)
    alpha = np.conj(mom.rho / nu)
    ok = (state.active & live & (np.abs(alpha) > DEAD_BIN_FLOOR)
          & (data.P_u > np.finfo(float).tiny))
    r = data.error_cross(state.h)
    coef = ((np.conj(mom.u_phi / nu) - alpha * np.sum(state.w.conj() * r, axis=1))
            / np.where(ok, alpha, 1.0))
    step = (r + coef[:, None] * state.a) / np.where(ok, data.P_u, 1.0)[:, None]
    ok &= np.all(np.isfinite(step), axis=1)
    return state.h + np.where(ok[:, None], step, 0.0), ok


def update_bse(state, mom, inv):
    """One fixed-point step on the beamformer w for every active bin.

    w += nu*/(nu* - rho*) C_ee^{-1} grad_w, the approximate Newton step of
    the extraction contrast, with the moments taken at the state's h and w;
    the sign of the curvature denominator is the one that contracts toward
    the fixed point (the same structure as one-unit FastICA). inv is the
    (inverse, ok) pair of loaded_inverse(C_ee, loading) at the state's h,
    which the driver forms once per echo path and hands on. Bins where the
    curvature nu - rho vanishes, the loaded C_ee has no inverse or the step
    is not finite are skipped. Returns (w_new, active_mask); the caller is
    expected to renormalize.
    """
    inverse, solvable = inv
    curv = np.conj(mom.nu - mom.rho)
    step = (inverse @ grad_w(state, mom)[:, :, None])[:, :, 0]
    ok = (state.active & solvable & (np.abs(mom.nu) > DEAD_BIN_FLOOR)
          & (np.abs(curv) > DEAD_BIN_FLOOR) & np.all(np.isfinite(step), axis=1))
    factor = np.conj(mom.nu) / np.where(ok, curv, 1.0)
    return state.w + np.where(ok[:, None], factor[:, None] * step, 0.0), ok


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


def _update_statistics(state, data, loading):
    """Form C_ee at the current h in closed form, then a and the active-bin mask.

    C_ee depends on h alone: the driver calls this at the start and whenever
    h moves, and _refresh_beamformer alone after a step that moved only w.
    """
    state.C_ee = data.error_covariance(state.h)
    _refresh_beamformer(state, loading)


def _refresh_beamformer(state, loading):
    """Form a and the active-bin mask at the current w from the held C_ee.

    No linear solve. Bins with a degenerate w^H C_ee w keep their a and are
    frozen, and so are bins that interference_whitener would reject for the
    trace of their loaded background covariance, taken in closed form
    (background_power); that test is what freezes noise-free echo-only bins.
    """
    a, ok = orthogonal_constraint_atf(state.C_ee, state.w)
    state.a = np.where(ok[:, None], a, state.a)
    m = state.n_channels
    if m >= 2:
        tr = background_power(state.a, state.C_ee) + (m - 1) * _background_floor(state)
        tr *= 1.0 + loading  # the trace of load_diagonal(C_zz + floor, loading)
        ok &= np.isfinite(tr) & (tr > np.finfo(float).tiny)
    state.active = ok


def _background_floor(state):
    """Per-bin floor on C_zz's diagonal: BACKGROUND_FLOOR times the power scales of e and B."""
    m = state.n_channels
    e_scale = np.einsum("fmm->f", state.C_ee).real / m
    # |B|_F^2 / (M - 1) for B = (g, -gamma I)
    b_scale = np.abs(state.a[:, 0]) ** 2 + np.sum(np.abs(state.a[:, 1:]) ** 2, axis=1) / (m - 1)
    return BACKGROUND_FLOOR * e_scale * b_scale


def _whitener(state, loading):
    """The interference whitener R at the state's a and C_ee, for the cost; zero for M = 1."""
    m = state.n_channels
    if m < 2:
        return np.zeros((state.n_freqs, 1, 1), dtype=np.complex128)
    floor = _background_floor(state)[:, None, None] * np.eye(m - 1)
    c_zz = background_covariance(state.a, state.C_ee) + floor
    return interference_whitener(state.a, c_zz, loading)[0]


def _run(x, u, cfg, aec_mode, truth=None):
    """Shared iteration driver for the joint algorithm and its variants."""
    x, u = _inputs(x, u)
    n_freqs, n_frames, m = x.shape
    if n_frames < 2:
        raise ValueError("score statistics need at least 2 frames")
    if cfg.reference_channel > m:
        raise ValueError(f"reference channel {cfg.reference_channel} exceeds {m} microphones")
    state = DemixState.initial(n_freqs, m)
    data = DataStats.of(x, u)
    diag = RunDiagnostics()

    _update_statistics(state, data, cfg.loading)
    mom = None  # the moments at the state's h and w, once a pass has made them
    inv = None  # the loaded inverse of C_ee at the state's h, once a BSE step needed it
    for it in range(cfg.iterations):
        frozen = int(np.sum(~state.active))
        h_old = state.h
        if aec_mode == "joint":
            state.h, ok = update_aec(state, x, u, data, mom=mom)
            frozen = max(frozen, int(np.sum(~ok)))
        elif aec_mode == "bnlms":
            state.h = _least_squares(data.r_xu, data.P_u)
        # h stays put when frozen, under BNLMS after its first step and under
        # ive; C_ee, its inverse and the last iteration's moments then still hold
        y = None if mom is None else mom.y  # w^H x: w has not moved since
        if not np.array_equal(state.h, h_old):
            _update_statistics(state, data, cfg.loading)
            mom = inv = None
        w_old = state.w
        if m >= 2:
            if mom is None:
                mom = moments(x, u, state, y=y)
            if inv is None:
                inv = loaded_inverse(state.C_ee, cfg.loading)
            state.w, ok = update_bse(state, mom, inv)
            frozen = max(frozen, int(np.sum(~ok)))
        normalize_w(state)
        _refresh_beamformer(state, cfg.loading)  # w moved, h and C_ee did not

        if cfg.records or it + 1 < cfg.iterations:
            mom = moments(x, u, state)  # the next echo or BSE step, and the record
        if not cfg.records:
            continue
        state.R = _whitener(state, cfg.loading)  # read by the cost alone
        try:
            cost_value = cost(state, state.C_ee, mom.s)
        except NumericsError:  # fully cancelled bins can degenerate the log term
            cost_value = float("nan")
        record = IterationRecord(
            iteration=it,
            cost=cost_value,
            delta_h=float(np.linalg.norm(state.h - h_old)),
            delta_w=float(np.linalg.norm(state.w - w_old)),
            nu_median=float(np.median(mom.nu.real)),
            rho_median=float(np.median(mom.rho.real)),
            frozen_bins=frozen,
        )
        if truth is not None:
            v = transmission_matrix(state, truth.a_soi, truth.bg_mix, truth.echo_atf)
            record.off_block_db = off_block_energy_db(v)
        diag.records.append(record)

    e = x - state.h[:, None, :] * u[:, :, None]
    s = (e @ state.w.conj()[:, :, None])[:, :, 0]
    diag.bp_scale = backprojection_scale(s, e, cfg.reference_channel)
    return RunResult(s_hat=diag.bp_scale[:, None] * s, e=e, state=state, diagnostics=diag)


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
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
        raise ValueError("microphone or loudspeaker spectrogram is not finite (NaN or inf)")
    return x, u


def _echo_moments(x, u):
    """E[x u*] (F, M) and E[|u|^2] (F,): the loudspeaker's statistics."""
    return np.mean(x * u.conj()[:, :, None], axis=1), np.mean(np.abs(u) ** 2, axis=1)


def _least_squares(r_xu, P_u):
    """Per-channel least-squares echo path r_xu / P_u; bins without excitation get 0.

    One batch-NLMS step from any h lands here.
    """
    ok = P_u > np.finfo(float).tiny
    return np.where(ok[:, None], r_xu / np.where(ok, P_u, 1.0)[:, None], 0.0)


def run_ls_aec(x, u):
    """Batch least-squares echo canceller, no beamformer.

    Returns (e, h) with h = E[x u*] / E[|u|^2] per bin and channel.
    """
    x, u = _inputs(x, u)
    r_xu, P_u = _echo_moments(x, u)
    if not np.any(P_u > 0):
        raise NumericsError("least-squares echo canceller needs a nonzero loudspeaker signal")
    h = _least_squares(r_xu, P_u)
    e = x - h[:, None, :] * u[:, :, None]
    return e, h
