"""Windowed STFT analysis/synthesis with perfect reconstruction, plus WAV I/O.

All downstream processing operates on one-sided complex spectrograms, plain
ndarrays of shape (n_freqs, n_frames, n_channels); synthesis takes the
FrameSpec they were analysed with. Analysis and synthesis use the same
window (square-root Hann by default), which satisfies the constant-overlap-add
condition at 50% overlap and gives perfect reconstruction on interior samples.
"""

import numpy as np
from dataclasses import dataclass
from scipy.io import wavfile

__all__ = [
    "FrameSpec",
    "sqrt_hann_window",
    "analyze",
    "synthesize",
    "read_wav",
    "write_wav",
]

_COLA_RTOL = 1e-12


def sqrt_hann_window(frame_len):
    """Square-root periodic Hann window; COLA at 50% overlap."""
    n = np.arange(frame_len)
    return np.sqrt(0.5 * (1.0 - np.cos(2.0 * np.pi * n / frame_len)))


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class FrameSpec:
    """Framing parameters for STFT analysis/synthesis.

    frame_len must be a power of two and divisible by hop; the window (used
    for both analysis and synthesis) must satisfy constant overlap-add at the
    chosen hop.
    """

    frame_len: int
    hop: int
    window: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        if not _is_power_of_two(self.frame_len):
            raise ValueError(f"frame_len must be a power of two, got {self.frame_len}")
        if self.hop < 1 or self.frame_len % self.hop != 0:
            raise ValueError(f"hop ({self.hop}) must divide frame_len ({self.frame_len})")
        window = np.asarray(self.window, dtype=np.float64)
        if window.shape != (self.frame_len,):
            raise ValueError("window length must equal frame_len")
        object.__setattr__(self, "window", window)
        # COLA check on the analysis*synthesis window product.
        ola = self.overlap_added_window_product()
        mean = ola.mean()
        if mean <= 0.0 or np.max(np.abs(ola - mean)) > _COLA_RTOL * mean:
            raise ValueError("window does not satisfy constant overlap-add for this hop")

    @classmethod
    def default(cls, frame_len=2048, hop=1024, sample_rate=16000):
        return cls(frame_len, hop, sqrt_hann_window(frame_len), sample_rate)

    @property
    def n_freqs(self):
        return self.frame_len // 2 + 1

    def overlap_added_window_product(self):
        """Sum of shifted window products over one hop period."""
        wprod = self.window * self.window
        shifts = self.frame_len // self.hop
        acc = np.zeros(self.hop)
        for k in range(shifts):
            acc += wprod[k * self.hop:(k + 1) * self.hop]
        return acc

    def n_frames(self, n_samples):
        """Frame count covering every sample (tail zero-padded)."""
        if n_samples < self.frame_len:
            raise ValueError(
                f"signal of {n_samples} samples is shorter than one frame ({self.frame_len})"
            )
        return int(np.ceil((n_samples - self.frame_len) / self.hop)) + 1


def _as_channels(signal):
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 1:
        return signal[:, None]
    if signal.ndim == 2:
        return signal
    raise ValueError("signal must be 1-D (mono) or 2-D (samples, channels)")


def analyze(signal, spec):
    """Compute the one-sided STFT of a time-domain signal.

    Parameters
    ----------
    signal : ndarray (n_samples,) or (n_samples, n_channels)
    spec : FrameSpec

    Returns
    -------
    ndarray (n_freqs, n_frames, n_channels), complex. The tail is zero-padded
    so every input sample is covered by at least one frame.
    """
    x = _as_channels(signal)
    n_samples, n_chan = x.shape
    n_frames = spec.n_frames(n_samples)
    padded_len = (n_frames - 1) * spec.hop + spec.frame_len
    if padded_len > n_samples:
        x = np.concatenate([x, np.zeros((padded_len - n_samples, n_chan))], axis=0)
    starts = np.arange(n_frames) * spec.hop
    idx = starts[:, None] + np.arange(spec.frame_len)[None, :]
    frames = x[idx, :] * spec.window[None, :, None]  # (T, frame_len, M)
    data = np.fft.rfft(frames, axis=1)               # (T, F, M)
    return np.ascontiguousarray(data.transpose(1, 0, 2))


def synthesize(data, spec, length=None):
    """Overlap-add synthesis, inverse of analyze.

    Parameters
    ----------
    data : ndarray (n_freqs, n_frames, n_channels), complex
    spec : FrameSpec
    length : int, optional
        Trim the output to this many samples (e.g. the original signal
        length before tail padding).

    Returns
    -------
    ndarray (n_samples, n_channels)
    """
    data = np.asarray(data, dtype=np.complex128)
    if data.ndim != 3 or data.shape[0] != spec.n_freqs:
        raise ValueError(f"spectrogram of shape {data.shape} is not "
                         f"({spec.n_freqs}, n_frames, n_channels)")
    _, n_frames, n_chan = data.shape
    frames = np.fft.irfft(data.transpose(1, 0, 2), n=spec.frame_len, axis=1)  # (T, L, M)
    frames *= spec.window[None, :, None]
    # Frame t's block b lands on output block t + b. Adding the blocks from
    # the last to the first sums each sample's frames in time order, as a
    # loop over the frames would.
    shifts = spec.frame_len // spec.hop
    blocks = frames.reshape(n_frames, shifts, spec.hop, n_chan)
    out = np.zeros((n_frames + shifts - 1, spec.hop, n_chan))
    for b in reversed(range(shifts)):
        out[b:b + n_frames] += blocks[:, b]
    out = out.reshape(-1, n_chan)
    # overlap-added window products sum to a constant (COLA); undo that gain
    out /= spec.overlap_added_window_product().mean()
    if length is not None:
        out = out[:length]
    return out


def read_wav(path):
    """Read a PCM WAV file as float64 samples in [-1, 1].

    Returns
    -------
    (data, sample_rate) with data of shape (n_samples, n_channels).
    """
    rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        data = data.astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV sample format: {data.dtype}")
    if data.ndim == 1:
        data = data[:, None]
    return data, int(rate)


def write_wav(path, data, sample_rate, dtype="float32"):
    """Write samples to a PCM WAV file (float32 or int16)."""
    data = np.asarray(data)
    if data.ndim == 1:
        data = data[:, None]
    if dtype == "float32":
        wavfile.write(path, sample_rate, data.astype(np.float32))
    elif dtype == "int16":
        clipped = np.clip(data, -1.0, 1.0 - 1.0 / 32768.0)
        wavfile.write(path, sample_rate, np.round(clipped * 32768.0).astype(np.int16))
    else:
        raise ValueError(f"unsupported dtype: {dtype}")
