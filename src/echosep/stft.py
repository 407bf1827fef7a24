"""Windowed STFT analysis/synthesis with perfect reconstruction, plus WAV I/O.

All downstream processing operates on one-sided complex spectrograms, plain
ndarrays of shape (n_freqs, n_frames, n_channels); synthesis takes the
FrameSpec they were analysed with. Analysis and synthesis use the same
square-root Hann window, whose squares overlap-add to the constant
frame_len / (2 hop) at every hop that divides frame_len and is shorter than
it, so synthesis reconstructs interior samples perfectly.
WAV files are read and written by a small numpy RIFF/WAVE codec.
"""

import struct
import numpy as np
from dataclasses import dataclass, field
from pathlib import Path
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "FrameSpec",
    "sqrt_hann_window",
    "analyze",
    "synthesize",
    "read_wav",
    "write_wav",
]


def sqrt_hann_window(frame_len):
    """Square-root periodic Hann window; its squares overlap-add to a constant."""
    n = np.arange(frame_len)
    return np.sqrt(0.5 * (1.0 - np.cos(2.0 * np.pi * n / frame_len)))


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class FrameSpec:
    """Framing parameters for STFT analysis/synthesis.

    frame_len must be a power of two, and hop a divisor shorter than it. The
    window, used for analysis and synthesis, is sqrt_hann_window(frame_len).
    Its squares overlap-add to frame_len / (2 hop) at every such hop, the
    gain synthesis undoes (Allen & Rabiner, Proc. IEEE 1977), and to no
    constant at hop = frame_len.
    """

    frame_len: int = 2048
    hop: int = 1024
    sample_rate: int = 16000
    window: np.ndarray = field(init=False)

    def __post_init__(self):
        if not _is_power_of_two(self.frame_len):
            raise ValueError(f"frame_len must be a power of two, got {self.frame_len}")
        if self.hop < 1 or self.frame_len % self.hop != 0:
            raise ValueError(f"hop ({self.hop}) must divide frame_len ({self.frame_len})")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.hop == self.frame_len:
            raise ValueError(f"hop ({self.hop}) and frame_len ({self.frame_len}) do not give "
                             "the window constant overlap-add")
        object.__setattr__(self, "window", sqrt_hann_window(self.frame_len))

    @property
    def n_freqs(self):
        return self.frame_len // 2 + 1

    def n_frames(self, n_samples):
        """Frame count covering every sample (tail zero-padded)."""
        if n_samples < self.frame_len:
            raise ValueError(
                f"signal of {n_samples} samples is shorter than one frame ({self.frame_len})"
            )
        return int(np.ceil((n_samples - self.frame_len) / self.hop)) + 1


def analyze(signal, spec):
    """Compute the one-sided STFT of a time-domain signal.

    Parameters
    ----------
    signal : ndarray (n_samples,) or (n_samples, n_channels)
    spec : FrameSpec

    Returns
    -------
    ndarray (n_freqs, n_frames, n_channels), complex, C-contiguous; the tail
    is zero-padded so every input sample is covered by at least one frame.
    Each channel's frames are a strided view of one padded buffer, so the
    FFT runs along the contiguous axis.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("signal must be 1-D (mono) or 2-D (samples, channels)")
    x = x[:, None] if x.ndim == 1 else x
    n_samples, n_chan = x.shape
    n_frames = spec.n_frames(n_samples)
    padded = np.zeros((n_frames - 1) * spec.hop + spec.frame_len)
    frames = sliding_window_view(padded, spec.frame_len)[::spec.hop]  # (T, L) view
    windowed = np.empty(frames.shape)  # one buffer for all channels: fresh ones cost page faults
    data = np.empty((spec.n_freqs, n_frames, n_chan), dtype=np.complex128)
    for m in range(n_chan):
        padded[:n_samples] = x[:, m]
        np.multiply(frames, spec.window, out=windowed)
        data[:, :, m] = np.fft.rfft(windowed, axis=-1).T
    return data


def synthesize(data, spec, length=None):
    """Overlap-add synthesis, inverse of analyze.

    Parameters
    ----------
    data : ndarray (n_freqs, n_frames[, n_channels]), complex; 2-D is one channel
    spec : FrameSpec
    length : int, optional
        Trim the output to this many samples (e.g. the original signal
        length before tail padding).

    Returns
    -------
    ndarray (n_samples, n_channels)
    """
    data = np.asarray(data, dtype=np.complex128)
    if data.ndim == 2:
        data = data[:, :, None]
    if data.ndim != 3 or data.shape[0] != spec.n_freqs:
        raise ValueError(f"spectrogram of shape {data.shape} is not "
                         f"({spec.n_freqs}, n_frames[, n_channels])")
    _, n_frames, n_chan = data.shape
    # one transposing copy puts the bins on the contiguous axis for the FFT
    frames = np.fft.irfft(np.ascontiguousarray(data.transpose(1, 2, 0)), n=spec.frame_len)
    frames *= spec.window  # (T, M, L)
    # Frame t's block b lands on output block t + b. Adding the blocks from
    # the last to the first sums each sample's frames in time order, as a
    # loop over the frames would.
    shifts = spec.frame_len // spec.hop
    blocks = frames.reshape(n_frames, n_chan, shifts, spec.hop)
    out = np.zeros((n_frames + shifts - 1, spec.hop, n_chan))
    for b in reversed(range(shifts)):
        out[b:b + n_frames] += blocks[:, :, b].transpose(0, 2, 1)
    out = out.reshape(-1, n_chan)
    out /= spec.frame_len / (2 * spec.hop)  # the overlap-added window squares' gain
    if length is not None:
        out = out[:length]
    return out


# RIFF/WAVE format tags: PCM, IEEE float, and WAVE_FORMAT_EXTENSIBLE, whose
# subformat GUID carries one of the first two in its leading bytes.
_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bytes per sample) -> (little-endian dtype, full scale)
_READ_FORMATS = {
    (_PCM, 2): ("<i2", 32768.0),
    (_PCM, 3): ("<i4", 2147483648.0),  # 24-bit, left-justified in int32
    (_PCM, 4): ("<i4", 2147483648.0),
    (_FLOAT, 4): ("<f4", 1.0),
    (_FLOAT, 8): ("<f8", 1.0),
}


def _parse_fmt(buf):
    """(format tag, channels, sample rate, bytes per sample) of a fmt chunk."""
    if len(buf) < 16:
        raise ValueError(f"fmt chunk of {len(buf)} bytes")
    tag, channels, rate, _, block_align, _ = struct.unpack_from("<HHIIHH", buf)
    if tag == _EXTENSIBLE and len(buf) >= 40 and buf[24:40].endswith(_GUID_TAIL):
        tag = struct.unpack_from("<I", buf, 24)[0]
    if channels < 1 or block_align % channels:
        raise ValueError(f"{channels} channels in {block_align}-byte blocks")
    return tag, channels, rate, block_align // channels


def read_wav(path):
    """Read a WAV file as float64 samples in [-1, 1].

    Accepts little-endian RIFF/WAVE files of 16-, 24- or 32-bit PCM or
    32- or 64-bit IEEE float, also as WAVE_FORMAT_EXTENSIBLE; other chunks
    are skipped. Anything else raises ValueError giving why, not the path.

    Returns
    -------
    (data, sample_rate) with data of shape (n_samples, n_channels), writable.
    """
    buf = Path(path).read_bytes()
    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    fmt, pos = None, 12
    while pos + 8 <= len(buf):
        chunk_id, size = struct.unpack_from("<4sI", buf, pos)
        pos += 8
        if pos + size > len(buf):
            raise ValueError(f"{chunk_id!r} chunk runs past the end of the file")
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(buf[pos:pos + size])
        elif chunk_id == b"data":
            break
        pos += size + size % 2  # chunks are padded to an even length
    else:
        raise ValueError("no data chunk")
    if fmt is None:
        raise ValueError("no fmt chunk before the data chunk")
    tag, channels, rate, width = fmt
    if (tag, width) not in _READ_FORMATS:
        raise ValueError("unsupported WAV sample format "
                         f"(format tag {tag:#06x}, {8 * width}-bit container)")
    dtype, scale = _READ_FORMATS[tag, width]
    n = size // (width * channels) * channels
    raw = np.frombuffer(buf, np.uint8, n * width, pos)
    if width == 3:  # each sample's 3 bytes go to the top of an int32
        padded = np.zeros((n, 4), np.uint8)
        padded[:, 1:] = raw.reshape(n, 3)
        raw = padded
    data = raw.view(dtype).astype(np.float64)
    if scale != 1.0:
        data /= scale
    return data.reshape(-1, channels), int(rate)


def write_wav(path, data, sample_rate):
    """Write samples to a WAV file as 32-bit float.

    The header is the canonical RIFF/WAVE layout of a float file: an 18-byte
    fmt chunk (cbSize 0) and a fact chunk with the frame count.
    """
    data = np.asarray(data)
    if data.ndim == 1:
        data = data[:, None]
    samples = data.astype("<f4")
    n_frames, channels = samples.shape
    fmt = struct.pack("<HHIIHHH", _FLOAT, channels, sample_rate, sample_rate * 4 * channels,
                      4 * channels, 32, 0)
    header = (b"WAVE" + struct.pack("<4sI", b"fmt ", len(fmt)) + fmt
              + struct.pack("<4sII4sI", b"fact", 4, n_frames, b"data", samples.nbytes))
    riff_size = len(header) + samples.nbytes
    if riff_size > 0xFFFFFFFF:
        raise ValueError(f"{path}: {samples.nbytes} bytes of samples exceed a RIFF file")
    with open(path, "wb") as f:
        f.write(struct.pack("<4sI", b"RIFF", riff_size) + header)
        samples.tofile(f)
