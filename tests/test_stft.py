"""STFT analysis/synthesis: reconstruction, linearity, energy, WAV I/O."""

import math
import struct

import numpy as np
import pytest
from scipy.io import wavfile

from echosep import stft


def spec_512():
    return stft.FrameSpec(512, 256, 16000)


def overlap_added_window_squares(spec):
    """The squares of the window's frame_len / hop shifts by hop, summed exactly, (hop,)."""
    return np.array([math.fsum(col) for col in (spec.window ** 2).reshape(-1, spec.hop).T])


def test_window_squares_overlap_add_to_the_gain_synthesis_undoes():
    """Power-of-two frame_len to 2^15, each hop dividing it: a spec exactly when hop < frame_len.

    Each accepted spec's window squares, summed exactly, overlap-add to
    frame_len / (2 hop), the constant synthesize divides by, within the
    rounding of the window's samples.
    """
    for frame_len in (2 ** k for k in range(16)):
        for hop in (2 ** j for j in range(frame_len.bit_length())):
            if hop == frame_len:
                with pytest.raises(ValueError, match="constant overlap-add"):
                    stft.FrameSpec(frame_len, hop, 16000)
                continue
            ola = overlap_added_window_squares(stft.FrameSpec(frame_len, hop, 16000))
            np.testing.assert_allclose(ola, frame_len / (2 * hop), rtol=2e-15, atol=0)


def test_zero_signal_gives_zero_spectrogram():
    spec = spec_512()
    spg = stft.analyze(np.zeros(4000), spec)
    assert spg.shape == (257, spec.n_frames(4000), 1)
    assert np.all(spg == 0)


def test_sinusoid_at_bin_center_concentrates_energy():
    """A cosine at bin k's center puts the window's main-lobe share of its energy in k-1..k+1.

    The square-root Hann window is sin(pi n / L). Its spectrum at j bins from
    the center is proportional to 1 / (4 j^2 - 1), and sum_j 1 / (4 j^2 - 1)^2
    = pi^2 / 8, so bins k and k +- 1 hold (1 + 2/9) / (pi^2 / 8) = 88 / (9 pi^2)
    = 0.99070 of the energy. Sampling the window and the cosine's image at -k
    leave the share of the STFT a little below that (0.99060).
    """
    spec = spec_512()
    k = 19
    n = np.arange(spec.frame_len * 8)
    spg = stft.analyze(np.cos(2 * np.pi * k * n / spec.frame_len), spec)
    power = np.abs(spg[:, :, 0]) ** 2
    share = power[k - 1:k + 2].sum() / power.sum()
    main_lobe = 88 / (9 * np.pi ** 2)
    assert main_lobe - 1e-3 < share <= main_lobe


def test_frame_count_matches_direct_enumeration():
    rng = np.random.default_rng(0)
    sig = rng.standard_normal((5 * 16000, 4))
    spec = stft.FrameSpec(2048, 1024, 16000)
    spg = stft.analyze(sig, spec)
    # oracle: enumerate frame starts until the frame covers the last sample
    count, end = 1, spec.frame_len
    while end < len(sig):
        end += spec.hop
        count += 1
    assert count == 78
    assert spg.shape == (1025, count, 4)


def fancy_index_analysis(signal, spec):
    """Reference framing: zero-pad the tail, gather the frames by fancy indexing, FFT each."""
    x = signal[:, None] if signal.ndim == 1 else signal
    n_frames = spec.n_frames(len(x))
    x = np.concatenate([x, np.zeros(((n_frames - 1) * spec.hop + spec.frame_len - len(x),
                                     x.shape[1]))], axis=0)
    idx = (np.arange(n_frames) * spec.hop)[:, None] + np.arange(spec.frame_len)[None, :]
    frames = x[idx, :] * spec.window[None, :, None]  # (T, L, M)
    return np.fft.rfft(frames, axis=1).transpose(1, 0, 2)


@pytest.mark.parametrize("shape, hop", [((5632,), 256), ((6000, 3), 256), ((6001, 1), 128),
                                        ((6000, 3), 128)],
                         ids=["mono", "tail_padding", "quarter_hop_mono", "quarter_hop"])
def test_analyze_equals_the_fancy_index_framing(shape, hop):
    sig = np.random.default_rng(5).standard_normal(shape)
    spec = stft.FrameSpec(512, hop, 16000)
    spg = stft.analyze(sig, spec)
    assert spg.flags.c_contiguous
    assert np.array_equal(spg, fancy_index_analysis(sig, spec))


@pytest.mark.parametrize("n_chan, hop", [(1, 256), (3, 256), (3, 128)])
def test_synthesize_equals_the_frame_by_frame_overlap_add(n_chan, hop):
    """Each frame's inverse FFT, windowed and added in time order, then the COLA gain undone."""
    rng = np.random.default_rng(7)
    spec = stft.FrameSpec(512, hop, 16000)
    data = rng.standard_normal((257, 9, n_chan)) + 1j * rng.standard_normal((257, 9, n_chan))
    reference = np.zeros((8 * hop + 512, n_chan))
    for t in range(9):
        for m in range(n_chan):
            reference[t * hop:t * hop + 512, m] += np.fft.irfft(data[:, t, m], n=512) * spec.window
    reference /= overlap_added_window_squares(spec).mean()
    assert np.array_equal(stft.synthesize(data, spec), reference)


def test_synthesize_takes_a_two_dimensional_spectrogram_as_one_channel():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((257, 9)) + 1j * rng.standard_normal((257, 9))
    out = stft.synthesize(data, spec_512(), length=2000)
    assert out.shape == (2000, 1)
    assert np.array_equal(out, stft.synthesize(data[:, :, None], spec_512(), length=2000))


def test_round_trip_white_noise_interior():
    assert round_trip_interior_error(256) <= 1e-10  # 2 overlapping frames per sample


def test_round_trip_white_noise_interior_four_shifts():
    assert round_trip_interior_error(128) <= 1e-10  # 4 overlapping frames per sample


def round_trip_interior_error(hop):
    rng = np.random.default_rng(1)
    sig = rng.standard_normal((12000, 3))
    spec = stft.FrameSpec(512, hop, 16000)
    rec = stft.synthesize(stft.analyze(sig, spec), spec, length=len(sig))
    lo, hi = spec.frame_len, len(sig) - spec.frame_len
    return np.linalg.norm(rec[lo:hi] - sig[lo:hi]) / np.linalg.norm(sig[lo:hi])


def test_zero_spectrogram_synthesizes_to_zero():
    spec = spec_512()
    assert np.all(stft.synthesize(np.zeros((257, 6, 2), dtype=complex), spec) == 0)


def test_single_bin_single_frame_is_windowed_exponential():
    spec = spec_512()
    k, c = 7, 0.3 - 1.1j
    data = np.zeros((spec.n_freqs, 1, 1), dtype=complex)
    data[k, 0, 0] = c
    out = stft.synthesize(data, spec)[:, 0]
    # oracle: inverse DFT of the Hermitian-extended unit-impulse spectrum
    n = np.arange(spec.frame_len)
    full = np.zeros(spec.frame_len, dtype=complex)
    full[k] = c
    full[spec.frame_len - k] = np.conj(c)
    segment = np.real(
        np.sum(full[None, :] * np.exp(2j * np.pi * np.outer(n, np.arange(spec.frame_len))
                                      / spec.frame_len), axis=1)
    ) / spec.frame_len
    cola = overlap_added_window_squares(spec).mean()
    expected = spec.window * segment / cola
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_linearity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6000, 2))
    y = rng.standard_normal((6000, 2))
    a, b = 2.5, -0.7
    spec = spec_512()
    combined = stft.analyze(a * x + b * y, spec)
    separate = a * stft.analyze(x, spec) + b * stft.analyze(y, spec)
    assert np.max(np.abs(combined - separate)) <= 1e-12 * np.max(np.abs(separate))


def test_parseval_per_frame_against_direct_enumeration():
    rng = np.random.default_rng(3)
    sig = rng.standard_normal(8000)
    spec = spec_512()
    spg = stft.analyze(sig, spec)
    padded = np.concatenate([sig, np.zeros((spg.shape[1] - 1) * spec.hop
                                           + spec.frame_len - len(sig))])
    spectral = 0.0
    direct = 0.0
    for t in range(spg.shape[1]):
        seg = padded[t * spec.hop:t * spec.hop + spec.frame_len] * spec.window
        direct += np.sum(seg**2)
        mag2 = np.abs(spg[:, t, 0]) ** 2
        spectral += (mag2[0] + mag2[-1] + 2 * mag2[1:-1].sum()) / spec.frame_len
    assert abs(spectral - direct) <= 1e-6 * direct


def test_analyze_rejects_a_three_dimensional_signal():
    with pytest.raises(ValueError, match=r"^signal must be 1-D \(mono\) or 2-D"):
        stft.analyze(np.zeros((600, 2, 2)), spec_512())


def test_signal_shorter_than_frame_rejected():
    with pytest.raises(ValueError):
        stft.analyze(np.zeros(100), spec_512())


def test_hop_without_overlap_rejected_naming_hop_and_frame_len():
    """At hop = frame_len the window's overlap-add is not constant; the error names both."""
    with pytest.raises(ValueError, match=r"^hop \(512\) and frame_len \(512\) do not give "
                                         r"the window constant overlap-add$"):
        stft.FrameSpec(512, 512, 16000)


def test_bad_framing_rejected():
    with pytest.raises(ValueError):
        stft.FrameSpec(500, 250, 16000)  # not a power of two
    with pytest.raises(ValueError):
        stft.FrameSpec(512, 192, 16000)  # hop does not divide


def test_spectrogram_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        stft.synthesize(np.zeros((100, 4, 1), dtype=complex), spec_512())


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-7)])  # the one format write_wav writes
def test_wav_round_trip(tmp_path, dtype, tol):
    rng = np.random.default_rng(4)
    data = np.clip(rng.standard_normal((2000, 3)) * 0.2, -0.99, 0.99)
    path = tmp_path / f"x_{dtype}.wav"
    stft.write_wav(path, data, 16000)
    back, rate = stft.read_wav(path)
    assert rate == 16000
    assert back.shape == data.shape
    np.testing.assert_allclose(back, data, atol=tol)


def test_wav_mono_round_trip(tmp_path):
    data = np.linspace(-0.5, 0.5, 300)
    path = tmp_path / "mono.wav"
    stft.write_wav(path, data, 8000)
    back, rate = stft.read_wav(path)
    assert rate == 8000
    assert back.shape == (300, 1)
    np.testing.assert_allclose(back[:, 0], data, atol=1e-7)


def scipy_written(path, data, dtype):
    """write_wav's samples, written by scipy.io.wavfile."""
    data = data[:, None] if data.ndim == 1 else data
    wavfile.write(path, 16000, data.astype(dtype))
    return path.read_bytes()


@pytest.mark.parametrize("dtype", ["float32"])  # the one format write_wav writes
@pytest.mark.parametrize("shape", [(1500,), (1500, 4)], ids=["mono", "4ch"])
def test_write_wav_bytes_equal_scipy(tmp_path, dtype, shape):
    data = np.random.default_rng(8).standard_normal(shape) * 0.4
    stft.write_wav(tmp_path / "ours.wav", data, 16000)
    assert (tmp_path / "ours.wav").read_bytes() == scipy_written(tmp_path / "s.wav", data, dtype)


@pytest.mark.parametrize("dtype, scale", [(np.int16, 2.0**15), (np.int32, 2.0**31),
                                          (np.float32, 1.0), (np.float64, 1.0)])
@pytest.mark.parametrize("n_chan", [1, 3])
def test_read_wav_equals_scipy_read(tmp_path, dtype, scale, n_chan):
    rng = np.random.default_rng(9)
    samples = (rng.uniform(-0.9, 0.9, (700, n_chan)) * scale).astype(dtype)
    path = tmp_path / "x.wav"
    wavfile.write(path, 22050, samples[:, 0] if n_chan == 1 else samples)
    rate, expected = wavfile.read(path)
    data, ours = stft.read_wav(path)
    assert ours == rate == 22050
    assert data.dtype == np.float64 and data.shape == (700, n_chan)
    assert np.array_equal(data, expected.reshape(700, n_chan).astype(np.float64) / scale)


def riff(*chunks):
    """A RIFF/WAVE file of the given (id, payload) chunks, each padded to even length."""
    body = b"WAVE"
    for chunk_id, payload in chunks:
        body += struct.pack("<4sI", chunk_id, len(payload)) + payload + b"\0" * (len(payload) % 2)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt(tag, channels, width, rate=16000, extra=b""):
    return struct.pack("<HHIIHH", tag, channels, rate, rate * width * channels,
                       width * channels, 8 * width) + extra


def extensible(channels, width, subformat):
    guid = struct.pack("<I", subformat) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return fmt(0xFFFE, channels, width, extra=struct.pack("<HHI", 22, 8 * width, 0) + guid)


def test_read_wav_24_bit_pcm(tmp_path):
    values = np.array([[0, -1], [2**23 - 1, -2**23], [12345, -54321]])
    payload = b"".join(int(v).to_bytes(3, "little", signed=True) for v in values.ravel())
    path = tmp_path / "x24.wav"
    path.write_bytes(riff((b"fmt ", fmt(1, 2, 3)), (b"data", payload)))
    data, rate = stft.read_wav(path)
    assert rate == 16000
    assert np.array_equal(data, values / 2.0**23)
    _, expected = wavfile.read(path)  # scipy's left-justified int32
    assert np.array_equal(data, expected / 2.0**31)


@pytest.mark.parametrize("subformat, dtype", [(1, "<i2"), (3, "<f4")])
def test_read_wav_extensible(tmp_path, subformat, dtype):
    samples = (np.random.default_rng(10).uniform(-0.5, 0.5, (40, 2))
               * (2.0**15 if subformat == 1 else 1.0)).astype(dtype)
    path = tmp_path / "ext.wav"
    path.write_bytes(riff((b"fmt ", extensible(2, samples.itemsize, subformat)),
                          (b"data", samples.tobytes())))
    data, _ = stft.read_wav(path)
    assert np.array_equal(data, samples / (2.0**15 if subformat == 1 else 1.0))


def test_read_wav_skips_an_odd_sized_list_chunk(tmp_path):
    samples = np.arange(-6, 6, dtype="<i2").reshape(6, 2)
    path = tmp_path / "list.wav"
    path.write_bytes(riff((b"fmt ", fmt(1, 2, 2)), (b"LIST", b"INFOabc"),
                          (b"data", samples.tobytes())))
    data, _ = stft.read_wav(path)
    assert np.array_equal(data, samples / 32768.0)


@pytest.mark.parametrize("content, reason", [
    (b"RIFX" + bytes(40), "not a RIFF"),
    (riff((b"fmt ", fmt(1, 1, 1)), (b"data", bytes(10))), "8-bit"),
    (riff((b"fmt ", fmt(3, 1, 4)), (b"LIST", b"INFO")), "no data chunk"),
    (riff((b"fmt ", fmt(1, 1, 2)), (b"data", bytes(10)))[:-4], "past the end"),
    (riff((b"fmt ", fmt(1, 1, 2)[:12]), (b"data", bytes(10))), "^fmt chunk of 12 bytes$"),
    (riff((b"fmt ", fmt(1, 2, 2)[:12] + struct.pack("<HH", 3, 16)), (b"data", bytes(12))),
     "^2 channels in 3-byte blocks$"),
    (riff((b"data", bytes(10)), (b"fmt ", fmt(1, 1, 2))), "^no fmt chunk before the data chunk$"),
], ids=["not_riff", "pcm_8_bit", "no_data_chunk", "data_past_end", "short_fmt",
        "block_align_not_per_channel", "data_before_fmt"])
def test_read_wav_rejects(tmp_path, content, reason):
    path = tmp_path / "bad.wav"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=reason):
        stft.read_wav(path)


def test_read_wav_returns_a_writable_array(tmp_path):
    """Callers edit what they read (the CLI's non-finite-mixture tests do)."""
    stft.write_wav(tmp_path / "x.wav", np.zeros((10, 2)), 16000)
    data, _ = stft.read_wav(tmp_path / "x.wav")
    data[3, 1] = np.nan
    assert data.flags.writeable and np.isnan(data[3, 1])
