import numpy as np
import pytest

from binauralize.dsp import (
    ComplexSpectrogram,
    StftParams,
    Waveform,
    istft,
    istft_array,
    stft,
    valid_interior,
)

SR = 16000
P = StftParams()


def rand_wave(seed, seconds=1.0):
    rng = np.random.default_rng(seed)
    return Waveform(rng.standard_normal(int(SR * seconds)), SR)


def test_zero_waveform_gives_zero_spectrogram():
    s = stft(Waveform(np.zeros(SR), SR), P)
    assert s.bins.shape == (1 + (SR - 400) // 160, 257)
    assert np.all(s.bins == 0)


def test_sine_peaks_at_expected_bin():
    # 1 kHz at 16 kHz with fft 512 -> bin 32
    t = np.arange(SR) / SR
    s = stft(Waveform(np.sin(2 * np.pi * 1000 * t), SR), P)
    mags = np.abs(s.bins)
    assert np.all(np.argmax(mags, axis=1) == 32)


def test_frame_matches_direct_dft():
    # oracle: direct DFT of one windowed frame
    w = rand_wave(0)
    s = stft(w, P)
    frame_idx = 7
    seg = w.samples[frame_idx * P.hop: frame_idx * P.hop + P.window_size]
    windowed = np.zeros(P.fft_size)
    windowed[:P.window_size] = seg * P.window_array()
    n = np.arange(P.fft_size)
    direct = np.array([
        np.sum(windowed * np.exp(-2j * np.pi * k * n / P.fft_size))
        for k in range(P.n_bins)
    ])
    np.testing.assert_allclose(s.bins[frame_idx], direct, atol=1e-9)


def test_linearity():
    x, y = rand_wave(1), rand_wave(2)
    both = Waveform(x.samples + y.samples, SR)
    np.testing.assert_allclose(
        stft(both, P).bins, stft(x, P).bins + stft(y, P).bins, atol=1e-9)


def test_empty_waveform_rejected():
    with pytest.raises(ValueError, match="empty waveform"):
        stft(Waveform(np.array([]), SR), P)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        StftParams(fft_size=256, window_size=400)
    with pytest.raises(ValueError):
        StftParams(hop=0)
    with pytest.raises(ValueError):
        StftParams(hop=512, window_size=400)


def test_round_trip_interior_many_seeds():
    for seed in range(20):
        w = rand_wave(seed)
        r = istft(stft(w, P))
        lo, hi = valid_interior(P.n_frames(len(w)), P)
        ref = w.samples[lo:hi]
        err = np.linalg.norm(r.samples[lo:hi] - ref) / np.linalg.norm(ref)
        assert err < 1e-6


def test_istft_zero_and_linearity():
    s = stft(rand_wave(3), P)
    zero = ComplexSpectrogram(np.zeros_like(s.bins), P, SR)
    assert np.all(istft(zero).samples == 0)
    np.testing.assert_allclose(
        istft(ComplexSpectrogram(2 * s.bins, P, SR)).samples,
        2 * istft(s).samples, atol=1e-9)


def test_batched_istft_equals_per_row():
    # three 0.63 s windows, the shape inference synthesizes at once
    specs = np.stack([stft(rand_wave(seed, 0.63), P).bins for seed in (4, 5, 6)])
    batched = istft_array(specs, P)
    for row, spec in zip(batched, specs):
        assert np.array_equal(row, istft(ComplexSpectrogram(spec, P, SR)).samples)
