import numpy as np

from binauralize.dsp import (
    BinauralClip,
    StftParams,
    Waveform,
    env_distance,
    envelope,
    stft,
    stft_distance,
)

SR = 16000
P = StftParams()


def make_clip(seed, seconds=1.0, pan=0.0):
    """Synthetic stereo: common content plus a lateralized component."""
    rng = np.random.default_rng(seed)
    n = int(SR * seconds)
    common = rng.standard_normal(n) * 0.3
    side = rng.standard_normal(n) * 0.3
    left = common + (0.5 + pan / 2) * side
    right = common + (0.5 - pan / 2) * side
    return BinauralClip(Waveform(left, SR), Waveform(right, SR))


def test_zero_at_equality_and_nonnegative():
    clip = make_clip(0, pan=0.6)
    assert stft_distance(clip, clip, P) == 0.0
    assert env_distance(clip, clip) == 0.0
    other = make_clip(1, pan=-0.2)
    assert stft_distance(clip, other, P) > 0
    assert env_distance(clip, other) > 0


def test_mono_mono_closed_form():
    # both channels = mono mix; distance must equal ||stft(left - right)||
    clip = make_clip(2, pan=0.8)
    mono = clip.mono()
    pred = BinauralClip(mono, mono)
    d = stft_distance(pred, clip, P)
    oracle = np.linalg.norm(stft(clip.difference(), P).bins)
    np.testing.assert_allclose(d, oracle, rtol=1e-12)


def test_error_homogeneity():
    clip = make_clip(3, pan=0.5)
    mono = clip.mono()
    base = BinauralClip(mono, mono)
    # doubling the per-channel error spectrogram doubles each L2 term:
    # construct pred2 with error 2x: pred2 = mono + 2*(mono - channel)
    left2 = Waveform(2 * mono.samples - clip.left.samples, SR)
    right2 = Waveform(2 * mono.samples - clip.right.samples, SR)
    d1 = stft_distance(base, clip, P)
    d2 = stft_distance(BinauralClip(left2, right2), clip, P)
    np.testing.assert_allclose(d2, 2 * d1, rtol=1e-9)


def test_env_distance_detects_channel_swap():
    clip = make_clip(5, pan=0.9)
    swapped = BinauralClip(clip.right, clip.left)
    assert env_distance(swapped, clip) > 0


def test_env_distance_scaling_oracle():
    # scaling both channels by 2: error envelope gap ~ |2A - A| per channel
    clip = make_clip(6, pan=0.0)
    doubled = BinauralClip(Waveform(2 * clip.left.samples, SR),
                           Waveform(2 * clip.right.samples, SR))
    d = env_distance(doubled, clip)
    oracle = np.mean([
        np.sqrt(np.mean(envelope(clip.left) ** 2)),
        np.sqrt(np.mean(envelope(clip.right) ** 2)),
    ])
    np.testing.assert_allclose(d, oracle, rtol=1e-9)
