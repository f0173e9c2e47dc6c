import math

import numpy as np
import pytest

from binauralize.nn import REDUCED_ARCH, Tensor, init_params
from binauralize.nn import autodiff as ad
from binauralize.training import (
    ConsistencyConfig,
    LossWeights,
    loss_backbone_from_masks,
    loss_coherence,
    loss_geometric,
    loss_rir,
)

ARCH = REDUCED_ARCH


def random_masks(rng, n=2, frames=ARCH.spec_frames, bins=ARCH.spec_bins,
                 identity=False):
    masks = {}
    for key in ("d", "l", "r"):
        if identity:
            m = np.zeros((n, frames, bins, 2))
            if key != "d":
                m[..., 0] = 1.0
        else:
            m = rng.standard_normal((n, frames, bins, 2)) * 0.5
        masks[key] = Tensor(m)
    return masks


def random_spec(rng, n=2, frames=ARCH.frames_raw, bins=ARCH.bins_raw):
    return rng.standard_normal((n, frames, bins)) \
        + 1j * rng.standard_normal((n, frames, bins))


def binaural_specs(rng):
    a_l = random_spec(rng)
    a_r = random_spec(rng)
    return a_l, a_r, (a_l + a_r) / 2, a_l - a_r


class TestBackbone:
    rng = np.random.default_rng(0)

    def test_perfect_predictions_zero(self):
        a_l, a_r, _, _ = binaural_specs(self.rng)
        # equal Nyquist bins in both ears: the constant masks there (zero
        # difference, identity channels) are then exact too
        a_r[:, :, -1] = a_l[:, :, -1]
        a_m, a_d = (a_l + a_r) / 2, a_l - a_r
        # masks that reproduce the truth exactly: m = target / mono per bin
        masks = {}
        for key, target in (("d", a_d), ("l", a_l), ("r", a_r)):
            ratio = target[:, :, :ARCH.spec_bins] / a_m[:, :, :ARCH.spec_bins]
            m = np.zeros((2, ARCH.spec_frames, ARCH.spec_bins, 2))
            m[:, :ARCH.frames_raw, :, 0] = ratio.real
            m[:, :ARCH.frames_raw, :, 1] = ratio.imag
            masks[key] = Tensor(m)
        loss = loss_backbone_from_masks(masks, a_m, a_d, a_l, a_r)
        assert loss.item() == pytest.approx(0.0, abs=1e-18)

    def test_identity_init_equals_mono_mono(self):
        a_l, a_r, a_m, a_d = binaural_specs(self.rng)
        loss = loss_backbone_from_masks(random_masks(self.rng, identity=True),
                                        a_m, a_d, a_l, a_r)
        # mono-mono: ||A_D||^2 + 2 ||A_D/2||^2 = 1.5 ||A_D||^2 (batch mean)
        oracle = 1.5 * np.mean([np.sum(np.abs(a_d[i]) ** 2) for i in range(2)])
        assert loss.item() == pytest.approx(oracle, rel=1e-12)

    def test_quadratic_homogeneity(self):
        # scaling spectrograms and predictions together doubles every error
        # term, so the loss scales by 4 (same masks, doubled inputs)
        a_l, a_r, a_m, a_d = binaural_specs(self.rng)
        masks = random_masks(self.rng)
        base = loss_backbone_from_masks(masks, a_m, a_d, a_l, a_r).item()
        loss2 = loss_backbone_from_masks(masks, 2 * a_m, 2 * a_d, 2 * a_l,
                                         2 * a_r).item()
        assert loss2 == pytest.approx(4 * base, rel=1e-12)

    def test_matches_complex_eq1(self):
        a_l, a_r, a_m, a_d = binaural_specs(self.rng)
        masks = random_masks(self.rng)
        n, frames = a_m.shape[:2]

        def full_grid(key, nyquist):
            m = masks[key].data[:, :frames]
            return np.concatenate([m[..., 0] + 1j * m[..., 1],
                                   np.full((n, frames, 1), nyquist)], axis=2)

        oracle = sum(np.sum(np.abs(full_grid(key, nyq) * a_m - gt) ** 2)
                     for key, nyq, gt in (("d", 0.0, a_d), ("l", 1.0, a_l),
                                          ("r", 1.0, a_r))) / n
        loss = loss_backbone_from_masks(masks, a_m, a_d, a_l, a_r)
        assert loss.item() == pytest.approx(oracle, rel=1e-12)


class TestCoherence:
    def test_half_probability_gives_ln2(self):
        prob = Tensor(np.full(4, 0.5))
        for labels in (np.zeros(4, bool), np.ones(4, bool)):
            assert loss_coherence(prob, labels).item() == pytest.approx(math.log(2))

    def test_near_perfect(self):
        prob = Tensor(np.array([1.0 - 1e-7]))
        loss = loss_coherence(prob, np.array([True]))
        assert loss.item() == pytest.approx(1e-7, rel=1e-2)

    def test_balanced_batch_minimized_at_half(self):
        labels = np.array([True, False] * 8)
        losses = [loss_coherence(Tensor(np.full(16, p)), labels).item()
                  for p in (0.3, 0.5, 0.7)]
        assert losses[1] == min(losses)


class TestGeometric:
    def test_identical_features_zero_any_margin(self):
        v = Tensor(np.random.default_rng(1).standard_normal((3, 8)))
        for margin in (0.0, 0.5, 2.0):
            assert loss_geometric(v, Tensor(v.data.copy()), margin).item() == 0.0

    def test_boundary_and_linear_region(self):
        v = Tensor(np.zeros((1, 4)))
        w = Tensor(np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert loss_geometric(v, w, 1.0).item() == pytest.approx(0.0, abs=1e-9)
        assert loss_geometric(v, Tensor(np.array([[2.0, 0, 0, 0]])), 1.0).item() \
            == pytest.approx(1.0, rel=1e-9)

    def test_zero_gradient_when_inactive(self):
        v = Tensor(np.random.default_rng(2).standard_normal((2, 4)))
        w = Tensor(v.data.copy())
        loss = loss_geometric(v, w, 0.5)
        loss.backward()
        np.testing.assert_array_equal(v.grad, 0.0)


class TestRir:
    def make_decaying_pred(self, rng, rt60=0.5, frames=64, bins=17, noise=0.0):
        t = np.arange(frames) * 0.01
        env = 10 ** (-3 * t / rt60)
        base = np.abs(rng.standard_normal((1, frames, bins, 2))) * 0.2 + 1.0
        x = base * env[None, :, None, None]
        if noise:
            x = x + noise * np.abs(rng.standard_normal(x.shape))
        return x

    def test_self_consistency_small_rt60_gap(self):
        rng = np.random.default_rng(3)
        x = self.make_decaying_pred(rng)
        loss, counters = loss_rir(Tensor(x.copy()), x, np.array([0.5]), 0.01)
        # spectrogram term 0; RT60 term within frame-resolution tolerance
        assert counters["rt60_used"] == 1
        assert loss.item() < 0.05

    def test_zero_prediction_degenerate_path(self):
        x_gt = np.abs(np.random.default_rng(4).standard_normal((1, 64, 17, 2)))
        loss, counters = loss_rir(Tensor(np.zeros((1, 64, 17, 2))), x_gt,
                                  np.array([0.4]), 0.01)
        assert counters["rt60_degenerate"] == 1
        assert loss.item() == pytest.approx(np.sum(x_gt ** 2), rel=1e-12)

    def test_spectrogram_term_quadruples(self):
        rng = np.random.default_rng(5)
        x_gt = self.make_decaying_pred(rng)
        err = 0.1 * rng.standard_normal(x_gt.shape)
        l1, _ = loss_rir(Tensor(np.abs(x_gt + err)), x_gt, np.array([np.nan]), 0.01)
        l2, _ = loss_rir(Tensor(np.abs(x_gt + 2 * np.abs(err) * np.sign(err))),
                         x_gt, np.array([np.nan]), 0.01)
        # with NaN gt the RT60 term is skipped; pure spectrogram scaling
        x_pred1 = x_gt + err
        x_pred2 = x_gt + 2 * err
        l1b, _ = loss_rir(Tensor(x_pred1), x_gt, np.array([np.nan]), 0.01)
        l2b, _ = loss_rir(Tensor(x_pred2), x_gt, np.array([np.nan]), 0.01)
        assert l2b.item() == pytest.approx(4 * l1b.item(), rel=1e-12)

    def test_rt60_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        x = self.make_decaying_pred(rng, noise=0.01)
        gt = np.array([0.45])
        xt = Tensor(x.copy())
        loss, _ = loss_rir(xt, np.zeros_like(x), gt, 0.01)
        loss.backward()
        eps = 1e-5
        idx = [(0, 5, 3, 0), (0, 20, 8, 1), (0, 40, 12, 0)]
        for i in idx:
            plus, minus = x.copy(), x.copy()
            plus[i] += eps
            minus[i] -= eps
            lp, _ = loss_rir(Tensor(plus), np.zeros_like(x), gt, 0.01)
            lm, _ = loss_rir(Tensor(minus), np.zeros_like(x), gt, 0.01)
            num = (lp.item() - lm.item()) / (2 * eps)
            ana = xt.grad[i]
            assert abs(num - ana) / max(abs(num), abs(ana), 1e-6) < 1e-3


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda_b=-1.0)
    with pytest.raises(ValueError):
        ConsistencyConfig(margin=-0.1)
    assert LossWeights() == LossWeights(10.0, 1.0, 0.01, 1.0)
