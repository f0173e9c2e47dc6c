"""Gradient and protocol tests for the assembled multi-task graph."""

import numpy as np
import pytest

from binauralize.dsp import StftParams
from binauralize.nn import REDUCED_ARCH, init_params
from binauralize.scenegen import SceneGenConfig, anechoic_bank, sample_scene, synthesize_record
from binauralize.training import (
    ConsistencyConfig,
    LossWeights,
    TrainConfig,
    build_batch,
    grad,
    load_training_cache,
    make_example,
)

ARCH = REDUCED_ARCH
P = StftParams()


def synthetic_batch(n=3, seed=0):
    """Random batch on the reduced grid."""
    rng = np.random.default_rng(seed)

    def spec():
        return (rng.standard_normal((n, ARCH.frames_raw, ARCH.bins_raw))
                + 1j * rng.standard_normal((n, ARCH.frames_raw, ARCH.bins_raw)))

    from binauralize.training.examples import Batch
    a_l, a_r = spec(), spec()
    # decaying gt magnitudes so the RT60 fit has a real segment
    t = np.arange(ARCH.spec_frames) * 0.01
    env = 10 ** (-3 * t / 0.4)
    x_gt = (np.abs(rng.standard_normal((n, ARCH.spec_frames, ARCH.bins_raw, 2)))
            * env[None, :, None, None] + 0.01)
    return Batch(
        mono_spec=(a_l + a_r) / 2, gt_d=a_l - a_r, gt_l=a_l, gt_r=a_r,
        obs_t=rng.random((n, ARCH.obs_h, ARCH.obs_w, 3)),
        obs_delta=rng.random((n, ARCH.obs_h, ARCH.obs_w, 3)),
        coh_left=a_l, coh_right=a_r,
        flipped=rng.random(n) < 0.5,
        x_gt=x_gt,
        rt60_gt=np.array([0.4, np.nan, 0.5][:n]),
    )


def perturbed_params(seed=2):
    rng = np.random.default_rng(seed)
    return {k: v + 0.05 * rng.standard_normal(v.shape)
            for k, v in init_params(ARCH, seed=seed).items()}


class TestGradientSuite:
    """Every loss term's analytic gradient vs central finite differences."""

    batch = synthetic_batch()
    params = perturbed_params()

    @pytest.mark.parametrize("loss_name", ["B", "G", "P", "S", "total"])
    def test_gradients_match_fd(self, loss_name):
        rng = np.random.default_rng(2)
        values, grads = grad(loss_name, self.batch, self.params, ARCH)
        eps = 1e-5
        worst = 0.0
        for name, arr in self.params.items():
            for i in rng.integers(arr.size, size=min(3, arr.size)):
                plus = {k: v.copy() for k, v in self.params.items()}
                minus = {k: v.copy() for k, v in self.params.items()}
                plus[name].reshape(-1)[i] += eps
                minus[name].reshape(-1)[i] -= eps
                vp, _ = grad(loss_name, self.batch, plus, ARCH)
                vm, _ = grad(loss_name, self.batch, minus, ARCH)
                num = (vp["total"] - vm["total"]) / (2 * eps)
                ana = grads[name].reshape(-1)[i]
                rel = abs(num - ana) / max(abs(num), abs(ana), 1e-3)
                worst = max(worst, rel)
        assert worst < 1e-3, f"{loss_name}: worst rel err {worst}"

    def test_total_is_weighted_sum(self):
        w = LossWeights(lambda_b=3.0, lambda_s=0.7, lambda_g=0.2, lambda_p=1.5)
        v_total, g_total = grad("total", self.batch, self.params, ARCH, w)
        acc = {k: np.zeros_like(p) for k, p in self.params.items()}
        lam = {"B": w.lambda_b, "G": w.lambda_g, "P": w.lambda_p, "S": w.lambda_s}
        total_val = 0.0
        for term in ("B", "G", "P", "S"):
            v, g = grad(term, self.batch, self.params, ARCH, w)
            total_val += lam[term] * v["total"]
            for k in acc:
                acc[k] += lam[term] * g[k]
        assert v_total["total"] == pytest.approx(total_val, rel=1e-12)
        for k in acc:
            np.testing.assert_allclose(g_total[k], acc[k], atol=1e-12)

    def test_zeroed_lambda_contributes_exactly_nothing(self):
        w = LossWeights(lambda_b=10.0, lambda_s=0.0, lambda_g=0.0, lambda_p=0.0)
        _, g_total = grad("total", self.batch, self.params, ARCH, w)
        _, g_b = grad("B", self.batch, self.params, ARCH)
        for k in g_total:
            np.testing.assert_allclose(g_total[k], 10.0 * g_b[k], atol=1e-12)
        # coherence/rir-only parameters get exactly zero
        assert np.all(g_total["coh.fc1.w"] == 0)
        assert np.all(g_total["rir.fc.w"] == 0)

    def test_geometric_zero_at_identical_frames(self):
        batch = synthetic_batch(seed=5)
        batch.obs_delta = batch.obs_t.copy()
        _, grads = grad("S", batch, self.params, ARCH)
        for k, g in grads.items():
            np.testing.assert_array_equal(g, 0.0)


class TestTapeLifetime:
    """backward() frees its tape on return; no_grad() records none."""

    batch = synthetic_batch()
    params = perturbed_params()

    def test_grad_frees_its_tape_without_the_cycle_collector(self, monkeypatch):
        import gc
        import weakref

        from binauralize.training import graph

        refs = []
        encode = graph.visual_encode

        def watched(*args, **kwargs):
            feat, extra = encode(*args, **kwargs)
            refs.append(weakref.ref(feat.data))
            return feat, extra

        monkeypatch.setattr(graph, "visual_encode", watched)
        gc.disable()
        try:
            grad("total", self.batch, self.params, ARCH)
            alive = [r for r in refs if r() is not None]
        finally:
            gc.enable()
        assert refs and not alive

    def test_grad_inside_no_grad_raises(self):
        from binauralize.nn import autodiff as ad

        with ad.no_grad(), pytest.raises(RuntimeError, match="no_grad"):
            grad("total", self.batch, self.params, ARCH)

    def test_window_stft_distance_unchanged_by_no_grad(self, monkeypatch):
        from contextlib import nullcontext

        from binauralize.nn import autodiff as ad
        from binauralize.training.loop import window_stft_distance

        plain = window_stft_distance(self.params, self.batch, ARCH)
        monkeypatch.setattr(ad, "no_grad", nullcontext)
        taped = window_stft_distance(self.params, self.batch, ARCH)
        assert np.array_equal(plain, taped)


def test_run_one_creates_its_output_directory(tmp_path):
    from binauralize.evaluation.protocol import ProtocolConfig, TrainJob, run_one
    from binauralize.scenegen.manifest import write_manifest

    cfg = SceneGenConfig(duration=10.0)
    bank = anechoic_bank(cfg, seed=0)
    records = []
    for seed in (0, 1):
        scene = sample_scene(seed, cfg, scene_id=f"scene-{seed}")
        records.append(synthesize_record(scene, bank[scene.source_clip_id], cfg))
    corpus = tmp_path / "corpus"
    write_manifest(records, corpus, splits=["train", "train"])
    protocol = ProtocolConfig(train=TrainConfig(
        batch_size=2, epochs=1, windows_per_record=1, rir_pretrain_epochs=0))
    job = TrainJob("backbone", 0, str(corpus), skip_eval=True)
    result = run_one(protocol, job, tmp_path / "new" / "runs")
    assert (tmp_path / "new" / "runs" / f"{job.name}.ckpt").is_file()
    assert result["checkpoint"] == str(tmp_path / "new" / "runs" / f"{job.name}.ckpt")


class TestKinkDetection:
    """The gradient suite's kink-side recorder and test-point search."""

    def test_detects_the_crossing_at_the_first_seed0_point(self):
        from binauralize.training import gradcheck

        # draw 0 (perturbation seed 2) at seed 0: a pre-activation lies 3.1e-6
        # from its kink, and a +-EPS step of unet.u2.b[0] crosses it
        batch = gradcheck.synthetic_batch(0)
        params = gradcheck.test_point_params(0)
        _, _, base = gradcheck.loss_and_signs("B", batch, params)
        assert gradcheck.central_difference(
            "B", batch, params, "unet.u2.b", 0, base) is None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_recorder_leaves_outputs_unchanged(self, dtype):
        from binauralize.nn.autodiff import record_signs
        from binauralize.training import gradcheck

        batch = gradcheck.synthetic_batch(0)
        params = {k: v.astype(dtype) for k, v in gradcheck.test_point_params(0).items()}
        v_off, g_off = grad("total", batch, params, ARCH)
        with record_signs() as signs:
            v_on, g_on = grad("total", batch, params, ARCH)
        assert signs and all(s.dtype == bool for s in signs)
        assert v_on.keys() == v_off.keys() and g_on.keys() == g_off.keys()
        for k in v_off:
            assert np.array_equal(v_on[k], v_off[k], equal_nan=True), k
        for k in g_off:
            assert np.array_equal(g_on[k], g_off[k]), k

    def test_absolute_and_clip_record_their_kink_side(self):
        from binauralize.nn import autodiff as ad

        x = np.array([-0.5, 0.2, 1.5])
        with ad.record_signs() as signs:
            ad.absolute(x)
            ad.clip(x, 0.0, 1.0)
        assert [s.tolist() for s in signs] == [[False, True, True],
                                               [False, True, False]]

    def test_raises_when_no_draw_is_smooth(self, monkeypatch):
        from binauralize.training import gradcheck

        # steps of 1.0 cross kinks at every draw
        monkeypatch.setattr(gradcheck, "EPS", 1.0)
        monkeypatch.setattr(gradcheck, "MAX_DRAWS", 2)
        with pytest.raises(RuntimeError, match="none of 2 test points"):
            gradcheck.run_gradcheck(0)


class TestExampleSampling:
    cfg = SceneGenConfig(duration=10.0)

    @classmethod
    def setup_class(cls):
        bank = anechoic_bank(cls.cfg, seed=0)
        from binauralize.scenegen.manifest import write_manifest, read_manifest
        records = []
        for seed in (0, 1):
            scene = sample_scene(seed, cls.cfg, scene_id=f"scene-{seed}")
            records.append(synthesize_record(scene, bank[scene.source_clip_id],
                                             cls.cfg))
        import tempfile
        cls.tmp = tempfile.mkdtemp()
        write_manifest(records, cls.tmp, splits=["train", "train"])
        cls.cache = load_training_cache(read_manifest(cls.tmp))

    def test_flip_rate_about_half(self):
        rng = np.random.default_rng(0)
        flips = [make_example(self.cache[0], rng).flipped for _ in range(10_000)]
        assert np.mean(flips) == pytest.approx(0.5, abs=0.02)

    def test_mono_is_exact_channel_mean(self):
        rng = np.random.default_rng(1)
        ex = make_example(self.cache[0], rng)
        batch = build_batch([ex], P)
        np.testing.assert_allclose(batch.mono_spec, (batch.gt_l + batch.gt_r) / 2,
                                   atol=1e-12)
        np.testing.assert_allclose(batch.gt_d, batch.gt_l - batch.gt_r, atol=1e-12)

    def test_double_flip_restores_order(self):
        rng = np.random.default_rng(2)
        ex = make_example(self.cache[0], rng)
        ex.flipped = True
        batch = build_batch([ex], P)
        # flipping the flipped pair restores the original channel order
        np.testing.assert_array_equal(batch.coh_right, batch.gt_l)
        np.testing.assert_array_equal(batch.coh_left, batch.gt_r)

    def test_window_and_delta_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            ex = make_example(self.cache[1], rng)
            assert 1.0 <= ex.t <= ex.record.duration - 0.63 - 1.0
            assert 0.0 <= ex.t_obs_delta <= ex.record.duration
            assert abs(ex.t_obs_delta - ex.t_obs) <= 1.0 + 1e-9

    def test_too_short_record_skipped_with_warning(self):
        import copy
        short = copy.copy(self.cache[0])
        short.duration = 2.0
        rng = np.random.default_rng(4)
        with pytest.warns(UserWarning, match="too short"):
            assert make_example(short, rng) is None
