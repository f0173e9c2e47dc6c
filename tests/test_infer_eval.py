import numpy as np
import pytest

from binauralize.cli import main
from binauralize.dsp import StftParams, Waveform, stft
from binauralize.dsp.distances import env_distance, stft_distance
from binauralize.evaluation import binauralize_clip, evaluate
from binauralize.evaluation.report import write_report
from binauralize.nn import ArchConfig, init_params, save_checkpoint
from binauralize.scenegen import SceneGenConfig, anechoic_bank, sample_scene, synthesize_record
from binauralize.scenegen.manifest import read_manifest, write_manifest

P = StftParams()
CFG = SceneGenConfig(duration=10.0)
ARCH = ArchConfig()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    bank = anechoic_bank(CFG, seed=0)
    records = []
    for seed in (31, 32, 33):
        scene = sample_scene(seed, CFG, scene_id=f"scene-{seed}")
        records.append(synthesize_record(scene, bank[scene.source_clip_id], CFG))
    write_manifest(records, root, splits=["train", "test", "test"])
    return read_manifest(root)


@pytest.fixture(scope="module")
def identity_params():
    return {k: v.astype(np.float32) for k, v in init_params(ARCH, seed=0).items()}


@pytest.fixture(scope="module")
def trained_like_params():
    rng = np.random.default_rng(2)
    return {k: (v + 0.05 * rng.standard_normal(v.shape)).astype(np.float32)
            for k, v in init_params(ARCH, seed=2).items()}


class TestBinauralize:
    @pytest.mark.parametrize("transform", ["none", "flip", "zero"])
    def test_no_grad_leaves_output_bit_identical(self, corpus, trained_like_params,
                                                 transform, monkeypatch):
        from contextlib import nullcontext

        from binauralize.nn import autodiff as ad

        rec = corpus.load(1)

        def run():
            return binauralize_clip(rec.clip.mono(), rec.observations,
                                    trained_like_params, ARCH, P,
                                    observation_transform=transform).as_array()

        plain = run()
        monkeypatch.setattr(ad, "no_grad", nullcontext)
        taped = run()
        assert np.array_equal(plain, taped)

    def test_identity_init_reproduces_mono(self, corpus, identity_params):
        rec = corpus.load(0)
        mono = rec.clip.mono()
        out = binauralize_clip(mono, rec.observations, identity_params, ARCH, P)
        # engineered init: difference mask is exactly zero -> (mono, mono)
        np.testing.assert_array_equal(out.left.samples, mono.samples)
        np.testing.assert_array_equal(out.right.samples, mono.samples)

    def test_constant_input_no_seam_clicks(self, corpus):
        # steady tone through an arbitrary (randomly perturbed) checkpoint:
        # jumps at window seams must stay comparable to the interior jumps
        rng = np.random.default_rng(0)
        params = {k: (v + 0.05 * rng.standard_normal(v.shape)).astype(np.float32)
                  for k, v in init_params(ARCH, seed=1).items()}
        rec = corpus.load(1)
        n = len(rec.clip)
        t = np.arange(n) / 16000
        mono = Waveform(0.3 * np.sin(2 * np.pi * 500 * t), 16000)
        out = binauralize_clip(mono, rec.observations, params, ARCH, P)
        assert len(out) == len(mono)
        jumps = np.abs(np.diff(out.left.samples))
        hop = 1600
        seam_idx = np.arange(hop, n - 1 - hop, hop)
        seam_jumps = np.maximum(jumps[seam_idx - 1], jumps[seam_idx])
        assert seam_jumps.max() < 10 * np.median(jumps)

    def test_missing_observations_rejected(self, corpus, identity_params):
        rec = corpus.load(0)
        with pytest.raises(ValueError, match="observations"):
            binauralize_clip(rec.clip.mono(), [], identity_params, ARCH, P)

    def test_zero_transform_matches_zero_obs(self, corpus, trained_like_params):
        params = trained_like_params
        rec = corpus.load(2)
        mono = rec.clip.mono()
        a = binauralize_clip(mono, rec.observations, params, ARCH, P,
                             observation_transform="zero")
        zeroed = [(t, type(img)(np.zeros_like(img.pixels)))
                  for t, img in rec.observations]
        b = binauralize_clip(mono, zeroed, params, ARCH, P)
        np.testing.assert_allclose(a.left.samples, b.left.samples, atol=1e-12)


class TestEvaluate:
    def test_gt_method_scores_zero(self, corpus):
        report = evaluate(corpus, {"gt": None, "mono-mono": None}, split="test")
        assert report.rows["gt"]["stft"] == 0.0
        assert report.rows["gt"]["env"] == 0.0
        assert report.clip_count == 2

    def test_mono_mono_matches_closed_form(self, corpus):
        report = evaluate(corpus, {"mono-mono": None}, split="test")
        dists = []
        for rec in corpus.split("test"):
            dists.append(np.linalg.norm(stft(rec.clip.difference(), P).bins))
        assert report.rows["mono-mono"]["stft"] == pytest.approx(
            np.mean(dists), rel=1e-9)

    def test_identity_checkpoint_equals_mono_mono(self, corpus, identity_params):
        report = evaluate(corpus, {"mono-mono": None,
                                   "full": (identity_params, ARCH)}, split="test")
        assert report.rows["full"]["stft"] == pytest.approx(
            report.rows["mono-mono"]["stft"], rel=1e-9)

    def test_determinism(self, corpus, identity_params):
        a = evaluate(corpus, {"full": (identity_params, ARCH)}, split="test")
        b = evaluate(corpus, {"full": (identity_params, ARCH)}, split="test")
        assert a.rows == b.rows

    def test_unknown_method_needs_checkpoint(self, corpus):
        with pytest.raises(ValueError, match="checkpoint"):
            evaluate(corpus, {"full": None}, split="test")

    def test_transform_is_rejected_for_builtin_or_unknown_kind(self, corpus,
                                                               identity_params):
        with pytest.raises(ValueError, match="transform"):
            evaluate(corpus, {"mono-mono": None}, transforms={"mono-mono": "flip"})
        with pytest.raises(ValueError, match="transform"):
            evaluate(corpus, {"full": (identity_params, ARCH)},
                     transforms={"full": "rotate"})

    def test_flip_transform_matches_binauralize_clip(self, corpus,
                                                     trained_like_params):
        params = trained_like_params
        report = evaluate(corpus, {"x": (params, ARCH)}, split="test",
                          transforms={"x": "flip"})
        sums = {"stft": 0.0, "env": 0.0}
        test = corpus.split("test")
        for rec in test:
            pred = binauralize_clip(rec.clip.mono(), rec.observations, params,
                                    ARCH, P, observation_transform="flip")
            sums["stft"] += stft_distance(pred, rec.clip, P)
            sums["env"] += env_distance(pred, rec.clip)
        assert report.rows["x"] == {k: v / len(test) for k, v in sums.items()}

    def test_report_files_byte_identical(self, corpus, identity_params, tmp_path):
        methods = {"mono-mono": None, "full": (identity_params, ARCH)}
        for tag in ("a", "b"):
            write_report(evaluate(corpus, methods, split="test"),
                         tmp_path / f"{tag}.txt")
        for suffix in (".txt", ".txt.json"):
            assert (tmp_path / f"a{suffix}").read_bytes() \
                == (tmp_path / f"b{suffix}").read_bytes()

    def test_cli_flipped_method_flips_observations(self, corpus,
                                                   trained_like_params,
                                                   tmp_path, capsys):
        import json

        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, trained_like_params, ARCH)
        code = main(["eval", "--data", str(corpus.root),
                     "--methods", "full,flipped",
                     "--ckpt", f"full={ckpt}", "--ckpt", f"flipped={ckpt}",
                     "--report", str(tmp_path / "r.txt")])
        assert code == 0
        assert "eval runtime" in capsys.readouterr().err
        rows = json.loads((tmp_path / "r.txt.json").read_text())["rows"]
        flipped = evaluate(corpus, {"x": (trained_like_params, ARCH)},
                           transforms={"x": "flip"}).rows["x"]
        assert rows["flipped"] == flipped
        assert rows["flipped"] != rows["full"]
