import numpy as np
import pytest

from binauralize.evaluation.probes import (
    equal_frequency_bins,
    export_features,
    predict_rir,
    rt60_probe,
)
from binauralize.nn import REDUCED_ARCH, ArchConfig, init_params, save_checkpoint
from binauralize.scenegen import SceneGenConfig, anechoic_bank, sample_scene, synthesize_record
from binauralize.scenegen.manifest import read_manifest, write_manifest

CFG = SceneGenConfig(duration=10.0)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe_corpus")
    bank = anechoic_bank(CFG, seed=0)
    records, splits = [], []
    for i, seed in enumerate(range(400, 460)):
        scene = sample_scene(seed, CFG, scene_id=f"scene-{seed}")
        records.append(synthesize_record(scene, bank[scene.source_clip_id], CFG))
        splits.append("train" if i < 48 else "test")
    write_manifest(records, root, splits=splits)
    return read_manifest(root)


def test_equal_frequency_bins_balanced():
    rng = np.random.default_rng(0)
    values = rng.lognormal(mean=-1, sigma=0.4, size=400)
    edges = equal_frequency_bins(values, 10)
    labels = np.digitize(values, edges)
    counts = np.bincount(labels, minlength=10) / len(values)
    assert np.all(np.abs(counts - 0.1) <= 0.02)


def test_equal_frequency_bins_merges_duplicates():
    values = np.array([0.5] * 50 + [1.0] * 5)
    with pytest.warns(UserWarning, match="merged"):
        edges = equal_frequency_bins(values, 10)
    assert len(edges) < 9


def test_probe_learns_rt60_classes(corpus):
    acc = rt60_probe(corpus, seed=0, epochs=25, n_bins=3)
    assert acc > 0.45  # well above the 1/3 chance level even at this size


def test_export_features_row_count_and_azimuth(tmp_path, corpus):
    arch = ArchConfig()
    params = {k: v.astype(np.float32) for k, v in init_params(arch, 0).items()}
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, params, arch)
    out = tmp_path / "features.tsv"
    n = export_features(corpus, ckpt, out)
    lines = out.read_text().strip().split("\n")
    expected_rows = sum(len(rec.observations) for rec in corpus)
    assert n == expected_rows
    assert len(lines) == expected_rows + 1  # header
    # azimuth column is a pass-through of the metadata
    first = corpus.load(0)
    got_az = float(lines[1].split("\t")[-1])
    assert got_az == pytest.approx(first.metadata["azimuth_deg"][0], abs=1e-4)


def test_forward_only_probes_unchanged_by_no_grad(tmp_path, corpus, monkeypatch):
    from contextlib import nullcontext

    from binauralize.evaluation.probes import coherence_accuracy
    from binauralize.nn import autodiff as ad

    arch = ArchConfig()
    rng = np.random.default_rng(5)
    params = {k: (v + 0.05 * rng.standard_normal(v.shape)).astype(np.float32)
              for k, v in init_params(arch, 5).items()}
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, params, arch)
    obs = corpus.load(0).observation_nearest(5.0).pixels

    def run():
        return (coherence_accuracy(corpus, params, arch, n_windows=32),
                predict_rir(obs, ckpt, griffin_lim_iters=2))

    acc, rir = run()
    monkeypatch.setattr(ad, "no_grad", nullcontext)
    acc_taped, rir_taped = run()
    assert acc == acc_taped
    for key in ("spectrogram", "waveform"):
        assert np.array_equal(rir[key], rir_taped[key]), key


class TestPredictRir:
    def test_shapes_and_nonnegativity(self, tmp_path, corpus):
        arch = ArchConfig()
        params = {k: v.astype(np.float32) for k, v in init_params(arch, 3).items()}
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, params, arch)
        rec = corpus.load(0)
        obs = rec.observation_nearest(5.0).pixels
        result = predict_rir(obs, ckpt, out_prefix=tmp_path / "rir",
                             griffin_lim_iters=4)
        assert result["spectrogram"].shape == (64, 257, 2)
        assert np.all(result["spectrogram"] >= 0)
        assert (tmp_path / "rir.bnt").exists()
        assert (tmp_path / "rir.wav").exists()

    def test_zero_observation_deterministic(self, tmp_path):
        arch = ArchConfig()
        params = {k: v.astype(np.float32) for k, v in init_params(arch, 4).items()}
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, params, arch)
        zero = np.zeros((32, 64, 3))
        a = predict_rir(zero, ckpt, griffin_lim_iters=2)
        b = predict_rir(zero, ckpt, griffin_lim_iters=2)
        np.testing.assert_array_equal(a["spectrogram"], b["spectrogram"])
        np.testing.assert_array_equal(a["waveform"], b["waveform"])

    def test_missing_rir_head_rejected(self, tmp_path):
        arch = REDUCED_ARCH
        params = {k: v for k, v in init_params(arch, 0).items()
                  if not k.startswith("rir.")}
        ckpt = tmp_path / "norir.ckpt"
        save_checkpoint(ckpt, params, arch)
        with pytest.raises(ValueError, match="RIR head"):
            predict_rir(np.zeros((arch.obs_h, arch.obs_w, 3)), ckpt)
