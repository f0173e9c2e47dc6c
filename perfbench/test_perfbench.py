"""The benchmark's own test: every workload at reduced size with every check
on, and each check shown to fail on a corrupted output.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import fixture  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SEED = 5
SMALL_CORPUS = {"n_train": 2, "n_val": 1, "n_test": 1}


@pytest.fixture(scope="module")
def small_fixture(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture") / "f"
    mp = pytest.MonkeyPatch()
    mp.setattr(fixture, "FIXTURE", {**SMALL_CORPUS, "split_mode": "scene"})
    try:
        fixture.build(SEED, out)
    finally:
        mp.undo()
    return out


@pytest.fixture(scope="module")
def corpus_rounds(tmp_path_factory):
    """Two rounds of a reduced corpus workload, left on disk."""
    mp = pytest.MonkeyPatch()
    mp.setattr(worker, "CORPUS_SPLIT", SMALL_CORPUS)
    from binauralize.scenegen import corpus
    original = corpus.synthesize_record
    try:
        w = worker.Corpus(SEED, 0, None, tmp_path_factory.mktemp("corpus"))
        outs = _rounds(w)
    finally:
        corpus.synthesize_record = original
        mp.undo()
    return w, outs


def _rounds(w, n=2):
    """n rounds the way a worker runs them."""
    outs = []
    for i in range(n):
        w.hook.reset()
        outs.append(w.run(i))
    return outs


def _rewrite_wav(path, fn):
    sr, data = wavfile.read(path)
    wavfile.write(path, sr, fn(data.copy()))


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def test_corpus_rounds_pass_every_check(corpus_rounds):
    w, outs = corpus_rounds
    root = outs[0]
    entries = checks.read_manifest_lines(root)
    assert checks.check_manifest(entries, {"train": 2, "val": 1, "test": 1}) == []
    for e in entries:
        assert checks.check_record(root, e, w.bank[e["scene"]["source_clip_id"]]) == []
    assert checks.tree_digest(outs[0]) == checks.tree_digest(outs[1])


def test_manifest_check_fails_on_missing_record(corpus_rounds):
    entries = checks.read_manifest_lines(corpus_rounds[1][0])
    assert checks.check_manifest(entries[:-1], {"train": 2, "val": 1, "test": 1})


def _corrupted_record(corpus_rounds, tmp_path, edit_rir=None, edit_audio=None):
    import shutil
    w, outs = corpus_rounds
    root = tmp_path / "c"
    shutil.copytree(outs[0], root)
    entry = checks.read_manifest_lines(root)[0]
    if edit_rir:
        _rewrite_wav(root / entry["rirs"][1], edit_rir)
    if edit_audio:
        _rewrite_wav(root / entry["audio"], edit_audio)
    return checks.check_record(root, entry, w.bank[entry["scene"]["source_clip_id"]])


def test_direct_path_check_fails_on_one_altered_rir_sample(corpus_rounds, tmp_path):
    def early_spike(rir):
        rir[5, 0] = 2.0 * np.max(np.abs(rir))
        return rir
    fails = _corrupted_record(corpus_rounds, tmp_path, edit_rir=early_spike)
    assert any("direct path" in f for f in fails)


def test_render_check_fails_on_one_altered_rir_sample(corpus_rounds, tmp_path):
    def nudge(rir):
        i = int(np.argmax(np.abs(rir[:, 1])))
        rir[i + 40, 1] += 0.05 * rir[i, 1]
        return rir
    fails = _corrupted_record(corpus_rounds, tmp_path, edit_rir=nudge)
    assert any("render differs" in f for f in fails)


def test_render_check_fails_on_a_scaled_channel(corpus_rounds, tmp_path):
    def scale_left(audio):
        audio[:, 0] = (audio[:, 0] * 0.9).astype(np.int16)
        return audio
    fails = _corrupted_record(corpus_rounds, tmp_path, edit_audio=scale_left)
    assert any("render differs" in f for f in fails)


def test_rt60_check_fails_on_a_faster_decay(corpus_rounds, tmp_path):
    def damp(rir):
        t = np.arange(rir.shape[0]) / checks.SR
        return (rir * np.exp(-40.0 * t)[:, None]).astype(np.float32)
    fails = _corrupted_record(corpus_rounds, tmp_path, edit_rir=damp)
    assert any("T20" in f for f in fails)


def test_repeat_round_check_fails_on_a_changed_file(corpus_rounds, tmp_path):
    import shutil
    w, outs = corpus_rounds
    copies = []
    for i, out in enumerate(outs):
        copies.append(tmp_path / f"r{i}")
        shutil.copytree(out, copies[-1])
    entry = checks.read_manifest_lines(copies[1])[2]
    _rewrite_wav(copies[1] / entry["rirs"][0], lambda r: r * np.float32(1.001))
    mp = pytest.MonkeyPatch()
    mp.setattr(worker, "CORPUS_SPLIT", SMALL_CORPUS)
    try:
        failed, fails = w.check(copies)
    finally:
        mp.undo()
    assert failed == [0, 1]
    assert any("differ from round 0" in f for f in fails)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def train_rounds(small_fixture, tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setattr(worker, "TRAIN_EPOCHS", 1)
    from binauralize.training import loop
    original = loop.grad
    try:
        w = worker.Train(SEED, 0, small_fixture, tmp_path_factory.mktemp("train"))
        outs = _rounds(w)
    finally:
        loop.grad = original
        mp.undo()
    return w, outs


def test_train_rounds_pass_every_check(train_rounds):
    w, outs = train_rounds
    params, log, ckpt, _ = outs[0]
    assert w.items == (3 + 1) * 2 * 2
    assert checks.check_losses(log) == []
    assert checks.check_checkpoint(ckpt, params) == []
    assert w._gradcheck(params) == []


def test_loss_check_fails_on_a_non_finite_loss(train_rounds):
    log = [dict(e) for e in train_rounds[1][0][1]]
    log[-1]["B"] = float("nan")
    assert checks.check_losses(log)


def test_checkpoint_check_fails_on_an_altered_weight(train_rounds):
    params, _, ckpt, _ = train_rounds[1][0]
    altered = {k: v.copy() for k, v in params.items()}
    altered["unet.d0.w"].flat[0] += 1e-3
    assert checks.check_checkpoint(ckpt, altered)


def test_gradcheck_fails_on_a_wrong_gradient():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    params = {"x": rng.standard_normal((3, 4))}
    loss = lambda p: float(np.sum(a * p["x"] ** 2))  # noqa: E731
    exact = {"x": 2.0 * a * params["x"]}
    assert checks.directional_gradcheck(loss, exact, params) == []
    wrong = {"x": exact["x"] * 1.01}
    assert checks.directional_gradcheck(loss, wrong, params)


def test_train_repeat_check_fails_on_a_changed_checkpoint(train_rounds):
    w, outs = train_rounds
    _, _, ckpt, _ = outs[1]
    saved = ckpt.read_bytes()
    ckpt.write_bytes(saved[:-1] + bytes([saved[-1] ^ 1]))
    failed, fails = w.check(outs)
    assert failed == [0, w.items]
    assert any("differs from round 0" in f for f in fails)


# ---------------------------------------------------------------------------
# binauralize
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def binauralize_rounds(small_fixture, tmp_path_factory):
    from binauralize.evaluation import report
    original = report.binauralize_clip
    try:
        w = worker.Binauralize(SEED, 0, small_fixture, tmp_path_factory.mktemp("b"))
        outs = _rounds(w)
    finally:
        report.binauralize_clip = original
    return w, outs


def test_binauralize_rounds_pass_every_check(binauralize_rounds):
    w, outs = binauralize_rounds
    failed, fails = w.check(outs)
    assert fails == []
    assert failed == [0, 0]


def test_binaural_check_fails_on_a_scaled_channel(binauralize_rounds):
    mono, left, right = binauralize_rounds[1][0][1][0]
    assert checks.check_binaural(mono, left, right) == []
    assert checks.check_binaural(mono, left, right * 1.001)


def test_binaural_check_fails_on_a_copy_of_the_input(binauralize_rounds):
    mono = binauralize_rounds[1][0][1][0][0]
    assert any("zero" in f for f in checks.check_binaural(mono, mono, mono))


def test_distance_check_fails_on_a_changed_report(binauralize_rounds):
    w, outs = binauralize_rounds
    stereo, mono = checks.stereo_mono(w.corpus, w.tests[0])
    expected = checks.clip_distances(np.stack([mono, mono], axis=1), stereo)
    row = dict(outs[0][0]["mono-mono"])
    assert checks.check_distances(row, expected, "mono-mono") == []
    row["env"] *= 1 + 1e-8
    assert checks.check_distances(row, expected, "mono-mono")


def test_zero_head_check_fails_when_output_is_not_the_input(binauralize_rounds,
                                                            monkeypatch):
    from binauralize.dsp.types import BinauralClip, Waveform
    from binauralize.evaluation import infer
    original = infer.binauralize_clip

    def skewed(*args, **kwargs):
        out = original(*args, **kwargs)
        return BinauralClip(out.left, Waveform(out.right.samples * 0.5))
    monkeypatch.setattr(infer, "binauralize_clip", skewed)
    assert binauralize_rounds[0]._zero_head()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_traced_counts_repeat_and_tracer_uninstalls(small_fixture):
    from binauralize.evaluation import evaluate, report
    from binauralize.nn import autodiff

    originals = (report.binauralize_clip, autodiff.conv2d, autodiff.Tensor.backward)
    tracer = spans.Tracer()
    tracer.install()
    try:
        rounds = []
        for _ in range(2):
            before = tracer.snapshot()
            evaluate(small_fixture / "corpus",
                     {"full": str(small_fixture / "full.ckpt"), "mono-mono": None})
            rounds.append(spans.round_metrics(before, tracer.snapshot()))
    finally:
        tracer.uninstall()
    assert (report.binauralize_clip, autodiff.conv2d,
            autodiff.Tensor.backward) == originals
    names = {n for n, _ in spans.per_layer_metrics()}
    assert len(names) == len(spans.per_layer_metrics()) <= 128
    assert set(rounds[0]) == names - {"trace.overhead_pct"}
    counts = {k: v for k, v in rounds[0].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in rounds[1].items() if not k.endswith("_s")}
    assert rounds[0]["evaluation.binauralize_clip_calls"] == 1
    assert rounds[0]["nn.conv.unet.heads.flops"] > 0
    assert rounds[0]["nn.conv.unet.d0.bwd_s"] == 0.0  # inference runs no backward
    assert rounds[0]["nn.tape_nodes"] > 0


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == spans.per_layer_metrics()
