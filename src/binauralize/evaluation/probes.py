"""Offline probes: RT60 classification from single frames, feature export,
and direct RIR prediction."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from ..dsp.rt60 import InsufficientDecayError, NoEnergyError, rt60_from_magspec
from ..dsp.stft import griffin_lim
from ..dsp.types import MagnitudeSpectrogram, StftParams
from ..nn import autodiff as ad
from ..nn.checkpoint import load_checkpoint
from ..nn.model import ArchConfig, as_tensor_params, coherence_classify, \
    init_params, pair_to_net, rir_decode, visual_encode
from ..scenegen.manifest import Manifest, read_manifest
from .. import tensorfile, wavio


def equal_frequency_bins(values: np.ndarray, n_bins: int = 10) -> np.ndarray:
    """Interior bin edges such that each class holds ~the same count.

    Duplicate edges (heavily repeated values) are merged with a warning.
    """
    qs = np.quantile(values, np.linspace(0, 1, n_bins + 1)[1:-1])
    edges = np.unique(qs)
    if edges.size < n_bins - 1:
        warnings.warn(f"merged {n_bins - 1 - edges.size} duplicate RT60 bin edges")
    return edges


def rt60_probe(manifest, seed: int = 0, epochs: int = 40, lr: float = 1e-3,
               arch: ArchConfig | None = None, n_bins: int = 10,
               shuffle_labels: bool = False, detailed: bool = False):
    """Train a small visual classifier into equal-frequency RT60 classes.

    Returns held-out accuracy on the test split (or a detail dict with the
    class structure when detailed=True). Bin edges come from the train split
    only.
    """
    from ..training.adam import TrainConfig, adam_init, adam_step

    if not isinstance(manifest, Manifest):
        manifest = read_manifest(manifest)
    arch = arch or ArchConfig()
    train_x, train_y, edges = _probe_dataset(manifest, "train", None, n_bins)
    test_x, test_y, _ = _probe_dataset(manifest, "test", edges, n_bins)
    if len(np.unique(train_y)) < 2:
        raise ValueError("need at least 2 distinct RT60 classes")
    n_classes = int(edges.size + 1)

    rng = np.random.default_rng(np.random.SeedSequence([0x9707, seed]))
    if shuffle_labels:
        train_y = rng.permutation(train_y)
    params = init_params(arch, seed)
    probe = {k: v.astype(np.float32) for k, v in params.items()
             if k.startswith("visual")}
    probe["head.w"] = (0.01 * rng.standard_normal(
        (arch.feature_dim, n_classes))).astype(np.float32)
    probe["head.b"] = np.zeros(n_classes, dtype=np.float32)

    adam_cfg = TrainConfig(lr_other=lr)
    state = adam_init(probe)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(train_x))
        for lo in range(0, len(order), 32):
            idx = order[lo:lo + 32]
            grads = _probe_grad(probe, train_x[idx], train_y[idx], arch)
            step += 1
            probe, state = adam_step(probe, grads, state, step, adam_cfg)
    pred = _probe_logits(probe, test_x, arch).argmax(axis=1)
    accuracy = float(np.mean(pred == test_y))
    if not detailed:
        return accuracy
    train_counts = np.bincount(train_y, minlength=n_classes)
    return {
        "accuracy": accuracy,
        "n_classes": n_classes,
        "chance": 1.0 / n_classes,
        "train_fractions": (train_counts / train_counts.sum()).tolist(),
    }


def coherence_accuracy(manifest, params, arch: ArchConfig,
                       split: str = "test", n_windows: int = 256,
                       seed: int = 0) -> float:
    """Held-out flip-detection accuracy of a trained coherence classifier."""
    from ..training.examples import build_batch, load_training_cache, make_example

    if not isinstance(manifest, Manifest):
        manifest = read_manifest(manifest)
    cache = load_training_cache(manifest.split(split))
    rng = np.random.default_rng(np.random.SeedSequence([0xacc0, seed]))
    examples = [make_example(cache[i % len(cache)], rng)
                for i in range(n_windows)]
    dtype = next(iter(params.values())).dtype
    correct = total = 0
    for lo in range(0, len(examples), 64):
        batch = build_batch(examples[lo:lo + 64], dtype=dtype)
        with ad.no_grad():
            vfeat, _ = visual_encode(batch.obs_t, params, arch)
            pair = pair_to_net(batch.coh_left, batch.coh_right, arch, dtype)
            prob = coherence_classify(pair, vfeat, params, arch).data
        correct += int(np.sum((prob > 0.5) == batch.flipped))
        total += len(batch)
    return correct / total


def _probe_dataset(manifest, split, edges, n_bins, frames_per_record: int = 8):
    # RT60 is a room-level label, so every observation frame is a sample
    xs, rt60s = [], []
    for rec in manifest.split(split):
        times = np.linspace(0.5, rec.scene.duration - 0.5, frames_per_record)
        for t in times:
            xs.append(rec.observation_nearest(float(t)).pixels)
            rt60s.append(rec.rt60)
    xs = np.stack(xs).astype(np.float32)
    rt60s = np.array(rt60s)
    if edges is None:
        edges = equal_frequency_bins(rt60s, n_bins)
    return xs, np.digitize(rt60s, edges), edges


def _probe_logits(probe, x, arch):
    with ad.no_grad():
        feat, _ = visual_encode(x, probe, arch)
    return (feat.data @ probe["head.w"]) + probe["head.b"]


def _probe_grad(probe, x, y, arch):
    tp = as_tensor_params(probe)
    feat, _ = visual_encode(x, tp, arch)
    logits = ad.linear(feat, tp["head.w"], tp["head.b"])
    # stable softmax cross-entropy
    z = logits.data
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    grad_logits = p.copy()
    grad_logits[np.arange(len(y)), y] -= 1.0
    grad_logits /= len(y)
    # drive backward by seeding the logits gradient through a dot trick
    seeded = ad.tsum(ad.mul(logits, grad_logits.astype(logits.data.dtype)))
    seeded.backward()
    return {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for k, t in tp.items()}


def export_features(manifest, checkpoint, out_path) -> int:
    """TSV with one row per observation frame: features, RT60, azimuth."""
    if not isinstance(manifest, Manifest):
        manifest = read_manifest(manifest)
    params, arch, _ = load_checkpoint(checkpoint)
    dtype = next(iter(params.values())).dtype
    rows = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        header = [f"v{i}" for i in range(arch.feature_dim)] + ["rt60", "azimuth_deg"]
        fh.write("\t".join(header) + "\n")
        for rec in manifest:
            frames = np.stack([img.pixels for _, img in rec.observations])
            azimuths = rec.metadata["azimuth_deg"]
            for lo in range(0, len(frames), 64):
                chunk = frames[lo:lo + 64].astype(dtype)
                with ad.no_grad():
                    feat, _ = visual_encode(chunk, params, arch)
                for i, vec in enumerate(feat.data):
                    vals = [f"{x:.6g}" for x in vec]
                    vals += [f"{rec.rt60:.6g}", f"{azimuths[lo + i]:.6g}"]
                    fh.write("\t".join(vals) + "\n")
                    rows += 1
    return rows


def predict_rir(observation_pixels: np.ndarray, checkpoint, out_prefix=None,
                p: StftParams = StftParams(), griffin_lim_iters: int = 60
                ) -> dict:
    """RIR magnitude spectrogram and Griffin-Lim waveform from one frame."""
    params, arch, _ = load_checkpoint(checkpoint)
    if not any(k.startswith("rir.") for k in params):
        raise ValueError("checkpoint lacks an RIR head")
    dtype = next(iter(params.values())).dtype
    obs = observation_pixels[None].astype(dtype)
    with ad.no_grad():
        feat, _ = visual_encode(obs, params, arch)
        spec = rir_decode(feat, params, arch).data[0].astype(np.float64)
    # (frames, bins, 2) -> per-channel magnitude spectrograms
    result = {"spectrogram": spec}
    waves, rt60s = [], []
    for ch in range(2):
        mag = MagnitudeSpectrogram(spec[:, :, ch], p)
        wave, _ = griffin_lim(mag, iters=griffin_lim_iters, seed=0)
        waves.append(wave.samples)
        try:
            rt60s.append(rt60_from_magspec(mag))
        except (NoEnergyError, InsufficientDecayError):
            rt60s.append(None)
    result["rt60"] = rt60s
    n = min(len(w) for w in waves)
    stereo = np.stack([w[:n] for w in waves], axis=1)
    result["waveform"] = stereo
    if out_prefix is not None:
        out_prefix = Path(out_prefix)
        tensorfile.save_tensor(out_prefix.with_suffix(".bnt"),
                               spec.astype(np.float32))
        peak = np.max(np.abs(stereo))
        wavio.write_wav(out_prefix.with_suffix(".wav"),
                        stereo / max(peak, 1e-9) * 0.9, 16000, fmt="float32")
    return result
