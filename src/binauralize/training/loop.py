"""Deterministic training loop: optional RIR pretraining, joint multi-task
optimization, window-level validation with early stopping."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..dsp.types import StftParams
from ..nn import autodiff as ad
from ..nn.checkpoint import save_checkpoint
from ..nn.model import ArchConfig, difference_spec, init_params, mask_head, \
    spec_to_net, visual_encode
from ..scenegen.manifest import Manifest, read_manifest
from .adam import TrainConfig, adam_init, adam_step
from .examples import Batch, build_batch, load_training_cache, make_example
from .graph import grad
from .losses import ConsistencyConfig, LossWeights

DIVERGENCE_LIMIT = 1e6


def train(manifest, cfg: TrainConfig = TrainConfig(),
          weights: LossWeights = LossWeights(),
          arch: ArchConfig = ArchConfig(),
          consistency: ConsistencyConfig = ConsistencyConfig(),
          stft_params: StftParams = StftParams(),
          observation_mode: str = "normal",
          out_checkpoint=None, log_path=None,
          ) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Minimize the weighted multi-task loss; returns (best params, log)."""
    if not isinstance(manifest, Manifest):
        manifest = read_manifest(manifest)
    if len(manifest.entries) == 0:
        raise ValueError("empty manifest")
    if observation_mode not in ("normal", "zero"):
        raise ValueError(f"unknown observation mode {observation_mode!r}")

    train_cache = load_training_cache(manifest.split("train"), stft_params)
    val_cache = load_training_cache(manifest.split("val"), stft_params)
    if not train_cache:
        raise ValueError("manifest has no training records")

    rng = np.random.default_rng(np.random.SeedSequence([0x7a11, cfg.seed]))
    dtype = np.dtype(cfg.dtype).type
    params = {k: v.astype(dtype) for k, v in init_params(arch, cfg.seed).items()}
    log: list[dict] = []

    val_batch = None
    if val_cache:
        val_rng = np.random.default_rng(np.random.SeedSequence([0x7a12, cfg.seed]))
        val_examples = _draw_examples(val_cache, val_rng, cfg,
                                      max(1, cfg.val_windows // len(val_cache)))
        val_batch = _apply_mode(build_batch(val_examples[:cfg.val_windows],
                                            stft_params, dtype), observation_mode)

    # RIR head pretraining, then joint training from those weights
    if weights.lambda_p > 0 and cfg.rir_pretrain_epochs > 0:
        state = adam_init(params)
        step = 0
        for epoch in range(cfg.rir_pretrain_epochs):
            stats, params, state, step = _run_epoch(
                "P", train_cache, params, state, step, rng, cfg, weights,
                arch, consistency, stft_params, observation_mode)
            log.append({"phase": "pretrain", "epoch": epoch, **stats})

    state = adam_init(params)
    step = 0
    best = {k: v.copy() for k, v in params.items()}
    best_val = np.inf
    stale = 0
    for epoch in range(cfg.epochs):
        stats, params, state, step = _run_epoch(
            "total", train_cache, params, state, step, rng, cfg, weights,
            arch, consistency, stft_params, observation_mode)
        entry = {"phase": "train", "epoch": epoch, **stats}
        if val_batch is not None:
            val = window_stft_distance(params, val_batch, arch)
            entry["val_stft"] = val
            if val < best_val - 1e-9:
                best_val = val
                best = {k: v.copy() for k, v in params.items()}
                stale = 0
            else:
                stale += 1
        log.append(entry)
        if val_batch is not None and stale > cfg.patience:
            break
    if val_batch is None or cfg.keep_params == "final":
        best = params

    if out_checkpoint is not None:
        save_checkpoint(out_checkpoint, best, arch, {
            "seed": cfg.seed, "steps": step, "val_stft": best_val,
            "observation_mode": observation_mode,
            "lambda_b": weights.lambda_b, "lambda_s": weights.lambda_s,
            "lambda_g": weights.lambda_g, "lambda_p": weights.lambda_p,
        })
    if log_path is not None:
        Path(log_path).write_text(
            "\n".join(json.dumps(e, sort_keys=True) for e in log) + "\n",
            encoding="utf-8")
    return best, log


def _run_epoch(loss_name, cache, params, state, step, rng, cfg, weights,
               arch, consistency, stft_params, observation_mode):
    examples = _draw_examples(cache, rng, cfg, cfg.windows_per_record)
    sums: dict[str, float] = {}
    count = 0
    dtype = np.dtype(cfg.dtype).type
    for lo in range(0, len(examples), cfg.batch_size):
        chunk = examples[lo:lo + cfg.batch_size]
        batch = _apply_mode(build_batch(chunk, stft_params, dtype),
                            observation_mode)
        values, grads = grad(loss_name, batch, params, arch, weights,
                             consistency, stft_params)
        if values["total"] > DIVERGENCE_LIMIT:
            raise RuntimeError(
                f"training diverged at step {step}: {values}")
        step += 1
        params, state = adam_step(params, grads, state, step, cfg)
        for k, v in values.items():
            sums[k] = sums.get(k, 0.0) + v
        count += 1
    stats = {k: v / max(count, 1) for k, v in sums.items()}
    stats["steps"] = step
    return stats, params, state, step


def _draw_examples(cache, rng, cfg, per_record):
    order = rng.permutation(len(cache) * per_record)
    examples = []
    for slot in order:
        ex = make_example(cache[int(slot) % len(cache)], rng,
                          cfg.window_seconds, flip_prob=cfg.flip_prob)
        if ex is not None:
            examples.append(ex)
    return examples


def _apply_mode(batch: Batch, mode: str) -> Batch:
    if mode == "zero":
        batch.obs_t = np.zeros_like(batch.obs_t)
        batch.obs_delta = np.zeros_like(batch.obs_delta)
    return batch


def window_stft_distance(params, batch: Batch, arch: ArchConfig) -> float:
    """Mean per-window STFT distance of the difference-route channels."""
    with ad.no_grad():
        vfeat, _ = visual_encode(batch.obs_t, params, arch)
        masks = mask_head(spec_to_net(batch.mono_spec, arch), vfeat, params,
                          arch)
    a_d = difference_spec(masks["d"].data, batch.mono_spec)
    lp = batch.mono_spec + a_d / 2.0
    rp = batch.mono_spec - a_d / 2.0
    dists = [np.linalg.norm(lp[i] - batch.gt_l[i])
             + np.linalg.norm(rp[i] - batch.gt_r[i]) for i in range(len(a_d))]
    return float(np.mean(dists))
