"""Forward/backward graph assembly for the multi-task loss."""

from __future__ import annotations

import numpy as np

from ..dsp.types import StftParams
from ..nn import autodiff as ad
from ..nn.autodiff import Tensor
from ..nn.model import ArchConfig, as_tensor_params, coherence_classify, \
    mask_head, pair_to_net, rir_decode, spec_to_net, visual_encode
from .examples import Batch
from .losses import ConsistencyConfig, LossWeights, loss_backbone_from_masks, \
    loss_coherence, loss_geometric, loss_rir

LOSS_NAMES = ("B", "G", "P", "S")


def grad(loss_name: str, batch: Batch, params: dict[str, np.ndarray],
         arch: ArchConfig = ArchConfig(),
         weights: LossWeights = LossWeights(),
         consistency: ConsistencyConfig = ConsistencyConfig(),
         stft_params: StftParams = StftParams(),
         ) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Exact gradients of the named loss ("B", "G", "P", "S", or "total").

    For "total", terms whose lambda is zero are skipped entirely, so their
    gradient contribution is exactly zero.
    """
    if loss_name not in LOSS_NAMES + ("total",):
        raise ValueError(f"unknown loss {loss_name!r}")
    tparams = as_tensor_params(params)
    dtype = next(iter(params.values())).dtype
    active = _active_terms(loss_name, weights)

    values: dict[str, float] = {}
    total: Tensor | None = None
    vfeat, _ = visual_encode(batch.obs_t.astype(dtype), tparams, arch)

    def accumulate(term: Tensor, name: str, weight: float):
        nonlocal total
        values[name] = term.item()
        weighted = ad.mul(term, weight) if weight != 1.0 else term
        total = weighted if total is None else ad.add(total, weighted)

    if "B" in active:
        masks = mask_head(spec_to_net(batch.mono_spec, arch, dtype),
                          vfeat, tparams, arch)
        term = loss_backbone_from_masks(masks, batch.mono_spec,
                                        batch.gt_d, batch.gt_l, batch.gt_r)
        accumulate(term, "B", weights.lambda_b if loss_name == "total" else 1.0)
    if "G" in active:
        pair = pair_to_net(batch.coh_left, batch.coh_right, arch, dtype)
        prob = coherence_classify(pair, vfeat, tparams, arch)
        term = loss_coherence(prob, batch.flipped)
        accumulate(term, "G", weights.lambda_g if loss_name == "total" else 1.0)
    if "P" in active:
        x_pred = rir_decode(vfeat, tparams, arch)
        frame_dt = stft_params.hop / 16000.0
        term, counters = loss_rir(x_pred, batch.x_gt.astype(dtype),
                                  batch.rt60_gt, frame_dt)
        values.update({k: float(v) for k, v in counters.items()})
        accumulate(term, "P", weights.lambda_p if loss_name == "total" else 1.0)
    if "S" in active:
        vfeat_delta, _ = visual_encode(batch.obs_delta.astype(dtype), tparams, arch)
        term = loss_geometric(vfeat, vfeat_delta, consistency.margin)
        accumulate(term, "S", weights.lambda_s if loss_name == "total" else 1.0)

    if total is None:
        raise ValueError("no active loss terms (all weights zero?)")
    loss_val = total.item()
    if not np.isfinite(loss_val):
        bad = [k for k, v in values.items() if not np.isfinite(v)]
        raise FloatingPointError(f"non-finite loss; offending terms: {bad}")
    values["total"] = loss_val
    total.backward()
    grads = {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for k, t in tparams.items()}
    return values, grads


def _active_terms(loss_name: str, weights: LossWeights) -> set[str]:
    if loss_name != "total":
        return {loss_name}
    active = set()
    for term, lam in (("B", weights.lambda_b), ("G", weights.lambda_g),
                      ("P", weights.lambda_p), ("S", weights.lambda_s)):
        if lam > 0:
            active.add(term)
    return active
