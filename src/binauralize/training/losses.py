"""The four training losses.

Reduction convention: sum over spectrogram bins (and feature dimensions),
mean over the batch. Complex quantities are carried as (real, imag) Tensor
pairs; ground truth enters as constant numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.rt60 import InsufficientDecayError, NoEnergyError, decay_fit_segment
from ..nn import autodiff as ad
from ..nn.autodiff import Tensor

_LN10 = float(np.log(10.0))
_PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class LossWeights:
    lambda_b: float = 10.0
    lambda_s: float = 1.0   # geometric consistency (hinge)
    lambda_g: float = 0.01  # spatial coherence (BCE)
    lambda_p: float = 1.0   # RIR prediction

    def __post_init__(self):
        for name in ("lambda_b", "lambda_s", "lambda_g", "lambda_p"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ConsistencyConfig:
    margin: float = 0.5      # feature-space hinge margin
    delta_max: float = 1.0   # seconds, second-frame offset bound

    def __post_init__(self):
        if self.margin < 0 or self.delta_max <= 0:
            raise ValueError("margin must be >= 0 and delta_max > 0")


def masked_residual_sse(mask: Tensor, mono: np.ndarray, gt: np.ndarray) -> Tensor:
    """Fused sum |(m_re + i m_im) * mono - gt|^2 over frames_raw x bins_net.

    mask is (N, frames_net, bins_net, 2); mono/gt are complex
    (N, frames_raw, bins) arrays (only the first bins_net bins are read).
    One primitive replaces the long elementwise chain, saving memory passes.
    """
    n, frames_net, bins_net, _ = mask.data.shape
    frames_raw = mono.shape[1]
    dtype = mask.data.dtype
    a_re = np.asarray(mono.real[:, :, :bins_net], dtype=dtype)
    a_im = np.asarray(mono.imag[:, :, :bins_net], dtype=dtype)
    m_re = mask.data[:, :frames_raw, :, 0]
    m_im = mask.data[:, :frames_raw, :, 1]
    r_re = m_re * a_re - m_im * a_im - np.asarray(gt.real[:, :, :bins_net], dtype=dtype)
    r_im = m_re * a_im + m_im * a_re - np.asarray(gt.imag[:, :, :bins_net], dtype=dtype)
    out = Tensor(np.array(np.sum(r_re * r_re) + np.sum(r_im * r_im), dtype=dtype),
                 (mask,))

    def backward(g):
        scatter = np.zeros_like(mask.data)
        g2 = 2.0 * g
        scatter[:, :frames_raw, :, 0] = g2 * (a_re * r_re + a_im * r_im)
        scatter[:, :frames_raw, :, 1] = g2 * (a_re * r_im - a_im * r_re)
        mask.accumulate(scatter)

    out._backward = backward
    return out


def loss_backbone_from_masks(masks: dict[str, Tensor], mono_spec: np.ndarray,
                             gt_d: np.ndarray, gt_l: np.ndarray,
                             gt_r: np.ndarray) -> Tensor:
    """Eq.-1-style objective straight from the bounded masks.

    Batch mean of |m_D a_M - A_D|^2 + |m_L a_M - A_L|^2 + |m_R a_M - A_R|^2
    summed over bins. The Nyquist bin lies outside the network grid, where
    the difference mask is zero and the channel masks are the identity, so
    it adds the constant |A_D|^2 + |A_L - a_M|^2 + |A_R - a_M|^2 there.
    """
    n = mono_spec.shape[0]
    bins_net = masks["d"].data.shape[2]
    total = ad.add(ad.add(masked_residual_sse(masks["d"], mono_spec, gt_d),
                          masked_residual_sse(masks["l"], mono_spec, gt_l)),
                   masked_residual_sse(masks["r"], mono_spec, gt_r))
    nyq = float(np.sum(np.abs(gt_d[:, :, bins_net:]) ** 2)
                + np.sum(np.abs(gt_l[:, :, bins_net:]
                                - mono_spec[:, :, bins_net:]) ** 2)
                + np.sum(np.abs(gt_r[:, :, bins_net:]
                                - mono_spec[:, :, bins_net:]) ** 2))
    return ad.mul(ad.add(total, nyq), 1.0 / n)


def loss_coherence(prob: Tensor, flipped: np.ndarray) -> Tensor:
    """Binary cross-entropy between P(flipped) and the flip indicator."""
    p = ad.clip(prob, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    c = flipped.astype(np.float64)
    ll = ad.add(ad.mul(ad.log(p), c), ad.mul(ad.log(ad.sub(1.0, p)), 1.0 - c))
    return ad.mul(ad.tmean(ll), -1.0)


def loss_geometric(v_t: Tensor, v_t_delta: Tensor, margin: float) -> Tensor:
    """Hinge on the feature distance: max(||v - v'|| - margin, 0), batch mean.

    The norm is smoothed as sqrt(s + eps) - sqrt(eps) so identical features
    give exactly zero with an exactly zero gradient.
    """
    eps = 1e-24
    diff = ad.sub(v_t, v_t_delta)
    norm = ad.sub(ad.sqrt(ad.add(ad.tsum(diff ** 2, axis=1), eps)), np.sqrt(eps))
    return ad.tmean(ad.relu(ad.sub(norm, margin)))


def loss_rir(x_pred: Tensor, x_gt: np.ndarray, rt60_gt: np.ndarray,
             frame_dt: float) -> tuple[Tensor, dict[str, int]]:
    """Spectrogram squared L2 plus L1 on RT60.

    x_pred (N, frames, bins, 2) non-negative; x_gt same shape; rt60_gt (N,)
    with NaN where the ground-truth estimate was degenerate. RT60(pred) is
    the differentiable Schroeder fit on predicted frame energies (summed over
    channels and bins); examples whose predicted decay is degenerate fall
    back to the spectrogram term alone and are counted.
    """
    n = x_gt.shape[0]
    loss = ad.mul(ad.tsum(ad.sub(x_pred, x_gt) ** 2), 1.0 / n)

    rt60_terms = []
    degenerate = 0
    for i in range(n):
        if not np.isfinite(rt60_gt[i]):
            degenerate += 1
            continue
        energy = ad.tsum(x_pred[i] ** 2, axis=(1, 2))  # per-frame, both channels
        edc = ad.reverse_cumsum(energy)
        edc_np = edc.data
        if edc_np[0] <= 0:
            degenerate += 1
            continue
        edc_db_np = 10.0 * np.log10(np.maximum(edc_np, 1e-300) / edc_np[0])
        try:
            lo, hi = decay_fit_segment(edc_db_np)
        except (InsufficientDecayError, NoEnergyError):
            degenerate += 1
            continue
        t = np.arange(lo, hi + 1) * frame_dt
        tc = t - t.mean()
        w_slope = tc / np.sum(tc * tc)
        # y = 10 log10(edc/edc[0]); slope via fixed least-squares weights
        seg = edc[lo:hi + 1]
        y = ad.mul(ad.sub(ad.log(seg), ad.log(edc[0:1])), 10.0 / _LN10)
        slope = ad.dot_const(y, w_slope)
        if slope.data >= 0:
            degenerate += 1
            continue
        rt60_pred = ad.div(-60.0, slope)
        rt60_terms.append(ad.absolute(ad.sub(rt60_pred, float(rt60_gt[i]))))
    if rt60_terms:
        acc = rt60_terms[0]
        for term in rt60_terms[1:]:
            acc = ad.add(acc, term)
        loss = ad.add(loss, ad.mul(acc, 1.0 / len(rt60_terms)))
    return loss, {"rt60_degenerate": degenerate, "rt60_used": len(rt60_terms)}
