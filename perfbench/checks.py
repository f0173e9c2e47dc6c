"""Output checks computed apart from the program.

Nothing here imports binauralize: files are parsed with scipy and small
readers of the documented formats (scipy is imported on first use, so a
workload's set-up time never includes it), and every reference value (convolution,
arrival time, decay fit, closed-form RT60, STFT and envelope distances) is
computed from first principles. Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

SR = 16000
LSB = 1.0 / 32768.0
CROSSFADE = 800            # samples, SceneGenConfig.crossfade at 16 kHz
OBS_SHAPE = (32, 64, 3)
# Schroeder T20 of a stored RIR against Eyring's closed form; see README
RT60_BAND = (0.6, 1.3)
# the direct sound is the first sample above this share of the RIR's peak
DIRECT_SHARE = 0.25
GRADCHECK_EPS = 1e-5
GRADCHECK_TOL = 1e-6

_BNT_DTYPES = {1: np.float32, 2: np.float64, 3: np.complex64,
               4: np.complex128, 5: np.int64, 6: np.uint8}


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def read_wav(path) -> tuple[np.ndarray, int, np.dtype]:
    """(samples as float64 in [-1, 1], sample rate, stored dtype)."""
    from scipy.io import wavfile

    sr, data = wavfile.read(path)
    if data.dtype == np.int16:
        return data.astype(np.float64) / 32768.0, sr, data.dtype
    return data.astype(np.float64), sr, data.dtype


def _bnt_from(buf: bytes, pos: int) -> tuple[np.ndarray, int]:
    if buf[pos:pos + 4] != b"BNT1":
        raise ValueError("bad BNT1 magic")
    (rank,) = struct.unpack_from("<Q", buf, pos + 4)
    dims = struct.unpack_from(f"<{rank}Q", buf, pos + 12)
    pos += 12 + 8 * rank
    dtype = np.dtype(_BNT_DTYPES[buf[pos]]).newbyteorder("<")
    count = int(np.prod(dims)) if rank else 1
    start = pos + 1
    end = start + count * dtype.itemsize
    if end > len(buf):
        raise ValueError("truncated BNT1 payload")
    return np.frombuffer(buf[start:end], dtype=dtype).reshape(dims), end


def read_bnt(path) -> np.ndarray:
    arr, _ = _bnt_from(Path(path).read_bytes(), 0)
    return arr


def read_archive(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Header and named tensors of a checkpoint archive."""
    buf = Path(path).read_bytes()
    header: dict[str, str] = {}
    pos = 0
    lines = 0
    while True:
        end = buf.index(b"\n", pos)
        line = buf[pos:end].decode("utf-8")
        pos = end + 1
        lines += 1
        if lines == 1:
            if line != "#%BNT-ARCHIVE 1":
                raise ValueError("not a checkpoint archive")
            continue
        if line.startswith("#%TENSORS "):
            count = int(line.split()[1])
            break
        key, value = line.split(" = ", 1)
        header[key] = value
    tensors = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<Q", buf, pos)
        name = buf[pos + 8:pos + 8 + nlen].decode("utf-8")
        tensors[name], pos = _bnt_from(buf, pos + 8 + nlen)
    if pos != len(buf):
        raise ValueError("trailing bytes after the last tensor")
    return header, tensors


def tree_digest(root) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    root = Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def read_manifest_lines(root) -> list[dict]:
    text = (Path(root) / "manifest.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# acoustics from first principles
# ---------------------------------------------------------------------------

def eyring_rt60(dims, absorption: float) -> float:
    lx, ly, lz = dims
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    return -0.161 * lx * ly * lz / (surface * math.log(1.0 - absorption))


def ir_samples(dims, absorption: float) -> int:
    """RIR length: 1.15 x Eyring + 50 ms, clamped to [0.2, 0.8] s."""
    seconds = min(max(1.15 * eyring_rt60(dims, absorption) + 0.05, 0.2), 0.8)
    return int(round(seconds * SR))


def ear_positions(position, yaw: float, separation: float):
    p = np.asarray(position, dtype=np.float64)
    lateral = np.array([-math.sin(yaw), math.cos(yaw), 0.0])
    return p + 0.5 * separation * lateral, p - 0.5 * separation * lateral


def schroeder_t20(h: np.ndarray) -> float:
    """RT60 from a least-squares line through the -5..-25 dB decay."""
    edc = np.cumsum((h * h)[::-1])[::-1]
    edc_db = 10.0 * np.log10(np.maximum(edc, 1e-300) / edc[0])
    lo = int(np.argmax(edc_db < -5.0))
    hi = int(np.argmax(edc_db < -25.0))
    if edc_db[-1] >= -25.0 or hi - lo < 10:
        return float("nan")
    t = np.arange(lo, hi + 1) / SR
    slope = np.polyfit(t, edc_db[lo:hi + 1], 1)[0]
    return -60.0 / slope


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def check_manifest(entries: list[dict], counts: dict[str, int]) -> list[str]:
    got: dict[str, int] = {}
    for e in entries:
        got[e["split"]] = got.get(e["split"], 0) + 1
    fails = []
    if got != counts:
        fails.append(f"split counts {got} != {counts}")
    ids = [e["id"] for e in entries]
    if len(set(ids)) != len(ids):
        fails.append("duplicate record ids")
    return fails


def check_record(root, entry: dict, source: np.ndarray) -> list[str]:
    """Shapes, render, direct path and decay of one stored record.

    source is the anechoic bank clip the record was rendered from.
    """
    root = Path(root)
    scene = entry["scene"]
    fails = []
    n_total = int(round(scene["duration"] * SR))
    audio, sr, dtype = read_wav(root / entry["audio"])
    if sr != SR or dtype != np.int16 or audio.shape != (n_total, 2):
        fails.append(f"audio {audio.shape} {dtype} @ {sr} Hz, want ({n_total}, 2) int16")
        return fails
    n_frames = int(round(scene["duration"] * entry["obs_fps"]))
    obs = read_bnt(root / entry["obs"])
    if obs.shape != (n_frames,) + OBS_SHAPE or obs.dtype != np.uint8:
        fails.append(f"observations {obs.shape} {obs.dtype}, want "
                     f"{(n_frames,) + OBS_SHAPE} uint8")
    for key in ("azimuth_deg", "distance_m"):
        if len(entry["metadata"][key]) != n_frames:
            fails.append(f"metadata {key} has {len(entry['metadata'][key])} frames")

    waypoints = scene["trajectory"][:-1]
    if len(entry["rirs"]) != len(waypoints):
        fails.append(f"{len(entry['rirs'])} RIRs for {len(waypoints)} waypoints")
        return fails
    dims, absorption = scene["dims"], scene["absorption"]
    c = scene["speed_of_sound"]
    n_ir = ir_samples(dims, absorption)
    eyring = eyring_rt60(dims, absorption)
    src = np.resize(source, n_total)  # tiles a short clip, truncates a long one
    seg_len = n_total // len(waypoints)
    for k, (rel, way) in enumerate(zip(entry["rirs"], waypoints)):
        rir, rsr, rdtype = read_wav(root / rel)
        if rsr != SR or rdtype != np.float32 or rir.shape != (n_ir, 2):
            fails.append(f"{rel}: {rir.shape} {rdtype}, want ({n_ir}, 2) float32")
            continue
        lo = k * seg_len + (CROSSFADE if k > 0 else 0)
        hi = n_total if k == len(waypoints) - 1 else (k + 1) * seg_len - CROSSFADE
        ears = ear_positions(way["position"], way["yaw"], way["ear_separation"])
        for ch, ear in enumerate(ears):
            h = rir[:, ch]
            fails += _check_render(audio[lo:hi, ch], src, h, lo, hi, f"{rel}[{ch}]")
            fails += _check_direct(h, scene["source_position"], ear, c, f"{rel}[{ch}]")
            rt = schroeder_t20(h)
            if not RT60_BAND[0] * eyring <= rt <= RT60_BAND[1] * eyring:
                fails.append(f"{rel}[{ch}]: T20 {rt:.3f} s outside "
                             f"{RT60_BAND} x Eyring {eyring:.3f} s")
    return fails


def _check_render(stored, src, h, lo, hi, label) -> list[str]:
    from scipy.signal import fftconvolve

    start = max(lo - h.size + 1, 0)
    ref = fftconvolve(src[start:hi], h)[lo - start:hi - start]
    # PCM16 storage saturates: a render beyond full scale is stored clipped
    ref = np.clip(ref, -1.0, 1.0 - LSB)
    err = float(np.max(np.abs(stored - ref))) / LSB
    return [] if err <= 1.0 else [f"{label}: render differs by {err:.2f} LSB"]


def _check_direct(h, source, ear, c, label) -> list[str]:
    d = float(np.linalg.norm(np.asarray(source) - ear))
    expect = math.floor(d * SR / c)
    first = int(np.argmax(np.abs(h) > DIRECT_SHARE * np.max(np.abs(h))))
    if first in (expect, expect + 1):
        return []
    return [f"{label}: direct path at sample {first}, want {expect} or {expect + 1}"]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def check_losses(log: list[dict]) -> list[str]:
    fails = []
    for entry in log:
        for key, value in entry.items():
            if isinstance(value, float) and not math.isfinite(value):
                fails.append(f"{entry['phase']} epoch {entry['epoch']}: {key} = {value}")
    if not log:
        fails.append("empty training log")
    return fails


def check_checkpoint(path, params: dict[str, np.ndarray]) -> list[str]:
    _, tensors = read_archive(path)
    if set(tensors) != set(params):
        return [f"checkpoint holds {sorted(set(tensors) ^ set(params))} "
                f"beyond or short of the returned parameters"]
    bad = [k for k in params if tensors[k].dtype != params[k].dtype
           or not np.array_equal(tensors[k], params[k])]
    return [f"checkpoint tensors differ from the returned ones: {bad}"] if bad else []


def directional_gradcheck(loss, gradient: dict[str, np.ndarray],
                          params: dict[str, np.ndarray]) -> list[str]:
    """Central difference of loss along the unit gradient vs its norm.

    loss maps a parameter dict to a float; gradient is the analytic gradient
    at params.
    """
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in gradient.values()))
    if not norm > 0.0:
        return ["zero gradient"]
    step = {k: GRADCHECK_EPS * gradient[k] / norm for k in params}
    up = loss({k: params[k] + step[k] for k in params})
    down = loss({k: params[k] - step[k] for k in params})
    slope = (up - down) / (2.0 * GRADCHECK_EPS)
    rel = abs(slope - norm) / norm
    if rel <= GRADCHECK_TOL:
        return []
    return [f"directional derivative {slope:.9g} vs gradient norm {norm:.9g} "
            f"(relative error {rel:.2e})"]


# ---------------------------------------------------------------------------
# binauralization
# ---------------------------------------------------------------------------

def stereo_mono(root, entry: dict) -> tuple[np.ndarray, np.ndarray]:
    """(stored stereo clip, its mono mixdown)."""
    audio, _, _ = read_wav(Path(root) / entry["audio"])
    return audio, (audio[:, 0] + audio[:, 1]) / 2.0


def check_binaural(mono: np.ndarray, left: np.ndarray, right: np.ndarray) -> list[str]:
    fails = []
    err = float(np.max(np.abs(left + right - 2.0 * mono)))
    if err > 1e-9:
        fails.append(f"left + right differs from twice the mono input by {err:.3g}")
    if not np.max(np.abs(left - right)) > 0.0:
        fails.append("difference channel is zero")
    return fails


def stft_frames(x: np.ndarray) -> np.ndarray:
    """Periodic Hann 400, hop 160, FFT 512, full windows only."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(400) / 400)
    n_frames = 1 + (x.size - 400) // 160
    idx = np.arange(400)[None, :] + 160 * np.arange(n_frames)[:, None]
    return np.fft.rfft(x[idx] * window, n=512, axis=1)


def clip_distances(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """(STFT, ENV) distance of a predicted (n, 2) clip from the truth."""
    from scipy.signal import hilbert

    stft = sum(np.linalg.norm(stft_frames(pred[:, ch]) - stft_frames(gt[:, ch]))
               for ch in (0, 1))
    env = sum(np.sqrt(np.mean((np.abs(hilbert(pred[:, ch]))
                               - np.abs(hilbert(gt[:, ch]))) ** 2))
              for ch in (0, 1)) / 2.0
    return float(stft), float(env)


def check_distances(row: dict[str, float], expected: tuple[float, float],
                    label: str) -> list[str]:
    fails = []
    for key, want in zip(("stft", "env"), expected):
        rel = abs(row[key] - want) / abs(want)
        if not rel <= 1e-9:
            fails.append(f"{label} {key} {row[key]!r} vs {want!r} "
                         f"(relative error {rel:.2e})")
    return fails
