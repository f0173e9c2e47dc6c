"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the binauralize package with timing
wrappers. A function bound by ``from ... import`` is replaced in every module
that imports it, so the wrapper sees every call the program makes. Each span
reports self time: its duration minus the time of the traced spans it
encloses, so the self times of one round add up to the traced time of that
round.

Convolutions are named by the weight parameter they use. The model fetches
every weight through ``binauralize.nn.model._t``; the wrapper there records
which tensor carries which parameter name. A convolution whose weight was not
fetched that way is the fused mask-head GEMM (the three head weights
concatenated), named ``unet.heads``. Backward time of a convolution is the
time of the backward closure on the tensor it returned.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# (module, attribute, metric stem); every stem reports self time, and the
# stems in _PARENTS are named "<stem>_self" because their children are traced
FUNCTIONS = [
    ("binauralize.scenegen.corpus", "anechoic_bank", "scenegen.anechoic_bank"),
    ("binauralize.scenegen.corpus", "sample_scene", "scenegen.sample_scene"),
    ("binauralize.scenegen.corpus", "synthesize_record", "scenegen.synthesize_record"),
    ("binauralize.scenegen.corpus", "write_manifest", "scenegen.write_manifest"),
    ("binauralize.scenegen.corpus", "read_manifest", "scenegen.read_manifest"),
    ("binauralize.scenegen.corpus", "verify_split", "scenegen.read_manifest"),
    ("binauralize.scenegen.synthesize", "binaural_rir", "room.binaural_rir"),
    ("binauralize.scenegen.synthesize", "fft_convolve", "room.fft_convolve"),
    ("binauralize.scenegen.synthesize", "schroeder_rt60", "dsp.schroeder_rt60"),
    ("binauralize.room.shoebox", "schroeder_rt60", "dsp.schroeder_rt60"),
    ("binauralize.scenegen.synthesize", "render_observation", "scenegen.render_observation"),
    ("binauralize.wavio", "write_wav", "io.write"),
    ("binauralize.tensorfile", "save_tensor", "io.write"),
    ("binauralize.wavio", "read_wav", "io.read"),
    ("binauralize.tensorfile", "load_tensor", "io.read"),
    ("binauralize.training.loop", "read_manifest", "scenegen.read_manifest"),
    ("binauralize.training.loop", "load_training_cache", "training.load_training_cache"),
    ("binauralize.training.loop", "build_batch", "training.build_batch"),
    ("binauralize.training.loop", "adam_step", "training.adam_step"),
    ("binauralize.training.loop", "window_stft_distance", "training.window_stft_distance"),
    ("binauralize.training.loop", "save_checkpoint", "nn.save_checkpoint"),
    ("binauralize.training.loop", "visual_encode", "nn.visual_encode"),
    ("binauralize.training.loop", "mask_head", "nn.mask_head"),
    ("binauralize.training.graph", "visual_encode", "nn.visual_encode"),
    ("binauralize.training.graph", "mask_head", "nn.mask_head"),
    ("binauralize.training.graph", "coherence_classify", "nn.coherence_classify"),
    ("binauralize.training.graph", "rir_decode", "nn.rir_decode"),
    ("binauralize.training.graph", "loss_backbone_from_masks", "training.losses"),
    ("binauralize.training.graph", "loss_coherence", "training.losses"),
    ("binauralize.training.graph", "loss_rir", "training.losses"),
    ("binauralize.training.graph", "loss_geometric", "training.losses"),
    ("binauralize.training.examples", "stft", "dsp.stft"),
    ("binauralize.evaluation.report", "read_manifest", "scenegen.read_manifest"),
    ("binauralize.evaluation.report", "load_checkpoint", "nn.load_checkpoint"),
    ("binauralize.evaluation.report", "binauralize_clip", "evaluation.binauralize_clip"),
    ("binauralize.evaluation.report", "stft_distance", "dsp.stft_distance"),
    ("binauralize.evaluation.report", "env_distance", "dsp.env_distance"),
    ("binauralize.evaluation.infer", "visual_encode", "nn.visual_encode"),
    ("binauralize.evaluation.infer", "mask_head", "nn.mask_head"),
    ("binauralize.evaluation.infer", "stft", "dsp.stft"),
    ("binauralize.dsp.distances", "stft", "dsp.stft"),
]

SUBNETS = ("nn.visual_encode", "nn.mask_head", "nn.coherence_classify",
           "nn.rir_decode")

CONV_LAYERS = (
    "visual.c0", "visual.c1", "visual.c2", "visual.c3",
    "unet.d0", "unet.d1", "unet.d2", "unet.mid", "unet.u0", "unet.u1",
    "unet.u2", "unet.heads",
    "coh.c0", "coh.c1", "coh.c2",
    "rir.u0", "rir.u1", "rir.u2", "rir.u3",
)

# stems whose call count is one (two for the training cache) per round by
# construction; they report time only, which keeps the table within its limit
ONCE_PER_ROUND = ("scenegen.anechoic_bank", "scenegen.write_manifest_self",
                  "scenegen.read_manifest", "training.load_training_cache",
                  "nn.save_checkpoint", "nn.load_checkpoint")

_PARENTS = {"scenegen.synthesize_record", "scenegen.write_manifest",
            "evaluation.binauralize_clip"}


def metric_stem(stem: str) -> str:
    return stem + "_self" if stem in _PARENTS else stem


def _timed_stems() -> list[str]:
    stems = []
    for _, _, stem in FUNCTIONS:
        s = metric_stem(stem)
        if s not in stems:
            stems.append(s)
    return stems + ["nn.backward"]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for stem in _timed_stems():
        out.append((stem + "_s", "s"))
        if stem not in ONCE_PER_ROUND:
            calls = stem[:-5] if stem.endswith("_self") else stem
            out.append((calls + "_calls", "count"))
    out += [("io.bytes_written", "B"), ("io.bytes_read", "B"),
            ("nn.tape_nodes", "count")]
    for layer in CONV_LAYERS:
        out += [(f"nn.conv.{layer}.fwd_s", "s"), (f"nn.conv.{layer}.bwd_s", "s"),
                (f"nn.conv.{layer}.flops", "flop"), (f"nn.conv.{layer}.bytes", "B")]
    out.append(("trace.overhead_pct", "%"))
    return out


class Tracer:
    """Span totals and counters; ``enabled`` gates every wrapper."""

    def __init__(self):
        self.enabled = True
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._param_names: dict[int, tuple[object, str]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def span(self, stem: str, fn):
        """Call fn() inside a span; its self time goes to ``stem``."""
        if not self.enabled:
            return fn()
        self._stack.append([0.0])
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            children = self._stack.pop()[0]
            if self._stack:
                self._stack[-1][0] += dt
            self.seconds[stem] = self.seconds.get(stem, 0.0) + dt - children
            self.counts[stem] = self.counts.get(stem, 0) + 1

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        return dict(self.seconds), dict(self.counts)

    # -- installation ------------------------------------------------------
    def _replace(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module_name, attr, stem in FUNCTIONS:
            module = importlib.import_module(module_name)
            self._replace(module, attr, self._wrap(getattr(module, attr),
                                                   metric_stem(stem)))
        self._install_io_sizes()
        self._install_model()
        self._install_autodiff()

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def _wrap(self, fn, stem):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(stem, lambda: fn(*args, **kwargs))
        return wrapper

    def _install_io_sizes(self) -> None:
        from binauralize import tensorfile, wavio

        def sized(fn, counter):
            @functools.wraps(fn)
            def wrapper(path, *args, **kwargs):
                out = fn(path, *args, **kwargs)
                self.count(counter, os.path.getsize(path))
                return out
            return wrapper

        # the size is read after the io span has closed, so its stat is
        # charged to the caller's self time, never to io
        for module, attr, counter in ((wavio, "write_wav", "io.bytes_written"),
                                      (tensorfile, "save_tensor", "io.bytes_written"),
                                      (wavio, "read_wav", "io.bytes_read"),
                                      (tensorfile, "load_tensor", "io.bytes_read")):
            self._replace(module, attr, sized(getattr(module, attr), counter))

    def _install_model(self) -> None:
        from binauralize.nn import model

        get = model._t
        names = self._param_names

        @functools.wraps(get)
        def named_get(params, name):
            t = get(params, name)
            if self.enabled and name.endswith(".w"):
                names[id(t)] = (t, name[:-2])
            return t

        self._replace(model, "_t", named_get)
        # a sub-network forward starts a fresh name table, so the table never
        # outlives the parameter tensors of one forward pass
        for module_name, attr, stem in FUNCTIONS:
            if stem in SUBNETS:
                module = importlib.import_module(module_name)
                self._replace(module, attr, self._clearing(getattr(module, attr)))

    def _clearing(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._param_names.clear()
            try:
                return fn(*args, **kwargs)
            finally:
                self._param_names.clear()
        return wrapper

    def _install_autodiff(self) -> None:
        from binauralize.nn import autodiff as ad

        tracer = self
        slot = ad.Tensor.__dict__["_backward"]

        class CountingSlot:
            """Counts tensors that get a backward closure (tape nodes)."""

            def __get__(self, obj, typ=None):
                return self if obj is None else slot.__get__(obj, typ)

            def __set__(self, obj, value):
                if value is not None:
                    tracer.count("nn.tape_nodes")
                slot.__set__(obj, value)

        self._replace(ad.Tensor, "_backward", CountingSlot())
        backward = ad.Tensor.backward
        self._replace(ad.Tensor, "backward", functools.wraps(backward)(
            lambda t: self.span("nn.backward", lambda: backward(t))))
        self._replace(ad, "conv2d", self._conv(ad.conv2d, transpose=False))
        self._replace(ad, "conv_transpose2d",
                      self._conv(ad.conv_transpose2d, transpose=True))

    def _conv(self, fn, transpose: bool):
        @functools.wraps(fn)
        def wrapper(x, w, b, *args, **kwargs):
            if not self.enabled:
                return fn(x, w, b, *args, **kwargs)
            entry = self._param_names.get(id(w))
            layer = entry[1] if entry is not None else "unet.heads"
            stem = f"nn.conv.{layer}"
            out = self.span(stem + ".fwd", lambda: fn(x, w, b, *args, **kwargs))
            flops, fwd_bytes, bwd_bytes = conv_cost(x.data, w.data, out.data,
                                                    transpose)
            self.count(stem + ".flops", flops)
            self.count(stem + ".bytes", fwd_bytes)
            closure = out._backward
            if closure is not None:
                def timed_backward(g):
                    self.count(stem + ".flops", 2 * flops)
                    self.count(stem + ".bytes", bwd_bytes)
                    return self.span(stem + ".bwd", lambda: closure(g))
                out._backward = timed_backward
            return out
        return wrapper


def conv_cost(x, w, out, transpose: bool) -> tuple[int, int, int]:
    """Forward FLOPs and compulsory bytes of one convolution, from shapes.

    FLOPs count one multiply and one add per weight tap per output (forward)
    or per input (transposed) position; backward costs twice the forward
    (input and weight gradients). Bytes are the arrays the op must touch at
    least once: forward reads x and w and writes the output; backward reads
    the output gradient, x and w and writes both gradients.
    """
    if transpose:
        n, h, wd, c = x.shape
        _, kh, kw, o = w.shape
        positions = n * h * wd
    else:
        kh, kw, c, o = w.shape
        n, oh, ow, _ = out.shape
        positions = n * oh * ow
    flops = 2 * positions * kh * kw * c * o
    item = out.dtype.itemsize
    fwd = item * (x.size + w.size + out.size)
    bwd = item * (out.size + 2 * x.size + 2 * w.size)
    return int(flops), int(fwd), int(bwd)


def round_metrics(before, after) -> dict[str, float]:
    """Per-layer values of one round from two tracer snapshots."""
    (s0, c0), (s1, c1) = before, after
    values: dict[str, float] = {}
    for name, unit in per_layer_metrics():
        if name == "trace.overhead_pct":
            continue
        if name.endswith("_s"):
            key = name[:-2]
            values[name] = s1.get(key, 0.0) - s0.get(key, 0.0)
        elif name.endswith("_calls"):
            key = name[:-6]
            key = key + "_self" if key in _PARENTS else key
            values[name] = c1.get(key, 0) - c0.get(key, 0)
        else:
            values[name] = c1.get(name, 0) - c0.get(name, 0)
    return values
