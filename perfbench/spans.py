"""Spans around the calls into each layer, recorded from outside the library.

`Tracer.install()` rebinds each traced public function where its caller
module looks it up (for example `diffusion.conv3x3` and the alias
`sfm.dwt2_batched`), and wraps the backward closure that each traced tensor
or wavelet op attaches to its output.  Spans (name, start, end, parent,
item) stay in memory; `uninstall()` puts every original binding back.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from waveletcond import cli, datakit, diffusion, metrics, msm, sfm, sgtf, training, wavelet
from waveletcond.tensor import Tensor
from waveletcond.wavelet import SubBands


def _conv_flop(args, out) -> int:
    """Floating-point operations of one forward call: 2 * n * c_out * h_out * w_out * c_in * 9."""
    n, co, ho, wo = out.shape
    return 2 * n * co * ho * wo * args[1].shape[1] * 9


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or None, item]
        self.items: list[tuple[float, float]] = []
        self.counts: Counter = Counter()
        self.item = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(name, args, out)
            return out

        return traced

    def end_item(self, start: float, end: float) -> None:
        self.items.append((start, end))
        self.item += 1

    def _wrap_backward(self, name, args, out) -> None:
        for t in out.bands() if isinstance(out, SubBands) else (out,):
            if t._backward_fn is not None:
                t._backward_fn = self.wrap(f"{name}.bwd", t._backward_fn)

    def _after_conv(self, name, args, out) -> None:
        self.counts["tensor.conv3x3.flop"] += _conv_flop(args, out)
        self._wrap_backward(name, args, out)

    def _after_unet(self, name, args, out) -> None:
        self.counts["diffusion.unet_forward.tape"] += bool(out.requires_grad)

    def _after_read(self, name, args, out) -> None:
        self.counts["sgtf.read_tensor.bytes"] += out.nbytes

    # -- installation ------------------------------------------------------------------

    def bindings(self):
        """(object, attribute, span name, after-hook) for every traced call site."""
        bwd = self._wrap_backward
        return [
            (diffusion, "conv3x3", "tensor.conv3x3", self._after_conv),
            (Tensor, "backward", "tensor.backward", None),
            (training, "adam_step", "tensor.adam_step", None),
            (msm, "dwt2", "wavelet.dwt2", bwd),
            (sfm, "dwt2_batched", "wavelet.dwt2", bwd),
            (msm, "idwt2", "wavelet.idwt2", bwd),
            (sfm, "idwt2_batched", "wavelet.idwt2", bwd),
            (wavelet, "idwt2_data", "wavelet.idwt2_data", None),
            (diffusion, "msm_forward", "msm.msm_forward", None),
            (diffusion, "audio_attention", "msm.audio_attention", None),
            (diffusion, "frame_tokens", "msm.frame_tokens", None),
            (diffusion, "sfm_forward", "sfm.sfm_forward", None),
            (diffusion, "unet_forward", "diffusion.unet_forward", self._after_unet),
            (training, "unet_forward", "diffusion.unet_forward", self._after_unet),
            (diffusion, "sample", "diffusion.sample", None),
            (training, "train_loss", "training.train_loss", None),
            (metrics, "ssim", "metrics.ssim", None),
            (metrics, "psnr", "metrics.psnr", None),
            (metrics, "lmd", "metrics.lmd", None),
            (metrics, "diversity", "metrics.diversity", None),
            (metrics, "bas", "metrics.bas", None),
            (metrics, "load_landmarks_csv", "metrics.load_landmarks_csv", None),
            (sgtf, "read_tensor", "sgtf.read_tensor", self._after_read),
            (datakit, "read_manifest", "datakit.read_manifest", None),
            (cli, "main", "cli.main", None),
        ]

    def install(self) -> None:
        for obj, attr, name, after in self.bindings():
            original = getattr(obj, attr)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    # -- analysis -------------------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms, each per item.

        Self time is a span's duration minus the durations of its direct
        children.  The row "item" is the item itself, whose children are the
        top-level spans recorded during it.
        """
        n = max(1, len(self.items))
        child = defaultdict(float)
        top = defaultdict(float)
        for name, start, end, parent, item in self.spans:
            if parent is None:
                top[item] += end - start
            else:
                child[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, item) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        calls["item"] = len(self.items)
        total["item"] = sum(end - start for start, end in self.items)
        own["item"] = total["item"] - sum(top.values())
        return {name: {"calls": calls[name] / n, "ms": total[name] * 1e3 / n,
                       "self_ms": own[name] * 1e3 / n} for name in calls}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
