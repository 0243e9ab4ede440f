"""Training loop, synthetic audio-correlated data, and the ablation runner.

Everything is seed-deterministic: the same config reproduces the same
dataset bytes, parameter trajectory, and report bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffusion import (
    DivergenceError,
    TrainConfig,
    audio_to_windows,
    forward_diffuse,
    frame_shares,
    init_model_params,
    linear_schedule,
    unet_forward,
)
from .forks import read_into, with_child
from .tensor import AdamState, Tensor, adam_step, add, ew_mul, mean

FROZEN_BACKBONE_TRAINABLE_PREFIXES = ("enc.", "msm.", "sfm.")

ABLATION_VARIANTS = (
    ("w/o MSM", False, True),
    ("w/o SFM", True, False),
    ("w/o both", False, False),
    ("full", True, True),
)

TABLE_COLUMNS = ("Diversity", "BAS", "LMD", "FVD")

VALIDATION_SEED = 1234
VALIDATION_DRAWS = 4


@dataclass
class Clip:
    """One synthetic 2-second stand-in: toy latent frames plus a raw audio track."""

    frames: np.ndarray  # (f, c, h, w)
    audio: np.ndarray   # (f * samples_per_frame,)


def make_synthetic_dataset(n: int, f: int, h: int, w: int, seed: int,
                           samples_per_frame: int = 8,
                           amplitude: float = 1.0) -> list[Clip]:
    """Clips whose mouth band of rows oscillates with a per-clip sinusoid.

    The same sinusoid, sampled at `samples_per_frame` points per frame, is
    the clip's audio track, so frames and audio are exactly correlated.
    The mouth band spans rows [h/2, 3h/4); its per-frame offset is the mean
    audio sample within that frame, scaled by the per-clip amplitude.
    """
    if n < 1 or f < 1 or h < 4 or w < 4:
        raise ValueError(f"make_synthetic_dataset: bad sizes n={n} f={f} h={h} w={w}")
    rng = np.random.default_rng(seed)
    clips = []
    mouth = slice(h // 2, h // 2 + h // 4)
    for _ in range(n):
        coarse = rng.normal(0.0, 0.5, (max(1, h // 4), max(1, w // 4)))
        base = np.kron(coarse, np.ones((4, 4)))[:h, :w]
        amp = amplitude * rng.uniform(0.5, 1.0)
        cycles = rng.uniform(1.0, 3.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        k = np.arange(f * samples_per_frame)
        audio = amp * np.sin(2.0 * np.pi * cycles * k / k.size + phase)
        per_frame = audio.reshape(f, samples_per_frame).mean(axis=1)
        frames = np.broadcast_to(base, (f, 1, h, w)).copy()
        frames[:, 0, mouth, :] += per_frame[:, None, None]
        clips.append(Clip(frames=frames, audio=audio))
    return clips


def train_loss(clip: Clip, t: int, eps: np.ndarray, params: dict[str, Tensor],
               cfg: TrainConfig, *, frames: slice = slice(None)) -> Tensor:
    """Noise-prediction MSE of one (clip, t, eps) draw under `linear_schedule(cfg.timesteps)`.

    The clip's first frame is its reference image; latents and noise take
    the dtype of the params.  With `frames` a strict share of the clip
    (`params` as `share_params` gives them), returns that share's part of
    the mean, its own mean times its fraction of the frames, so the shares'
    parts and their gradients add up to the whole clip's up to rounding.
    `train` scores the two `frame_shares` so, one per process; the split is
    fixed, so its bytes do not depend on the CPU count.  Every frame (the
    default) is the whole mean, tape and bytes alike.
    """
    z_t = forward_diffuse(clip.frames, t, eps, linear_schedule(cfg.timesteps))
    eps_hat = unet_forward(z_t, t, audio_to_windows(clip.audio, cfg), clip.frames[0], params, cfg,
                           frames=frames)
    diff = add(eps_hat, -eps[frames])
    loss = mean(ew_mul(diff, diff))
    part = len(range(cfg.frames)[frames]) / cfg.frames
    return loss if part == 1 else ew_mul(loss, part)


def train(dataset: list[Clip], cfg: TrainConfig,
          params: dict[str, Tensor] | None = None,
          on_step=None) -> tuple[dict[str, Tensor], list[float]]:
    """Seeded Adam loop over single-clip batches; returns params and the loss curve.

    Trains copies of `params` (default `init_model_params(cfg)`), so the
    caller's tensors never change.  `cfg` alone decides what trains: with
    freeze_backbone set, only the audio encoder and the two conditioning
    modules do, and the other entries come back as constants holding the
    same data.  Aborts with DivergenceError if the loss goes non-finite.

    Each step runs as the two `frame_shares`: the first here and the second
    in one child forked per call.  Both sides draw the same (clip, t, eps)
    and backpropagate their share's `train_loss`.  Each side holds what
    trains as one flat vector per dtype: the keys both shares read, then its
    own frames of `sfm.w`, which has one slice per frame.  Once per step the
    two swap their loss and the gradients of the keys both read, add them
    and take one Adam step on those vectors, so both hold the same
    parameters except their `sfm.w` frames, which the child sends once, at
    the end.  A key the loss does not reach gets a zero gradient, under
    which Adam leaves it as it was.  With the share count fixed, the bytes
    do not depend on the CPU count.  Only this process calls `on_step`.  One
    frame forks nothing.  A child that ends without a result raises
    ChildProcessError naming its frames; no child outlives the call.
    """
    if not dataset:
        raise ValueError("train: empty dataset")
    if params is None:
        params = init_model_params(cfg)
    trained = [k for k in params
               if not cfg.freeze_backbone or k.startswith(FROZEN_BACKBONE_TRAINABLE_PREFIXES)]
    # frozen parameters are constants: the backward computes no gradient for them
    constants = {k: Tensor(p.data) for k, p in params.items() if k not in trained}
    rng = np.random.default_rng(cfg.seed)
    shares = frame_shares(cfg.frames)

    def flatten(mine: int):
        """Share `mine`'s trained values as {dtype name: flat vector}, with each key's place.

        The vectors come in the order their dtypes first appear, each with its
        keys in `params` order but `sfm.w`, this share's frames, last.  So
        what both sides hold is each vector's head, whose length `heads` gives.
        A place is (vector name, start, shape).
        """
        own = {k: params[k].data[:, shares[mine]] if k == "sfm.w" else params[k].data
               for k in trained}
        flat, places, heads = {}, {}, {}
        for name in dict.fromkeys(a.dtype.name for a in own.values()):
            keys = sorted((k for k in trained if own[k].dtype.name == name), key="sfm.w".__eq__)
            sizes = np.cumsum([0] + [own[k].size for k in keys])
            places.update((k, (name, start, own[k].shape)) for k, start in zip(keys, sizes))
            heads[name] = sum(own[k].size for k in keys if k != "sfm.w")
            flat[name] = Tensor(np.concatenate([own[k].ravel() for k in keys]),
                                requires_grad=True)
        return flat, places, heads

    def unflatten(vectors: dict[str, np.ndarray], places) -> dict[str, np.ndarray]:
        """Each trained key's values in `vectors`, as a view of its own shape."""
        return {k: vectors[name][start:start + math.prod(shape)].reshape(shape)
                for k, (name, start, shape) in places.items()}

    def gradients(mine: int, flat, places, heads, swap) -> float:
        """Draw one (clip, t, eps) and leave the clip's gradients on `flat`; return its loss.

        This side backpropagates `shares[mine]`; `swap(sent, got)` sends its
        loss and head gradients and fills `got` with the other side's, which
        are added to them.  Without `swap`, the first share is the whole clip.
        """
        clip = dataset[int(rng.integers(0, len(dataset)))]
        t = int(rng.integers(1, cfg.timesteps + 1))
        eps = rng.standard_normal(clip.frames.shape)
        grads = {name: np.zeros_like(p.data) for name, p in flat.items()}
        values = unflatten({name: p.data for name, p in flat.items()}, places)
        leaves = dict(constants)
        for k, g in unflatten(grads, places).items():
            leaves[k] = Tensor(values[k], requires_grad=True)
            leaves[k].grad = g  # the backward adds into this view of `grads`
        loss = train_loss(clip, t, eps, leaves, cfg, frames=shares[mine])
        loss.backward()
        value = loss.data
        if swap is not None:
            sent = [value.reshape(1), *(grads[name][:n] for name, n in heads.items())]
            got = [np.empty_like(a) for a in sent]
            swap(sent, got)
            # IEEE addition commutes, so both sides' sums agree bit for bit
            value = value + got[0][0]
            for a, b in zip(sent[1:], got[1:]):
                a += b
        for name, p in flat.items():
            p.grad = grads[name]
        return float(value)

    def run(mine: int, swap, on_step) -> tuple[dict[str, np.ndarray], list[float]]:
        """Every step of share `mine`: this side's trained values and the loss curve."""
        flat, places, heads = flatten(mine)
        state = AdamState(flat)
        losses: list[float] = []
        for step in range(cfg.steps):
            value = gradients(mine, flat, places, heads, swap)
            if not np.isfinite(value):
                raise DivergenceError(f"train: non-finite loss {value} at step {step}")
            losses.append(value)
            flat = adam_step(flat, state, lr=cfg.lr)
            if on_step is not None and (step % cfg.log_every == 0 or step == cfg.steps - 1):
                on_step(step, value)
        return unflatten({name: p.data for name, p in flat.items()}, places), losses

    def serve(inbox, outbox):  # the child: the second share of every step
        def swap(sent, got):  # writes first, as this process reads first
            for a in sent:
                outbox.write(a)
            outbox.flush()
            for a in got:
                read_into(inbox, a)

        values, _ = run(1, swap, None)
        outbox.write(values["sfm.w"])  # its own frames, once
        outbox.flush()

    def work(to_child, from_child):
        def swap(sent, got):  # reads first, so that neither side's write fills a pipe
            for a in got:
                read_into(from_child, a)
            for a in sent:
                to_child.write(a)
            to_child.flush()

        values, losses = run(0, swap, on_step)
        theirs = np.empty(params["sfm.w"].data[:, shares[1]].shape, values["sfm.w"].dtype)
        read_into(from_child, theirs)
        values["sfm.w"] = np.concatenate((values["sfm.w"], theirs), axis=1)
        return values, losses

    if shares[1].start == shares[1].stop:
        values, losses = run(0, None, on_step)
    else:
        values, losses = with_child(serve, work,
                                    f"train: frames [{shares[1].start}, {shares[1].stop})")
    return {k: constants[k] if k in constants else Tensor(values[k], requires_grad=True)
            for k in params}, losses


def validation_loss(dataset: list[Clip], params: dict[str, Tensor], cfg: TrainConfig) -> float:
    """Mean `train_loss` over VALIDATION_DRAWS seeded (t, eps) draws per clip.

    No tape, and all in this process.
    """
    if not dataset:
        raise ValueError("validation_loss: empty dataset")
    rng = np.random.default_rng(VALIDATION_SEED)
    leaves = {k: Tensor(p.data) for k, p in params.items()}
    total = 0.0  # summed in draw order; the first sum takes the params' dtype, so f32 stays f32
    for clip in dataset:
        for _ in range(VALIDATION_DRAWS):
            t = int(rng.integers(1, cfg.timesteps + 1))
            total += train_loss(clip, t, rng.standard_normal(clip.frames.shape), leaves, cfg).data
    return float(total * (1.0 / (len(dataset) * VALIDATION_DRAWS)))


def split_train_val(dataset: list[Clip]) -> tuple[list[Clip], list[Clip]]:
    """Hold out the trailing fifth of the clips (at least one) for validation."""
    n_val = max(1, len(dataset) // 5)
    if n_val >= len(dataset):
        raise ValueError("split_train_val: dataset too small to hold out a validation clip")
    return dataset[:-n_val], dataset[-n_val:]


def ablate(cfg: TrainConfig) -> dict:
    """Train {w/o MSM, w/o SFM, w/o both, full} under one seed and report.

    Rows follow the ablation-table shape; metric columns that need
    pretrained scoring networks are rendered "n/a" at desk scale, and the
    deterministic validation loss carries the comparison.
    """
    dataset = make_synthetic_dataset(cfg.n_clips, cfg.frames, cfg.height, cfg.width,
                                     seed=cfg.seed, samples_per_frame=cfg.samples_per_frame,
                                     amplitude=cfg.amplitude)
    train_clips, val_clips = split_train_val(dataset)
    rows = []
    for label, use_msm, use_sfm in ABLATION_VARIANTS:
        variant = dataclasses.replace(cfg, use_msm=use_msm, use_sfm=use_sfm)
        params, losses = train(train_clips, variant)
        window = min(50, max(1, len(losses) // 2))
        row = {"method": label}
        row.update({col: "n/a" for col in TABLE_COLUMNS})
        row["train_loss_first"] = float(np.mean(losses[:window]))
        row["train_loss_last"] = float(np.mean(losses[-window:]))
        row["val_loss"] = validation_loss(val_clips, params, variant)
        rows.append(row)
    return {
        "report": "module-ablation",
        "columns": ["method", *TABLE_COLUMNS, "train_loss_first", "train_loss_last", "val_loss"],
        "rows": rows,
        "config": dataclasses.asdict(cfg),
    }


def report_to_json(report: dict) -> str:
    """Byte-deterministic rendering (sorted keys, shortest-roundtrip floats)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# -- plain key=value config files --------------------------------------------------


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def config_to_text(cfg: TrainConfig) -> str:
    """Render every field as a `key=value` line, in field order; parse_config_text inverts it."""
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in dataclasses.fields(TrainConfig))


def parse_config_text(text: str) -> TrainConfig:
    """Parse `key=value` lines; blank lines and #-comments allowed, unknown and repeated keys
    rejected (a line's own bad value is reported before its repeat)."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        value = _parse_value(key, val, lineno)
        if key in values:
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        values[key] = value
    return TrainConfig(**values)


def _parse_value(key: str, val: str, lineno: int):
    kind = _CONFIG_FIELDS[key]
    if kind == "bool":
        low = val.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"config line {lineno}: bad boolean {val!r} for {key}")
    try:
        return int(val) if kind == "int" else float(val)
    except ValueError:
        raise ValueError(f"config line {lineno}: bad value {val!r} for {key}") from None


def load_config(path) -> TrainConfig:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return parse_config_text(text)
