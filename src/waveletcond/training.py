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
    share_params,
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
    in one child forked per call.  Both sides draw the same (clip, t, eps),
    backpropagate their share's `train_loss`, swap that loss and its
    gradients once, add the two in the same order and take the same Adam
    step, so their parameters stay equal bit for bit.  With the share count
    fixed, the bytes do not depend on the CPU count.  Only this process
    checks the loss and calls `on_step`.  One frame forks nothing.  A child
    that ends without a result raises ChildProcessError naming its frames;
    no child outlives the call.
    """
    if not dataset:
        raise ValueError("train: empty dataset")
    if params is None:
        params = init_model_params(cfg)
    # frozen parameters are constants: the backward computes no gradient for them
    params = {k: Tensor(p.data, requires_grad=not cfg.freeze_backbone
                        or k.startswith(FROZEN_BACKBONE_TRAINABLE_PREFIXES))
              for k, p in params.items()}
    rng = np.random.default_rng(cfg.seed)
    state = AdamState(params)
    shares = frame_shares(cfg.frames)

    def gradients(mine: int, swap) -> float:
        """Draw one (clip, t, eps) and leave the clip's gradients in `params`; return its loss.

        This side backpropagates `shares[mine]`; `swap(sent, got)` sends its
        loss and gradients as one flat array and fills `got` with the other
        share's.  Without `swap`, the first share is the whole clip.
        """
        clip = dataset[int(rng.integers(0, len(dataset)))]
        t = int(rng.integers(1, cfg.timesteps + 1))
        eps = rng.standard_normal(clip.frames.shape)
        if swap is None:
            loss = train_loss(clip, t, eps, params, cfg)
            loss.backward()
            return loss.item()
        leaves = [share_params(params, share) for share in shares]
        loss = train_loss(clip, t, eps, leaves[mine], cfg, frames=shares[mine])
        loss.backward()
        keys = [k for k, p in leaves[mine].items() if p.grad is not None]
        parts = [None, None]  # per share: its loss, then its gradients in `keys` order
        parts[mine] = [loss.data, *(leaves[mine][k].grad for k in keys)]
        shapes = [(), *(leaves[1 - mine][k].shape for k in keys)]
        sizes = [math.prod(shape) for shape in shapes]
        sent = np.concatenate([a.ravel() for a in parts[mine]])
        got = np.empty(sum(sizes), sent.dtype)
        swap(sent, got)
        parts[1 - mine] = [a.reshape(shape) for a, shape
                           in zip(np.split(got, np.cumsum(sizes)[:-1]), shapes)]
        # sfm.w has one slice per frame; every other gradient is the sum of the shares'.
        # Both sides add the same operands in the same order, so they agree bit for bit.
        for k, a, b in zip(keys, parts[0][1:], parts[1][1:]):
            params[k].grad = np.concatenate((a, b), axis=1) if k == "sfm.w" else a + b
        return float(parts[0][0] + parts[1][0])

    def run(swap) -> tuple[dict[str, Tensor], list[float]]:
        nonlocal params
        losses: list[float] = []
        for step in range(cfg.steps):
            value = gradients(0, swap)
            if not np.isfinite(value):
                raise DivergenceError(f"train: non-finite loss {value} at step {step}")
            losses.append(value)
            params = adam_step(params, state, lr=cfg.lr)
            if on_step is not None and (step % cfg.log_every == 0 or step == cfg.steps - 1):
                on_step(step, value)
        return params, losses

    if shares[1].start == shares[1].stop:
        return run(None)

    def serve(inbox, outbox):  # the child: the second share of every step
        nonlocal params

        def swap(sent, got):  # writes first, as this process reads first
            outbox.write(sent)
            outbox.flush()
            read_into(inbox, got)

        for _ in range(cfg.steps):
            gradients(1, swap)
            params = adam_step(params, state, lr=cfg.lr)

    def work(to_child, from_child):
        def swap(sent, got):  # reads first, so that neither side's write fills a pipe
            read_into(from_child, got)
            to_child.write(sent)
            to_child.flush()

        return run(swap)

    return with_child(serve, work, f"train: frames [{shares[1].start}, {shares[1].stop})")


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
