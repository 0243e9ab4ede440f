"""Command-line surface: wavelet transforms, module application, the toy
trainer/sampler/ablation runner, metric reports, and manifest tooling.

Exit codes: 0 success, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pickle
import sys
from pathlib import Path

import numpy as np

from . import datakit, metrics, sgtf
from .diffusion import (
    DivergenceError,
    audio_to_windows,
    init_model_params,
    linear_schedule,
    sample,
)
from .forks import Children
from .msm import init_msm_params, msm_forward
from .sfm import init_sfm_params, sfm_forward
from .training import (
    ablate,
    config_to_text,
    load_config,
    make_synthetic_dataset,
    report_to_json,
    train,
)
from .wavelet import BAND_ORDER, dwt2_data, idwt2_data

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="waveletcond",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed used by seeded subcommands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dwt", help="decompose an SGTF tensor into four sub-band files")
    p.add_argument("input")
    p.add_argument("out_prefix")
    p.set_defaults(func=cmd_dwt)

    p = sub.add_parser("idwt", help="reassemble a tensor from four sub-band files")
    p.add_argument("in_prefix")
    p.add_argument("output")
    p.set_defaults(func=cmd_idwt)

    p = sub.add_parser("msm-apply", help="condition an audio embedding on a latent")
    p.add_argument("--audio", required=True)
    p.add_argument("--latent", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_msm_apply)

    p = sub.add_parser("sfm-apply", help="filter bottleneck features")
    p.add_argument("--features", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sfm_apply)

    p = sub.add_parser("train-toy", help="train the toy harness on synthetic clips")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("sample", help="generate a clip from a trained run directory")
    p.add_argument("--params", required=True, help="run directory from train-toy")
    p.add_argument("--audio", required=True, help="raw audio sample track (SGTF, 1-D)")
    p.add_argument("--ref", required=True, help="reference frame (SGTF, c x h x w)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("ablate", help="train all module-ablation variants and report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("metrics", help="score predicted clips against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--peak", type=float, default=1.0)
    p.add_argument("--mouth-indices", default=None,
                   help="comma/range list of mouth landmark indices, e.g. 48-67")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("manifest", help="dataset manifest tooling")
    msub = p.add_subparsers(dest="manifest_command", required=True)

    m = msub.add_parser("segment", help="cut sources into 2-second clip records")
    m.add_argument("--sources", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--ratio", type=float, default=0.8)
    m.set_defaults(func=cmd_manifest_segment)

    m = msub.add_parser("crop", help="recompute crop boxes at a given face ratio")
    m.add_argument("--sources", required=True)
    m.add_argument("--manifest", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--ratio", type=float, default=0.8)
    m.set_defaults(func=cmd_manifest_crop)

    m = msub.add_parser("split", help="assign subject-disjoint train/test labels")
    m.add_argument("--manifest", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--ratio", default="4:1")
    m.set_defaults(func=cmd_manifest_split)

    return parser


# -- subcommand bodies ---------------------------------------------------------------


def finite_result(command: str, compute, *inputs: np.ndarray) -> np.ndarray:
    """`compute()` without numpy's float warnings; a non-finite result of finite
    `inputs` is a numeric failure, raised before any file is written."""
    with np.errstate(all="ignore"):
        out = compute()
    if not np.isfinite(out).all() and all(np.isfinite(x).all() for x in inputs):
        raise DivergenceError(f"{command}: non-finite result from finite input")
    return out


def cmd_dwt(args) -> int:
    x = sgtf.read_tensor(args.input)
    bands = finite_result("dwt", lambda: dwt2_data(x), x)
    for name, band in zip(BAND_ORDER, bands):
        sgtf.write_tensor(f"{args.out_prefix}.{name}.sgtf", band)
    return EXIT_OK


def cmd_idwt(args) -> int:
    paths = [f"{args.in_prefix}.{name}.sgtf" for name in BAND_ORDER]
    bands = [sgtf.read_tensor(path) for path in paths]
    if len({band.shape for band in bands}) > 1:
        raise ValueError("idwt: band shapes differ: " + ", ".join(
            f"{path} {band.shape}" for path, band in zip(paths, bands)))
    bands = np.stack(bands)
    sgtf.write_tensor(args.output, finite_result("idwt", lambda: idwt2_data(bands), bands))
    return EXIT_OK


def read_model_input(path) -> np.ndarray:
    """An SGTF tensor that feeds the model: a NaN or infinite entry is an input error.

    `dwt` and `idwt` read with `sgtf.read_tensor` alone: as elementwise
    transforms they pass non-finite values through.
    """
    arr = sgtf.read_tensor(path)
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: tensor holds a non-finite value")
    return arr


def require_params(params: dict, wanted, where) -> None:
    """Reject a parameter set that lacks any name in `wanted`, naming `where` it came from."""
    missing = [name for name in wanted if name not in params]
    if missing:
        raise ValueError(f"{where} lacks parameters {missing}")


def cmd_msm_apply(args) -> int:
    params = sgtf.load_params(args.params)
    audio = read_model_input(args.audio)
    latent = read_model_input(args.latent)
    require_params(params, init_msm_params(latent.shape), args.params)
    # every input is finite: `read_model_input` and `load_params` check
    out = finite_result("msm-apply", lambda: msm_forward(audio, latent, params).data)
    sgtf.write_tensor(args.out, out)
    return EXIT_OK


def cmd_sfm_apply(args) -> int:
    params = sgtf.load_params(args.params)
    features = read_model_input(args.features)
    require_params(params, init_sfm_params(features.shape), args.params)
    out = finite_result("sfm-apply", lambda: sfm_forward(features, params).data)
    sgtf.write_tensor(args.out, out)
    return EXIT_OK


def cmd_train_toy(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    dataset = make_synthetic_dataset(cfg.n_clips, cfg.frames, cfg.height, cfg.width,
                                     seed=cfg.seed, samples_per_frame=cfg.samples_per_frame,
                                     amplitude=cfg.amplitude)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # before training: an unusable --out fails at once
    params, losses = train(dataset, cfg,
                           on_step=lambda s, v: print(f"step {s}: loss {v:.6f}"))
    sgtf.save_params(out / "params", params)
    (out / "config.txt").write_text(config_to_text(cfg))
    (out / "losses.csv").write_text(
        "step,loss\n" + "".join(f"{i},{repr(v)}\n" for i, v in enumerate(losses)))
    print(f"trained {cfg.steps} steps; final loss {losses[-1]:.6f}; run saved to {out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    out = output_file("sample", "--out", args.out)
    run = Path(args.params)
    cfg = load_config(run / "config.txt")
    params = sgtf.load_params(run / "params")
    wanted = init_model_params(cfg)
    require_params(params, wanted, f"sample: run directory {run}")
    for name, p in wanted.items():
        if params[name].shape != p.shape:
            raise ValueError(f"sample: run directory {run}: parameter {name!r} has shape "
                             f"{params[name].shape}, expected {p.shape}")
    audio = read_model_input(args.audio)
    ref = read_model_input(args.ref)
    seed = 0 if args.seed is None else args.seed
    clip = sample(params, audio_to_windows(audio, cfg), ref,
                  linear_schedule(cfg.timesteps), cfg, seed=seed)
    sgtf.write_tensor(out, clip)
    print(f"sampled clip {clip.shape} -> {out}")
    return EXIT_OK


def output_file(command: str, flag: str, path) -> Path:
    """`path` checked as a file to write before any work: not a directory, in an existing one."""
    out = Path(path)
    if out.is_dir() or not out.parent.is_dir():
        raise ValueError(f"{command}: {flag} {out} is not a file path in an existing directory")
    return out


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out = output_file("ablate", "--out", args.out) if args.out else None
    report = ablate(cfg)
    text = report_to_json(report)
    if out is not None:
        out.write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def parse_index_spec(spec: str, count: int) -> list[int]:
    """Comma list with ranges, "48-67" or "1,3,5-8", of indices in [0, count)."""
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        bad = ValueError(f"index spec {spec!r}: {part!r} is not a range within [0, {count})")
        lo, dash, hi = part.partition("-")
        try:
            lo, hi = int(lo), int(hi if dash else lo)
        except ValueError:
            raise bad from None
        if not 0 <= lo <= hi < count:
            raise bad
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError(f"empty index spec: {spec!r}")
    return out


def in_shares(fn, items: list, describe) -> list:
    """`fn(items)`, for an `fn` that maps each item alone, on one share per usable CPU.

    The caller runs the first contiguous share and a forked child each other one;
    results join in order, and the first exception in `items` order is raised.
    Every child is reaped first (killed if the caller's share raised); one that
    ends without a result raises `ChildProcessError` naming `describe(share)`.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = min(cpus, len(items))
    bounds = [-(-len(items) * k // n) for k in range(n + 1)]  # earlier shares take the extra
    shares = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    pipes = []  # the read end of each child's pipe

    def send(share, w):  # the child: its share's rows, or its first exception
        try:
            result = True, fn(share)
        except BaseException as exc:
            result = False, exc
        with open(w, "wb") as pipe:
            pickle.dump(result, pipe)

    with Children() as children:
        try:
            for share in shares[1:]:
                r, w = os.pipe()
                children.fork(lambda: send(share, w))
                os.close(w)
                pipes.append(open(r, "rb"))
            out = fn(shares[0])
            sent = [pipe.read() for pipe in pipes]
        finally:
            for pipe in pipes:
                pipe.close()
    for share, data, code in zip(shares[1:], sent, children.codes):
        if code != 0:
            raise ChildProcessError(f"{describe(share)}: its process ended without a result "
                                    f"(exit code {code})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        out += value
    return out


def cmd_metrics(args) -> int:
    report_path = output_file("metrics", "--report", args.report)
    records = datakit.read_manifest(args.manifest)
    if not records:
        raise ValueError(f"metrics: empty manifest {args.manifest}")
    pred_dir, gt_dir = Path(args.pred), Path(args.gt)

    def score(share) -> list[dict]:
        rows = []
        for rec in share:
            pred_lm = metrics.load_landmarks_csv(pred_dir / rec.landmark_path)
            # Bound to names, so one clip's frames stay live while the next clip's are read:
            # freed first, their pages go back to the OS and fault in again for every clip.
            pred_frames = sgtf.read_tensor(pred_dir / rec.frames_path)
            gt_frames = sgtf.read_tensor(gt_dir / rec.frames_path)
            gt_lm = metrics.load_landmarks_csv(gt_dir / rec.landmark_path)
            beats = metrics.load_beats(gt_dir / rec.beats_path)
            mouth = (parse_index_spec(args.mouth_indices, pred_lm.shape[1])
                     if args.mouth_indices is not None else None)
            try:
                with np.errstate(all="ignore"):  # psnr and SSIM raise on a non-finite result
                    row = metrics.evaluate_clip(pred_frames, gt_frames, pred_lm, gt_lm, beats,
                                                fps=rec.fps, mouth=mouth, peak=args.peak)
            except ValueError as exc:
                raise ValueError(f"metrics: clip {rec.clip_id}: {exc}") from None
            except OverflowError as exc:
                raise DivergenceError(f"metrics: non-finite result from finite input in clip "
                                      f"{rec.clip_id}: {exc}") from None
            rows.append({"clip_id": rec.clip_id, **row})
        return rows

    rows = in_shares(score, records,
                     lambda share: f"metrics: clips {', '.join(r.clip_id for r in share)}")
    report = metrics.json_safe({
        "report": "clip-metrics",
        "columns": list(metrics.TABLE1_COLUMNS),
        "aggregate": metrics.aggregate_rows(rows),
        "per_clip": rows,
    })
    report_path.write_text(report_to_json(report))
    print(f"scored {len(rows)} clips -> {report_path}")
    return EXIT_OK


def cmd_manifest_segment(args) -> int:
    sources = datakit.read_sources(args.sources)
    records = [rec for src in sources for rec in datakit.segment_clips(src, ratio=args.ratio)]
    datakit.write_manifest(args.out, records)
    print(f"segmented {len(sources)} sources into {len(records)} clips -> {args.out}")
    return EXIT_OK


def cmd_manifest_crop(args) -> int:
    datakit.check_face_ratio(args.ratio)  # before any clip is cropped, box or no box
    sources = {s.source_id: s for s in datakit.read_sources(args.sources)}
    records = datakit.read_manifest(args.manifest)
    out = []
    for rec in records:
        src = sources.get(rec.source_id)
        if src is None:
            raise ValueError(f"manifest crop: no source metadata for {rec.source_id}")
        box = datakit.bbox_for_frame(src, rec.start_frame)
        crop = (datakit.crop_box(box, src.width, src.height, ratio=args.ratio)
                if box else rec.crop_box)
        out.append(dataclasses.replace(rec, crop_box=crop))
    datakit.write_manifest(args.out, out)
    print(f"recomputed {len(out)} crop boxes at ratio {args.ratio} -> {args.out}")
    return EXIT_OK


def cmd_manifest_split(args) -> int:
    train_parts, _, test_parts = args.ratio.partition(":")
    try:
        train_parts, test_parts = int(train_parts), int(test_parts or 1)
    except ValueError:
        raise ValueError(f"--ratio must be TRAIN:TEST with integer parts, "
                         f"got {args.ratio!r}") from None
    records = datakit.read_manifest(args.manifest)
    seed = 0 if args.seed is None else args.seed
    labelled = datakit.split_dataset(records, seed=seed, train_parts=train_parts,
                                     test_parts=test_parts)
    datakit.write_manifest(args.out, labelled)
    n_train = sum(1 for r in labelled if r.split == "train")
    print(f"split {len(labelled)} clips: {n_train} train / {len(labelled) - n_train} test "
          f"-> {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # a backstop for sizes no input check bounds
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
