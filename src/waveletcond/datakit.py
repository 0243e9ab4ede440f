"""Clip manifest tooling: 2-second segmentation, face cropping, 4:1 splitting.

Sources are described by JSON metadata; clips are JSON-lines records.  All
writers are byte-deterministic, and unknown manifest fields survive a
read/write round trip verbatim.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

CLIP_FPS = 25.0
CLIP_SECONDS = 2.0
CLIP_FRAMES = int(CLIP_FPS * CLIP_SECONDS)  # 50


def _is_count(v) -> bool:
    """A non-negative int that is not a bool: the rule for every frame index and pixel size."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _is_finite_number(v) -> bool:
    """An int or float that is not a bool and that a float holds finitely (not NaN, not inf)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


@dataclass
class SourceMeta:
    """One source video's metadata, with face boxes at keyframes."""

    source_id: str
    duration_s: float
    fps: float
    width: int
    height: int
    face_bboxes: list[tuple[int, tuple[int, int, int, int]]] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.source_id, str) or not self.source_id:
            raise ValueError(f"SourceMeta: source_id must be a non-empty string, "
                             f"got {self.source_id!r}")
        for name in ("duration_s", "fps"):
            v = getattr(self, name)
            if not (_is_finite_number(v) and v > 0):
                raise ValueError(f"SourceMeta {self.source_id}: {name} must be a finite positive "
                                 f"number, got {v!r}")
        if not _is_finite_number(self.duration_s * self.fps):
            raise ValueError(f"SourceMeta {self.source_id}: frame count duration_s * fps "
                             f"is not finite")
        for name in ("width", "height"):
            v = getattr(self, name)
            if not _is_count(v):
                raise ValueError(f"SourceMeta {self.source_id}: {name} must be a non-negative "
                                 f"int, got {v!r}")
        keyframes = set()
        for frame, box in self.face_bboxes:
            if not _is_count(frame):
                raise ValueError(f"SourceMeta {self.source_id}: keyframe must be a non-negative "
                                 f"int, got {frame!r}")
            if frame in keyframes:
                raise ValueError(f"SourceMeta {self.source_id}: two boxes at keyframe {frame}")
            keyframes.add(frame)
            if not isinstance(box, (list, tuple)) or len(box) != 4 or not all(map(_is_count, box)):
                raise ValueError(f"SourceMeta {self.source_id}: bbox at frame {frame} must be "
                                 f"four non-negative ints, got {box!r}")
            x, y, w, h = box
            if x + w > self.width or y + h > self.height:
                raise ValueError(
                    f"SourceMeta {self.source_id}: bbox {(x, y, w, h)} at frame {frame} "
                    f"outside {self.width}x{self.height}")
        self.face_bboxes = [(frame, tuple(box)) for frame, box in self.face_bboxes]

    @classmethod
    def from_json_dict(cls, d: dict) -> "SourceMeta":
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})

    def to_json_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["face_bboxes"] = [[f, list(b)] for f, b in self.face_bboxes]
        return d


@dataclass
class ClipRecord:
    """One 2-second clip at 25 fps, with asset paths relative to a data root."""

    source_id: str
    start_frame: int
    end_frame: int
    fps: float = CLIP_FPS
    crop_box: tuple[int, int, int, int] = (0, 0, 0, 0)
    landmark_path: str = ""
    beats_path: str = ""
    frames_path: str = ""
    split: str = ""
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.source_id, str) or not self.source_id:
            raise ValueError(f"ClipRecord: source_id must be a non-empty string, "
                             f"got {self.source_id!r}")
        box = self.crop_box
        if not isinstance(box, (list, tuple)) or len(box) != 4 or not all(map(_is_count, box)):
            raise ValueError(f"ClipRecord {self.source_id}: crop_box must be four "
                             f"non-negative ints, got {box!r}")
        if any(box) and not (box[2] > 0 and box[3] > 0):
            raise ValueError(f"ClipRecord {self.source_id}: crop_box {list(box)} needs a positive "
                             f"width and height (all zeros means no crop)")
        self.crop_box = tuple(box)
        for name in ("start_frame", "end_frame"):
            v = getattr(self, name)
            if not _is_count(v):
                raise ValueError(f"ClipRecord {self.source_id}: {name} must be a non-negative "
                                 f"int, got {v!r}")
        if self.fps != CLIP_FPS:
            raise ValueError(f"ClipRecord {self.source_id}: fps must be {CLIP_FPS}, got {self.fps}")
        if self.end_frame - self.start_frame != CLIP_FRAMES:
            raise ValueError(
                f"ClipRecord {self.source_id}: clips span {CLIP_FRAMES} frames, got "
                f"[{self.start_frame}, {self.end_frame})")
        if self.split not in ("", "train", "test"):
            raise ValueError(f"ClipRecord {self.source_id}: bad split {self.split!r}")
        for name in ("landmark_path", "beats_path", "frames_path"):
            rel = getattr(self, name)
            if not isinstance(rel, str) or os.path.isabs(rel) or \
                    os.path.normpath(rel).split(os.sep)[0] == os.pardir:
                raise ValueError(f"ClipRecord {self.source_id}: {name} must be a path inside "
                                 f"the data root, got {rel!r}")

    @property
    def clip_id(self) -> str:
        return f"{self.source_id}_{self.start_frame:06d}"

    def to_json_dict(self) -> dict:
        d = {k: getattr(self, k) for k in _RECORD_FIELDS}
        d["crop_box"] = list(self.crop_box)
        d.update(self.extra)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ClipRecord":
        d = dict(d)
        known = {k: d.pop(k) for k in _RECORD_FIELDS if k in d}
        return cls(**known, extra=d)


_RECORD_FIELDS = tuple(f.name for f in fields(ClipRecord) if f.name != "extra")


# -- operations ---------------------------------------------------------------------


def segment_clips(meta: SourceMeta, ratio: float = 0.8) -> list[ClipRecord]:
    """Non-overlapping 50-frame windows; the trailing remainder is dropped.

    Each clip's crop box comes from the latest face keyframe at or before
    its start (the first keyframe if none precede it).  `ratio` is checked
    even when the source has no face box.
    """
    check_face_ratio(ratio)
    if meta.fps != CLIP_FPS:
        raise ValueError(
            f"segment_clips: {meta.source_id} has fps {meta.fps}; resample to {CLIP_FPS} upstream")
    total_frames = int(meta.duration_s * CLIP_FPS)
    records = []
    for i in range(total_frames // CLIP_FRAMES):
        start = i * CLIP_FRAMES
        box = bbox_for_frame(meta, start)
        crop = crop_box(box, meta.width, meta.height, ratio=ratio) if box else (0, 0, 0, 0)
        cid = f"{meta.source_id}_{start:06d}"
        records.append(ClipRecord(
            source_id=meta.source_id, start_frame=start, end_frame=start + CLIP_FRAMES,
            crop_box=crop,
            landmark_path=f"{meta.source_id}/{cid}_landmarks.csv",
            beats_path=f"{meta.source_id}/{cid}_beats.txt",
            frames_path=f"{meta.source_id}/{cid}.sgtf",
        ))
    return records


def bbox_for_frame(meta: SourceMeta, frame: int):
    """Box of the latest keyframe at or before `frame`, else of the earliest keyframe."""
    keyframes = sorted(meta.face_bboxes)
    if not keyframes:
        return None
    chosen = keyframes[0][1]
    for key, box in keyframes:
        if key > frame:
            break
        chosen = box
    return chosen


def check_face_ratio(ratio: float) -> None:
    """Reject a face ratio (the share of the crop side the face fills) outside (0, 1]."""
    if not 0 < ratio <= 1:
        raise ValueError(f"face ratio must be in (0, 1], got {ratio}")


def crop_box(face_bbox: tuple[int, int, int, int], frame_w: int, frame_h: int,
             ratio: float = 0.8) -> tuple[int, int, int, int]:
    """Square crop around the face, face occupying `ratio` of the crop side.

    Centered on the bbox center with side max(bw, bh)/ratio, shifted inside
    the frame; the side shrinks only when it exceeds the frame itself.
    """
    bx, by, bw, bh = face_bbox
    if bw <= 0 or bh <= 0:
        raise ValueError(f"crop_box: degenerate face bbox {face_bbox}")
    check_face_ratio(ratio)
    side = int(round(max(bw, bh) / ratio))
    side = min(side, frame_w, frame_h)
    cx = bx + bw / 2.0
    cy = by + bh / 2.0
    x0 = int(round(cx - side / 2.0))
    y0 = int(round(cy - side / 2.0))
    x0 = min(max(x0, 0), frame_w - side)
    y0 = min(max(y0, 0), frame_h - side)
    return (x0, y0, side, side)


def split_dataset(records: list[ClipRecord], seed: int,
                  train_parts: int = 4, test_parts: int = 1) -> list[ClipRecord]:
    """Assign train/test labels by subject, as close to the ratio as sources allow.

    All clips of one source land in the same split (no identity leakage).
    Sources are shuffled with the seed, accumulated into train up to the
    clip-count target; the boundary source stays in train only if that is
    at least as close to the target.
    """
    if not records:
        raise ValueError("split_dataset: empty record list")
    if train_parts < 0 or test_parts < 0 or train_parts + test_parts == 0:
        raise ValueError(f"split_dataset: ratio parts must be non-negative with a positive sum, "
                         f"got {train_parts}:{test_parts}")
    sizes = Counter(rec.source_id for rec in records)  # clips per source, first-seen order
    sources = list(sizes)
    target = len(records) * train_parts / (train_parts + test_parts)
    count = 0
    taken: list[str] = []
    for i in np.random.default_rng(seed).permutation(len(sources)):
        if count >= target:
            break
        taken.append(sources[i])
        count += sizes[sources[i]]
    if taken and abs(count - target) > abs(count - sizes[taken[-1]] - target):
        taken.pop()
    train = set(taken)
    return [replace(rec, split="train" if rec.source_id in train else "test", extra=dict(rec.extra))
            for rec in records]


# -- manifest I/O -----------------------------------------------------------------------


def _write_jsonl(path, items) -> None:
    Path(path).write_text("".join(json.dumps(item.to_json_dict()) + "\n" for item in items))


def _read_jsonl(path, parse, what: str) -> list:
    out = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: malformed JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{lineno}: bad {what}: expected a JSON object")
        try:
            out.append(parse(obj))
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad {what}: {exc}") from None
    return out


def write_manifest(path, records: list[ClipRecord]) -> None:
    """JSON-lines, one record per line, canonical field order."""
    _write_jsonl(path, records)


def read_manifest(path) -> list[ClipRecord]:
    return _read_jsonl(path, ClipRecord.from_json_dict, "record")


def write_sources(path, sources: list[SourceMeta]) -> None:
    _write_jsonl(path, sources)


def read_sources(path) -> list[SourceMeta]:
    """Sources from JSON lines, each source id on one line only."""
    seen: set[str] = set()

    def parse(obj: dict) -> SourceMeta:
        src = SourceMeta.from_json_dict(obj)
        if src.source_id in seen:
            raise ValueError(f"repeated source_id {src.source_id!r}")
        seen.add(src.source_id)
        return src

    return _read_jsonl(path, parse, "source")
