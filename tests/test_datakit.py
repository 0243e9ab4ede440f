"""Manifest tooling: segmentation, face cropping, subject splitting, JSONL I/O."""

import json

import numpy as np
import pytest

from waveletcond.datakit import (
    CLIP_FRAMES,
    ClipRecord,
    SourceMeta,
    bbox_for_frame,
    crop_box,
    read_manifest,
    read_sources,
    segment_clips,
    split_dataset,
    write_manifest,
    write_sources,
)


def make_source(sid="src0", duration=10.0, w=512, h=512, bboxes=None):
    if bboxes is None:
        bboxes = [(0, (100, 100, 80, 80))]
    return SourceMeta(source_id=sid, duration_s=duration, fps=25.0, width=w, height=h,
                      face_bboxes=bboxes)


def make_record(sid="s", start=0, split="", extra=None):
    return ClipRecord(source_id=sid, start_frame=start, end_frame=start + CLIP_FRAMES,
                      split=split, extra=extra or {})


# -- segmentation -----------------------------------------------------------------


def test_segment_ten_seconds_gives_five_clips():
    records = segment_clips(make_source(duration=10.0))
    assert len(records) == 5
    assert [(r.start_frame, r.end_frame) for r in records] == \
        [(0, 50), (50, 100), (100, 150), (150, 200), (200, 250)]


def test_segment_too_short_gives_empty():
    assert segment_clips(make_source(duration=1.9)) == []


def test_segment_drops_trailing_remainder():
    records = segment_clips(make_source(duration=5.3))
    assert len(records) == 2
    assert records[-1].end_frame == 100


def test_segment_windows_tile_prefix_disjointly():
    records = segment_clips(make_source(duration=12.34))
    covered = []
    for r in records:
        covered.extend(range(r.start_frame, r.end_frame))
    assert covered == list(range(50 * len(records)))


def test_segment_rejects_wrong_fps():
    src = make_source()
    src = SourceMeta(source_id=src.source_id, duration_s=src.duration_s, fps=30.0,
                     width=src.width, height=src.height, face_bboxes=src.face_bboxes)
    with pytest.raises(ValueError, match="fps"):
        segment_clips(src)


def test_segment_uses_latest_keyframe_bbox():
    src = make_source(duration=4.0, bboxes=[(0, (10, 10, 80, 80)), (50, (200, 200, 80, 80))])
    records = segment_clips(src)
    assert records[0].crop_box != records[1].crop_box
    assert bbox_for_frame(src, 0) == (10, 10, 80, 80)
    assert bbox_for_frame(src, 60) == (200, 200, 80, 80)


def test_segment_falls_back_to_earliest_keyframe_not_first_listed():
    # keyframes listed out of order: a clip before every keyframe takes the earliest one
    src = make_source(duration=2.0, bboxes=[(100, (200, 200, 80, 80)), (50, (10, 10, 80, 80))])
    assert bbox_for_frame(src, 0) == (10, 10, 80, 80)
    assert segment_clips(src)[0].crop_box == crop_box((10, 10, 80, 80), 512, 512)


def test_segment_asset_path_conventions():
    rec = segment_clips(make_source(sid="abc", duration=2.0))[0]
    assert rec.clip_id == "abc_000000"
    assert rec.landmark_path == "abc/abc_000000_landmarks.csv"
    assert rec.beats_path == "abc/abc_000000_beats.txt"
    assert rec.frames_path == "abc/abc_000000.sgtf"


# -- crop boxes --------------------------------------------------------------------


def test_crop_box_centered_square():
    assert crop_box((100, 100, 80, 80), 512, 512, ratio=0.8) == (90, 90, 100, 100)


def test_crop_box_ratio_one_square_bbox_is_identity():
    assert crop_box((37, 41, 64, 64), 512, 512, ratio=1.0) == (37, 41, 64, 64)


def test_crop_box_corner_shifts_inward_preserving_side():
    x, y, side, side2 = crop_box((0, 0, 80, 80), 512, 512, ratio=0.8)
    assert (side, side2) == (100, 100)
    assert x == 0 and y == 0  # shifted inward, not shrunk


def test_crop_box_clamping_enumeration():
    # oracle: brute-force clamp checks at every corner and edge
    fw = fh = 200
    for bx in (0, 5, 60, 110):
        for by in (0, 5, 60, 110):
            bw = bh = 80
            if bx + bw > fw or by + bh > fh:
                continue
            x, y, s, s2 = crop_box((bx, by, bw, bh), fw, fh, ratio=0.8)
            assert s == s2 == 100
            assert 0 <= x <= fw - s and 0 <= y <= fh - s
            # the crop center sits as close to the bbox center as the clamp allows
            cx, cy = bx + 40, by + 40
            want_x = min(max(round(cx - 50), 0), fw - s)
            want_y = min(max(round(cy - 50), 0), fh - s)
            assert (x, y) == (want_x, want_y)


def test_crop_box_shrinks_only_when_larger_than_frame():
    x, y, s, _ = crop_box((10, 10, 90, 90), 100, 100, ratio=0.8)
    assert s == 100  # 90/0.8 = 112.5 -> clamped to the 100px frame
    assert (x, y) == (0, 0)


def test_crop_box_rejects_degenerate_bbox():
    with pytest.raises(ValueError, match="degenerate"):
        crop_box((10, 10, 0, 5), 100, 100)


# -- splitting -----------------------------------------------------------------------


def test_split_five_singleton_sources():
    records = [make_record(sid=f"s{i}") for i in range(5)]
    out = split_dataset(records, seed=0)
    labels = [r.split for r in out]
    assert labels.count("train") == 4 and labels.count("test") == 1


def test_split_deterministic():
    records = [make_record(sid=f"s{i}") for i in range(10)]
    a = [(r.source_id, r.split) for r in split_dataset(records, seed=3)]
    b = [(r.source_id, r.split) for r in split_dataset(records, seed=3)]
    assert a == b


def test_split_subject_disjoint():
    records = []
    for i in range(6):
        for start in (0, 50, 100):
            records.append(make_record(sid=f"s{i}", start=start))
    out = split_dataset(records, seed=7)
    per_source = {}
    for r in out:
        per_source.setdefault(r.source_id, set()).add(r.split)
    assert all(len(v) == 1 for v in per_source.values())
    assert {r.split for r in out} == {"train", "test"}


def test_split_700_clips_lands_within_one_of_target():
    # sizes 2 and 3 per source guarantee a prefix sum within 1 of 560
    rng = np.random.default_rng(0)
    records = []
    total, i = 0, 0
    while total < 700:
        size = 2 if (700 - total == 2 or rng.integers(2) == 0) else 3
        size = min(size, 700 - total)
        for j in range(size):
            records.append(make_record(sid=f"s{i}", start=50 * j))
        total += size
        i += 1
    assert total == 700
    out = split_dataset(records, seed=11)
    n_train = sum(1 for r in out if r.split == "train")
    assert n_train in (559, 560, 561)
    assert len(out) - n_train == 700 - n_train


def test_split_is_partition():
    records = [make_record(sid=f"s{i}") for i in range(9)]
    out = split_dataset(records, seed=5)
    assert len(out) == len(records)
    assert all(r.split in ("train", "test") for r in out)


def test_split_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        split_dataset([], seed=0)


# -- manifest I/O ---------------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    records = segment_clips(make_source(duration=6.0))
    path = tmp_path / "m.jsonl"
    write_manifest(path, records)
    back = read_manifest(path)
    assert back == records


def test_manifest_empty_file(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("")
    assert read_manifest(path) == []


def test_manifest_unknown_field_preserved_byte_exact(tmp_path):
    rec = make_record(sid="x", extra={"quality": 0.93, "note": "ok"})
    path = tmp_path / "m.jsonl"
    write_manifest(path, [rec])
    original = path.read_bytes()
    back = read_manifest(path)
    assert back[0].extra == {"quality": 0.93, "note": "ok"}
    path2 = tmp_path / "m2.jsonl"
    write_manifest(path2, back)
    assert path2.read_bytes() == original


def test_manifest_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "m.jsonl"
    good = json.dumps(make_record().to_json_dict())
    path.write_text(good + "\n{not json\n")
    with pytest.raises(ValueError, match=":2"):
        read_manifest(path)


def test_manifest_write_byte_deterministic(tmp_path):
    records = segment_clips(make_source(duration=6.0))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_manifest(p1, records)
    write_manifest(p2, records)
    assert p1.read_bytes() == p2.read_bytes()


def test_sources_roundtrip(tmp_path):
    sources = [make_source(sid="a"), make_source(sid="b", duration=3.5)]
    path = tmp_path / "s.jsonl"
    write_sources(path, sources)
    assert read_sources(path) == sources


# -- record validation ------------------------------------------------------------------


def test_clip_record_validates_length():
    with pytest.raises(ValueError, match="50 frames"):
        ClipRecord(source_id="x", start_frame=0, end_frame=49)


@pytest.mark.parametrize("start, end", [(-50, 0), (1.5, 51.5), (True, 51), (0, 50.0)])
def test_clip_record_frames_are_non_negative_ints(start, end):
    with pytest.raises(ValueError, match="_frame must be a non-negative int"):
        ClipRecord(source_id="x", start_frame=start, end_frame=end)


def test_clip_record_validates_fps():
    with pytest.raises(ValueError, match="fps"):
        ClipRecord(source_id="x", start_frame=0, end_frame=50, fps=30.0)


@pytest.mark.parametrize("value", [5, None, ["a"], "/etc/hostname", "..", "../gt/c.beats",
                                   "a/../../b"])
def test_clip_record_rejects_paths_that_are_not_inside_a_root(value):
    for field in ("landmark_path", "beats_path", "frames_path"):
        with pytest.raises(ValueError, match=field):
            ClipRecord(source_id="x", start_frame=0, end_frame=50, **{field: value})


def test_clip_record_accepts_relative_paths_inside_a_root():
    for value in ("", "a.csv", "s/a.csv", "s/../a.csv", "./a.csv", "..a/b.csv"):
        ClipRecord(source_id="x", start_frame=0, end_frame=50, landmark_path=value)


def test_clip_record_validates_split_label():
    with pytest.raises(ValueError, match="split"):
        ClipRecord(source_id="x", start_frame=0, end_frame=50, split="val")


def test_source_meta_validates_bbox_bounds():
    with pytest.raises(ValueError, match="outside"):
        make_source(bboxes=[(0, (500, 500, 80, 80))])


# bools, strings, NaN and 1e308 are covered through the CLI by the HOSTILE_ARGV cases
@pytest.mark.parametrize("duration", [None, -1.0, 0, 10**400],
                         ids=["none", "negative", "zero", "huge_int"])
def test_source_meta_duration_must_be_a_finite_positive_number(duration):
    with pytest.raises(ValueError, match="duration_s must be a finite positive number"):
        make_source(duration=duration)


def test_source_meta_rejects_a_frame_count_past_float_range():
    # both factors are finite, but duration_s * fps is not
    with pytest.raises(ValueError, match="frame count"):
        make_source(duration=10**307)


@pytest.mark.parametrize("sid", ["", None])
def test_source_meta_source_id_must_be_a_non_empty_string(sid):
    with pytest.raises(ValueError, match="source_id must be a non-empty string"):
        make_source(sid=sid)


def test_source_meta_keeps_an_int_duration_as_given():
    src = SourceMeta.from_json_dict({"source_id": "s", "duration_s": 4, "fps": 25,
                                     "width": 8, "height": 8, "unknown": 1})
    assert src.duration_s == 4 and type(src.duration_s) is int
    assert len(segment_clips(src)) == 2
