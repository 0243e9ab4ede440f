"""Binary tensor container round trips."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveletcond.sgtf import load_params, read_tensor, save_params, write_tensor
from waveletcond.tensor import Tensor


def test_roundtrip_f64_bit_exact(tmp_path):
    x = np.random.default_rng(0).standard_normal((3, 4, 5))
    path = tmp_path / "x.sgtf"
    write_tensor(path, x)
    back = read_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, x)
    # writing the read-back produces identical bytes
    path2 = tmp_path / "y.sgtf"
    write_tensor(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_roundtrip_f32(tmp_path):
    x = np.random.default_rng(1).standard_normal((2, 2)).astype(np.float32)
    path = tmp_path / "x.sgtf"
    write_tensor(path, x)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, x)


def test_roundtrip_scalar_rank0(tmp_path):
    path = tmp_path / "s.sgtf"
    write_tensor(path, np.asarray(3.5))
    back = read_tensor(path)
    assert back.shape == ()
    assert back == 3.5


def test_io_copies_no_payload(tmp_path):
    arr = np.random.default_rng(2).standard_normal((50, 1, 64, 64))  # one score clip, 1.6 MB
    path = tmp_path / "clip.sgtf"
    tracemalloc.start()
    try:
        write_tensor(path, arr)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        got = read_tensor(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, arr)
    assert got.flags.writeable and got.flags.c_contiguous
    assert write_peak < 0.25 * arr.nbytes   # no bytes copy of the payload
    assert read_peak < 1.25 * arr.nbytes    # the returned array only


def test_header_layout(tmp_path):
    path = tmp_path / "x.sgtf"
    write_tensor(path, np.zeros((2, 3)))
    raw = path.read_bytes()
    assert raw[:4] == b"SGTF"
    assert raw[4] == 1          # version
    assert raw[5] == 0          # f64
    assert int.from_bytes(raw[6:10], "little") == 2  # rank
    assert int.from_bytes(raw[10:18], "little") == 2
    assert int.from_bytes(raw[18:26], "little") == 3
    assert len(raw) == 26 + 6 * 8


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.sgtf"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError, match="magic"):
        read_tensor(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "x.sgtf"
    write_tensor(path, np.zeros(4))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="size mismatch"):
        read_tensor(path)


def _header(rank, dims=()):
    return b"SGTF" + struct.pack("<BBI", 1, 0, rank) + struct.pack(f"<{len(dims)}Q", *dims)


@pytest.mark.parametrize("raw, match", [
    pytest.param(_header(3), "truncated header", id="rank-without-dims"),
    pytest.param(_header(2, (2**32, 2**32)), "size mismatch", id="count-wraps-int64"),
    pytest.param(_header(65, (1,) * 65) + bytes(8), "rank 65", id="rank-65"),
])
def test_rejects_hostile_header(tmp_path, raw, match):
    path = tmp_path / "x.sgtf"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=match):
        read_tensor(path)


@st.composite
def header_shaped(draw):
    """Magic, random version/code/rank and dims, then a payload that sometimes fits them."""
    version = draw(st.just(1) | st.integers(0, 255))
    code = draw(st.sampled_from([0, 1]) | st.integers(0, 255))
    dims = draw(st.lists(st.integers(0, 4) | st.integers(0, 2**64 - 1), max_size=5))
    rank = draw(st.just(len(dims)) | st.integers(0, 8) | st.integers(0, 2**32 - 1))
    count = math.prod(dims)
    fits = bytes(8 * count) if count <= 64 else b""
    payload = draw(st.just(fits) | st.binary(max_size=64))
    return (b"SGTF" + struct.pack("<BBI", version, code, rank)
            + struct.pack(f"<{len(dims)}Q", *dims) + payload)


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=96) | st.binary(max_size=96).map(b"SGTF".__add__)
       | header_shaped())
def test_read_tensor_returns_or_raises_value_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "x.sgtf"
    path.write_bytes(raw)
    try:
        out = read_tensor(path)
    except ValueError:
        return
    assert isinstance(out, np.ndarray)


def test_params_dir_roundtrip(tmp_path):
    r = np.random.default_rng(2)
    params = {
        "msm.w": Tensor(r.standard_normal((2, 1, 4, 4)), requires_grad=True),
        "sfm.gate_b": Tensor(r.standard_normal(3), requires_grad=True),
    }
    save_params(tmp_path / "run", params)
    back = load_params(tmp_path / "run")
    assert set(back) == set(params)
    for k in params:
        assert np.array_equal(back[k].data, params[k].data)
        assert not back[k].requires_grad


def test_load_params_requires_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ValueError, match="manifest"):
        load_params(tmp_path / "empty")


def test_load_params_rejects_names_outside_dir(tmp_path):
    write_tensor(tmp_path / "secret.sgtf", np.zeros(2))
    run = tmp_path / "run"
    save_params(run, {"w": Tensor(np.ones(2))})
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["tensors"] = ["../secret"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="plain file name"):
        load_params(run)


@pytest.mark.parametrize("manifest", [
    [1, 2],
    {"format": "sgtf-params", "tensors": 5},
    {"format": "sgtf-params", "tensors": ["w", 3]},
])
def test_load_params_rejects_bad_manifest_shape(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=str(tmp_path)):
        load_params(tmp_path)
