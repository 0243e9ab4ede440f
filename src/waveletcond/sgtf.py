"""SGTF binary tensor container and parameter-directory serialization.

Layout: magic b"SGTF", u8 version (1), u8 dtype code (0=f64, 1=f32),
u32 rank, rank x u64 dims, then raw little-endian element data in
row-major order.  All integers little-endian.  Round trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"SGTF"
VERSION = 1
MAX_RANK = 64  # numpy's limit; also bounds the element-count product

_DTYPE_CODE = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_CODE_DTYPE = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


def write_tensor(path, tensor) -> None:
    """Write a Tensor or ndarray to an SGTF file, streaming the element data without a copy."""
    arr = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
    if arr.dtype not in _DTYPE_CODE:
        raise ValueError(f"SGTF supports f64/f32 only, got dtype {arr.dtype}")
    code = _DTYPE_CODE[arr.dtype]
    header = MAGIC + struct.pack("<BBI", VERSION, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    payload = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"), copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_tensor(path) -> np.ndarray:
    """Read an SGTF file back into a numpy array.

    The element data is read straight into the returned array, so a file
    never sits in memory twice.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(10)
        if len(head) < 10 or head[:4] != MAGIC:
            raise ValueError(f"{path}: not an SGTF file (bad magic)")
        version, code, rank = struct.unpack_from("<BBI", head, 4)
        if version != VERSION:
            raise ValueError(f"{path}: unsupported SGTF version {version}")
        if code not in _CODE_DTYPE:
            raise ValueError(f"{path}: unknown dtype code {code}")
        if rank > MAX_RANK:
            raise ValueError(f"{path}: rank {rank} exceeds the maximum of {MAX_RANK}")
        offset = 10 + 8 * rank
        if size < offset:
            raise ValueError(f"{path}: truncated header, rank {rank} needs {offset} bytes, "
                             f"got {size}")
        dims = struct.unpack(f"<{rank}Q", fh.read(8 * rank))
        dtype = _CODE_DTYPE[code]
        count = math.prod(dims)  # exact: np.prod would wrap on large u64 dims
        expected = offset + count * dtype.itemsize
        if size != expected:
            raise ValueError(f"{path}: size mismatch, expected {expected} bytes, got {size}")
        data = np.empty(dims, dtype=dtype)
        if fh.readinto(data) != data.nbytes:
            raise ValueError(f"{path}: file shrank while being read")
    return data.astype(dtype.newbyteorder("="), copy=False)


def save_params(dirpath, params: dict[str, Tensor]) -> None:
    """Write a named parameter set as one SGTF file per tensor plus a manifest."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    names = sorted(params)
    for name in names:
        write_tensor(d / f"{name}.sgtf", params[name])
    manifest = {"format": "sgtf-params", "version": 1, "tensors": names}
    (d / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_params(dirpath) -> dict[str, Tensor]:
    """Load a parameter directory written by save_params, as constant tensors.

    A parameter file that holds a NaN or infinite value is an error naming it.
    """
    d = Path(dirpath)
    manifest_path = d / "manifest.json"
    if not manifest_path.exists():
        raise ValueError(f"{dirpath}: missing manifest.json")
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict) or manifest.get("format") != "sgtf-params":
        raise ValueError(f"{dirpath}: not a parameter directory")
    names = manifest.get("tensors")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ValueError(f"{dirpath}: manifest 'tensors' must be a list of names")
    params: dict[str, Tensor] = {}
    for name in names:
        if Path(name).name != name:
            raise ValueError(f"{dirpath}: tensor name {name!r} is not a plain file name")
        path = d / f"{name}.sgtf"
        data = read_tensor(path)
        if not np.isfinite(data).all():
            raise ValueError(f"{path}: parameter holds a non-finite value")
        params[name] = Tensor(data)
    return params
