"""Binary grid files with a JSON header, plus a PGM preview writer.

Layout of a .nfg file:

    8 bytes magic  b"NFGRID1\\n"
    8 bytes little-endian uint64: header length L
    L bytes UTF-8 JSON header
    raw little-endian array payloads, C order, concatenated

The header carries {"arrays": [{name, dtype, shape, offset}...],
"meta": {...}} where meta holds grid spec, (V, W), N, etc.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"NFGRID1\n"


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, (tuple, set)):
        return list(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_bundle(path, arrays: dict, meta: dict | None = None):
    """Write named arrays + metadata to one binary grid file."""
    path = Path(path)
    entries = []
    offset = 0
    blobs = []
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr)
        blob = a.tobytes()
        entries.append(
            {"name": name, "dtype": a.dtype.name, "shape": list(a.shape),
             "offset": offset}
        )
        offset += len(blob)
        blobs.append(blob)
    header = {"arrays": entries, "meta": meta or {}}
    hb = json.dumps(header, sort_keys=True, default=_json_default).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(hb)))
        fh.write(hb)
        for blob in blobs:
            fh.write(blob)


def read_bundle(path):
    """Read a binary grid file -> (dict name->array, meta dict)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a NFGRID1 file")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode())
        payload = fh.read()
    arrays = {}
    for ent in header["arrays"]:
        dt = np.dtype(ent["dtype"])
        count = int(np.prod(ent["shape"])) if ent["shape"] else 1
        arr = np.frombuffer(
            payload, dtype=dt, count=count, offset=ent["offset"]
        ).reshape(ent["shape"])
        arrays[ent["name"]] = arr
    return arrays, header["meta"]


_PGM_MAXVAL = 255  # grey levels 0 .. 255


def write_pgm(path, array2d):
    """ASCII PGM preview of a 2-D array (row 0 at top)."""
    a = np.asarray(array2d, dtype=float)
    lo, hi = float(a.min()), float(a.max())
    scale = (_PGM_MAXVAL / (hi - lo)) if hi > lo else 0.0
    img = np.round((a - lo) * scale).astype(int)
    lines = [f"P2", f"{a.shape[1]} {a.shape[0]}", f"{_PGM_MAXVAL}"]
    for row in img:
        lines.append(" ".join(str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
