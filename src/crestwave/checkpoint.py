"""Binary checkpoint container for resumable runs.

Layout (documented here and in the README):

    bytes 0..7    magic b"CWCHKPT1"
    bytes 8..11   uint32 little-endian header length H
    bytes 12..    H bytes of UTF-8 JSON header:
                  {"version": 1, "n_points": n, "length": L,
                   "dealias_fraction": d, "sigma": s, "time": t,
                   "fields": ["Zdev", "Zp", "Zt"], "angle_field": true}
    then          three complex fields, each n little-endian float64
                  (re, im) pairs in grid order, followed by the tracked
                  angle branch g as n little-endian float64, and nothing
                  after it

Round-trips are bit-exact; a file of any other length is refused.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .evolution import make_state
from .spectral import SpectralGrid

MAGIC = b"CWCHKPT1"


def save_checkpoint(path, state):
    grid = state.grid
    header = {
        "version": 1,
        "n_points": grid.n,
        "length": grid.length,
        "dealias_fraction": grid.dealias_fraction,
        "sigma": state.sigma,
        "time": state.time,
        "fields": ["Zdev", "Zp", "Zt"],
        "angle_field": True,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in (state.Zdev, state.Zp, state.Zt):
            fh.write(np.ascontiguousarray(arr, dtype="<c16").tobytes())
        fh.write(np.ascontiguousarray(state.g, dtype="<f8").tobytes())


def load_checkpoint(path):
    """State stored by save_checkpoint; raises ValueError on a file that is
    not a checkpoint, is cut short or has trailing bytes, and on fields that
    make_state rejects."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != MAGIC:
        raise ValueError(f"not a crestwave checkpoint (magic {data[:8]!r})")
    if len(data) < 12:
        raise ValueError("checkpoint header is cut short")
    (hlen,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12 : 12 + hlen].decode("utf-8"))
    if header.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version {header.get('version')}")
    n = int(header["n_points"])
    body = data[12 + hlen :]
    if len(body) != 56 * n:
        raise ValueError(f"checkpoint fields take {len(body)} bytes, expected {56 * n} for n = {n}")
    grid = SpectralGrid(n, float(header["length"]), float(header["dealias_fraction"]))
    fields = np.frombuffer(body, dtype="<c16", count=3 * n).astype(np.complex128).reshape(3, n)
    g = np.frombuffer(body, dtype="<f8", offset=48 * n).astype(np.float64)
    Zdev, Zp, Zt = fields
    return make_state(grid, Zdev, Zp, Zt, float(header["sigma"]), float(header["time"]), g)
