"""Binary checkpoint container for resumable runs.

Layout (documented here and in the README):

    bytes 0..7    magic b"CWCHKPT1"
    bytes 8..11   uint32 little-endian header length H
    bytes 12..    H bytes of UTF-8 JSON header:
                  {"version": 2, "n_points": n, "length": L,
                   "dealias_fraction": d, "sigma": s, "time": t,
                   "fields": ["Zdev", "Zp", "Zt"]}
    then          three complex fields, each n little-endian float64
                  (re, im) pairs in grid order, and nothing after them

Round-trips are bit-exact; a file of any other length is refused.  Version
1 adds the branch g of arg(Z_ap) as n little-endian float64; it loads only
if g is bit for bit seed_angle of its Z_ap, the branch the state derives.
"""

from __future__ import annotations

import json
import struct
import sys

import numpy as np

from .evolution import make_state
from .spectral import SpectralGrid, same_bytes

MAGIC = b"CWCHKPT1"
_FLOAT_MAX = sys.float_info.max


def save_checkpoint(path, state):
    grid = state.grid
    header = {
        "version": 2,
        "n_points": grid.n,
        "length": grid.length,
        "dealias_fraction": grid.dealias_fraction,
        "sigma": state.sigma,
        "time": state.time,
        "fields": ["Zdev", "Zp", "Zt"],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in (state.Zdev, state.Zp, state.Zt):
            fh.write(np.ascontiguousarray(arr, dtype="<c16").tobytes())


def load_checkpoint(path):
    """State stored by save_checkpoint; raises ValueError on a file that is
    not a checkpoint, is cut short or has trailing bytes, on a header that
    does not decode, too deeply nested ones included, or is not a JSON
    object with version 1 or 2 (an integer) and numeric grid, sigma and
    time fields, on fields that make_state rejects and on a version 1 angle
    block that is not the branch of its Z_ap."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != MAGIC:
        raise ValueError(f"not a crestwave checkpoint (magic {data[:8]!r})")
    if len(data) < 12:
        raise ValueError("checkpoint header is cut short")
    (hlen,) = struct.unpack_from("<I", data, 8)
    if 12 + hlen > len(data):
        raise ValueError(f"checkpoint header of {hlen} bytes runs past the end of the file")
    try:
        header = json.loads(data[12 : 12 + hlen].decode("utf-8"))
    except RecursionError:
        raise ValueError("checkpoint header nests too deeply to decode") from None
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint header is not a JSON object: {header!r}")
    version = header.get("version")
    # an exact int: True and 1.0 compare equal to 1 but are no version
    if type(version) is not int or version not in (1, 2):
        raise ValueError(f"unsupported checkpoint version {version!r}")
    n, length, dealias, sigma, time = (_header_number(header, key) for key in _NUMBERS)
    body = data[12 + hlen :]
    size = (48 + 8 * (version == 1)) * n
    if len(body) != size:
        raise ValueError(f"checkpoint fields take {len(body)} bytes, expected {size} for n = {n}")
    grid = SpectralGrid(n, length, dealias)
    fields = np.frombuffer(body, dtype="<c16", count=3 * n).astype(np.complex128).reshape(3, n)
    state = make_state(grid, *fields, sigma, time)
    if version == 1 and not same_bytes((np.frombuffer(body, "<f8", offset=48 * n),), (state.g,)):
        raise ValueError("checkpoint angle block is not the branch seed_angle takes from Z_ap")
    return state


# the numeric header fields, in the order load_checkpoint reads them
_NUMBERS = ("n_points", "length", "dealias_fraction", "sigma", "time")


def _header_number(header, key):
    """header[key] as an int for n_points and a float otherwise; ValueError
    unless it is a finite JSON number, and an integer for n_points."""
    value = header.get(key)
    kinds = int if key == "n_points" else (int, float)
    # bool is an int subclass; NaN and numbers beyond float range fail the bound
    if isinstance(value, bool) or not isinstance(value, kinds) or not abs(value) <= _FLOAT_MAX:
        kind = "an integer" if key == "n_points" else "a finite number"
        raise ValueError(f"checkpoint header field {key} = {value!r} is not {kind}")
    return value if key == "n_points" else float(value)
