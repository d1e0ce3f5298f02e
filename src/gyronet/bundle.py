"""Single-file model container.

Layout: magic line ``GYRONET1``, a geometry tag line, a config block of UTF-8
key=value lines, then named parameter blocks (header line with name and shape,
followed by raw little-endian 8-byte floats in row-major order).  Blocks are
written in sorted name order so identical models serialize byte-identically.
"""

from __future__ import annotations

import numpy as np

MAGIC = b"GYRONET1"


class BundleError(ValueError):
    pass


def _escape(value):
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")


def _unescape(value):
    out = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", "r": "\r", "\\": "\\"}.get(nxt, nxt))
    return "".join(out)


def save_bundle(path, geometry, config, params):
    """Write geometry tag, config dict (str -> str) and parameter arrays."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(geometry.encode("utf-8") + b"\n")
        keys = sorted(config)
        fh.write(f"config {len(keys)}\n".encode("utf-8"))
        for key in keys:
            fh.write(f"{key}={_escape(str(config[key]))}\n".encode("utf-8"))
        names = sorted(params)
        fh.write(f"blocks {len(names)}\n".encode("utf-8"))
        for name in names:
            arr = np.ascontiguousarray(np.asarray(params[name], dtype="<f8"))
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {arr.ndim} {dims}".rstrip().encode("utf-8") + b"\n")
            fh.write(arr.tobytes())
            fh.write(b"\n")


def _readline(fh):
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise BundleError("unexpected end of file")
    return line[:-1].decode("utf-8")


def load_bundle(path):
    """Returns (geometry, config dict, params dict)."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC or fh.read(1) != b"\n":
            raise BundleError(f"{path}: bad magic, not a model bundle")
        geometry = _readline(fh)
        tag, count = _readline(fh).split()
        if tag != "config":
            raise BundleError(f"{path}: expected config block, got '{tag}'")
        config = {}
        for _ in range(int(count)):
            key, _, value = _readline(fh).partition("=")
            config[key] = _unescape(value)
        tag, count = _readline(fh).split()
        if tag != "blocks":
            raise BundleError(f"{path}: expected blocks header, got '{tag}'")
        params = {}
        for _ in range(int(count)):
            fields = _readline(fh).split()
            name, ndim = fields[0], int(fields[1])
            shape = tuple(int(d) for d in fields[2:2 + ndim])
            size = int(np.prod(shape)) if shape else 1
            raw = fh.read(size * 8)
            if len(raw) != size * 8:
                raise BundleError(f"{path}: truncated block '{name}'")
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if fh.read(1) != b"\n":
                raise BundleError(f"{path}: missing block terminator after '{name}'")
    return geometry, config, params
