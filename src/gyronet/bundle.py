"""Single-file model container.

Layout: magic line ``GYRONET1``, a geometry tag line, a config block of UTF-8
key=value lines, then named parameter blocks (header line with name and shape,
followed by raw little-endian 8-byte floats in row-major order).  Blocks are
written in sorted name order so identical models serialize byte-identically.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

MAGIC = b"GYRONET1"
_DIGITS = re.compile(r"[0-9]+")


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


class _Reader:
    """Line and block reads that raise :class:`BundleError` naming the file
    and the part of it being read."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size

    def fail(self, message):
        raise BundleError(f"{self.path}: {message}")

    def line(self, what):
        raw = self.fh.readline()
        if not raw.endswith(b"\n"):
            self.fail(f"unexpected end of file in {what}")
        try:
            return raw[:-1].decode("utf-8")
        except UnicodeDecodeError:
            self.fail(f"{what} is not valid UTF-8")

    def count(self, text, what):
        if not _DIGITS.fullmatch(text):
            self.fail(f"{what}: expected a non-negative integer, got {text!r}")
        return int(text)

    def header(self, tag):
        line = self.line(f"'{tag}' header")
        fields = line.split(" ")
        if len(fields) != 2 or fields[0] != tag:
            self.fail(f"expected '{tag} <count>', got {line!r}")
        return self.count(fields[1], f"'{tag}' header")

    def block(self, name, shape):
        nbytes = 8 * math.prod(shape)
        if nbytes > self.size - self.fh.tell():
            self.fail(f"truncated block '{name}'")
        values = np.frombuffer(self.fh.read(nbytes), dtype="<f8").reshape(shape)
        if not np.isfinite(values).all():
            self.fail(f"block '{name}' holds non-finite values")
        if self.fh.read(1) != b"\n":
            self.fail(f"missing block terminator after '{name}'")
        return values.copy()


def load_bundle(path):
    """Returns (geometry, config dict, params dict).

    A file that does not follow the layout exactly, or whose parameters are
    not all finite, raises :class:`BundleError` naming the file and the line
    or block at fault.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC or fh.read(1) != b"\n":
            raise BundleError(f"{path}: bad magic, not a model bundle")
        reader = _Reader(fh, path)
        geometry = reader.line("geometry tag")
        config = {}
        for i in range(reader.header("config")):
            key, eq, value = reader.line(f"config line {i + 1}").partition("=")
            if not eq or key in config:
                reader.fail(f"config line {i + 1}: expected a new key=value, got {key!r}")
            config[key] = _unescape(value)
        params = {}
        for i in range(reader.header("blocks")):
            what = f"block {i + 1} header"
            fields = reader.line(what).split(" ")
            name = fields[0]
            if len(fields) < 2 or not name or name in params:
                reader.fail(f"{what}: expected '<new name> <ndim> <dims...>', got {fields!r}")
            ndim = reader.count(fields[1], what)
            if len(fields) != 2 + ndim:
                reader.fail(f"{what}: '{name}' has ndim {ndim} but {len(fields) - 2} dims")
            shape = tuple(reader.count(d, what) for d in fields[2:])
            params[name] = reader.block(name, shape)
        if fh.read(1):
            reader.fail("unexpected data after the last block")
    return geometry, config, params
