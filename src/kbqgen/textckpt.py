"""The file format of model checkpoints, and its one checked reader and writer.

A `kbqgen-model <version>` line, `<key> <value>` header lines, blocks that each
open with a `block <name> <rows> <cols>` line followed by the block's
8*rows*cols raw little-endian float64 bytes and one `\n`, then an
`end sha256 <hex>` line: the SHA-256 of every byte before it. read() refuses
any other bytes, a truncated or altered file included, with a ConfigError
naming the line; a block's bytes and their `\n` count as one line.
write() streams block by block into a temporary file beside the target and
renames it over the target only once the file is complete.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

MAGIC = "kbqgen-model"
VERSION = 4


class ConfigError(ValueError):
    """A refused configuration or input file; the CLI exits 2 on it."""


def field(path, header, key, parse=str):
    """The value of the one `key` line of a header that read() returned."""
    try:
        (value,) = header.get(key, ())
        return parse(value)
    except (ValueError, KeyError):
        raise ConfigError(f"{path}: bad or missing {key!r} header line") from None


def write(path, header, blocks):
    """header: (key, value) pairs; blocks: (name, 2-D array) pairs."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    digest = hashlib.sha256()
    fh = open(tmp, "wb")
    try:
        with fh:
            def put(data):
                digest.update(data)
                fh.write(data)

            put(f"{MAGIC} {VERSION}\n".encode())
            for key, value in header:
                put(f"{key} {value}\n".encode())
            for name, arr in blocks:
                arr = np.ascontiguousarray(arr, dtype="<f8")
                put(f"block {name} {arr.shape[0]} {arr.shape[1]}\n".encode())
                put(arr)
                put(b"\n")
            fh.write(f"end sha256 {digest.hexdigest()}\n".encode())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def read(path):
    """({key: [values]}, {block name: float64 array}) of a file that write() wrote."""
    header, blocks, lineno = {}, {}, 1
    digest = hashlib.sha256()

    def fail(problem):
        raise ConfigError(f"{path}:{lineno}: {problem}")

    def text(line):
        try:
            return line.decode("utf-8")
        except UnicodeDecodeError as exc:
            fail(f"not UTF-8 text ({exc.reason})")

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        line = fh.readline()
        if line.split() != [MAGIC.encode(), str(VERSION).encode()]:
            got = line[:40].decode("utf-8", "replace").rstrip()
            fail(f"expected '{MAGIC} {VERSION}', got {got!r}")
        digest.update(line)
        line, lineno = fh.readline(), lineno + 1
        while line and not line.startswith((b"block ", b"end ")):
            key, _, value = text(line).rstrip("\n").partition(" ")
            header.setdefault(key, []).append(value)
            digest.update(line)
            line, lineno = fh.readline(), lineno + 1
        while line.startswith(b"block "):
            parts = line.split()
            if len(parts) != 4 or not (parts[2] + parts[3]).isdigit() or text(parts[1]) in blocks:
                fail(f"bad or repeated block header {text(line).rstrip()!r}")
            name, rows, cols = text(parts[1]), int(parts[2]), int(parts[3])
            digest.update(line)
            lineno += 1
            # a header that claims more bytes than the file holds allocates nothing
            arr = np.empty((rows, cols), "<f8") if size - fh.tell() > 8 * rows * cols else None
            if arr is None or fh.readinto(arr) != arr.nbytes:
                fail(f"block {name!r}: file ends in it")
            if fh.read(1) != b"\n":
                fail(f"block {name!r}: its {arr.nbytes} bytes are not followed by a newline")
            digest.update(arr)
            digest.update(b"\n")
            blocks[name] = arr.astype(np.float64, copy=False)
            line, lineno = fh.readline(), lineno + 1
        if not line.startswith(b"end sha256 "):
            fail(f"expected a block or the end line, got {line[:40]!r}" if line
                 else "file ends before the end line")
        if line != f"end sha256 {digest.hexdigest()}\n".encode():
            fail("the sha256 on the end line does not match the file's contents")
        if fh.read(1):
            lineno += 1
            fail("data after the end line")
    return header, blocks
