"""The text format of model and KB checkpoints, and its one checked parser.

A `<magic> <version>` line, `<key> <value>` header lines, blocks that each
open with `block <name> <rows> <cols>` and hold `rows` lines of `cols` %.17g
decimals (bit-exact for float64), then an `end` line. read() refuses any
other text, a truncated file included, with a ConfigError naming the line.
"""

from __future__ import annotations

import numpy as np

VERSION = 2


class ConfigError(ValueError):
    """A refused configuration or input file; the CLI exits 2 on it."""


def field(path, header, key, parse=str):
    """The value of the one `key` line of a header that read() returned."""
    try:
        (value,) = header.get(key, ())
        return parse(value)
    except (ValueError, KeyError):
        raise ConfigError(f"{path}: bad or missing {key!r} header line") from None


def write(path, magic, header, blocks):
    """header: (key, value) pairs; blocks: (name, 2-D array) pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{magic} {VERSION}\n")
        fh.writelines(f"{key} {value}\n" for key, value in header)
        for name, arr in blocks:
            fh.write(f"block {name} {arr.shape[0]} {arr.shape[1]}\n")
            row_format = " ".join(["%.17g"] * arr.shape[1]) + "\n"
            fh.writelines(row_format % tuple(row.tolist()) for row in arr)
        fh.write("end\n")


def read(path, magic):
    """({key: [values]}, {block name: float64 array}) of a file that write() wrote."""
    header, blocks, lineno = {}, {}, 0

    def fail(problem):
        raise ConfigError(f"{path}:{lineno}: {problem}")

    try:
        with open(path, encoding="utf-8") as fh:
            lines = enumerate(fh, 1)
            lineno, line = next(lines, (1, ""))
            if line.split() != [magic, str(VERSION)]:
                fail(f"expected '{magic} {VERSION}', got {line[:40].rstrip()!r}")
            lineno, line = next(lines, (lineno + 1, ""))
            while line and line != "end\n" and not line.startswith("block "):
                key, _, value = line.rstrip("\n").partition(" ")
                header.setdefault(key, []).append(value)
                lineno, line = next(lines, (lineno + 1, ""))
            while line.startswith("block "):
                parts = line.split()
                if len(parts) != 4 or not (parts[2] + parts[3]).isdecimal() or parts[1] in blocks:
                    fail(f"bad or repeated block header {line.rstrip()!r}")
                name, cols = parts[1], int(parts[3])
                blocks[name] = arr = np.empty((int(parts[2]), cols))
                for i in range(arr.shape[0]):
                    lineno, line = next(lines, (lineno + 1, ""))
                    if not line.strip():  # np.fromstring reads a blank line as [-1.0]
                        fail(f"block {name!r}: " + ("an empty row" if line else "file ends in it"))
                    try:
                        values = np.fromstring(line, sep=" ")
                    except ValueError:
                        fail(f"block {name!r}: a row that is not all numbers")
                    if values.size != cols:
                        fail(f"block {name!r}: a row of {values.size} numbers, expected {cols}")
                    arr[i] = values
                lineno, line = next(lines, (lineno + 1, ""))
            if line != "end\n":
                fail(f"expected a block or the end line, got {line[:40]!r}" if line
                     else "file ends before the end line")
            if next(lines, None) is not None:
                fail("data after the end line")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return header, blocks
