"""Text formats: .sg step graphons, .g graphs, halting tables, name
directories, and PGM image emission.

All rational tokens are parsed exactly; "p/q" and decimals with at most 18
fractional digits are accepted. Writers always emit "p/q" tokens so a
write/read round trip is the identity.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction

import numpy as np

from .core import FiniteGraph, StepGraphon, finite_graph, make_step_graphon
from .errors import FormatError, InputError, RenderTooLarge

_DECIMAL_RE = re.compile(r"^[+-]?(\d+)(?:\.(\d{1,18}))?$")
_RATIO_RE = re.compile(r"^[+-]?\d+/\d+$")


def parse_rational(token):
    """Parse "p/q", an integer, or a decimal with <= 18 fractional digits."""
    token = token.strip()
    if _RATIO_RE.match(token):
        num, den = token.split("/")
        if int(den) == 0:
            raise FormatError(f"zero denominator in {token!r}")
        return Fraction(int(num), int(den))
    if _DECIMAL_RE.match(token):
        return Fraction(token)
    raise FormatError(f"cannot parse rational token {token!r}")


def format_rational(q):
    return str(Fraction(q))


def _data_lines(text):
    return [line.strip() for line in text.splitlines() if line.strip()]


def parse_step_graphon(text):
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty step graphon file")
    try:
        k = int(lines[0])
    except ValueError:
        raise FormatError(f"bad part count line {lines[0]!r}") from None
    if len(lines) != k + 1:
        raise FormatError(f"expected {k} value rows, found {len(lines) - 1}")
    values = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != k:
            raise FormatError(f"expected {k} entries per row, got {len(tokens)}")
        values.append([parse_rational(t) for t in tokens])
    return make_step_graphon(k, values)


def format_step_graphon(W):
    rows = [" ".join(format_rational(v) for v in row) for row in W.values]
    return "\n".join([str(W.k)] + rows) + "\n"


def read_step_graphon(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_step_graphon(fh.read())


def write_step_graphon(path, W):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_step_graphon(W))


def parse_graph(text):
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise FormatError(f"bad vertex count line {lines[0]!r}") from None
    edges = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(f"bad edge line {line!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise FormatError(f"bad edge line {line!r}") from None
        if not 0 <= i < j < n:
            raise FormatError(f"edge ({i},{j}) violates 0 <= i < j < {n}")
        edges.append((i, j))
    return finite_graph(n, edges)


def format_graph(G):
    lines = [str(G.n)] + [f"{i} {j}" for (i, j) in sorted(G.edges)]
    return "\n".join(lines) + "\n"


def read_graph(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read())


def write_graph(path, G):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_graph(G))


def parse_halting_table(text):
    """One entry per line: "e t" (halts at step t >= 1) or "e -" (diverges)."""
    from .constructions import HaltingTable

    entries = {}
    for line in _data_lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(f"bad table line {line!r}")
        try:
            e = int(tokens[0])
        except ValueError:
            raise FormatError(f"bad program id {tokens[0]!r}") from None
        if e < 0:
            raise FormatError(f"negative program id {e}")
        if e in entries:
            raise FormatError(f"duplicate program id {e}")
        if tokens[1] == "-":
            entries[e] = None
        else:
            try:
                t = int(tokens[1])
            except ValueError:
                raise FormatError(f"bad halt step {tokens[1]!r}") from None
            if t < 1:
                raise FormatError(f"halt step must be >= 1, got {t}")
            entries[e] = t
    return HaltingTable(entries)


def read_halting_table(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_halting_table(fh.read())


def format_halting_table(table):
    lines = []
    for e in sorted(table.entries):
        t = table.entries[e]
        lines.append(f"{e} -" if t is None else f"{e} {t}")
    return "\n".join(lines) + "\n"


MANIFEST_NAME = "manifest.txt"


def write_name_dir(path, tag, elements):
    """Materialize a finite name prefix: manifest plus one file per element."""
    os.makedirs(path, exist_ok=True)
    filenames = []
    for j, elem in enumerate(elements):
        if isinstance(elem, StepGraphon):
            fname = f"elem_{j:03d}.sg"
            write_step_graphon(os.path.join(path, fname), elem)
        elif isinstance(elem, FiniteGraph):
            fname = f"elem_{j:03d}.g"
            write_graph(os.path.join(path, fname), elem)
        else:
            raise FormatError(f"element {j} has unsupported type {type(elem)!r}")
        filenames.append(fname)
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="ascii") as fh:
        fh.write("\n".join([tag] + filenames) + "\n")
    # elements of an earlier, longer prefix would stay behind and enter the
    # directory hash
    for fname in set(os.listdir(path)) - set(filenames):
        if fname.startswith("elem_") and fname.endswith((".sg", ".g")):
            os.remove(os.path.join(path, fname))


def read_name_dir(path):
    """Return (tag, element loader list) from a name directory."""
    manifest = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise FormatError(f"missing {MANIFEST_NAME} in {path}")
    with open(manifest, "r", encoding="ascii") as fh:
        lines = _data_lines(fh.read())
    if not lines:
        raise FormatError("empty name manifest")
    tag, filenames = lines[0], lines[1:]
    loaders = []
    for fname in filenames:
        full = os.path.join(path, fname)
        if fname.endswith(".sg"):
            loaders.append(lambda p=full: read_step_graphon(p))
        elif fname.endswith(".g"):
            loaders.append(lambda p=full: read_graph(p))
        else:
            raise FormatError(f"unknown element extension in {fname!r}")
    return tag, loaders


PGM_RESOLUTION_LIMIT = 4096


def render_pgm(W, resolution):
    """8-bit binary PGM; pixel = round(255*(1-value)), so value 1 is black.

    Row r of the image covers y in [r/res, (r+1)/res); origin top-left.
    Resolutions above PGM_RESOLUTION_LIMIT per side are refused before any
    pixel is allocated.
    """
    if resolution > PGM_RESOLUTION_LIMIT:
        raise RenderTooLarge(
            f"resolution {resolution} above the limit {PGM_RESOLUTION_LIMIT}"
        )
    if resolution < W.k:
        raise InputError(f"resolution {resolution} below part count {W.k}")
    header = f"P5\n{resolution} {resolution}\n255\n".encode("ascii")
    half = Fraction(1, 2)
    # round half up via floor(x + 1/2); the pixel center (2c+1)/(2 res)
    # lies in part floor((2c+1) k / (2 res))
    shades = np.array(
        [[int(255 * (1 - v) + half) for v in row] for row in W.values],
        dtype=np.uint8,
    )
    centers = 2 * np.arange(resolution) + 1
    idx = np.minimum(centers * W.k // (2 * resolution), W.k - 1)
    return header + shades[np.ix_(idx, idx)].tobytes()


def write_pgm(path, W, resolution):
    data = render_pgm(W, resolution)
    with open(path, "wb") as fh:
        fh.write(data)
