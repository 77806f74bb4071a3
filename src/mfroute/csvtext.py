"""The stage-file format: column labels, "%.17g" cell text and the reader of
``masses.csv``.  :mod:`mfroute.cli` keeps the command frame that uses them.

A stage file has one row per grid node: the node's time, then each table's
rows as columns.  Every cell round-trips its double and prints inf, -inf and
nan as ``float()`` reads them back.  Within a file, a row block's distinct
values are formatted once each, and those that the block before also held
take that block's tokens.
"""

from __future__ import annotations

import contextlib
import os
import stat
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeMismatch, ValidationError
from .flow import MassField
from .network import PathSet
from .scenario import TimeGrid


# Cells per row block of a CSV export.  On the widest benchmark table
# (lattice-4x4, 121 columns) a block spans 33 rows, enough to catch masses
# that stay put for a stretch of time; at twice this size the blocks'
# tokens lifted diamond-fine's command peak above the solve's.
_BLOCK_CELLS = 4096


def _pair_columns(ps: PathSet, prefix: str) -> list[str]:
    # one per (edge, path) pair in path-major order, like rho[e1:p2]
    return [f"{prefix}[{edge}:p{p + 1}]"
            for p, path in enumerate(ps.paths) for edge in path]


def _path_columns(ps: PathSet, prefix: str) -> list[str]:
    return [f"{prefix}[p{p + 1}]" for p in range(ps.n_paths)]


def _grid_tokens(grid: TimeGrid) -> np.ndarray:
    """The tokens of the grid's nodes and then of inf, for ``_write_csv``."""
    return _tokens(np.append(grid.nodes, np.inf))


def _tokens(block: np.ndarray, held: list | None = None) -> np.ndarray:
    """Each cell's "%.17g" text, in an object array of the block's shape.

    Each distinct value is formatted once, told apart by its bits: by value
    -0.0 and 0.0 would merge and one would print as the other.  ``held``,
    when given, carries the sorted distinct bits of the row block before
    and their tokens, or nothing before a file's first block.  A value it
    holds takes its token, and the block's own pair replaces it before any
    value is formatted, so only the tokens reused here outlive the block
    before.
    """
    bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
    tokens = np.empty(len(bits), dtype=object)
    fresh = slice(None)  # every value, unless the block before held some
    if held:
        # the greatest held bits not above each value's, or the last held
        # (which is above it) where there are none
        at = np.searchsorted(held[0], bits, "right") - 1
        fresh = held[0][at] != bits
        tokens[~fresh] = held[1][at[~fresh]]
    if held is not None:
        held[:] = bits, tokens
    values = bits[fresh].view(np.float64)
    tokens[fresh] = ("%.17g," * len(values) % tuple(values.tolist())).split(",")[:-1]
    return tokens[inverse.reshape(block.shape)]


def _unlinked(path: Path) -> Path:
    """``path``, with the regular file there removed, so that a rerun into
    the same directory writes a new file: closing a truncated file flushes
    its new data on ext4, closing a new one does not.  A symlink is still
    written through, and a directory still fails the open."""
    with contextlib.suppress(OSError):  # else the open rewrites it in place
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    return path


def _write_csv(path: Path, times: np.ndarray, headers: list[str],
               tables: list[np.ndarray]) -> None:
    # ``times`` are ``_grid_tokens``; an integer table's cells index them, so
    # -1 prints inf.  Row blocks are written as they are made, so no file's
    # text is ever held whole.
    step = max(1, _BLOCK_CELLS // (1 + len(headers)))
    held = []
    with open(_unlinked(path), "w", encoding="utf-8") as f:
        f.write("t," + ",".join(headers) + "\n")
        for r0 in range(0, len(times) - 1, step):
            block = np.column_stack([table[:, r0:r0 + step].T for table in tables])
            block = times[block] if block.dtype.kind == "i" else _tokens(block, held)
            if r0 + step >= len(times) - 1:
                held.clear()  # no block reads the last one's pair
            f.write("\n".join(map(",".join, np.column_stack(
                (times[r0:r0 + len(block)], block)).tolist())) + "\n")


def read_mass_csv(path: Path, ps: PathSet, grid: TimeGrid) -> MassField:
    """Parse a masses.csv produced by this tool back into a mass field.

    The ``t`` column must equal the grid's nodes bit for bit, else
    :class:`ShapeMismatch`; the tool writes them round-trip exact.  Every
    mass must be a finite number (else :class:`ParseError`) and
    nonnegative (else :class:`ValidationError`), as psi's domain requires.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ParseError(f"cannot read mass file: {exc}") from exc
    if not lines:
        raise ShapeMismatch("mass file is empty")
    header = lines[0].split(",")
    expected = ["t"] + _pair_columns(ps, "rho")
    if header != expected:
        raise ShapeMismatch(f"mass file columns {header} do not match the "
                            f"scenario's (edge, path) pairs {expected}")
    rows = lines[1:]
    if len(rows) != grid.steps + 1:
        raise ShapeMismatch(f"mass file has {len(rows)} rows, grid needs {grid.steps + 1}")
    data = np.empty((ps.pair_count + 1, grid.steps + 1))
    for i, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != ps.pair_count + 1:
            raise ShapeMismatch(f"row {i} has {len(parts)} fields")
        try:
            data[:, i] = [float(v) for v in parts]
        except ValueError as exc:
            raise ParseError(f"row {i} of the mass file: {exc}") from None
    # data holds the file's rows as columns, t first; -0.0 is not negative
    t, data = data[0], data[1:]
    off_grid = t.view(np.uint64) != grid.nodes.view(np.uint64)
    if off_grid.any():
        i = int(np.argmax(off_grid))
        raise ShapeMismatch(f"row {i} of the mass file has t = {float(t[i])!r}, "
                            f"grid node {i} is {float(grid.nodes[i])!r}")
    finite = np.isfinite(data).all(axis=0)
    if not finite.all():
        raise ParseError(f"row {int(np.argmin(finite))} of the mass file holds a "
                         "non-finite mass")
    negative = (data < 0.0).any(axis=0)
    if negative.any():
        raise ValidationError(f"row {int(np.argmax(negative))} of the mass file "
                              "holds a negative mass")
    return MassField(values=data)
