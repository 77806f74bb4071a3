"""CSV text of the stage tables, written one row block at a time.

A stage file has one row per grid node: the node's time, then each table's
rows as columns.  Every cell prints as "%.17g", which round-trips every
double and prints inf, -inf and nan as ``float()`` reads them back.  Within
a file, a row block's distinct values are formatted once each, and those
that the block before also held take that block's tokens.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


# Cells per row block of a CSV export.  On the widest benchmark table
# (lattice-4x4, 121 columns) a block spans 33 rows, enough to catch masses
# that stay put for a stretch of time; at twice this size the blocks'
# tokens lifted diamond-fine's command peak above the solve's.
_BLOCK_CELLS = 4096


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


def _write_csv(path: Path, times: np.ndarray, headers: list[str],
               tables: list[np.ndarray]) -> None:
    # ``times`` are the tokens of the grid's nodes and then of inf; an
    # integer table's cells index them, so -1 prints inf.  Row blocks are
    # written as they are made, so no file's text is ever held whole.
    step = max(1, _BLOCK_CELLS // (1 + len(headers)))
    held = []
    with open(path, "w", encoding="utf-8") as f:
        f.write("t," + ",".join(headers) + "\n")
        for r0 in range(0, len(times) - 1, step):
            block = np.column_stack([table[:, r0:r0 + step].T for table in tables])
            block = times[block] if block.dtype.kind == "i" else _tokens(block, held)
            f.write("\n".join(map(",".join, np.column_stack(
                (times[r0:r0 + len(block)], block)).tolist())) + "\n")
