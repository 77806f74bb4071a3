"""The dense value kernel, the bitwise reference of :func:`mfroute.value_backward`.

It evaluates every (entry, arrival) cell of every interior suffix, in row
blocks of about BLOCK_CELLS cells, with block columns running from the last
arrival node down, so "latest arrival within the tie band" is a forward
argmax.  It shares only the stop rule, :func:`mfroute.value._initial_rows`,
with the search, and evaluates the same float expressions, so the two agree
bit for bit: the tests compare them on every example, and CI on every map
evaluation of a solve of the diamond at 4000 steps.
"""

from __future__ import annotations

import numpy as np

from mfroute.value import _initial_rows

# Sets the cells per row block: the first block spans
# B = BLOCK_CELLS // (steps + 1) entry nodes, and every block fits its B * N
# cells, so the temporaries take O(B * N) memory instead of (N + 1)^2.
BLOCK_CELLS = 1 << 15


def dense_value_backward(net, ps, scen, phi_prefix, arrival_floor=None):
    """Value and policy tables as :func:`mfroute.value_backward` returns them."""
    grid = scen.grid
    n = grid.steps
    t = grid.nodes
    eps_tie = scen.solver.eps_tie
    alpha = scen.alpha

    suffixes = ps.suffix_table[0]
    values, tau_idx, tail_cost = _initial_rows(net, suffixes, phi_prefix, t,
                                               alpha, arrival_floor)
    depth = [0] * len(suffixes)
    interior = []
    for s, (_, succ) in enumerate(suffixes):
        if succ >= 0:
            depth[s] = depth[succ] + 1
            interior.append(s)
    # A successor is one edge shallower, so it comes first within a block;
    # equal lengths come together so the kinetic block is built once for
    # them, ascending on odd depths and descending on even ones, so the
    # last length of a depth is the first of the next when both have it.
    lengths = net.lengths.tolist()
    interior.sort(key=lambda s: (depth[s], lengths[suffixes[s][0]] if depth[s] % 2
                                 else -lengths[suffixes[s][0]]))
    # The scalars each block reads, once per call: per interior suffix its
    # edge, its successor, the edge length and the continuation at node n,
    # the cheaper of the stay penalty and the successor's final value.
    edges = [suffixes[s][0] for s in interior]
    succs = [suffixes[s][1] for s in interior]
    jobs = (interior, edges, succs, net.lengths[edges].tolist(),
            [min(float(tail_cost[s]), float(values[succ, n]))
             for s, succ in zip(interior, succs)])

    _minimize_interior(jobs, phi_prefix, t, values, tau_idx, arrival_floor, eps_tie)

    return values, tau_idx




def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Blocks ``(i0, i1)`` of entry nodes for the value kernel, first to last.

    The first block spans ``BLOCK_CELLS // (n + 1)`` entry nodes (at least
    one) over all n arrival columns, and its cells are the budget of every
    block: a block starting at entry node i0 is n - i0 columns wide and takes
    as many rows as fit the budget at that width, up to the last entry node.
    """
    budget = max(1, BLOCK_CELLS // (n + 1)) * n
    blocks = []
    i0 = 0
    while i0 < n:
        # budget >= n >= n - i0, so every block has a row.
        i1 = min(n, i0 + budget // (n - i0))
        blocks.append((i0, i1))
        i0 = i1
    return blocks


def _minimize_interior(jobs: tuple[list, ...], phi_prefix: np.ndarray, t: np.ndarray,
                       values: np.ndarray, tau_idx: np.ndarray,
                       arrival_floor: np.ndarray | None, eps_tie: float) -> None:
    """Minimize the rows of the interior suffixes in place, block by block.

    On entry their ``values`` rows hold the stay cost.  ``jobs`` are the
    lists of :func:`value_backward`: the suffixes in the order they run
    within a block, then their edges, successors, lengths and continuations
    at node n.  The block buffers live only here, so they are freed when the
    minimization returns, or never made.
    """
    if not jobs[0]:
        return
    n = t.size - 1
    node_ids = np.arange(n + 1)
    blocks = _row_blocks(n)
    # The first block is the widest and fills the budget.
    kin_buf = np.empty(blocks[0][1] * n)
    move_buf = np.empty_like(kin_buf)
    mask_buf = np.empty(kin_buf.size, dtype=bool)
    # Block column c is arrival node n - c, read from reversed copies of the
    # grid and of the congestion rows the interior suffixes start on; the
    # kinetic block subtracts doubled times, 2t[j] - 2t[i] == 2(t[j] - t[i]).
    t2_rev = t[::-1] * 2.0
    phi_rev = {e: phi_prefix[e, ::-1].copy() for e in jobs[1]}
    cont = np.empty(n)
    for i0, i1 in reversed(blocks):
        # Arrivals before i0 + 1 are inadmissible for every row here.
        m = n - i0
        shape = (i1 - i0, m)
        kin_block = kin_buf[:shape[0] * m].reshape(shape)
        move_block = move_buf[:kin_block.size].reshape(shape)
        mask_block = mask_buf[:kin_block.size].reshape(shape)
        # Row r is entry node i0 + r and column c arrival node n - c, so
        # arrivals not after the entry lie in the last w columns.
        w = min(shape)
        kin_length = None
        for s, e, succ, length, cont_n in zip(*jobs):
            rows, width = shape
            kin, move = kin_block, move_block
            if arrival_floor is not None:
                # Only the rows up to the last one with a floor within the
                # grid, and the columns down to their lowest floor, can hold
                # an admissible arrival; every cell left out would be +inf.
                floor = arrival_floor[e, i0:i1]
                feasible = floor <= n
                rows = shape[0] - int(feasible[::-1].argmax())
                if not feasible[rows - 1]:
                    # No row is feasible: the stay cost and tau -1 are final.
                    continue
                floor = floor[:rows]
                width = min(m, n + 1 - int(floor.min()))
                kin = kin_block[:rows, :width]
                move = move_buf[:rows * width].reshape(rows, width)
            if length != kin_length:
                # Rows are entry nodes i0, ..., i1 - 1, read backwards.
                rows_t2 = t2_rev[n - i0:n - i1:-1, None]
                np.subtract(t2_rev[None, :m], rows_t2, out=kin_block)
                # Arrivals not after the entry, where 2t[j] - 2t[i] <= 0, lie
                # in the trailing columns; clamped to +0.0, l*l / 0 is +inf.
                tri = kin_block[:, m - w:]
                np.maximum(tri, 0.0, out=tri)
                l2 = length * length
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(l2, kin_block, out=kin_block)
                if not l2:
                    # l*l underflowed to 0, and 0 / 0 is NaN: node n - c is
                    # not after entry node i where c >= n - i
                    mask = mask_block[:, m - w:]
                    np.greater_equal(node_ids[None, m - w:m], n - node_ids[i0:i1, None],
                                     out=mask)
                    np.copyto(tri, np.inf, where=mask)
                kin_length = length
            r1 = i0 + rows
            # In place, move = ((phi[j]-phi[i]) + kin) + cont[j]: the same
            # rounding steps as the oracle's (kin + (phi[j]-phi[i])) + cont[j].
            np.subtract(phi_rev[e][None, :width], phi_prefix[e, i0:r1, None], out=move)
            move += kin
            # Arriving at node n continues with cont_n, not values[succ, n].
            np.copyto(cont[:width], values[succ, n:n - width:-1])
            cont[0] = cont_n
            move += cont[None, :width]
            if arrival_floor is not None:
                # Only arrivals before the highest floor, columns lo on, can
                # lie before a row's floor; a row with no admissible arrival
                # is all +inf.
                lo = n + 1 - min(int(floor.max()), n + 1)
                if lo < width:
                    below = mask_buf[:rows * (width - lo)].reshape(rows, width - lo)
                    # node n - c < floor where c > n - floor
                    np.greater(node_ids[None, lo:width], n - floor[:, None], out=below)
                    np.copyto(move[:, lo:], np.inf, where=below)
            first = move.argmin(axis=1)
            best = move[node_ids[:rows], first]
            # At eps_tie 0 the band is the minimum itself, also for a row
            # with no admissible arrival, where 0 * inf would be NaN.
            threshold = best
            if eps_tie:
                threshold = np.abs(best)
                np.maximum(threshold, 1.0, out=threshold)
                threshold *= eps_tie
                threshold += best
            # A row's first minimum is in its band, so the band starts at or
            # before it: only the columns up to the latest one are scanned.
            scan = int(first.max()) + 1
            band = mask_buf[:rows * scan].reshape(rows, scan)
            np.less_equal(move[:, :scan], threshold[:, None], out=band)
            latest = n - band.argmax(axis=1)
            # tau_idx starts at -1 (stay), and each block writes its rows once
            stay = values[s, i0:r1]
            np.copyto(tau_idx[s, i0:r1], latest, where=best <= stay)
            np.minimum(stay, best, out=stay)
