"""Backward value functions and the constant-speed traversal policy.

Given a mass field, each (edge, path) pair gets a value table over the grid
and a policy: the optimal head-arrival node tau (or "stay put"), which fixes
the constant traversal speed length / (tau - t).  A pair's table depends only on
the path suffix that starts at its edge, so each distinct suffix is computed
once, after the suffix that follows it, and the tables keep one row per
suffix: pair r reads row ``ps.suffix_table[1][r]``.

Candidate arrival times are restricted to grid nodes strictly after the
entry node; the continuous minimization is approximated to first order in
the grid step, consistent with the Euler mass integration.  The minimization
runs over blocks of entry nodes and, within a block, only over arrival nodes
after the block's first entry node, so its temporaries take O(B * N) memory
rather than (N + 1)^2.  The first block spans B = BLOCK_CELLS // (N + 1)
entry nodes over all N arrival columns, and its B * N cells are the budget
of every block: the block starting at entry node i0 is N - i0 columns wide
and takes budget // (N - i0) rows, so later, narrower blocks hold more rows
and there are fewer of them (38 instead of 72 at N = 1500).

Every suffix's row starts as its stay cost, built in place in the gathered
congestion rows, and last-edge suffixes, which have a single moving
candidate, are finished first, each over all nodes at once in O(N) rows, so
this takes no table beyond the outputs.  The other suffixes are computed
block by block, from the last block of entry nodes to the first, and within
a block by suffix depth (edges to the destination) and then edge length,
ascending on odd depths and descending on even ones.  A suffix at entry
node i reads its successor at arrival nodes after i: those in later blocks
are finished already, and those in the same block were finished just
before, since the successor is one edge shallower.  The scalars a suffix's
blocks read (its edge, successor, length and continuation at node N) are
Python numbers, read once per call.  The kinetic block
``(l*l)/(2*(t[j]-t[i]))``, with +inf where j <= i, depends on the block and
the edge length only, so within a block it is rebuilt only when the length
changes from one suffix to the next; the alternating order lets a depth end
on the length the next depth starts with (on the seeded 4x4 benchmark
lattice, 7 to 11 builds a block instead of 10 to 14).  It is built as
``(l*l)/(2t[j]-2t[i])`` from a doubled copy of the grid, without a pass that
doubles the block: doubling is exact and commutes with rounding the
difference, so the denominator has the bits of ``2*(t[j]-t[i])`` for every
horizon below half the largest double (above it, 2t overflows).  The
arrivals j <= i lie in the block's trailing columns, where the denominator
is at most 0: it is clamped to +0.0 there before the divide, so
``l*l / +0.0`` is +inf.  Only when ``l*l`` underflows to 0 (a length below
about 1.5e-162), where ``0 / 0`` would be NaN, are those cells found by
comparing node ids and set to +inf.  The temporaries stay three block-sized
arrays: the kinetic block, the candidates and a mask (17 bytes a cell),
plus reversed copies of the grid and of the congestion integrals of the
edges that start an interior suffix (O(N) each), freed when the kernel
returns, and not made when every path is one edge long.

Block columns run from the last arrival node down: column c is node N - c.
"Latest arrival within the tie band" is then the first column in the band,
a forward ``argmax``.  Each row's best cost is read at its ``argmin``, the
row's first minimum, which lies in its band, so the band starts at or
before it: the band test reads only the columns up to the block's latest
first minimum, the same first column as a scan of the whole width.  At
``eps_tie`` 0 the band is the minimum itself, so the threshold is the
minimum, also for a row with no admissible arrival, whose minimum is +inf
(``0 * inf`` would be NaN).  The continuation is one contiguous copy of the
successor's row, reversed, with entry 0 (the final node) set to the cheaper
of the stay penalty and the successor's final value; and the arrivals not
after the entry node are trailing columns, +inf in the kinetic block.
Block rows are shorter than numpy's default 8192-element ufunc buffer, and
with it the broadcasts of the block loop go through the buffered iterator
at two to four times the cost of a contiguous operation, so the loop runs
under a small buffer, restored on every exit.  The loop has only
elementwise operations, gathers, ``argmin`` and ``argmax``, whose results do
not depend on the buffer size.  Stages that sum (mass integration, the
logit response, the local decision) stay outside it: the buffer size can
change the order in which a sum adds.

Under arrival floors a suffix's block is evaluated only where an admissible
arrival can lie.  The trailing rows whose floor is past node N are never
evaluated, nor is the block when no row has a floor within the grid: such
a row keeps the stay cost and the policy -1 it started with.  Nor are the
columns before the lowest floor of the rows kept, and +inf is set only in
the columns between the lowest and the highest floor, so a row with no
admissible arrival between kept rows is still all +inf.  Every cell left
out would be +inf, and with a finite stay cost such a cell decides nothing:
it is never a row's minimum, the first column in a finite minimum's tie
band lies at or before the minimum's column, and a row of +inf keeps its
stay cost and the policy -1.

Float expressions here are deliberately fixed:  a moving candidate costs
``(l*l)/(2*(t[j]-t[i])) + (Phi[j]-Phi[i])`` plus the continuation, grouped
exactly in that order (the kernel adds the kinetic block to the congestion
difference, which IEEE addition gives the same bits).  The exhaustive
enumeration in :mod:`mfroute.oracle` evaluates the same expressions, which
is what makes the oracle comparison exact rather than tolerance-based;
neither the suffix sharing, the suffix order, the row blocks, the shared
kinetic block, the doubled times, the clamped denominators, the column
order, the cut band scan nor the cells left out under arrival floors change
a single rounding step.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .network import Network, PathSet, edge_totals
from .scenario import Scenario, prefix_integral

# Sets the cells per row block of the value kernel: the first block spans
# B = BLOCK_CELLS // (steps + 1) entry nodes, and every block fits its B * N
# cells, so the temporaries take O(B * N) memory instead of (N + 1)^2.
BLOCK_CELLS = 1 << 15

# Ufunc buffer size (elements) inside the block loop, see the module docstring.
_BLOCK_BUFSIZE = 256


def congestion_total(ps: PathSet, scen: Scenario, mass: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Sum pair masses into per-edge totals and integrate the congestion cost.

    Returns ``(totals, phi_prefix)``, one row per edge and one column per
    node: the total mass, which only the speed-limited arrival tables read,
    and the prefix integral of the edge's congestion cost at that total.
    """
    n_nodes = scen.grid.steps + 1
    if mass.shape != (ps.pair_count, n_nodes):
        raise ShapeMismatch(
            f"mass field must have shape {(ps.pair_count, n_nodes)}, "
            f"got {mass.shape}")
    totals = edge_totals(ps, mass)
    phi_values = np.empty_like(totals)
    for e, cost in enumerate(scen.phi):
        phi_values[e] = cost(totals[e])
    return totals, prefix_integral(phi_values, scen.grid)


def value_backward(net: Network, ps: PathSet, scen: Scenario, phi_prefix: np.ndarray,
                   arrival_floor: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Compute value tables and the arrival-time policy under given congestion.

    Returns ``(values, tau_idx)``, one row per entry of ``ps.suffix_table``
    (pair r's rows are those of its suffix, ``ps.suffix_table[1][r]``) and
    one column per grid node: the minimal remaining cost, and the node at
    which an agent entering the edge at node i arrives at its head, or -1
    when it stays at the edge tail for the rest of the horizon, as int32.

    ``phi_prefix`` are the congestion integrals from :func:`congestion_total`.
    ``arrival_floor``, when given, is an integer (n_edges, nodes) table of the
    earliest admissible arrival index per edge and entry node (values past the
    last node mark the moving branch as infeasible).  Without it every node
    strictly after the entry is admissible.

    For the last edge of a path the only moving candidate is arriving at the
    final node; staying costs alpha * length plus the remaining congestion
    integral.  For interior edges the stay penalty is alpha times the shortest
    remaining distance from the edge tail, and a candidate arriving at the
    final node pays the cheaper of that penalty and the successor's final
    value.  Within ``eps_tie`` of the best moving cost the latest arrival
    wins, and an exact tie between staying and moving resolves to moving.
    """
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

    # Only elementwise operations, gathers, argmin and argmax run under the
    # small buffer, so it changes no result; stages that sum stay outside it.
    bufsize = np.setbufsize(_BLOCK_BUFSIZE)
    try:
        _minimize_interior(jobs, phi_prefix, t, values, tau_idx, arrival_floor, eps_tie)
    finally:
        np.setbufsize(bufsize)

    return values, tau_idx


def _initial_rows(net: Network, suffixes: tuple[tuple[int, int], ...],
                  phi_prefix: np.ndarray, t: np.ndarray, alpha: float,
                  arrival_floor: np.ndarray | None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value and policy rows before the interior minimization.

    Every row starts as the stay cost, which is already final at node n;
    last-edge suffixes are final, with their single moving candidate,
    arriving at the final node.  Returns the values, ``tau_idx`` and each
    suffix's tail cost (alpha times its length on a last edge, alpha times
    the distance from its tail otherwise).
    """
    n = t.size - 1
    edges = [e for e, _ in suffixes]
    last = [s for s, (_, succ) in enumerate(suffixes) if succ < 0]
    tail_cost = alpha * net.dist_tail[edges]
    tail_cost[last] = alpha * net.lengths[[edges[s] for s in last]]
    # The stay cost, tail + (phi[n] - phi[i]), is built in the gathered
    # congestion rows; a last edge's moving candidate in one row at a time.
    values = phi_prefix[edges]
    np.subtract(values[:, n:].copy(), values, out=values)
    values += tail_cost[:, None]
    tau_idx = np.full(values.shape, -1, dtype=np.int32)
    for s in last:
        e = edges[s]
        move = t[n] - t
        move *= 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(net.lengths[e] * net.lengths[e], move, out=move)
        move += phi_prefix[e, n] - phi_prefix[e]
        # arriving at node n is a move only from an earlier node (at node n
        # the divide is l*l / 0, NaN when l*l underflows to 0), and only
        # where the arrival floor allows it
        move[n] = np.inf
        if arrival_floor is not None:
            move[arrival_floor[e] > n] = np.inf
        stay = values[s]
        np.copyto(tau_idx[s], n, where=move <= stay)
        np.minimum(stay, move, out=stay)
    return values, tau_idx, tail_cost


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
