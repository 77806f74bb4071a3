"""Backward value functions and the constant-speed traversal policy.

Given a mass field, each (edge, path) pair gets a value table over the grid
and a policy: the optimal head-arrival node tau (or "stay put"), which fixes
the constant traversal speed length / (tau - t).  A pair's table depends only on
the path suffix that starts at its edge, so each distinct suffix is computed
once, after the suffix that follows it, and the tables keep one row per
suffix: pair r reads row ``ps.suffix_table[1][r]``.

Candidate arrival times are restricted to grid nodes strictly after the
entry node; the continuous minimization is approximated to first order in
the grid step, consistent with the Euler mass integration.  Every row starts
as its stay cost, and last-edge suffixes, with their single moving
candidate, are finished first (:func:`_initial_rows`, the stop rule); the
others follow one depth (edges to the destination) at a time.  A suffix
with edge length l, congestion integrals Phi and continuation c (its
successor's values, at node N the cheaper of the stay penalty and the
successor's final value), entered at node i and left at node j, costs

    F[i, j] = ((Phi[j] - Phi[i]) + (l*l) / (2t[j] - 2t[i])) + c[j]

for j from the admissible start A_i = max(i + 1, floor_i) to N.  A monotone
search finds each row's minimum and latest j within the tie band.  Its
levels run at strides B^(L-1), ..., B, 1 (B = BRANCHING): the first
evaluates every B^(L-1)-th row and each suffix's last feasible row over
their whole admissible range, each later level the B - 1 evenly spaced
rows in every gap between evaluated rows over the window those two rows
cut, from the first column of the upper row's near-tie set (its cells
within 2^-44 of its minimum, relative) to the last of the lower row's.

Exactness design note.

- M[i, j] is F[i, j] taken in exact arithmetic on the float inputs, and +inf
  before A_i.  l*l / (2d) is convex in d = t[j] - t[i], so M is Monge
  wherever A is nondecreasing.
- If Phi is nondecreasing along the edge and c >= 0, each float cell F is
  within 5u F of M (u = 2^-53), plus 2^-1074 where the kinetic quotient is
  subnormal.  low and high (``_bound``) widen a cell by 2^-48 and 2^-1060,
  which also covers the rounding of the bounds themselves.
- These preconditions, with A nondecreasing, are checked per suffix and per
  call.  A suffix that fails them is evaluated over whole rows.
- For rows r < i and columns j < c, M[i, j] - M[i, c] >= M[r, j] - M[r, c].
  The mirror inequality holds for i < r and j > c.
- So every row that cuts a window carries a certified lower bound on its
  gaps outside its near-tie set, the Monge margin it hands to the window's
  rows.  Inside its own window the bound comes from the cells it evaluated;
  beyond that window it comes from the bound the row inherited.
- A row passes the certificate when low(F[i, a]) + L > high(best) and
  low(F[i, b]) + R > high(threshold), a and b being its window's ends and
  L and R the margins of the rows that cut them (an end at A_i or N needs
  no check): then no cell before a is below the minimum and none after b
  is in the tie band.  Every other row, and every row of a suffix that
  breaks the preconditions, is evaluated over its whole admissible range
  by the same routine, :func:`_search`, after the levels.

Rows run in batches of CHUNK_CELLS // 8 rows, the whole-row pass as well as
the levels, and in chunks of at most CHUNK_CELLS cells.  Beside a depth's
congestion and continuation rows and a level's row indices, the temporaries
so take O(CHUNK_CELLS) memory.  ``tests/dense_kernel.py`` holds the plain
per-row minimization, the search's bitwise reference.

The exhaustive enumeration in :mod:`mfroute.oracle` evaluates the same
float expressions, ``(l*l)/(2*(t[j]-t[i])) + (Phi[j]-Phi[i])`` plus the
continuation (doubling the times is exact, IEEE addition commutative), so
the oracle comparison is exact: nothing here changes a rounding step, and a
certified row's results are those of all its admissible cells.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .network import Network, PathSet, edge_totals
from .scenario import Scenario, prefix_integral

# Each level of the value search evaluates BRANCHING - 1 evenly spaced rows
# between every two rows evaluated before it.
BRANCHING = 8

# Cells per chunk of a ragged evaluation, which bounds its temporaries.
CHUNK_CELLS = 1 << 13


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
    suffixes = ps.suffix_table[0]
    values, tau_idx, tail_cost = _initial_rows(net, suffixes, phi_prefix, scen.grid.nodes,
                                               scen.alpha, arrival_floor)
    # A successor is one edge shallower, so a depth reads only finished rows.
    depth = [0] * len(suffixes)
    by_depth: dict[int, list[int]] = {}
    for s, (_, succ) in enumerate(suffixes):
        if succ >= 0:
            depth[s] = depth[succ] + 1
            by_depth.setdefault(depth[s], []).append(s)
    for d in sorted(by_depth):
        _minimize_depth(net, scen, suffixes, by_depth[d], phi_prefix, arrival_floor,
                        values, tau_idx, tail_cost)
    return values, tau_idx


def _initial_rows(net: Network, suffixes: tuple[tuple[int, int], ...],
                  phi_prefix: np.ndarray, t: np.ndarray, alpha: float,
                  arrival_floor: np.ndarray | None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value and policy rows before the interior minimization.

    Every row starts as the stay cost, which is already final at node n;
    last-edge suffixes are final, with their single moving candidate,
    arriving at the final node.  This is the stop rule's one statement
    outside the oracle: :func:`path_costs` reads every stop from these
    rows.  Returns the values, ``tau_idx`` and each suffix's tail cost
    (alpha times its length on a last edge, alpha times the distance from
    its tail otherwise).
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
        # l*l past the float range is +inf, the intended kinetic term
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def _minimize_depth(net: Network, scen: Scenario, suffixes: tuple, group: list[int],
                    phi_prefix: np.ndarray, arrival_floor: np.ndarray | None,
                    values: np.ndarray, tau_idx: np.ndarray, tail_cost: np.ndarray) -> None:
    """Minimize in place the rows of the interior suffixes ``group`` of one
    depth, whose ``values`` rows hold the stay cost."""
    n = scen.grid.steps
    edges, succs = (list(x) for x in zip(*(suffixes[s] for s in group)))
    phi = phi_prefix[edges]
    cont = values[succs]
    cont[:, n] = [min(float(tail_cost[s]), float(values[succ, n]))
                  for s, succ in zip(group, succs)]
    # the admissible start of each entry node's arrivals, n + 1 where none is
    start = np.broadcast_to(np.arange(1, n + 1), (len(group), n))
    if arrival_floor is not None:
        start = np.minimum(np.maximum(start, arrival_floor[edges, :n]), n + 1)
    ok = (np.isfinite(phi).all(1) & (np.diff(phi, axis=1) >= 0).all(1)
          & np.isfinite(cont[:, 1:]).all(1) & (cont[:, 1:] >= 0).all(1)
          & (np.diff(start, axis=1) >= 0).all(1))
    last = (start <= n).sum(1) - 1
    # Per cutting row, its near-tie set's ends and the margins it hands to the
    # rows below and above it, in slot i // BRANCHING of its suffix (the last
    # feasible row in the suffix's last slot); the final slot stands for no
    # cutting row: the whole grid, no margin.
    slots = n // BRANCHING + 2
    whole = len(group) * slots
    near = np.zeros((2, whole + 1), dtype=np.int64)
    near[1, -1] = n
    lengths = net.lengths[edges]
    with np.errstate(over="ignore"):  # l*l past the float range is +inf
        l2 = lengths * lengths
    run = (phi.ravel(), cont.ravel(), scen.grid.nodes * 2.0, l2, start,
           scen.solver.eps_tie, near, np.full((2, whole + 1), np.nan),
           values.ravel(), tau_idx.ravel(), np.asarray(group) * (n + 1))
    ks = np.flatnonzero(ok & (last >= 0))
    strides = [1]
    while strides[0] * BRANCHING < n:
        strides.insert(0, strides[0] * BRANCHING)
    batch = max(1, CHUNK_CELLS // 8)  # rows, which bounds per-row temporaries
    failed = []
    for level, stride in enumerate(strides):
        pattern = np.arange(0, n, stride)
        if level:
            pattern = pattern[pattern % strides[level - 1] != 0]
        k = ks.repeat(pattern.size)
        i = pattern[None].repeat(ks.size, 0).ravel()
        keep = i < last[k]
        k, i = k[keep], i[keep]
        if not level:
            # The first level holds each suffix's last feasible row too, so
            # every later row lies between two evaluated rows.
            k = np.concatenate([k, ks])
            i = np.concatenate([i, last[ks]])
        for p in range(0, k.size, batch):
            kb, ib = k[p:p + batch], i[p:p + batch]
            slot = kb * slots
            below = above = np.full_like(kb, whole)
            if level:
                below = ib - ib % strides[level - 1]
                above = below + strides[level - 1]
                below = slot + below // BRANCHING
                above = slot + np.where(above < last[kb], above // BRANCHING, slots - 1)
            own = None
            if stride > 1:
                own = slot + (ib // BRANCHING if level else
                              np.where(ib < last[kb], ib // BRANCHING, slots - 1))
            failed.append(_search(run, kb, ib, below, above, own))
    # Rows left uncertified, and every row of a suffix that breaks the
    # preconditions, over their whole admissible range, in the same batches.
    bad = np.flatnonzero(~ok & (last >= 0))
    k = np.concatenate([f[0] for f in failed] + [bad.repeat(n)])
    i = np.concatenate([f[1] for f in failed] + [np.tile(np.arange(n), bad.size)])
    rows = start[k, i] <= n
    k, i = k[rows], i[rows]
    for p in range(0, k.size, batch):
        kb, ib = k[p:p + batch], i[p:p + batch]
        _search(run, kb, ib, np.full_like(kb, whole), np.full_like(kb, whole), None)


def _search(run: tuple, k: np.ndarray, i: np.ndarray, below: np.ndarray,
            above: np.ndarray, own: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Minimize rows ``(k, i)`` over the windows that the rows in slots
    ``below`` and ``above`` cut, and settle the rows that pass the
    certificate.  With ``own``, the rows' slots, the rows cut in turn.
    Returns the rows left uncertified."""
    phi, cont, t2, l2, start, eps_tie, near, margin, values, tau_idx, base = run
    n = start.shape[1]
    admissible = start[k, i]
    lo = np.maximum(near[0, below], admissible)
    hi = near[1, above]
    empty = lo > hi  # a window the cuts left empty is evaluated whole
    lo[empty], hi[empty] = admissible[empty], n
    rows = [k, i, lo, hi - lo + 1, lo > admissible, hi < n, margin[0, below],
            margin[1, above]] + ([] if own is None else [own])
    chunks = [(0, k.size, int(rows[3].max()))]
    if k.size * chunks[0][2] > CHUNK_CELLS:
        # Rows run by width, so that a chunk pads them to a width near theirs.
        order = np.argsort(np.minimum(rows[3], 0xFFFF).astype(np.uint16), kind="stable")
        rows = [x[order] for x in rows]
        chunks = _chunks(rows[3])
    k, i, lo, width, cut_lo, cut_hi, lm, rm, *own = rows
    # Per row, in ``cells``: its minimum and its window's end cells, and when
    # it cuts, its least cell off its near-tie set and that set's end cells;
    # in ``ends``: the offsets of its latest arrival in the band and of that
    # set's ends.
    cells = np.empty((6 if own else 3, k.size))
    ends = np.empty((3 if own else 1, k.size), dtype=np.int64)
    for p0, p1, w in chunks:
        cols = np.arange(p1 - p0)
        # Row r's cells in column r of a (w, rows) table, held row-major when
        # the rows outnumber the cells and column-major otherwise: past its
        # window a row's later cells, and past node n copies of node n's.
        tall = w <= p1 - p0
        across = (-1,) if tall else (-1, 1)  # shape of per-row values in the table
        cell = (np.arange(w)[:, None] if tall else np.arange(w)) + lo[p0:p1].reshape(across)
        np.minimum(cell, n, out=cell)
        # ((phi[j] - phi[i]) + l*l / (2t[j] - 2t[i])) + cont[j], the first
        # sum taken as kin + (phi[j] - phi[i]), the same bits in IEEE
        f = t2.take(cell)
        f -= t2[i[p0:p1]].reshape(across)
        np.divide(l2[k[p0:p1]].reshape(across), f, out=f)
        cell += (k[p0:p1] * (n + 1)).reshape(across)
        part = phi.take(cell)
        part -= phi[k[p0:p1] * (n + 1) + i[p0:p1]].reshape(across)
        f += part
        f += cont.take(cell, out=part)
        del cell, part
        if not tall:
            f = f.T
        ramp = np.arange(1, w + 1, dtype=np.int32)[:, None]
        low = f.min(axis=0)
        cells[:3, p0:p1] = low, f[0], f[width[p0:p1] - 1, cols]
        ends[0, p0:p1] = (ramp * (f <= _threshold(low, eps_tie))).max(axis=0) - 1
        if own:
            # The cells within the rounding slack of the minimum bound the
            # windows of the rows up to the next evaluated rows, and every
            # other cell lies above them by the margins.
            tie = f <= low * (1 + 2.0**-44) + 2.0**-1056
            ends[1, p0:p1] = w - ((w + 1 - ramp) * tie).max(axis=0)
            ends[2, p0:p1] = (ramp * tie).max(axis=0) - 1
            cells[4:, p0:p1] = f[ends[1:, p0:p1], cols]
            np.copyto(f, np.inf, where=tie)
            cells[3, p0:p1] = f.min(axis=0)
    best = cells[0]
    # The certificate: no cell before the window below the minimum, and none
    # after it within the tie band.
    f_lo, f_hi = _bound(cells[1:3], -1)
    good = ((~cut_lo | (f_lo + lm > _bound(best, 1)))
            & (~cut_hi | (f_hi + rm > _bound(_threshold(best, eps_tie), 1))))
    if own:
        near[:, own[0]] = np.minimum(ends[1:] + lo, n)
        # Beyond the window the margin of the cutting row holds.
        with np.errstate(invalid="ignore"):
            others = _bound(cells[3], -1)
            inherited = np.where([cut_lo, cut_hi], [f_lo + lm, f_hi + rm], np.inf)
            margin[:, own[0]] = np.minimum(others, inherited) - _bound(cells[4:], 1)
    tau = np.minimum(ends[0] + lo, n)
    idx = base[k] + i
    stay = values[idx]
    move = good & (best <= stay)
    tau_idx[idx[move]] = tau[move]
    values[idx[good]] = np.minimum(stay, best)[good]
    return k[~good], i[~good]


def _chunks(width: np.ndarray) -> list[tuple[int, int, int]]:
    """Chunks ``(p0, p1, w)`` of rows sorted by ``width``: rows p0 to p1 - 1,
    padded to the width w of the widest, in at most CHUNK_CELLS cells (a
    wider row runs alone)."""
    chunks = []
    p0 = 0
    while p0 < width.size:
        cells = np.arange(1, width.size - p0 + 1) * width[p0:]
        p1 = p0 + max(1, int(cells.searchsorted(CHUNK_CELLS, "right")))
        chunks.append((p0, p1, int(width[p1 - 1])))
        p0 = p1
    return chunks


def _threshold(best: np.ndarray, eps_tie: float) -> np.ndarray:
    """The tie band's upper end: the minimum itself at ``eps_tie`` 0 (also
    where it is +inf, as 0 * inf would be NaN)."""
    if not eps_tie:
        return best
    return np.maximum(np.abs(best), 1.0) * eps_tie + best


def _bound(x: np.ndarray, side: int) -> np.ndarray:
    """A lower (``side`` -1) or upper (1) bound of the exact counterparts of
    cells ``x`` >= 0."""
    return x * (1 + side * 2.0**-48) + side * 2.0**-1060
