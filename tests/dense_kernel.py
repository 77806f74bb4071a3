"""The plain minimization that :func:`mfroute.value_backward` computes, its
bitwise reference.

Every interior suffix, after its successor, takes at each entry node i the
minimum of its candidates over every admissible arrival node j from
max(i + 1, floor_i) to N, and the latest j within the tie band.  It shares
only the stop rule, :func:`mfroute.value._initial_rows`, with the search and
evaluates the same float expressions, so the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from mfroute.value import _initial_rows


def dense_value_backward(net, ps, scen, phi_prefix, arrival_floor=None):
    """Value and policy tables as :func:`mfroute.value_backward` returns them."""
    n = scen.grid.steps
    t2 = scen.grid.nodes * 2.0
    eps_tie = scen.solver.eps_tie
    suffixes = ps.suffix_table[0]
    values, tau_idx, tail_cost = _initial_rows(net, suffixes, phi_prefix, scen.grid.nodes,
                                               scen.alpha, arrival_floor)
    for s, (e, succ) in enumerate(suffixes):  # each suffix after its successor
        if succ < 0:
            continue
        length = float(net.lengths[e])
        l2 = length * length  # +inf past the float range
        phi = phi_prefix[e]
        cont = values[succ].copy()
        cont[n] = min(tail_cost[s], values[succ, n])
        for i in range(n):
            a = i + 1 if arrival_floor is None else max(i + 1, int(arrival_floor[e, i]))
            if a > n:
                continue
            with np.errstate(all="ignore"):  # +inf and NaN inputs propagate
                f = (l2 / (t2[a:] - t2[i]) + (phi[a:] - phi[i])) + cont[a:]
            best = f[f.argmin()]  # the first NaN, if any, sign bit included
            threshold = best + max(abs(best), 1.0) * eps_tie if eps_tie else best
            if best <= values[s, i]:
                tau_idx[s, i] = a + np.flatnonzero(f <= threshold)[-1]
            values[s, i] = np.minimum(values[s, i], best)
    return values, tau_idx
