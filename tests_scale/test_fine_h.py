"""Solves too large for the tier-1 suite (``testpaths`` is ``tests``).

Run with ``python -m pytest tests_scale``; the front below takes about 14 s
and 1.1 GB of memory on a 2-vCPU machine."""

import numpy as np

from epigraph_lab import (SolvePolicy, build_grid, make_epigraph,
                          make_nonlinearity, solve_semilinear,
                          stencil_residual, tanh_front)


def tanh_trace(pts):
    return tanh_front(pts[:, -1])


def test_large_box_front_converges_at_fine_h():
    # the large arc_bump box at h = 1/64: the max-norm residual stalls near
    # 4.5e-10, above tol, and the componentwise backward-error test stops
    g = build_grid(make_epigraph("arc_bump"), [[-8.0, 8.0], [0.0, 12.0]],
                   1.0 / 64)
    assert g.n_interior == 698577
    sol = solve_semilinear(g, make_nonlinearity("allen_cahn"), trace=tanh_trace,
                           policy=SolvePolicy(init="front_lift"))
    assert sol.method == "newton"
    assert sol.iterations <= 5
    # the residual through the gather-based stencil walker, with f written out
    fu = sol.values - sol.values ** 3
    assert np.abs(stencil_residual(g, sol.values, tanh_trace) - fu).max() <= 1e-9
