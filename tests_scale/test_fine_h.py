"""Solves too large for the tier-1 suite (``testpaths`` is ``tests``).

Run with ``python -m pytest tests_scale``; the front below takes about 8 s
and 0.7 GB of memory (peak RSS of the pytest process) on a 2-vCPU machine."""

import numpy as np

from epigraph_lab import (SolvePolicy, assemble_laplacian, build_grid,
                          make_epigraph, make_nonlinearity, solve_semilinear,
                          stencil_residual, tanh_front)


def tanh_trace(pts):
    return tanh_front(pts[:, -1])


def test_large_box_front_converges_at_fine_h():
    # the large arc_bump box at h = 1/64: the max-norm residual stalls near
    # 4.5e-10, above tol, and the componentwise backward-error test stops
    g = build_grid(make_epigraph("arc_bump"), [[-8.0, 8.0], [0.0, 12.0]],
                   1.0 / 64)
    assert g.n_interior == 698577
    op = assemble_laplacian(g)
    sol = solve_semilinear(g, make_nonlinearity("allen_cahn"), trace=tanh_trace,
                           policy=SolvePolicy(init="front_lift"), op=op)
    assert sol.method == "newton"
    assert sol.iterations <= 5
    # the kept Jacobian LU, which preconditions BiCGSTAB, is single precision:
    # its SuperLU factors solve a float32 vector in float32 (reading ``L``
    # would copy the factors, about 170 MB more at this size)
    probe = op._jac_lu._lu.solve(np.ones(op.n, dtype=np.float32))
    assert probe.dtype == np.float32
    # the residual through the gather-based stencil walker, with f written out
    fu = sol.values - sol.values ** 3
    assert np.abs(stencil_residual(g, sol.values, tanh_trace) - fu).max() <= 1e-9
