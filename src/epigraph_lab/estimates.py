"""Interior gradient bounds and boundary oscillation-decay probes.

``brandt_check`` tests the ball gradient inequality
|d_i u(y)| <= (2N/delta) max|u| + (delta/4) max|f| with both maxima taken
over the lattice nodes of the closed ball B(y, delta); the centered
difference on the left carries O(h^2) scheme error, so the check allows a
calibrated C h^2 slack.

``oscillation_fit`` measures osc(u) over the domain intersected with shrinking
balls at a boundary point and fits the decay exponent; the oracle for rough
boundaries is refinement stability of the exponent, not a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretization import as_trace
from .errors import ValidationError
from .solver import SolutionField

__all__ = [
    "BrandtReport",
    "OscillationFit",
    "brandt_check",
    "oscillation_fit",
    "BRANDT_SCHEME_CONSTANT",
]

# slack constant multiplying h^2 in the Brandt comparison; calibrated on the
# catalog solutions (worst observed lhs - rhs stays far below rhs, and the
# centered-difference error is bounded by max|u'''| h^2 / 6)
BRANDT_SCHEME_CONSTANT = 2.0


@dataclass
class BrandtReport:
    center: tuple
    delta: float
    lhs: list                 # |centered d_i u| per axis
    rhs: float
    slack: float              # rhs + C h^2 - max lhs
    holds: bool
    meta: dict = field(default_factory=dict)


@dataclass
class OscillationFit:
    center: tuple
    radii: list
    osc_values: list
    alpha_fit: float
    C_fit: float
    meta: dict = field(default_factory=dict)


def brandt_check(u: SolutionField, f_values: np.ndarray, center,
                 delta: float) -> BrandtReport:
    """Gradient bound at one interior node against ball maxima of u and f."""
    grid = u.grid
    if not 0 < delta < math.inf:
        raise ValidationError("delta must be positive and finite")
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != (grid.n_interior,):
        raise ValidationError("f_values length does not match grid")
    center = np.asarray(center, dtype=float)
    if center.shape != (grid.dimension,):
        raise ValidationError("center dimension mismatch")
    # the nearest lattice node must be interior and within h * 1e-6
    idx, offset = grid.snap(center)
    i = int(grid.node(idx)[0])
    if i < 0 or offset[0] > 1e-6:
        raise ValidationError("center is not an interior node")
    ci = idx[0]

    # the closed ball must stay inside the domain: every lattice node of the
    # ball has to be interior; a ball wider than the lattice exits it anyway,
    # so delta / h is capped before it is rounded, and the cube around the
    # ball must fit on the lattice
    reach = math.floor(min(delta / grid.h, sum(grid.shape)) + 1e-9)
    if (ci < reach).any() or (ci + reach >= grid.shape).any():
        raise ValidationError("ball exits domain")
    n = grid.dimension
    offsets = np.stack(np.meshgrid(*[np.arange(-reach, reach + 1)] * n,
                                   indexing="ij"), axis=-1).reshape(-1, n)
    nodes = ci + offsets
    coords = np.stack([grid.axes[k][nodes[:, k]] for k in range(n)], axis=1)
    inball = ((coords - center) ** 2).sum(axis=1) <= delta * delta * (1.0 + 1e-12)
    # the centered difference below reads the +-1 neighbours even when the
    # ball holds no other lattice node (delta < h)
    step = np.eye(n, dtype=np.int64)
    ids = grid.node(np.concatenate([ci + step, ci - step, nodes[inball]]))
    if (ids < 0).any():
        raise ValidationError("ball exits domain")
    up, down, ball = ids[:n], ids[n:2 * n], ids[2 * n:]

    lhs = (np.abs(u.values[up] - u.values[down]) / (2.0 * grid.h)).tolist()
    rhs = (2.0 * n / delta) * float(np.abs(u.values[ball]).max()) \
        + (delta / 4.0) * float(np.abs(f_values[ball]).max())
    slack = rhs + BRANDT_SCHEME_CONSTANT * grid.h**2 - max(lhs)
    return BrandtReport(center=tuple(center.tolist()), delta=float(delta),
                        lhs=lhs, rhs=rhs, slack=slack, holds=slack >= 0.0,
                        meta={"node": i, "ball_nodes": int(ball.size)})


def oscillation_fit(u: SolutionField, x0, radii) -> OscillationFit:
    """Fit log osc(r) vs log r over domain-intersected balls at x0.

    x0 should lie on the domain boundary; its trace value joins the
    oscillation set (the closed intersection contains the boundary point).
    The largest radius (every copy of it) is dropped when its ball comes
    within 3h of an artificial face (the truncation buffer); each ball needs
    3 nodes."""
    grid = u.grid
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (grid.dimension,):
        raise ValidationError("x0 dimension mismatch")
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(radii) < 2 or radii[-1] <= 0:
        raise ValidationError("need at least two positive radii")

    trace_val = float(as_trace(u.trace)(x0.reshape(1, -1))[0])
    d = np.sqrt(((grid.points - x0) ** 2).sum(axis=1))

    # drop the largest radius if it reaches within 3h of an artificial face
    reach = np.stack([x0 - radii[0] < grid.box[:, 0] + 3 * grid.h,
                      x0 + radii[0] > grid.box[:, 1] - 3 * grid.h], axis=1)
    usable = [r for r in radii if r != radii[0]] \
        if (reach & grid.face_artificial).any() else radii
    if len(usable) < 2:
        raise ValidationError("too few radii inside the window")

    osc = []
    for r in usable:
        sel = d <= r
        if int(sel.sum()) < 3:
            raise ValidationError("too few nodes in smallest ball")
        vals = np.concatenate([u.values[sel], [trace_val]])
        osc.append(float(vals.max() - vals.min()))
    logs_r = np.log(usable)
    eps = np.finfo(float).tiny
    logs_o = np.log(np.maximum(osc, eps))
    alpha, intercept = np.polyfit(logs_r, logs_o, 1)
    return OscillationFit(center=tuple(x0.tolist()), radii=usable,
                          osc_values=osc, alpha_fit=float(alpha),
                          C_fit=float(math.exp(intercept)),
                          meta={"trace_val": trace_val, "buffer": 3})
