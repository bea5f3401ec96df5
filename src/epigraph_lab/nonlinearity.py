"""Nonlinearity catalog with Lipschitz data and comparison-threshold constants.

The catalog is one table, ``_KINDS``, whose entries carry an exact
evaluation rule and an analytic description of the derivative, so
``lipschitz_on`` can return the true sup of |f'| on a compact range, or
``UNBOUNDED`` (+inf) where the function is not locally Lipschitz. Threshold
formulas (``epsilon_bounded``, ``epsilon_growth``, ``gamma_max``,
``growth_lower_bound``) are pure closed-form evaluations.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_params

__all__ = [
    "UNBOUNDED",
    "Nonlinearity",
    "NONLINEARITY_KINDS",
    "make_nonlinearity",
    "eval_f",
    "eval_f_prime",
    "lipschitz_on",
    "epsilon_bounded",
    "epsilon_growth",
    "gamma_max",
    "growth_lower_bound",
]

# "no finite bound": a Lipschitz constant where f is not locally Lipschitz,
# a width threshold where no smallness is needed
UNBOUNDED = math.inf


@dataclass(frozen=True)
class Nonlinearity:
    """Catalog nonlinearity f: a kind and its checked parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise ValidationError(f"unknown nonlinearity kind {self.kind!r}")

    def __call__(self, t):
        return eval_f(self, t)

    @property
    def f0(self) -> float:
        """f(0), or NaN for a table that does not cover 0."""
        try:
            # + 0.0 reads the -0.0 of a negative slope times 0 as 0.0
            return eval_f(self, 0.0) + 0.0
        except ValidationError:
            return math.nan

    @property
    def monotone_nonincreasing(self) -> bool:
        return _KINDS[self.kind].nonincreasing(self.params)

    @property
    def derivative_unbounded(self) -> bool:
        """Whether f' blows up somewhere (then f is not locally Lipschitz)."""
        return _KINDS[self.kind].derivative_unbounded(self.params)


def make_nonlinearity(kind: str, **params) -> Nonlinearity:
    """Catalog factory. Parameters (defaults): ``constant`` value (1.0),
    ``linear`` slope (1.0), ``power`` exponent (2.0, > 0), ``custom_table``
    ts and fs (required; matching finite 1-D arrays, ts increasing); the
    other kinds none. An unknown kind or parameter, a missing one and a
    non-finite number raise ValidationError."""
    _, params = check_params(_KINDS, kind, "nonlinearity kind", params)
    return Nonlinearity(kind, params)


def _check_power(p: dict) -> dict:
    if p["exponent"] <= 0.0:
        raise ValidationError("power exponent must be positive")
    return p


def _check_table(p: dict) -> dict:
    ts = np.asarray(p["ts"], dtype=float)
    fs = np.asarray(p["fs"], dtype=float)
    if ts.ndim != 1 or ts.shape != fs.shape or ts.size < 2:
        raise ValidationError("custom_table needs matching 1-D arrays, >= 2 rows")
    if not (np.diff(ts) > 0).all():
        raise ValidationError("custom_table abscissae must be strictly increasing")
    if not (np.isfinite(ts).all() and np.isfinite(fs).all()):
        raise ValidationError("custom_table values must be finite")
    return {"ts": ts, "fs": fs}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _masked(t: np.ndarray, mask: np.ndarray, rule) -> np.ndarray:
    """rule(t) where mask holds, 0 elsewhere."""
    out = np.zeros_like(t)
    out[mask] = rule(t[mask])
    return out


def _double_front_source_prime(t: np.ndarray, params: dict) -> np.ndarray:
    # f = -192 sqrt(p) q with p = t - t^(5/4), q = 1 - (5/4) t^(1/4), p' = q
    def slope(tm):
        p = tm - tm**1.25
        q = 1.0 - 1.25 * tm**0.25
        return -192.0 * (q * q / (2.0 * np.sqrt(p)) - 0.3125 * tm**-0.75 * np.sqrt(p))
    return _masked(t, (t > 0.0) & (t < 1.0), slope)


def _table(t: np.ndarray, p: dict):
    """The table's nodes and values, once t is checked to lie on it."""
    ts, fs = p["ts"], p["fs"]
    if (t < ts[0]).any() or (t > ts[-1]).any():
        raise ValidationError("domain exceeded")
    return ts, fs


def _table_prime(t: np.ndarray, p: dict) -> np.ndarray:
    ts, fs = _table(t, p)
    slopes = np.diff(fs) / np.diff(ts)
    idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(slopes) - 1)
    return slopes[idx]


def _evaluate(rule, f: Nonlinearity, t):
    """``rule`` of f's entry at a scalar (float out) or array argument."""
    a = np.asarray(t, dtype=float)
    out = rule(np.atleast_1d(a), f.params)
    return float(out[0]) if a.ndim == 0 else out


def eval_f(f: Nonlinearity, t):
    """Evaluate f at a scalar or array argument."""
    return _evaluate(_KINDS[f.kind].f, f, t)


def eval_f_prime(f: Nonlinearity, t):
    """Pointwise derivative where it exists; used by Newton linearizations.

    At catalog kink points the one-sided derivative from the active branch
    is returned; table entries use the local segment slope.
    """
    return _evaluate(_KINDS[f.kind].f_prime, f, t)


# ---------------------------------------------------------------------------
# Lipschitz constants on compact ranges
# ---------------------------------------------------------------------------

def _sup_abs_on(fun, lo: float, hi: float) -> float:
    # dense scan plus a bounded 1-D polish around the best sample
    t = np.linspace(lo, hi, 20001)
    vals = np.abs(fun(t))
    i = int(np.argmax(vals))
    best = float(vals[i])
    a = t[max(i - 1, 0)]
    b = t[min(i + 1, len(t) - 1)]
    if b > a:
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(lambda s: -abs(float(fun(np.array([s]))[0])),
                              bounds=(a, b), method="bounded",
                              options={"xatol": 1e-12})
        best = max(best, -float(res.fun))
    return best


def _power_lipschitz(p: dict, m: float, M: float) -> float:
    q = p["exponent"]
    if M <= 0.0:
        return 0.0
    if q < 1.0 and m <= 0.0:
        return UNBOUNDED  # slope q t^(q-1) blows up at 0+
    try:  # the slope is largest at M for q >= 1, at m for q < 1
        return q * (M if q >= 1.0 else m) ** (q - 1.0)
    except OverflowError:  # lipschitz_on raises on it if f is locally Lipschitz
        return math.inf


def _sqrt_saturation_lipschitz(p: dict, m: float, M: float) -> float:
    if M <= 0.0 or m >= 1.0:
        return 0.0
    if M >= 1.0:
        return UNBOUNDED  # slope -6/sqrt(1-t) blows up at 1-
    return 6.0 / math.sqrt(1.0 - M)


def _double_front_source_lipschitz(p: dict, m: float, M: float) -> float:
    if M <= 0.0 or m >= 1.0:
        return 0.0
    if m <= 0.0 or M >= 1.0:
        return UNBOUNDED  # derivative blows up at both ends of (0,1)
    return _sup_abs_on(lambda t: _double_front_source_prime(t, p), m, M)


def _table_lipschitz(p: dict, m: float, M: float) -> float:
    # the largest slope of the segments lo..hi - 1 that meet [m, M]
    ts, fs = p["ts"], p["fs"]
    lo = max(np.searchsorted(ts, m, side="right") - 1, 0)
    hi = min(np.searchsorted(ts, M, side="left"), len(ts) - 1)
    if hi <= lo:
        return 0.0
    seg = np.abs(np.diff(fs[lo:hi + 1]) / np.diff(ts[lo:hi + 1]))
    return float(seg.max())


def lipschitz_on(f: Nonlinearity, interval):
    """Sup of |f'| over [m, M], or UNBOUNDED where f is not locally Lipschitz."""
    m, M = (float(v) for v in interval)
    if m > M:
        raise ValidationError("interval must satisfy m <= M")
    bound = _KINDS[f.kind].lipschitz(f.params, m, M)
    if math.isinf(bound) and not f.derivative_unbounded:
        # f is locally Lipschitz: an infinite bound is float overflow
        raise ValidationError(
            f"Lipschitz bound of {f.kind} overflows on [{m:g}, {M:g}]")
    return bound


# a catalog kind: f and f_prime map (1-D t, params), lipschitz (params, m,
# M) and the two flags params to a bool; defaults as in errors.check_params
_Kind = namedtuple("_Kind", ["f", "f_prime", "lipschitz", "defaults", "prepare",
                             "nonincreasing", "derivative_unbounded"],
                   defaults=({}, lambda p: p, lambda p: False, lambda p: False))
_KINDS = {
    "constant": _Kind(
        lambda t, p: np.full_like(t, p["value"]),
        lambda t, p: np.zeros_like(t),
        lambda p, m, M: 0.0,
        defaults={"value": 1.0}, nonincreasing=lambda p: True),
    "linear": _Kind(
        lambda t, p: p["slope"] * t,
        lambda t, p: np.full_like(t, p["slope"]),
        lambda p, m, M: abs(p["slope"]),
        defaults={"slope": 1.0},
        nonincreasing=lambda p: p["slope"] <= 0.0),
    "allen_cahn": _Kind(
        # t * t * t, not t**3: NumPy sends the cube through pow, 25x slower
        lambda t, p: t - t * t * t,
        lambda t, p: 1.0 - 3.0 * t**2,
        # |f'| = |1 - 3 t^2| peaks at an end of [m, M] or at t = 0
        lambda p, m, M: max(abs(1.0 - 3.0 * m * m), abs(1.0 - 3.0 * M * M),
                            1.0 if m <= 0.0 <= M else 0.0)),
    "power": _Kind(
        lambda t, p: np.maximum(t, 0.0) ** p["exponent"],
        lambda t, p: _masked(
            t, t > 0.0, lambda tm: p["exponent"] * tm ** (p["exponent"] - 1.0)),
        _power_lipschitz,
        defaults={"exponent": 2.0}, prepare=_check_power,
        derivative_unbounded=lambda p: p["exponent"] < 1.0),
    "sqrt_saturation": _Kind(
        lambda t, p: np.where(t < 0.0, 12.0, _masked(
            t, (t >= 0.0) & (t <= 1.0), lambda tm: 12.0 * np.sqrt(1.0 - tm))),
        lambda t, p: _masked(t, (t > 0.0) & (t < 1.0),
                             lambda tm: -6.0 / np.sqrt(1.0 - tm)),
        _sqrt_saturation_lipschitz,
        nonincreasing=lambda p: True, derivative_unbounded=lambda p: True),
    "double_front_source": _Kind(
        lambda t, p: _masked(t, (t > 0.0) & (t < 1.0), lambda tm: -192.0 * np.sqrt(
            tm * (1.0 - tm**0.25)) * (1.0 - 1.25 * tm**0.25)),
        _double_front_source_prime, _double_front_source_lipschitz,
        derivative_unbounded=lambda p: True),
    "custom_table": _Kind(
        lambda t, p: np.interp(t, *_table(t, p)), _table_prime, _table_lipschitz,
        defaults={"ts": None, "fs": None}, prepare=_check_table,
        nonincreasing=lambda p: bool((np.diff(p["fs"]) <= 0.0).all())),
}
NONLINEARITY_KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# threshold constants
# ---------------------------------------------------------------------------

def epsilon_bounded(L: float):
    """Width threshold pi/sqrt(2 L); UNBOUNDED at L = 0 (no smallness needed)."""
    L = float(L)
    if L < 0.0:
        raise ValidationError("Lipschitz constant must be nonnegative")
    if L == 0.0:
        return UNBOUNDED
    return math.pi / math.sqrt(2.0 * L)


def epsilon_growth(L: float, gamma: float):
    """Width threshold pi/sqrt(16(e-1) gamma^2 + 2 L); UNBOUNDED at L = gamma = 0."""
    L = float(L)
    gamma = float(gamma)
    if L < 0.0 or gamma < 0.0:
        raise ValidationError("L and gamma must be nonnegative")
    denom = 16.0 * (math.e - 1.0) * gamma * gamma + 2.0 * L
    if denom == 0.0:
        return UNBOUNDED
    return math.pi / math.sqrt(denom)


def gamma_max(S: float) -> float:
    """Largest admissible exponential rate pi/(4 S sqrt(e-1)) for section S."""
    S = float(S)
    if S <= 0.0:
        raise ValidationError("section must be positive")
    return math.pi / (4.0 * S * math.sqrt(math.e - 1.0))


def growth_lower_bound(alpha: float, A: float, wA: float, R: float) -> float:
    """Doubling-step lower bound wA * e^((R-A)/h - 1), h = sqrt((e-1)/alpha)."""
    alpha = float(alpha)
    A = float(A)
    wA = float(wA)
    R = float(R)
    if alpha <= 0.0 or A <= 0.0 or wA <= 0.0:
        raise ValidationError("alpha, A, wA must be positive")
    h = math.sqrt((math.e - 1.0) / alpha)
    if R < A + h:
        raise ValidationError("below first doubling step")
    return wA * math.exp((R - A) / h - 1.0)
