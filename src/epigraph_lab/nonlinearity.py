"""Nonlinearity catalog with Lipschitz data and comparison-threshold constants.

Every catalog entry carries an exact evaluation rule and an analytic
description of its derivative, so ``lipschitz_on`` can return the true
sup of |f'| on a compact range, or the ``UNBOUNDED`` sentinel where the
function is not locally Lipschitz. Threshold formulas (``epsilon_bounded``,
``epsilon_growth``, ``gamma_max``, ``growth_lower_bound``) are pure
closed-form evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "UNBOUNDED",
    "is_unbounded",
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

NONLINEARITY_KINDS = (
    "constant",
    "linear",
    "allen_cahn",
    "power",
    "sqrt_saturation",
    "double_front_source",
    "custom_table",
)


class _Unbounded:
    """Sentinel meaning 'no finite bound'; sorts above every real."""

    __slots__ = ()

    def __repr__(self):
        return "UNBOUNDED"

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is UNBOUNDED

    def __gt__(self, other):
        return other is not UNBOUNDED

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is UNBOUNDED

    def __ne__(self, other):
        return other is not UNBOUNDED

    def __hash__(self):
        return hash("unbounded-sentinel")


UNBOUNDED = _Unbounded()


def is_unbounded(x) -> bool:
    return x is UNBOUNDED


@dataclass(frozen=True)
class Nonlinearity:
    """Catalog nonlinearity f with declared monotonicity/positivity metadata."""

    kind: str
    params: dict = field(default_factory=dict)
    f0: float = 0.0
    monotone_nonincreasing: bool = False

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise ValidationError(f"unknown nonlinearity kind {self.kind!r}")

    def __call__(self, t):
        return eval_f(self, t)


def make_nonlinearity(kind: str, **params) -> Nonlinearity:
    if kind == "constant":
        k = float(params.get("value", 1.0))
        return Nonlinearity(kind, {"value": k}, f0=k,
                            monotone_nonincreasing=True)
    if kind == "linear":
        c = float(params.get("slope", 1.0))
        return Nonlinearity(kind, {"slope": c}, f0=0.0,
                            monotone_nonincreasing=c <= 0.0)
    if kind == "allen_cahn":
        if params:
            raise ValidationError("allen_cahn takes no parameters")
        return Nonlinearity(kind, {}, f0=0.0)
    if kind == "power":
        q = float(params.get("exponent", 2.0))
        if q <= 0.0:
            raise ValidationError("power exponent must be positive")
        return Nonlinearity(kind, {"exponent": q}, f0=0.0)
    if kind == "sqrt_saturation":
        if params:
            raise ValidationError("sqrt_saturation takes no parameters")
        return Nonlinearity(kind, {}, f0=12.0, monotone_nonincreasing=True)
    if kind == "double_front_source":
        if params:
            raise ValidationError("double_front_source takes no parameters")
        return Nonlinearity(kind, {}, f0=0.0)
    if kind == "custom_table":
        if "ts" not in params or "fs" not in params:
            raise ValidationError("custom_table needs 'ts' and 'fs'")
        ts = np.asarray(params["ts"], dtype=float)
        fs = np.asarray(params["fs"], dtype=float)
        if ts.ndim != 1 or ts.shape != fs.shape or ts.size < 2:
            raise ValidationError("custom_table needs matching 1-D arrays, >= 2 rows")
        if not (np.diff(ts) > 0).all():
            raise ValidationError("custom_table abscissae must be strictly increasing")
        if not (np.isfinite(ts).all() and np.isfinite(fs).all()):
            raise ValidationError("custom_table values must be finite")
        if ts[0] <= 0.0 <= ts[-1]:
            f0 = float(np.interp(0.0, ts, fs))
        else:
            f0 = math.nan
        return Nonlinearity(kind, {"ts": ts, "fs": fs}, f0=f0,
                            monotone_nonincreasing=bool((np.diff(fs) <= 0.0).all()))
    raise ValidationError(f"unknown nonlinearity kind {kind!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _sqrt_saturation(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    out[t < 0.0] = 12.0
    m = (t >= 0.0) & (t <= 1.0)
    out[m] = 12.0 * np.sqrt(1.0 - t[m])
    return out


def _double_front_source(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    m = (t > 0.0) & (t < 1.0)
    tm = t[m]
    r = tm**0.25
    out[m] = -192.0 * np.sqrt(tm * (1.0 - r)) * (1.0 - 1.25 * r)
    return out


def _double_front_source_prime(t: np.ndarray) -> np.ndarray:
    # f = -192 sqrt(p) q with p = t - t^(5/4), q = 1 - (5/4) t^(1/4), p' = q
    out = np.zeros_like(t)
    m = (t > 0.0) & (t < 1.0)
    tm = t[m]
    p = tm - tm**1.25
    q = 1.0 - 1.25 * tm**0.25
    out[m] = -192.0 * (q * q / (2.0 * np.sqrt(p)) - 0.3125 * tm**-0.75 * np.sqrt(p))
    return out


def eval_f(f: Nonlinearity, t):
    """Evaluate f at a scalar or array argument."""
    a = np.asarray(t, dtype=float)
    scalar = a.ndim == 0
    a = np.atleast_1d(a)
    k = f.kind
    if k == "constant":
        out = np.full_like(a, f.params["value"])
    elif k == "linear":
        out = f.params["slope"] * a
    elif k == "allen_cahn":
        out = a - a**3
    elif k == "power":
        out = np.maximum(a, 0.0) ** f.params["exponent"]
    elif k == "sqrt_saturation":
        out = _sqrt_saturation(a)
    elif k == "double_front_source":
        out = _double_front_source(a)
    else:
        ts, fs = f.params["ts"], f.params["fs"]
        if (a < ts[0]).any() or (a > ts[-1]).any():
            raise ValidationError("domain exceeded")
        out = np.interp(a, ts, fs)
    return float(out[0]) if scalar else out


def eval_f_prime(f: Nonlinearity, t):
    """Pointwise derivative where it exists; used by Newton linearizations.

    At catalog kink points the one-sided derivative from the active branch
    is returned; table entries use the local segment slope.
    """
    a = np.asarray(t, dtype=float)
    scalar = a.ndim == 0
    a = np.atleast_1d(a)
    k = f.kind
    if k == "constant":
        out = np.zeros_like(a)
    elif k == "linear":
        out = np.full_like(a, f.params["slope"])
    elif k == "allen_cahn":
        out = 1.0 - 3.0 * a**2
    elif k == "power":
        q = f.params["exponent"]
        out = np.zeros_like(a)
        m = a > 0.0
        out[m] = q * a[m] ** (q - 1.0)
    elif k == "sqrt_saturation":
        out = np.zeros_like(a)
        m = (a > 0.0) & (a < 1.0)
        out[m] = -6.0 / np.sqrt(1.0 - a[m])
    elif k == "double_front_source":
        out = _double_front_source_prime(a)
    else:
        ts, fs = f.params["ts"], f.params["fs"]
        if (a < ts[0]).any() or (a > ts[-1]).any():
            raise ValidationError("domain exceeded")
        slopes = np.diff(fs) / np.diff(ts)
        idx = np.clip(np.searchsorted(ts, a, side="right") - 1, 0, len(slopes) - 1)
        out = slopes[idx]
    return float(out[0]) if scalar else out


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


def lipschitz_on(f: Nonlinearity, interval):
    """Sup of |f'| over [m, M], or UNBOUNDED where f is not locally Lipschitz."""
    m, M = (float(v) for v in interval)
    if m > M:
        raise ValidationError("interval must satisfy m <= M")
    k = f.kind
    if k == "constant":
        return 0.0
    if k == "linear":
        return abs(f.params["slope"])
    if k == "allen_cahn":
        cands = [abs(1.0 - 3.0 * m * m), abs(1.0 - 3.0 * M * M)]
        if m <= 0.0 <= M:
            cands.append(1.0)
        return max(cands)
    if k == "power":
        q = f.params["exponent"]
        if q >= 1.0:
            return q * max(M, 0.0) ** (q - 1.0) if M > 0.0 else 0.0
        if M <= 0.0:
            return 0.0
        if m <= 0.0:
            return UNBOUNDED  # slope q t^(q-1) blows up at 0+
        return q * m ** (q - 1.0)
    if k == "sqrt_saturation":
        if M <= 0.0 or m >= 1.0:
            return 0.0
        if M >= 1.0:
            return UNBOUNDED  # slope -6/sqrt(1-t) blows up at 1-
        return 6.0 / math.sqrt(1.0 - M)
    if k == "double_front_source":
        if M <= 0.0 or m >= 1.0:
            return 0.0
        if m <= 0.0 or M >= 1.0:
            return UNBOUNDED  # derivative blows up at both ends of (0,1)
        return _sup_abs_on(_double_front_source_prime, m, M)
    ts = f.params["ts"]
    fs = f.params["fs"]
    lo = np.searchsorted(ts, m, side="right") - 1
    hi = np.searchsorted(ts, M, side="left")
    lo = max(lo, 0)
    hi = min(hi, len(ts) - 1)
    if hi <= lo:
        return 0.0
    seg = np.abs(np.diff(fs[lo:hi + 1]) / np.diff(ts[lo:hi + 1]))
    return float(seg.max())


# ---------------------------------------------------------------------------
# threshold constants
# ---------------------------------------------------------------------------

def epsilon_bounded(L: float):
    """Width threshold pi/sqrt(2 L); UNBOUNDED at L = 0 (no smallness needed)."""
    if is_unbounded(L):
        return 0.0
    L = float(L)
    if L < 0.0:
        raise ValidationError("Lipschitz constant must be nonnegative")
    if L == 0.0:
        return UNBOUNDED
    return math.pi / math.sqrt(2.0 * L)


def epsilon_growth(L: float, gamma: float):
    """Width threshold pi/sqrt(16(e-1) gamma^2 + 2 L); UNBOUNDED at L = gamma = 0."""
    if is_unbounded(L):
        return 0.0
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
