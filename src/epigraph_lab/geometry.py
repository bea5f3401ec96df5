"""Epigraph domains, catalog open sets, reflections and section measures.

Domains come in two flavours. An ``EpigraphSpec`` describes a set
``{x : x_N > g(x')}`` with the profile ``g`` drawn from the table
``_PROFILES`` (half space, two bump-and-ramp profiles, a Weierstrass-type
series, a coercive quadratic, an exponential, or tabulated samples). A
``GeneralOpenSet`` wraps a predicate of the table ``_OPEN_SETS`` for sets
that are not epigraphs (strips, two pathological planar sets, the positive
orthant, revolution-type tubes with radii from ``_RADII``).

The section of a set in a direction ``nu`` is the supremum over lines
parallel to ``nu`` of the 1-D measure of the slice. ``section_measure``
estimates it by sampling membership along a lattice of lines, one line at a
time in bounded chunks, then locating every boundary crossing of the scan by
one batched bisection.

This module owns membership: ``_membership`` adapts a domain or a bare
predicate, and ``_bisect`` locates membership flips in one batch, along one
direction or one direction per flip (its ``contains`` is a predicate from
``_membership``); the cut-arm fractions of
``discretization.build_grid`` come from both, every axis and side at once.
A predicate receives column-contiguous (Fortran-ordered) (m, N) batches of
points, from the scans and bisections here and from ``build_grid``'s
lattice mask, so a user predicate must not assume C order. Its answer must
hold one flag per point; ``_membership`` checks that shape on every call.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_params

__all__ = [
    "EpigraphSpec",
    "GeneralOpenSet",
    "SectionMeasure",
    "EPIGRAPH_KINDS",
    "OPEN_SET_KINDS",
    "make_epigraph",
    "eval_g",
    "section_measure",
    "strip_set",
    "winged_strip_set",
    "under_parabola_set",
    "orthant_set",
    "revolution_set",
]

# a bound above the winged strip's widest wing half-width, asinh(1) = 0.8814
_WING_REACH = 0.89


# ---------------------------------------------------------------------------
# profile formulas
# ---------------------------------------------------------------------------

def _arc_bump_profile(t: np.ndarray) -> np.ndarray:
    """Flat, half-disc bump on [-4,0], quarter-disc rise on [0,2], flat 2."""
    out = np.zeros_like(t)
    m = (t >= -4.0) & (t <= 0.0)
    out[m] = np.sqrt(np.maximum(4.0 - (t[m] + 2.0) ** 2, 0.0))
    m = (t > 0.0) & (t <= 2.0)
    out[m] = np.sqrt(np.maximum(4.0 - (t[m] - 2.0) ** 2, 0.0))
    out[t > 2.0] = 2.0
    return out


# the Weierstrass phase residues live in 32-bit limbs of uint64 words, where
# limb * b + carry must not wrap: hence b < 2^32
_LIMB_BITS = 32


def _weierstrass_term_count(b: int, alpha: float, tol: float) -> int:
    # keep terms 1..n where n is the first index whose geometric tail bound
    # b^{-n alpha} / (1 - b^{-alpha}) drops below tol
    r = float(b) ** (-alpha)
    n = 1
    while r**n / (1.0 - r) > tol:
        n += 1
        if n > 100000:
            raise ValidationError("weierstrass tolerance unreachable")
    return n


def _vanishing_order(m: np.ndarray, bits: np.ndarray, b: int, nterms: int):
    """The points sorted by their count of nonzero phases R_n = b^n m mod
    2^bits, n = 1..nterms, most first, and for each term n the number of
    sorted points whose R_n is nonzero: all n with n v2(b) + v2(m) < bits."""
    nonzero = np.where(m > 0, nterms, 0)
    v2b = (b & -b).bit_length() - 1
    if v2b:
        v2m = np.frexp((m & (~m + np.uint64(1))).astype(float))[1] - 1
        np.minimum(nonzero, (bits - 1 - v2m) // v2b, out=nonzero, where=m > 0)
    order = np.argsort(-nonzero, kind="stable")
    ends = np.searchsorted(-nonzero[order], -np.arange(1, nterms + 1), side="right")
    return order, ends


def _weierstrass_profile(t: np.ndarray, b: int, alpha: float, tol: float) -> np.ndarray:
    # sum_{n=1..nterms} b^{-n alpha} cos(pi b^n t) with every phase reduced
    # exactly. The series is even and 2-periodic, so x = fmod(|t|, 2), which
    # is exact. Write x = M 2^e with an integer M < 2^53; then b^n x = R_n 2^e
    # modulo 2, where R_n = b^n M mod 2^(1-e) = b R_{n-1} mod 2^(1-e). R_n is
    # kept exactly in 32-bit limbs (b < 2^32 keeps limb * b + carry inside
    # uint64), and limb k times 2^(32k+e) is an exact double. So the phase
    # y = R_n 2^e in [0, 2) is correctly rounded when two limbs hold R_n
    # (1 - e <= 64: x = 0 or x >= 2^-11) and within a few ulps otherwise,
    # and folding it to min(y, 2 - y), where the cosine is cheapest, is
    # exact. Each term is thus within a few ulps of its exact value at the
    # given double, and the sum within about 1e-15 of the declared partial
    # sum, whose tail is below tol.
    #
    # The phase vanishes for good: R_n = 0 exactly when b^n M is a multiple
    # of 2^(1-e), i.e. from the first n with n v2(b) + v2(M) >= 1 - e on
    # (v2 the power of 2 dividing; never for odd b unless M = 0), and a zero
    # phase adds amp cos(0) = amp exactly. So the points are sorted by their
    # count of nonzero phases, and each term reduces phases and takes cosines
    # only on the prefix that still has one, while the rest add amp in the
    # same term order: every output has the bits of the full loop. (A
    # bisection midpoint after j steps on the h = 2^-6 lattice has 6 + j
    # fractional bits, so for b = 2 its phase is zero from term j + 7 on.)
    #
    # Terms are added one at a time and a point's limbs above its own
    # modulus stay zero, so its value does not depend on the batch it comes
    # in; the series is summed once per distinct x and gathered back (a
    # lattice holds few distinct x', a vertical probe line one).
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):  # fmod(inf, 2) is NaN, as for NaN t
        distinct, back = np.unique(np.fmod(np.abs(t), 2.0), return_inverse=True)
    undefined = np.isnan(distinct)   # t was NaN or infinite
    x = np.where(undefined, 0.0, distinct)
    e = np.maximum(np.frexp(x)[1] - 53, -1074)
    m = np.ldexp(x, -e).astype(np.uint64)
    nterms = _weierstrass_term_count(b, alpha, tol)
    order, ends = _vanishing_order(m, 1 - e, b, nterms)
    e, m = e[order], m[order]
    bits = 1 - e                     # R_n lives modulo 2^bits, bits >= 53
    offset = np.arange(0, int(bits.max(initial=53)), _LIMB_BITS)[:, None]  # limb k: bit 32k
    masks = (np.uint64(1) << np.clip(bits - offset, 0, _LIMB_BITS).astype(np.uint64)) \
        - np.uint64(1)
    scales = np.ldexp(1.0, offset + e)
    limbs = np.zeros(masks.shape, np.uint64)
    limbs[0] = m
    limbs[1] = limbs[0] >> _LIMB_BITS
    limbs &= masks
    amps = float(b) ** (-alpha * np.arange(1, nterms + 1, dtype=float))
    out = np.zeros(distinct.shape)
    for amp, p in zip(amps, ends):
        if p:
            live, mask, scale = limbs[:, :p], masks[:, :p], scales[:, :p]
            live *= np.uint64(b)
            for k in range(1, len(live)):
                live[k] += live[k - 1] >> _LIMB_BITS
            live &= mask
            y = live[-1] * scale[-1]
            for k in range(len(live) - 2, -1, -1):
                y += live[k] * scale[k]
            np.minimum(y, 2.0 - y, out=y)
            out[:p] += amp * np.cos(np.pi * y)
        out[p:] += amp
    value = np.empty_like(out)
    value[order] = out
    value[undefined] = np.nan
    return value[back].reshape(t.shape)


def _coercive_quadratic(xp: np.ndarray) -> np.ndarray:
    # x_1^2 for a planar epigraph; x_1^2 + prod_j sin(j x_j) in higher dimension
    d = xp.shape[1]
    out = xp[:, 0] ** 2
    if d >= 2:
        prod = np.ones(xp.shape[0])
        for j in range(2, d + 1):
            prod = prod * np.sin(j * xp[:, j - 1])
        out = out + prod
    return out


def _exp_x1(xp: np.ndarray) -> np.ndarray:
    d = xp.shape[1]
    arg = xp[:, 0].copy()
    for j in range(2, d + 1):
        arg = arg + np.cos(xp[:, j - 1]) ** j
    return np.exp(arg)


def _interp_sampled(xp: np.ndarray, axes, values) -> np.ndarray:
    # axes and values as _check_sampled leaves them: float arrays
    if len(axes) == 1:
        return np.interp(xp[:, 0], axes[0], values)
    from scipy.interpolate import RegularGridInterpolator

    query = xp.copy()
    for k, a in enumerate(axes):  # clamp: constant extension outside the table
        query[:, k] = np.clip(query[:, k], a[0], a[-1])
    itp = RegularGridInterpolator(axes, values, method="linear")
    return itp(query)


def _check_abscissae(xs: np.ndarray, what: str) -> None:
    """Reject a table axis that ``np.interp`` or the clamp would misread."""
    if xs.ndim != 1 or xs.size < 2 or not np.isfinite(xs).all() \
            or not (np.diff(xs) > 0).all():
        raise ValidationError(f"{what} must be finite, strictly increasing "
                              "and hold >= 2 samples")


def _check_weierstrass(p: dict, dimension: int) -> dict:
    b = p["b"]
    if not (isinstance(b, numbers.Real) and 2 <= b < 2**_LIMB_BITS
            and float(b).is_integer()):
        raise ValidationError("weierstrass base must be an integer in [2, 2^32)")
    if not 0.0 < p["alpha"] < 1.0:
        raise ValidationError("weierstrass exponent must lie in (0,1)")
    if not 0.0 < p["tol"] < math.inf:
        raise ValidationError("weierstrass tolerance must be positive and finite")
    return {**p, "b": int(b)}


def _check_sampled(p: dict, dimension: int) -> dict:
    axes = tuple(np.asarray(a, dtype=float) for a in p["axes"])
    if len(axes) != dimension - 1:
        raise ValidationError("custom_sampled axes must match dimension - 1")
    for a in axes:
        _check_abscissae(a, "custom_sampled axes")
    values = np.asarray(p["values"], dtype=float)
    if values.shape != tuple(len(a) for a in axes):
        raise ValidationError("custom_sampled values shape mismatch")
    if not np.isfinite(values).all():
        raise ValidationError("custom_sampled values must be finite")
    return {"axes": axes, "values": values}


def _check_samples(p: dict, dimension: int) -> dict:
    xs = np.asarray(p["xs"], dtype=float)
    phis = np.asarray(p["phis"], dtype=float)
    if xs.ndim != 1 or xs.shape != phis.shape:
        raise ValidationError("profile samples must be matching 1-D arrays")
    _check_abscissae(xs, "profile samples xs")
    if not np.isfinite(phis).all():
        raise ValidationError("profile samples phis must be finite")
    return {"xs": xs, "phis": phis}


# a catalog profile: formula maps (points, params) to values; prepare and
# shift map (params, dimension) to checked params and a normalizing shift
_Profile = namedtuple("_Profile", ["formula", "defaults", "prepare", "shift"],
                      defaults=({}, lambda p, dimension: p,
                                lambda p, dimension: 0.0))


# epigraph profiles g(x') of an (m, N-1) batch x'; the first is the
# CLI's default profile
_PROFILES = {
    "half_space": _Profile(lambda xp, p: np.zeros(xp.shape[0])),
    "arc_bump": _Profile(lambda xp, p: _arc_bump_profile(xp[:, 0])),
    "arc_bump_ramp": _Profile(lambda xp, p: _arc_bump_profile(xp[:, 0])
                              + np.maximum(xp[:, 0] - 6.0, 0.0)),
    "weierstrass": _Profile(
        lambda xp, p: _weierstrass_profile(xp[:, 0], p["b"], p["alpha"], p["tol"]),
        {"b": 2, "alpha": 0.5, "tol": 1e-12}, _check_weierstrass,
        # minus the minimum over one period, 2/b in x
        lambda p, dimension: -float(_weierstrass_profile(np.linspace(
            0.0, 2.0 / p["b"], 10001), p["b"], p["alpha"], p["tol"]).min())),
    "coercive_quadratic": _Profile(
        lambda xp, p: _coercive_quadratic(xp),
        # inf of x1^2 + prod sin(j x_j) is -1
        shift=lambda p, dimension: 1.0 if dimension >= 3 else 0.0),
    "exp_x1": _Profile(lambda xp, p: _exp_x1(xp)),
    "custom_sampled": _Profile(
        lambda xp, p: _interp_sampled(xp, p["axes"], p["values"]),
        {"axes": None, "values": None}, _check_sampled,
        lambda p, dimension: -float(p["values"].min())),
}
EPIGRAPH_KINDS = tuple(_PROFILES)


# ---------------------------------------------------------------------------
# epigraph spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpigraphSpec:
    """Epigraph {x_N > g(x')} with g = catalog profile + vertical shift."""

    dimension: int
    kind: str
    params: dict = field(default_factory=dict)
    shift: float = 0.0

    def __post_init__(self):
        if self.dimension < 2:
            raise ValidationError("epigraph dimension must be >= 2")
        if self.kind not in EPIGRAPH_KINDS:
            raise ValidationError(f"unknown epigraph kind {self.kind!r}")

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise ValidationError("point dimension mismatch")
        gvals = _eval_g_batch(self, pts[:, :-1])
        return pts[:, -1] > gvals

    def describe(self) -> dict:
        out = {"kind": self.kind, "dimension": self.dimension, "shift": self.shift}
        out.update({k: v for k, v in self.params.items() if np.isscalar(v)})
        return out


def _eval_g_batch(spec: EpigraphSpec, xp: np.ndarray) -> np.ndarray:
    return _PROFILES[spec.kind].formula(xp, spec.params) + spec.shift


def eval_g(spec: EpigraphSpec, x_prime):
    """Boundary profile g(x'); scalar in, scalar out."""
    d = spec.dimension - 1
    a = np.asarray(x_prime, dtype=float)
    if a.ndim == 0 and d != 1:
        raise ValidationError("scalar x' only valid for planar epigraphs")
    # a planar epigraph takes a batch of scalars, any other one point or a batch
    batch = a.reshape(-1, 1) if d == 1 and a.ndim < 2 else np.atleast_2d(a)
    if batch.shape[1] != d:
        raise ValidationError("x' dimension mismatch")
    g = _eval_g_batch(spec, batch)
    return float(g[0]) if a.ndim == 0 or a.ndim == 1 and d > 1 else g


def make_epigraph(kind: str, dimension: int = 2, normalize: bool = True, **params) -> EpigraphSpec:
    """Catalog factory with a vertical shift that normalizes the profile.

    Parameters (defaults): ``weierstrass`` b (2, an integer in [2, 2^32)),
    alpha (0.5, in (0, 1)) and tol (1e-12, > 0, the series' tail bound);
    ``custom_sampled`` axes and values (required; dimension - 1 increasing
    axes and finite values shaped by them); the other kinds none. An unknown
    kind or parameter, a missing one and a non-finite number raise
    ValidationError.

    For ``weierstrass`` the shift is minus the minimum of the series
    sampled at 10,001 points of one period, so inf g can sit slightly below
    0: the series dips between the samples (to about -0.01 for the default
    parameters). For every other kind it puts inf g at 0.
    ``normalize=False`` keeps the raw catalog formula (shift 0).
    """
    entry, params = check_params(_PROFILES, kind, "epigraph kind", params, dimension)
    shift = entry.shift(params, dimension) if normalize else 0.0
    return EpigraphSpec(dimension=dimension, kind=kind, params=params, shift=shift)


# ---------------------------------------------------------------------------
# general open sets
# ---------------------------------------------------------------------------

def _winged_strip(pts: np.ndarray, p: dict) -> np.ndarray:
    # |y| < 1, or within h = asinh(e^-|x|) of a wing y = +-|x|. The nearer
    # wing is ||y| - |x|| away, bit for bit, and h <= asinh 1 < _WING_REACH,
    # so h is only evaluated within that reach.
    ax, ay = np.abs(pts[:, 0]), np.abs(pts[:, 1])
    inside = ay < 1.0
    gap = np.abs(ay - ax)
    near = np.flatnonzero(gap < _WING_REACH)
    inside[near] |= gap[near] < np.arcsinh(np.exp(-ax[near]))
    return inside


# the domain kinds besides the profile catalog, in the CLI's listing order,
# each with its membership predicate of (points, params); an "epigraph"
# domain is an EpigraphSpec, every other kind a GeneralOpenSet
_OPEN_SETS = {
    "strip": lambda pts, p: (p["a"] < pts[:, -1]) & (pts[:, -1] < p["b"]),
    "winged_strip": _winged_strip,
    "under_parabola": lambda pts, p: (0.0 < pts[:, 1]) & (pts[:, 1] < pts[:, 0] ** 2),
    "epigraph": None,
    "orthant": lambda pts, p: np.all(pts > 0.0, axis=1),
    "revolution": lambda pts, p: (np.linalg.norm(pts[:, 1:], axis=1)
                                  < _RADII[p["profile"]].formula(pts[:, 0], p)),
}
OPEN_SET_KINDS = tuple(_OPEN_SETS)

# revolution radius profiles phi(x_1); the first is the CLI's default
_RADII = {
    "constant": _Profile(lambda t, p: np.full_like(t, p["value"]), {"value": 1.0}),
    "cosine": _Profile(lambda t, p: p["base"] + p["amp"] * np.cos(p["freq"] * t),
                       {"base": 1.0, "amp": 0.2, "freq": 1.0}),
    "samples": _Profile(lambda t, p: np.interp(t, p["xs"], p["phis"]),
                        {"xs": None, "phis": None}, _check_samples),
}


@dataclass(frozen=True)
class GeneralOpenSet:
    """Membership-predicate domain from a small catalog, with its kind's
    parameters (a revolution set's include its ``profile``)."""

    kind: str
    dimension: int = 2
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in OPEN_SET_KINDS or _OPEN_SETS[self.kind] is None:
            raise ValidationError(f"unknown open set kind {self.kind!r}")

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise ValidationError("point dimension mismatch")
        return _OPEN_SETS[self.kind](pts, self.params)


def strip_set(a: float, b: float, dimension: int = 2) -> GeneralOpenSet:
    if not b > a:
        raise ValidationError("strip needs b > a")
    return GeneralOpenSet("strip", dimension, {"a": float(a), "b": float(b)})


def winged_strip_set() -> GeneralOpenSet:
    return GeneralOpenSet(kind="winged_strip", dimension=2)


def under_parabola_set() -> GeneralOpenSet:
    return GeneralOpenSet(kind="under_parabola", dimension=2)


def orthant_set(dimension: int = 2) -> GeneralOpenSet:
    return GeneralOpenSet("orthant", dimension)


def revolution_set(profile="constant", dimension: int = 2, **kw) -> GeneralOpenSet:
    """Tube {|x_2..x_N| < phi(x_1)}.

    profile: "constant" (value, 1.0), "cosine" (base 1.0 + amp 0.2 times
    cos(freq 1.0 x_1)) or "samples" (xs, phis arrays, both required,
    piecewise-linear in between, clamped outside). ValidationError for an
    unknown profile or parameter, a missing one and a non-finite number.
    """
    _, params = check_params(_RADII, profile, "revolution profile", kw, dimension)
    return GeneralOpenSet("revolution", dimension, {"profile": profile, **params})


# ---------------------------------------------------------------------------
# section measures
# ---------------------------------------------------------------------------

@dataclass
class SectionMeasure:
    value: float
    per_line: list
    direction: np.ndarray
    unbounded_suspected: bool
    window: float
    line_resolution: float


def _hyperplane_basis(nu: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of the hyperplane orthogonal to nu."""
    n = nu.size
    e_last = np.zeros(n)
    e_last[-1] = 1.0
    if abs(abs(float(nu @ e_last)) - 1.0) < 1e-12:
        return np.eye(n)[:, : n - 1]
    v = nu - e_last
    h = np.eye(n) - 2.0 * np.outer(v, v) / float(v @ v)
    return h[:, : n - 1]


def _membership(domain):
    """The membership predicate of a domain, or the domain if it is one,
    coerced: each call returns one bool per point of its (m, N) batch. The
    predicate may answer with any array-like of booleans; an answer of
    another shape raises ValidationError."""
    if hasattr(domain, "contains"):
        contains = domain.contains
    elif callable(domain):
        contains = domain
    else:
        raise ValidationError("domain must expose contains() or be callable")

    def flags(points):
        inside = np.asarray(contains(points), dtype=bool)
        if inside.shape != (len(points),):
            raise ValidationError(
                f"membership predicate returned shape {inside.shape} for"
                f" {len(points)} points; it must return one flag per point")
        return inside
    return flags


def _points_on_lines(base, t, nu):
    """The (m, N) batch of points base + t nu, Fortran-ordered; base and nu
    are each one vector or one vector per row.

    Each coordinate column is built in place (t nu_k, then + base_k): the
    same IEEE operations in the same order as the broadcast
    base[None, :] + t[:, None] * nu[None, :], so the points are identical,
    but without a length-N inner loop, and predicates read contiguous
    columns."""
    pts = np.empty((t.size, nu.shape[-1]), order="F")
    for k in range(pts.shape[1]):
        np.multiply(t, nu[..., k], out=pts[:, k])
        pts[:, k] += base[..., k]
    return pts


def _bisect(contains, bases, nu, lo, hi, state_lo, iters=48, settled=None):
    """Bisect membership flips bracketed by lo < hi along each base + t nu
    (nu one direction, or one per row), all brackets in one batch; state_lo
    is the membership at lo. ``settled(lo, hi)``, when given, ends the
    bisection before ``iters`` steps once it returns True: the caller's
    word that no further step can change what it makes of 0.5 (lo + hi)."""
    for _ in range(iters):
        if settled is not None and settled(lo, hi):
            break
        mid = 0.5 * (lo + hi)
        inside = contains(_points_on_lines(bases, mid, nu))
        same = inside == state_lo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _line_measure(inside_first, inside_last, cross, window, res):
    """Measure and window-touch flag of one line from its crossings."""
    bounds = np.concatenate(([-window] if inside_first else [], cross,
                             [window] if inside_last else []))
    if bounds.size == 0:
        return 0.0, False
    entries = bounds[0::2]
    exits = bounds[1::2]
    measure = float(np.sum(exits - entries))
    touched = bool(inside_first or inside_last
                   or entries[0] <= -window + res or exits[-1] >= window - res)
    return measure, touched


# the most sample points a section scan tests in one predicate call; batches
# this small reuse freed memory instead of faulting in fresh pages per line
_POINTS_PER_CALL = 16384


def section_measure(domain, nu, probe_grid, line_resolution: float,
                    window: float = 100.0) -> SectionMeasure:
    """Estimate the directional section of a set over a lattice of probe lines.

    Membership is sampled along each line at ``line_resolution`` spacing and
    every flip is sharpened by bisection, so per-line measures are limited by
    component detection (features thinner than the resolution can be missed),
    not by the sampling step. Lines whose occupied part reaches the probe
    window are flagged ``unbounded_suspected``.

    The sample offsets t nu do not depend on the line: they are formed once
    per call, chunk by chunk, and each line's sample points are its base
    point plus those, the same IEEE multiply-then-add per coordinate as
    ``_points_on_lines``, which builds the bisection's points.

    ``domain`` is a domain or a bare predicate; it receives column-contiguous
    (m, N) batches of points (each line in batches of at most
    ``_POINTS_PER_CALL`` = 16,384 points, then one batch of every line's
    crossings per bisection step), so it must not assume C order, and may
    return any array-like of booleans, one per point (``ValidationError``
    for another shape). ``window`` must be finite and >= 0 and
    ``line_resolution`` finite and positive (``ValidationError`` otherwise).
    """
    if not (math.isfinite(line_resolution) and line_resolution > 0):
        raise ValidationError("line_resolution must be finite and positive")
    if not (math.isfinite(window) and window >= 0):
        raise ValidationError("window must be finite and >= 0")
    nu = np.asarray(nu, dtype=float)
    norm = float(np.linalg.norm(nu))
    if not np.isfinite(norm) or norm == 0.0:
        raise ValidationError("direction must be a nonzero vector")
    nu = nu / norm
    dim = nu.size
    probes = np.asarray(probe_grid, dtype=float)
    if probes.ndim == 0:
        probes = probes.reshape(1, 1)
    elif probes.ndim == 1:
        if dim == 2:
            probes = probes.reshape(-1, 1)
        else:
            probes = probes.reshape(1, -1)
    if probes.shape[0] == 0:
        raise ValidationError("probe grid must be nonempty")
    if probes.shape[1] != dim - 1:
        raise ValidationError("probe points must have dimension N-1")
    basis = _hyperplane_basis(nu)
    contains = _membership(domain)

    # sample line by line in bounded chunks (a fine scan of all lines at
    # once would take hundreds of MB, and even one whole line's batch lands
    # on fresh pages), then bisect the flips of every line in one batch,
    # starting each bracket from its sampled state
    samples = 2.0 * window / line_resolution
    if not samples < np.iinfo(np.intp).max:
        raise ValidationError("window holds too many samples per line for"
                              " line_resolution")
    nsamp = int(math.ceil(samples)) + 1
    t = np.linspace(-window, window, nsamp)
    # t nu of each chunk, formed once and column-contiguous: a line's points
    # are its base plus these, the multiply-then-add of _points_on_lines
    steps = [(nu[:, None] * t[i:i + _POINTS_PER_CALL]).T
             for i in range(0, nsamp, _POINTS_PER_CALL)]
    bases, ends, flips, states = [], [], [], []
    for xp in probes:
        base = basis @ xp
        inside = np.concatenate([contains(step + base) for step in steps])
        f = np.flatnonzero(inside[1:] != inside[:-1])
        bases.append(base)
        ends.append((inside[0], inside[-1]))
        flips.append(f)
        states.append(inside[f])
    counts = [f.size for f in flips]
    flips = np.concatenate(flips)
    cross = np.empty(0)
    if flips.size:
        cross = _bisect(contains, np.repeat(bases, counts, axis=0), nu,
                        t[flips], t[flips + 1], np.concatenate(states))
    results = [_line_measure(first, last, c, window, line_resolution)
               for (first, last), c in zip(ends, np.split(cross, np.cumsum(counts)[:-1]))]
    per_line = [(xp, m) for xp, (m, _) in zip(probes, results)]
    value = max(m for _, m in per_line)
    suspected = any(touched for _, touched in results)
    return SectionMeasure(value=value, per_line=per_line, direction=nu,
                          unbounded_suspected=suspected, window=window,
                          line_resolution=line_resolution)
