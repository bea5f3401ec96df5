"""Epigraph domains, catalog open sets, reflections and section measures.

Domains come in two flavours. An ``EpigraphSpec`` describes a set
``{x : x_N > g(x')}`` with the profile ``g`` drawn from a small catalog
(half space, two bump-and-ramp profiles, a Weierstrass-type series, a
coercive quadratic, an exponential, or tabulated samples). A
``GeneralOpenSet`` wraps a membership predicate for sets that are not
epigraphs (strips, two pathological planar sets, the positive orthant,
revolution-type tubes).

The section of a set in a direction ``nu`` is the supremum over lines
parallel to ``nu`` of the 1-D measure of the slice. ``section_measure``
estimates it by sampling membership along a lattice of lines, one line at a
time, then locating every boundary crossing of the scan by one batched
bisection.

This module owns membership: ``_membership`` adapts a domain or a bare
predicate, and ``_bisect`` locates membership flips in one batch; the cut-arm
fractions of ``discretization.build_grid`` come from both. A predicate
receives column-contiguous (Fortran-ordered) (m, N) batches of points, from
the scans and bisections here and from ``build_grid``'s lattice mask, so a
user predicate must not assume C order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "EpigraphSpec",
    "GeneralOpenSet",
    "SectionMeasure",
    "EPIGRAPH_KINDS",
    "OPEN_SET_KINDS",
    "make_epigraph",
    "eval_g",
    "reflect",
    "cap_membership",
    "section_measure",
    "strip_set",
    "winged_strip_set",
    "under_parabola_set",
    "orthant_set",
    "revolution_set",
]

EPIGRAPH_KINDS = (
    "half_space",
    "arc_bump",
    "arc_bump_ramp",
    "weierstrass",
    "coercive_quadratic",
    "exp_x1",
    "custom_sampled",
)

# the domain kinds besides the profile catalog, as listed by the CLI; an
# "epigraph" domain is an EpigraphSpec, every other kind a GeneralOpenSet
OPEN_SET_KINDS = ("strip", "winged_strip", "under_parabola", "epigraph", "orthant", "revolution")

# a bound above the winged strip's widest wing half-width, asinh(1) = 0.8814
_WING_REACH = 0.89


# ---------------------------------------------------------------------------
# profile formulas
# ---------------------------------------------------------------------------

def _arc_bump_profile(t: np.ndarray) -> np.ndarray:
    """Flat, half-disc bump on [-4,0], quarter-disc rise on [0,2], flat 2."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = (t >= -4.0) & (t <= 0.0)
    out[m] = np.sqrt(np.maximum(4.0 - (t[m] + 2.0) ** 2, 0.0))
    m = (t > 0.0) & (t <= 2.0)
    out[m] = np.sqrt(np.maximum(4.0 - (t[m] - 2.0) ** 2, 0.0))
    out[t > 2.0] = 2.0
    return out


def _arc_bump_ramp_profile(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return _arc_bump_profile(t) + np.maximum(t - 6.0, 0.0)


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
    # Terms are added one at a time and a point's limbs above its own
    # modulus stay zero, so its value does not depend on the batch it comes
    # in; the series is summed once per distinct x and gathered back (a
    # lattice holds few distinct x', a vertical probe line one).
    t = np.asarray(t, dtype=float)
    distinct, back = np.unique(np.fmod(np.abs(t), 2.0), return_inverse=True)
    undefined = np.isnan(distinct)   # t was NaN or infinite
    x = np.where(undefined, 0.0, distinct)
    e = np.maximum(np.frexp(x)[1] - 53, -1074)
    bits = 1 - e                     # R_n lives modulo 2^bits, bits >= 53
    offset = np.arange(0, int(bits.max(initial=53)), _LIMB_BITS)[:, None]  # limb k: bit 32k
    masks = (np.uint64(1) << np.clip(bits - offset, 0, _LIMB_BITS).astype(np.uint64)) \
        - np.uint64(1)
    scales = np.ldexp(1.0, offset + e)
    limbs = np.zeros(masks.shape, np.uint64)
    limbs[0] = np.ldexp(x, -e).astype(np.uint64)
    limbs[1] = limbs[0] >> _LIMB_BITS
    limbs &= masks
    nterms = _weierstrass_term_count(b, alpha, tol)
    amps = float(b) ** (-alpha * np.arange(1, nterms + 1, dtype=float))
    out = np.zeros(distinct.shape)
    for amp in amps:
        limbs *= np.uint64(b)
        for k in range(1, len(limbs)):
            limbs[k] += limbs[k - 1] >> _LIMB_BITS
        limbs &= masks
        y = limbs[-1] * scales[-1]
        for k in range(len(limbs) - 2, -1, -1):
            y += limbs[k] * scales[k]
        np.minimum(y, 2.0 - y, out=y)
        out += amp * np.cos(np.pi * y)
    out[undefined] = np.nan
    return out[back].reshape(t.shape)


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
    if len(axes) == 1:
        return np.interp(xp[:, 0], np.asarray(axes[0], float), np.asarray(values, float))
    from scipy.interpolate import RegularGridInterpolator

    axes = [np.asarray(a, float) for a in axes]
    vals = np.asarray(values, float)
    query = xp.copy()
    for k, a in enumerate(axes):  # clamp: constant extension outside the table
        query[:, k] = np.clip(query[:, k], a[0], a[-1])
    itp = RegularGridInterpolator(axes, vals, method="linear")
    return itp(query)


def _check_abscissae(xs: np.ndarray, what: str) -> None:
    """Reject a table axis that ``np.interp`` or the clamp would misread."""
    if xs.ndim != 1 or xs.size < 2 or not np.isfinite(xs).all() \
            or not (np.diff(xs) > 0).all():
        raise ValidationError(f"{what} must be finite, strictly increasing "
                              "and hold >= 2 samples")


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
    k = spec.kind
    if k == "half_space":
        raw = np.zeros(xp.shape[0])
    elif k == "arc_bump":
        raw = _arc_bump_profile(xp[:, 0])
    elif k == "arc_bump_ramp":
        raw = _arc_bump_ramp_profile(xp[:, 0])
    elif k == "weierstrass":
        p = spec.params
        raw = _weierstrass_profile(xp[:, 0], p["b"], p["alpha"], p["tol"])
    elif k == "coercive_quadratic":
        raw = _coercive_quadratic(xp)
    elif k == "exp_x1":
        raw = _exp_x1(xp)
    else:
        raw = _interp_sampled(xp, spec.params["axes"], spec.params["values"])
    return raw + spec.shift


def eval_g(spec: EpigraphSpec, x_prime):
    """Boundary profile g(x'); scalar in, scalar out."""
    d = spec.dimension - 1
    a = np.asarray(x_prime, dtype=float)
    if a.ndim == 0:
        if d != 1:
            raise ValidationError("scalar x' only valid for planar epigraphs")
        return float(_eval_g_batch(spec, a.reshape(1, 1))[0])
    if a.ndim == 1:
        if d == 1:  # batch of scalars
            return _eval_g_batch(spec, a.reshape(-1, 1))
        if a.size != d:
            raise ValidationError("x' dimension mismatch")
        return float(_eval_g_batch(spec, a.reshape(1, d))[0])
    if a.shape[1] != d:
        raise ValidationError("x' dimension mismatch")
    return _eval_g_batch(spec, a)


def make_epigraph(kind: str, dimension: int = 2, normalize: bool = True, **params) -> EpigraphSpec:
    """Catalog factory with a vertical shift that normalizes the profile.

    For ``weierstrass`` the shift is minus the minimum of the series
    sampled at 10,001 points of one period, so inf g can sit slightly below
    0: the series dips between the samples (to about -0.01 for the default
    parameters). For every other kind it puts inf g at 0.
    ``normalize=False`` keeps the raw catalog formula (shift 0).
    """
    if kind not in EPIGRAPH_KINDS:
        raise ValidationError(f"unknown epigraph kind {kind!r}")
    shift = 0.0
    if kind == "weierstrass":
        b = params.get("b", 2)
        alpha = float(params.get("alpha", 0.5))
        tol = float(params.get("tol", 1e-12))
        if not (isinstance(b, numbers.Real) and 2 <= b < 2**_LIMB_BITS
                and float(b).is_integer()):
            raise ValidationError("weierstrass base must be an integer in [2, 2^32)")
        if not 0.0 < alpha < 1.0:
            raise ValidationError("weierstrass exponent must lie in (0,1)")
        if not 0.0 < tol < math.inf:
            raise ValidationError("weierstrass tolerance must be positive and finite")
        b = int(b)
        params = {"b": b, "alpha": alpha, "tol": tol}
        if normalize:
            # the series has period 2/b in x
            t = np.linspace(0.0, 2.0 / b, 10001)
            shift = -float(_weierstrass_profile(t, b, alpha, tol).min())
    elif kind == "coercive_quadratic":
        if normalize and dimension >= 3:
            shift = 1.0  # inf of x1^2 + prod sin(j x_j) is -1
    elif kind == "custom_sampled":
        if "axes" not in params or "values" not in params:
            raise ValidationError("custom_sampled needs 'axes' and 'values'")
        axes = tuple(np.asarray(a, dtype=float) for a in params["axes"])
        if len(axes) != dimension - 1:
            raise ValidationError("custom_sampled axes must match dimension - 1")
        for a in axes:
            _check_abscissae(a, "custom_sampled axes")
        values = np.asarray(params["values"], dtype=float)
        if values.shape != tuple(len(a) for a in axes):
            raise ValidationError("custom_sampled values shape mismatch")
        if not np.isfinite(values).all():
            raise ValidationError("custom_sampled values must be finite")
        params = {"axes": axes, "values": values}
        if normalize:
            shift = -float(values.min())
    elif params:
        raise ValidationError(f"{kind} takes no parameters")
    return EpigraphSpec(dimension=dimension, kind=kind, params=params, shift=shift)


def reflect(x, lam: float):
    """Mirror a point (or batch) across the horizontal plane at height lam."""
    a = np.asarray(x, dtype=float)
    out = a.copy()
    out[..., -1] = 2.0 * lam - a[..., -1]
    return out


def cap_membership(spec: EpigraphSpec, x, lam: float):
    """True iff x lies in the slab between the graph of g and height lam."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    gvals = _eval_g_batch(spec, pts[:, :-1])
    inside = (pts[:, -1] > gvals) & (pts[:, -1] < lam)
    if np.asarray(x).ndim == 1:
        return bool(inside[0])
    return inside


# ---------------------------------------------------------------------------
# general open sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralOpenSet:
    """Membership-predicate domain from a small catalog."""

    kind: str
    dimension: int = 2
    a: float = 0.0
    b: float = 1.0
    profile_kind: str = "constant"
    profile_params: tuple = (1.0,)

    def __post_init__(self):
        if self.kind not in OPEN_SET_KINDS or self.kind == "epigraph":
            raise ValidationError(f"unknown open set kind {self.kind!r}")

    def _phi(self, t: np.ndarray) -> np.ndarray:
        if self.profile_kind == "constant":
            return np.full_like(t, float(self.profile_params[0]))
        if self.profile_kind == "cosine":
            base, amp, freq = self.profile_params
            return base + amp * np.cos(freq * t)
        xs, phis = self.profile_params
        return np.interp(t, np.asarray(xs, float), np.asarray(phis, float))

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise ValidationError("point dimension mismatch")
        k = self.kind
        if k == "strip":
            y = pts[:, -1]
            return (self.a < y) & (y < self.b)
        if k == "winged_strip":
            # |y| < 1, or within h = asinh(e^-|x|) of a wing y = +-|x|. The
            # nearer wing is ||y| - |x|| away, bit for bit, and h <= asinh 1
            # < _WING_REACH, so h is only evaluated within that reach.
            ax, ay = np.abs(pts[:, 0]), np.abs(pts[:, 1])
            inside = ay < 1.0
            gap = np.abs(ay - ax)
            near = np.flatnonzero(gap < _WING_REACH)
            inside[near] |= gap[near] < np.arcsinh(np.exp(-ax[near]))
            return inside
        if k == "under_parabola":
            x, y = pts[:, 0], pts[:, 1]
            return (0.0 < y) & (y < x**2)
        if k == "orthant":
            return np.all(pts > 0.0, axis=1)
        r = np.linalg.norm(pts[:, 1:], axis=1)
        return r < self._phi(pts[:, 0])


def strip_set(a: float, b: float, dimension: int = 2) -> GeneralOpenSet:
    if not b > a:
        raise ValidationError("strip needs b > a")
    return GeneralOpenSet(kind="strip", dimension=dimension, a=float(a), b=float(b))


def winged_strip_set() -> GeneralOpenSet:
    return GeneralOpenSet(kind="winged_strip", dimension=2)


def under_parabola_set() -> GeneralOpenSet:
    return GeneralOpenSet(kind="under_parabola", dimension=2)


def orthant_set(dimension: int = 2) -> GeneralOpenSet:
    return GeneralOpenSet(kind="orthant", dimension=dimension)


def revolution_set(profile="constant", dimension: int = 2, **kw) -> GeneralOpenSet:
    """Tube {|x_2..x_N| < phi(x_1)}.

    profile: "constant" (value=R), "cosine" (base, amp, freq) or "samples"
    (xs, phis arrays, piecewise-linear in between, clamped outside).
    """
    if profile == "constant":
        params = (float(kw.get("value", 1.0)),)
    elif profile == "cosine":
        params = (float(kw.get("base", 1.0)), float(kw.get("amp", 0.2)), float(kw.get("freq", 1.0)))
    elif profile == "samples":
        for key in ("xs", "phis"):
            if key not in kw:
                raise ValidationError(f"samples profile needs {key!r}")
        xs = np.asarray(kw["xs"], dtype=float)
        phis = np.asarray(kw["phis"], dtype=float)
        if xs.ndim != 1 or xs.shape != phis.shape:
            raise ValidationError("profile samples must be matching 1-D arrays")
        _check_abscissae(xs, "profile samples xs")
        if not np.isfinite(phis).all():
            raise ValidationError("profile samples phis must be finite")
        params = (xs, phis)
    else:
        raise ValidationError(f"unknown revolution profile {profile!r}")
    return GeneralOpenSet(kind="revolution", dimension=dimension,
                          profile_kind=profile, profile_params=params)


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
    """The membership predicate of a domain, or the domain if it is one."""
    if hasattr(domain, "contains"):
        return domain.contains
    if callable(domain):
        return domain
    raise ValidationError("domain must expose contains() or be callable")


def _points_on_lines(base, t, nu):
    """The (m, N) batch of points base + t nu, Fortran-ordered; base is one
    point or one point per row.

    Each coordinate column is built in place (t nu_k, then + base_k): the
    same IEEE operations in the same order as the broadcast
    base[None, :] + t[:, None] * nu[None, :], so the points are identical,
    but without a length-N inner loop, and predicates read contiguous
    columns."""
    pts = np.empty((t.size, nu.size), order="F")
    for k in range(nu.size):
        np.multiply(t, nu[k], out=pts[:, k])
        pts[:, k] += base[..., k]
    return pts


def _bisect(contains, bases, nu, lo, hi, state_lo, iters=48):
    """Bisect membership flips bracketed by lo < hi along each base + t nu,
    all brackets in one batch; state_lo is the membership at lo."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        inside = np.asarray(contains(_points_on_lines(bases, mid, nu)), dtype=bool)
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


def section_measure(domain, nu, probe_grid, line_resolution: float,
                    window: float = 100.0) -> SectionMeasure:
    """Estimate the directional section of a set over a lattice of probe lines.

    Membership is sampled along each line at ``line_resolution`` spacing and
    every flip is sharpened by bisection, so per-line measures are limited by
    component detection (features thinner than the resolution can be missed),
    not by the sampling step. Lines whose occupied part reaches the probe
    window are flagged ``unbounded_suspected``.

    ``domain`` is a domain or a bare predicate; it receives column-contiguous
    (m, N) batches of points (one per line, then one per bisection step), so
    it must not assume C order. ``window`` must be finite and >= 0 and
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

    # sample line by line (a fine scan of all lines at once would take
    # hundreds of MB), then bisect the flips of every line in one batch,
    # starting each bracket from its sampled state
    samples = 2.0 * window / line_resolution
    if not samples < np.iinfo(np.intp).max:
        raise ValidationError("window holds too many samples per line for"
                              " line_resolution")
    nsamp = int(math.ceil(samples)) + 1
    t = np.linspace(-window, window, nsamp)
    bases, ends, flips, states = [], [], [], []
    for xp in probes:
        base = basis @ xp
        inside = contains(_points_on_lines(base, t, nu))
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
