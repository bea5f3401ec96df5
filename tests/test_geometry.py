"""Domain catalog and directional section measures."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigraph_lab import (
    ARM_CUT,
    ValidationError,
    build_grid,
    make_epigraph,
    eval_g,
    strip_set,
    winged_strip_set,
    under_parabola_set,
    orthant_set,
    revolution_set,
    section_measure,
)
from epigraph_lab import geometry
from epigraph_lab.geometry import _points_on_lines, _weierstrass_profile, \
    _weierstrass_term_count

# geometric series limit: sum_{n>=1} 2^(-n/2) = 1/(sqrt(2)-1)
WEIERSTRASS_AT_ZERO = 2.4142135623730950488
# 1-D interval-union oracle at probe 1: 2 + 2*asinh(1/e)
WINGED_PER_LINE_AT_1 = 2.7200992892182074035


def test_epigraph_kinds_rejected():
    with pytest.raises(ValidationError):
        make_epigraph("no_such_profile")


def test_spec_dimension_and_kind_checks():
    with pytest.raises(ValidationError, match="dimension must be >= 2"):
        geometry.EpigraphSpec(1, "half_space")
    with pytest.raises(ValidationError, match="unknown epigraph kind"):
        geometry.EpigraphSpec(2, "no_such_profile")
    # epigraph is an open-set kind with no predicate of its own
    for kind in ("no_such_set", "epigraph"):
        with pytest.raises(ValidationError, match="unknown open set kind"):
            geometry.GeneralOpenSet(kind)
    for dom in (make_epigraph("half_space", dimension=2), strip_set(0.0, 1.0)):
        with pytest.raises(ValidationError, match="point dimension mismatch"):
            dom.contains(np.zeros((4, 3)))


@pytest.mark.parametrize("b", [0.0, -1.0])
def test_strip_needs_b_above_a(b):
    with pytest.raises(ValidationError, match="b > a"):
        strip_set(0.0, b)


def test_membership_needs_a_domain_or_a_callable():
    with pytest.raises(ValidationError, match="contains\\(\\) or be callable"):
        geometry._membership(42)


def test_section_probe_grid_shapes():
    # a 0-D probe is one line; a 1-D one is a line per entry in the plane
    # and one point in higher dimensions; an empty grid has no line
    planar, solid = strip_set(0.0, 1.0), strip_set(0.0, 1.0, dimension=3)

    def lines(dom, nu, probes):
        rep = section_measure(dom, nu, probes, 0.0625, window=4.0)
        assert [m for _, m in rep.per_line] == pytest.approx(
            [1.0] * len(rep.per_line), abs=1e-12)
        return [list(q) for q, _ in rep.per_line]

    assert lines(planar, [0.0, 1.0], 0.5) == [[0.5]]
    assert lines(planar, [0.0, 1.0], [-1.0, 2.0]) == [[-1.0], [2.0]]
    assert lines(solid, [0.0, 0.0, 1.0], [0.5, -0.5]) == [[0.5, -0.5]]
    for empty in ([], np.zeros((0, 1))):
        with pytest.raises(ValidationError, match="nonempty"):
            section_measure(planar, [0.0, 1.0], empty, 0.0625, window=4.0)


def test_half_space_is_flat():
    spec = make_epigraph("half_space", dimension=2)
    xs = np.linspace(-5, 5, 11)
    assert np.all(eval_g(spec, xs) == 0.0)


@pytest.mark.parametrize("x,expected", [
    (-2.0, 2.0),   # left arc apex
    (3.0, 2.0),    # plateau
    (-5.0, 0.0),   # flat tail
    (0.0, 0.0),    # junction between the arcs
])
def test_arc_bump_profile_values(x, expected):
    spec = make_epigraph("arc_bump", dimension=2)
    assert eval_g(spec, x) == pytest.approx(expected, abs=1e-12)


def test_arc_bump_ramp_adds_linear_part():
    spec = make_epigraph("arc_bump_ramp", dimension=2)
    base = make_epigraph("arc_bump", dimension=2)
    assert eval_g(spec, 8.0) == pytest.approx(eval_g(base, 8.0) + 2.0,
                                              abs=1e-12)
    # identical left of the ramp start
    assert eval_g(spec, 1.0) == eval_g(base, 1.0)


def test_weierstrass_series_value_at_zero():
    spec = make_epigraph("weierstrass", dimension=2, normalize=False,
                         b=2, alpha=0.5)
    got = float(eval_g(spec, 0.0))
    # truncation tolerance 1e-12 dominates the error budget
    assert abs(got - WEIERSTRASS_AT_ZERO) <= 2e-12


def test_weierstrass_normalization_shifts_min_to_zero():
    spec = make_epigraph("weierstrass", dimension=2, b=2, alpha=0.5)
    # the factory pins the shift on this exact one-period lattice
    xs = np.linspace(0.0, 1.0, 10001)
    vals = eval_g(spec, xs)
    assert vals.min() == 0.0
    assert vals.max() > 1.0
    assert spec.shift != 0.0


@pytest.mark.parametrize("params,message", [
    ({"b": 2.5}, "base must be an integer"),
    ({"b": 2**32}, "base must be an integer"),
    ({"b": 1}, "base must be an integer"),
    ({"tol": math.nan}, "tolerance must be positive and finite"),
    ({"tol": math.inf}, "tolerance must be positive and finite"),
    ({"tol": 0.0}, "tolerance must be positive and finite"),
])
def test_weierstrass_rejects_bad_parameters(params, message):
    # a fractional base used to be truncated, and a NaN or infinite tol
    # gave a one-term series
    with pytest.raises(ValidationError, match=message):
        make_epigraph("weierstrass", **params)


def _weierstrass_reference(x: float, b: int, nterms: int):
    """The same partial sum at the same double, to 60 digits."""
    with mpmath.workdps(60):
        xm = mpmath.mpf(x)
        return sum(mpmath.power(b, -0.5 * n) * mpmath.cospi(mpmath.power(b, n) * xm)
                   for n in range(1, nterms + 1))


@pytest.mark.parametrize("b", [2, 3])
def test_weierstrass_matches_an_mpmath_partial_sum(b):
    # rounding pi b^n x before the cosine used to cost about 1e-7
    special = [0.0, 1e-300, -1e-300, 1e-5, -1e-5, 2.0 - 2.0**-52, -0.75]
    xs = np.array(special + list(np.random.default_rng(13).uniform(-2.0, 2.0, 40)))
    got = _weierstrass_profile(xs, b, 0.5, 1e-12)
    nterms = _weierstrass_term_count(b, 0.5, 1e-12)
    err = max(abs(g - _weierstrass_reference(float(x), b, nterms)) for x, g in zip(xs, got))
    assert err <= 1e-14
    assert _weierstrass_profile(np.array([]), b, 0.5, 1e-12).shape == (0,)


def _weierstrass_full_loop(t, b, alpha, tol):
    """The series with every term's limb reduction and cosine at every
    distinct abscissa: the loop before terms stopped at a vanishing phase."""
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):
        distinct, back = np.unique(np.fmod(np.abs(t), 2.0), return_inverse=True)
    undefined = np.isnan(distinct)
    x = np.where(undefined, 0.0, distinct)
    e = np.maximum(np.frexp(x)[1] - 53, -1074)
    bits = 1 - e
    offset = np.arange(0, int(bits.max(initial=53)), 32)[:, None]
    masks = (np.uint64(1) << np.clip(bits - offset, 0, 32).astype(np.uint64)) \
        - np.uint64(1)
    scales = np.ldexp(1.0, offset + e)
    limbs = np.zeros(masks.shape, np.uint64)
    limbs[0] = np.ldexp(x, -e).astype(np.uint64)
    limbs[1] = limbs[0] >> 32
    limbs &= masks
    nterms = _weierstrass_term_count(b, alpha, tol)
    amps = float(b) ** (-alpha * np.arange(1, nterms + 1, dtype=float))
    out = np.zeros(distinct.shape)
    for amp in amps:
        limbs *= np.uint64(b)
        for k in range(1, len(limbs)):
            limbs[k] += limbs[k - 1] >> 32
        limbs &= masks
        y = limbs[-1] * scales[-1]
        for k in range(len(limbs) - 2, -1, -1):
            y += limbs[k] * scales[k]
        np.minimum(y, 2.0 - y, out=y)
        out += amp * np.cos(np.pi * y)
    out[undefined] = np.nan
    return out[back].reshape(t.shape)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# a bisection midpoint k/2^6 + m/2^(6+j), with j up to 46 steps
_midpoints = st.builds(lambda k, j, m: k / 64 + (m % 2**j) / 2.0 ** (6 + j),
                       st.integers(-256, 256), st.integers(1, 46),
                       st.integers(0, 2**46))
_abscissae = st.one_of(
    _midpoints,
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-2.0**-11, 2.0**-11, allow_nan=False),
    st.floats(-2.0**-1022, 2.0**-1022, allow_nan=False, allow_subnormal=True),
    st.sampled_from([0.0, 2.0, -2.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(_abscissae, min_size=1, max_size=40),
       st.sampled_from([2, 3, 4, 6, 7, 2**31, 2**32 - 1]),
       st.sampled_from([0.3, 0.5, 0.9]))
def test_weierstrass_profile_matches_the_full_loop(xs, b, alpha):
    # a term whose phase has vanished adds amp exactly, so stopping the limb
    # reduction there keeps every bit, for odd, even and power-of-two bases
    xs = np.array(xs)
    assert _same_bits(_weierstrass_profile(xs, b, alpha, 1e-12),
                      _weierstrass_full_loop(xs, b, alpha, 1e-12))


def test_weierstrass_batch_with_a_tiny_abscissa():
    # one tiny |x| widens every limb of the batch; each point still has the
    # bits of the full loop and of a one-point batch
    xs = np.append(np.linspace(-2.0, 2.0, 2540), 1e-300)
    for b in (3, 6, 2):
        values = _weierstrass_profile(xs, b, 0.5, 1e-12)
        assert _same_bits(values, _weierstrass_full_loop(xs, b, 0.5, 1e-12))
    alone = np.array([_weierstrass_profile(np.array([x]), 2, 0.5, 1e-12)[0]
                      for x in xs])
    assert _same_bits(values, alone)


def test_weierstrass_non_finite_abscissae_give_nan():
    # runs under the error::RuntimeWarning filter: an infinite t reduces to
    # NaN without a warning, and the finite neighbours keep their bits
    spec = make_epigraph("weierstrass")
    xs = np.array([-0.75, math.inf, 0.3, -math.inf, math.nan, 1.25])
    got = eval_g(spec, xs)
    finite = np.isfinite(xs)
    assert np.isnan(got[~finite]).all()
    assert _same_bits(got[finite], eval_g(spec, xs[finite]))
    assert math.isnan(eval_g(spec, [[math.inf]])[0])


def test_custom_sampled_interpolates_and_clamps():
    spec = make_epigraph("custom_sampled", dimension=2,
                         axes=[np.array([0.0, 1.0, 2.0])],
                         values=np.array([0.0, 1.0, 0.0]), normalize=False)
    assert eval_g(spec, 0.5) == pytest.approx(0.5)
    assert eval_g(spec, -3.0) == pytest.approx(0.0)   # clamped
    assert eval_g(spec, 5.0) == pytest.approx(0.0)


def test_custom_sampled_shape_mismatch():
    with pytest.raises(ValidationError):
        make_epigraph("custom_sampled", dimension=2,
                      axes=[np.array([0.0, 1.0])],
                      values=np.array([0.0, 1.0, 2.0]))


def test_custom_sampled_without_lateral_axes_is_a_shape_mismatch():
    # dimension 1 has no lateral axis, so a single value has the wrong shape
    with pytest.raises(ValidationError, match="shape mismatch"):
        make_epigraph("custom_sampled", dimension=1, axes=[], values=[1.0])


@pytest.mark.parametrize("given,missing", [({}, "xs"),
                                           ({"xs": [0.0, 1.0]}, "phis"),
                                           ({"phis": [1.0, 1.0]}, "xs")])
def test_samples_profile_names_a_missing_key(given, missing):
    with pytest.raises(ValidationError, match=f"needs '{missing}'"):
        revolution_set(profile="samples", **given)


def test_custom_sampled_3d_is_bilinear_inside_and_clamped_outside():
    def g(x1, x2):
        return 0.5 + 0.25 * x1 - 0.5 * x2 + 0.125 * x1 * x2

    a1, a2 = np.array([-1.0, 0.0, 2.0]), np.array([0.0, 0.5, 1.0, 3.0])
    spec = make_epigraph("custom_sampled", dimension=3, axes=[a1, a2],
                         values=g(a1[:, None], a2[None, :]), normalize=False)
    inside = np.array([[-0.7, 0.1], [0.3, 2.2], [1.9, 0.75], [0.0, 0.5]])
    assert np.abs(eval_g(spec, inside) - g(inside[:, 0], inside[:, 1])).max() <= 1e-14
    outside = np.array([[-5.0, 0.2], [4.0, -1.0], [0.5, 7.0], [9.0, 9.0]])
    clamped = np.stack([np.clip(outside[:, 0], -1.0, 2.0),
                        np.clip(outside[:, 1], 0.0, 3.0)], axis=1)
    assert np.array_equal(eval_g(spec, outside), eval_g(spec, clamped))
    assert np.abs(eval_g(spec, outside) - g(clamped[:, 0], clamped[:, 1])).max() <= 1e-14


BAD_ABSCISSAE = {
    "unsorted": [3.0, 1.0, 2.0],
    "repeated": [0.0, 1.0, 1.0],
    "nan": [0.0, np.nan, 2.0],
    "inf": [0.0, 1.0, np.inf],
}


@pytest.mark.parametrize("xs", BAD_ABSCISSAE.values(), ids=BAD_ABSCISSAE.keys())
def test_tabulated_profiles_reject_bad_abscissae(xs):
    with pytest.raises(ValidationError, match="strictly increasing"):
        make_epigraph("custom_sampled", dimension=2, axes=[np.array(xs)],
                      values=np.array([0.0, 5.0, 0.0]))
    with pytest.raises(ValidationError, match="strictly increasing"):
        make_epigraph("custom_sampled", dimension=3,
                      axes=[np.array([0.0, 1.0]), np.array(xs)],
                      values=np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="strictly increasing"):
        revolution_set(profile="samples", xs=xs, phis=[1.0, 1.0, 1.0])


def test_tabulated_profiles_need_two_samples_and_finite_radii():
    with pytest.raises(ValidationError, match=">= 2 samples"):
        make_epigraph("custom_sampled", dimension=2, axes=[np.array([1.0])],
                      values=np.array([0.0]))
    with pytest.raises(ValidationError, match=">= 2 samples"):
        revolution_set(profile="samples", xs=[1.0], phis=[1.0])
    with pytest.raises(ValidationError, match="phis must be finite"):
        revolution_set(profile="samples", xs=[0.0, 1.0], phis=[1.0, np.nan])


def test_exp_profile_membership():
    spec = make_epigraph("exp_x1", dimension=2)
    assert spec.contains(np.array([[0.0, 1.5]]))[0]
    assert not spec.contains(np.array([[0.0, 0.5]]))[0]


class TestOpenSets:
    def test_strip_contains(self):
        dom = strip_set(0.0, 2.0, dimension=2)
        assert dom.contains(np.array([[5.0, 1.0]]))[0]
        assert not dom.contains(np.array([[5.0, 2.0]]))[0]

    def test_winged_strip_wings_decay(self):
        dom = winged_strip_set()
        assert dom.contains(np.array([[5.0, 0.0]]))[0]      # central strip
        assert dom.contains(np.array([[5.0, 5.0]]))[0]      # on the wing
        assert not dom.contains(np.array([[5.0, 5.5]]))[0]  # past the wing
        half = math.asinh(math.exp(-5.0))
        assert dom.contains(np.array([[5.0, 5.0 + 0.9 * half]]))[0]
        assert not dom.contains(np.array([[5.0, 5.0 + 1.1 * half]]))[0]

    def test_under_parabola_contains(self):
        dom = under_parabola_set()
        assert dom.contains(np.array([[1.0, 0.5]]))[0]
        assert not dom.contains(np.array([[1.0, 1.5]]))[0]
        assert dom.contains(np.array([[-2.0, 3.9]]))[0]

    def test_orthant_contains(self):
        dom = orthant_set(dimension=3)
        assert dom.contains(np.array([[0.1, 0.1, 0.1]]))[0]
        assert not dom.contains(np.array([[0.1, -0.1, 0.1]]))[0]

    def test_revolution_cosine_contains(self):
        dom = revolution_set(profile="cosine", dimension=2,
                             base=1.0, amp=0.2, freq=1.0)
        assert dom.contains(np.array([[0.0, 1.1]]))[0]
        assert not dom.contains(np.array([[math.pi, 0.9]]))[0]

    def test_revolution_bad_profile(self):
        with pytest.raises(ValidationError):
            revolution_set(profile="wavelet")


def test_strip_section_equals_width():
    dom = strip_set(0.0, 1.5, dimension=2)
    probes = np.linspace(-10.0, 10.0, 41)
    rep = section_measure(dom, [0.0, 1.0], probes, 1e-3, window=20.0)
    assert abs(rep.value - 1.5) <= 1e-3
    assert not rep.unbounded_suspected


def test_tilted_strip_section_grows_with_angle():
    dom = strip_set(0.0, 1.0, dimension=2)
    theta = math.pi / 6
    nu = [math.sin(theta), math.cos(theta)]
    rep = section_measure(dom, nu, np.linspace(-2, 2, 9), 1e-4, window=20.0)
    assert rep.value == pytest.approx(1.0 / math.cos(theta), abs=1e-6)


def test_section_direction_normalization_is_irrelevant():
    dom = strip_set(0.0, 1.0, dimension=2)
    probes = np.linspace(-2, 2, 9)
    a = section_measure(dom, [0.0, 1.0], probes, 1e-3)
    b = section_measure(dom, [0.0, 7.5], probes, 1e-3)
    assert a.value == b.value
    assert np.linalg.norm(a.direction) == pytest.approx(1.0, abs=1e-14)


def test_winged_strip_per_line_measures():
    dom = winged_strip_set()
    rep = section_measure(dom, [0.0, 1.0], np.linspace(-10, 10, 21),
                          1e-4, window=20.0)
    assert rep.value <= 4.0
    lines = {float(p[0]): m for p, m in rep.per_line}
    assert lines[0.0] == pytest.approx(2.0, abs=1e-6)
    assert lines[1.0] == pytest.approx(WINGED_PER_LINE_AT_1, abs=1e-6)
    assert not rep.unbounded_suspected


def _winged_union(pts):
    """The winged strip's closed form, with both wing widths evaluated."""
    x, y = pts[:, 0], pts[:, 1]
    ax = np.abs(x)
    h = np.arcsinh(np.exp(-ax))
    return (np.abs(y) < 1.0) | (np.abs(y - ax) < h) | (np.abs(y + ax) < h)


def _nudged(y: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        y = float(np.nextafter(y, math.copysign(math.inf, ulps)))
    return y


# a point on the winged strip: an abscissa (often near 0, where the wings
# are widest), then an ordinate that is free or within a few ulps of
# |y| = 1, of the wing reach ||y| - |x|| = 0.89, or of a wing's edge
# ||y| - |x|| = asinh(exp(-|x|))
_WINGED_POINT = st.tuples(
    st.one_of(st.floats(-1.0, 1.0), st.floats(-40.0, 40.0)),
    st.sampled_from(["free", "strip", "reach", "edge"]),
    st.floats(-50.0, 50.0, allow_nan=False),
    st.integers(-3, 3), st.booleans(), st.booleans())


def _winged_point(x, anchor, free, ulps, below, negate):
    ax = abs(x)
    if anchor == "free":
        y = free
    elif anchor == "strip":
        y = 1.0
    else:
        gap = 0.89 if anchor == "reach" else float(np.arcsinh(np.exp(-ax)))
        y = ax - gap if below else ax + gap
    y = _nudged(y, ulps)
    return [x, -y if negate else y]


@settings(max_examples=200, deadline=None)
@given(st.lists(_WINGED_POINT, min_size=1, max_size=30))
def test_winged_strip_membership_matches_the_closed_form(points):
    # contains evaluates the wing width only near a wing; membership must
    # keep the bits of the full union
    pts = np.array([_winged_point(*p) for p in points])
    got = winged_strip_set().contains(pts)
    assert np.array_equal(got, _winged_union(pts))


def test_parabola_section_flagged_unbounded():
    dom = under_parabola_set()
    rep = section_measure(dom, [0.0, 1.0], np.linspace(-12, 12, 25),
                          1e-3, window=100.0)
    assert rep.unbounded_suspected


def test_section_rejects_zero_direction():
    dom = strip_set(0.0, 1.0, dimension=2)
    with pytest.raises(ValidationError):
        section_measure(dom, [0.0, 0.0], np.linspace(-1, 1, 5), 1e-3)


@pytest.mark.parametrize("window,line_resolution,message", [
    (-1.0, 1e-1, "window must be finite and >= 0"),
    (math.nan, 1e-1, "window must be finite and >= 0"),
    (math.inf, 1e-1, "window must be finite and >= 0"),
    (2.0, math.nan, "line_resolution must be finite and positive"),
    (2.0, math.inf, "line_resolution must be finite and positive"),
    (2.0, 0.0, "line_resolution must be finite and positive"),
    (2.0, -1e-3, "line_resolution must be finite and positive"),
])
def test_section_rejects_bad_window_and_resolution(window, line_resolution, message):
    dom = strip_set(0.0, 1.0, dimension=2)
    with pytest.raises(ValidationError, match=message):
        section_measure(dom, [0.0, 1.0], np.linspace(-1, 1, 5), line_resolution,
                        window=window)


def test_section_rejects_bad_probe_dimension():
    dom = orthant_set(dimension=3)
    with pytest.raises(ValidationError):
        section_measure(dom, [0.0, 0.0, 1.0], np.zeros((4, 1)), 1e-3)


class _RecordingDomain:
    """Delegates membership and records the size of every contains() batch."""

    def __init__(self, domain):
        self.domain = domain
        self.sizes = []

    def contains(self, points):
        self.sizes.append(len(points))
        return self.domain.contains(points)


_LATERAL_3D = np.stack(np.meshgrid(np.linspace(-2, 2, 5), np.linspace(-2, 2, 5),
                                   indexing="ij"), axis=-1).reshape(-1, 2)

# (domain, direction, probes, window, {(crossings, touches window)} over the
# lines); between them the scans cover lines with zero, one and several
# crossings and lines reaching the window
GROUPED_SCANS = {
    "winged_strip": (winged_strip_set(), [0.0, 1.0], np.linspace(-3, 3, 13), 2.0,
                     {(2, False), (4, True), (6, False)}),
    "under_parabola": (under_parabola_set(), [0.0, 1.0], np.linspace(-3, 3, 13), 5.0,
                       {(0, False), (1, True), (2, False)}),
    "tilted_strip": (strip_set(0.0, 1.5), [1.0, 1.0], np.linspace(-2, 2, 9), 1.2,
                     {(0, False), (1, True), (2, False)}),
    "coercive_quadratic_3d": (make_epigraph("coercive_quadratic", dimension=3),
                              [0.5, 0.0, 1.0], _LATERAL_3D, 6.0,
                              {(0, False), (1, True), (2, False)}),
    "weierstrass": (make_epigraph("weierstrass"), [0.0, 1.0], np.linspace(-1, 1, 5), 3.0,
                    {(0, False), (1, True)}),
}


@pytest.mark.parametrize("name", sorted(GROUPED_SCANS))
def test_grouping_lines_does_not_change_section(name):
    dom, nu, probes, window, expected = GROUPED_SCANS[name]
    grouped_dom = _RecordingDomain(dom)
    grouped = section_measure(grouped_dom, nu, probes, 1e-3, window=window)
    alone, kinds = [], set()
    for i in range(len(probes)):
        rec = _RecordingDomain(dom)
        rep = section_measure(rec, nu, probes[i:i + 1], 1e-3, window=window)
        alone.append(rep)
        # one sampling batch, then one bisection batch holding the crossings
        kinds.add((rec.sizes[1] if len(rec.sizes) > 1 else 0, rep.unbounded_suspected))
    assert kinds == expected
    assert [m for _, m in grouped.per_line] == [r.per_line[0][1] for r in alone]
    assert grouped.unbounded_suspected == any(r.unbounded_suspected for r in alone)
    # one sampling call per line and one 48-step bisection for the whole scan
    assert len(grouped_dom.sizes) == len(probes) + 48


_COORD = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.booleans(), st.booleans(), st.integers(1, 40), st.data())
def test_points_on_lines_match_broadcast_bit_for_bit(n, per_row, nu_per_row, m, data):
    def vectors(one_per_row):
        rows = m if one_per_row else 1
        v = np.array(data.draw(st.lists(_COORD, min_size=rows * n, max_size=rows * n)))
        return v.reshape(m, n) if one_per_row else v

    t = np.array(data.draw(st.lists(_COORD, min_size=m, max_size=m)))
    nu = vectors(nu_per_row)
    base = vectors(per_row)
    pts = _points_on_lines(base, t, nu)
    expected = (base if per_row else base[None, :]) \
        + t[:, None] * (nu if nu_per_row else nu[None, :])
    assert pts.flags.f_contiguous
    assert pts.shape == expected.shape
    assert np.array_equal(pts.view(np.uint64), expected.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.floats(-50.0, 50.0, allow_nan=False),
                          st.floats(-1e-6, 1e-6, allow_nan=False)),
                min_size=1, max_size=20),
       st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 6]))
def test_weierstrass_value_does_not_depend_on_batch(xs, seed, b):
    # the profile sums the series once per distinct abscissa: a shuffled
    # batch with repeats gives each point the bits of a one-point batch,
    # also when tiny |x| in the batch need more phase limbs than the rest
    batch = np.random.default_rng(seed).permutation(np.array(xs + xs))
    values = _weierstrass_profile(batch, b, 0.5, 1e-12)
    alone = np.array([_weierstrass_profile(np.array([x]), b, 0.5, 1e-12)[0]
                      for x in batch])
    assert values.shape == batch.shape
    assert np.array_equal(values.view(np.uint64), alone.view(np.uint64))


def _layout_recorder(domain, layouts):
    def contains(points):
        layouts.append(points.flags.f_contiguous)
        return domain.contains(points)
    return contains


@pytest.mark.parametrize("name", sorted(GROUPED_SCANS))
def test_section_predicate_receives_column_contiguous_batches(name):
    dom, nu, probes, window, _ = GROUPED_SCANS[name]
    layouts = []
    section_measure(_layout_recorder(dom, layouts), nu, probes, 1e-3, window=window)
    assert len(layouts) == len(probes) + 48
    assert all(layouts)


def test_section_accepts_a_list_returning_predicate():
    probes = np.linspace(-3, 3, 13)
    as_list = section_measure(lambda p: [abs(y) < 1 for y in p[:, 1]], [0.0, 1.0],
                              probes, 1e-3, window=2.0)
    as_array = section_measure(lambda p: np.abs(p[:, 1]) < 1, [0.0, 1.0],
                               probes, 1e-3, window=2.0)
    assert [m for _, m in as_list.per_line] == [m for _, m in as_array.per_line]
    assert as_list.unbounded_suspected == as_array.unbounded_suspected


def strip_then(answer, calls):
    """The strip |y| < 1 for its first ``calls`` calls, then ``answer``."""
    count = []

    def predicate(points):
        count.append(1)
        if len(count) > calls:
            return answer(points)
        return np.abs(points[:, 1]) < 1
    return predicate


@pytest.mark.parametrize("answer", [lambda p: np.ones(3, bool),
                                    lambda p: True,
                                    lambda p: np.ones((len(p), 1), bool)],
                         ids=["three_flags", "scalar", "column"])
@pytest.mark.parametrize("phase", ["sampling", "bisection"])
def test_section_rejects_a_predicate_without_one_flag_per_point(answer,
                                                                phase):
    # a 21-point line read as 3 samples gave a measure of 2.0, and a scalar
    # answer a bare ValueError from np.concatenate; the 13 lines are sampled
    # in one call each, then their crossings are bisected
    pred = answer if phase == "sampling" else strip_then(answer, 13)
    with pytest.raises(ValidationError, match="one flag per point"):
        section_measure(pred, [0.0, 1.0], np.linspace(-3, 3, 13), 0.1,
                        window=1.0)


def test_bisect_rejects_a_predicate_without_one_flag_per_point():
    contains = geometry._membership(lambda p: np.ones(3, bool))
    with pytest.raises(ValidationError, match="one flag per point"):
        geometry._bisect(contains, np.zeros((5, 2)), np.array([0.0, 1.0]),
                         np.zeros(5), np.ones(5), np.zeros(5, bool))


def test_membership_checks_shape_without_another_call():
    calls = []

    def pred(points):
        calls.append(len(points))
        return [True] * len(points)

    flags = geometry._membership(pred)(np.zeros((4, 2)))
    assert flags.dtype == bool and flags.shape == (4,)
    assert calls == [4]


@pytest.mark.parametrize("domain,nu", [
    (winged_strip_set(), [0.0, 1.0]),
    (under_parabola_set(), [0.0, 1.0]),
    (make_epigraph("weierstrass"), [1.0, 1.0]),
])
def test_section_chunks_lines_and_matches_whole_line_scan(domain, nu, monkeypatch):
    # window 40 at resolution 1e-3: 80,001 samples, five chunks per line
    probes = np.linspace(-3, 3, 7)
    rec = _RecordingDomain(domain)
    chunked = section_measure(rec, nu, probes, 1e-3, window=40.0)
    assert max(rec.sizes) <= geometry._POINTS_PER_CALL
    # five sampling calls per line, then the 48 bisection steps
    assert len(rec.sizes) == 5 * len(probes) + 48
    monkeypatch.setattr(geometry, "_POINTS_PER_CALL", 80_001)
    whole_rec = _RecordingDomain(domain)
    whole = section_measure(whole_rec, nu, probes, 1e-3, window=40.0)
    assert whole_rec.sizes[:len(probes)] == [80_001] * len(probes)
    assert [m for _, m in chunked.per_line] == [m for _, m in whole.per_line]
    assert chunked.unbounded_suspected == whole.unbounded_suspected


@pytest.mark.parametrize("domain,box,h", [
    (make_epigraph("arc_bump"), [[-3.0, 3.0], [0.0, 3.0]], 0.25),
    (make_epigraph("weierstrass"), [[-1.0, 1.0], [0.0, 2.0]], 0.125),
    (revolution_set("cosine", dimension=3), [[-1.0, 1.0], [-1.5, 1.5], [-1.5, 1.5]], 0.25),
])
def test_build_grid_predicate_receives_column_contiguous_batches(domain, box, h):
    layouts = []
    grid = build_grid(_layout_recorder(domain, layouts), box, h)
    # the lattice mask, then 40 bisection steps over every cut arm at once
    assert (grid.arm_kind == ARM_CUT).any()
    assert len(layouts) == 41
    assert all(layouts)
