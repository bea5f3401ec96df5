"""Domain catalog, reflections and directional section measures."""

import math

import numpy as np
import pytest

from epigraph_lab import (
    ValidationError,
    make_epigraph,
    eval_g,
    reflect,
    cap_membership,
    strip_set,
    winged_strip_set,
    under_parabola_set,
    orthant_set,
    revolution_set,
    section_measure,
)

# geometric series limit: sum_{n>=1} 2^(-n/2) = 1/(sqrt(2)-1)
WEIERSTRASS_AT_ZERO = 2.4142135623730950488
# 1-D interval-union oracle at probe 1: 2 + 2*asinh(1/e)
WINGED_PER_LINE_AT_1 = 2.7200992892182074035


def test_epigraph_kinds_rejected():
    with pytest.raises(ValidationError):
        make_epigraph("no_such_profile")


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


def test_exp_profile_membership():
    spec = make_epigraph("exp_x1", dimension=2)
    assert spec.contains(np.array([[0.0, 1.5]]))[0]
    assert not spec.contains(np.array([[0.0, 0.5]]))[0]


@pytest.mark.parametrize("point,lam,expected", [
    ((0.0, 0.5), 1.0, (0.0, 1.5)),
    ((0.0, 1.0), 1.0, (0.0, 1.0)),   # fixed plane
])
def test_reflect_values(point, lam, expected):
    got = reflect(np.array(point), lam)
    assert np.allclose(got, expected, atol=0)


def test_reflect_is_an_involution():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 3))
    lam = 0.75
    back = reflect(reflect(pts, lam), lam)
    # one rounding each way: 2*lam - (2*lam - x)
    assert np.allclose(back, pts, rtol=0, atol=5e-15)


def test_reflect_only_touches_last_coordinate():
    p = np.array([3.0, -2.0, 0.25])
    q = reflect(p, 1.0)
    assert np.array_equal(q[:2], p[:2])
    assert q[2] == 1.75


@pytest.mark.parametrize("point,lam,inside", [
    ((0.0, 0.5), 1.0, True),
    ((0.0, 1.5), 1.0, False),
])
def test_cap_membership_half_space(point, lam, inside):
    spec = make_epigraph("half_space", dimension=2)
    assert bool(cap_membership(spec, np.array(point), lam)) is inside


def test_cap_membership_above_arc_plateau():
    # g = 2 at x = 3, so (3, 2.5) sits in the cap below lambda = 3
    spec = make_epigraph("arc_bump", dimension=2)
    assert bool(cap_membership(spec, np.array([3.0, 2.5]), 3.0))
    assert not bool(cap_membership(spec, np.array([3.0, 1.5]), 3.0))


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


def test_parabola_section_flagged_unbounded():
    dom = under_parabola_set()
    rep = section_measure(dom, [0.0, 1.0], np.linspace(-12, 12, 25),
                          1e-3, window=100.0)
    assert rep.unbounded_suspected


def test_section_rejects_zero_direction():
    dom = strip_set(0.0, 1.0, dimension=2)
    with pytest.raises(ValidationError):
        section_measure(dom, [0.0, 0.0], np.linspace(-1, 1, 5), 1e-3)


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
