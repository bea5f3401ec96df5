"""Every catalog kind, pinned bit for bit.

Each nonlinearity (f, f', Lipschitz bounds and f(0)), epigraph profile (g and
its normalizing shift), open set and revolution profile (membership) is
evaluated at a fixed point set that holds the kinks 0 and 1, negative
values, values above 1 and the table edges. The values are compared as
``float.hex`` strings with literals recorded from the same formulas, so any
change to an operation or its order shows. The transcendental terms come
from NumPy's and the C library's cos, exp, asinh and pow, so a platform with
other implementations of those may differ in the last bits.
"""

import numpy as np
import pytest

from epigraph_lab import (eval_f, eval_f_prime, eval_g, lipschitz_on,
                          make_epigraph, make_nonlinearity, orthant_set,
                          revolution_set, strip_set, under_parabola_set,
                          winged_strip_set)

T = np.array([-2.0, -1.0, -0.25, 0.0, 1e-3, 0.25, 0.5, 0.75,
              1.0 - 2.0**-20, 1.0, 1.5, 3.0])
TABLE = {"ts": [-1.0, 0.0, 1.0, 2.0], "fs": [0.5, 1.0, -1.0, 0.25]}
INTERVALS = [(-2.0, -1.0), (-1.0, 2.0), (0.0, 1.0), (0.25, 0.75),
             (1.0, 3.0), (0.5, 0.5)]

NONLINEARITIES = {
    "constant": {}, "constant -2": {"value": -2.0},
    "linear": {}, "linear -0.5": {"slope": -0.5},
    "allen_cahn": {},
    "power": {}, "power 0.5": {"exponent": 0.5}, "power 3": {"exponent": 3.0},
    "sqrt_saturation": {}, "double_front_source": {},
    "custom_table": TABLE,
}

X1 = np.array([-7.0, -5.0, -4.0, -2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 2.5, 6.0,
               7.5, 1e-6, 1.0 / 3.0])
X2 = np.array([[x, y] for x in (-1.5, 0.0, 0.75, 2.0)
               for y in (-1.0, 0.0, 0.5, 3.0)])
SAMPLED_2D = {"axes": [np.array([-1.0, 0.0, 1.0, 2.0])],
              "values": np.array([0.5, -0.25, 1.0, 0.0])}
SAMPLED_3D = {"axes": [np.array([-1.0, 0.0, 2.0]), np.array([0.0, 1.0, 3.0])],
              "values": np.array([[0.0, 1.0, 2.0], [0.5, -0.5, 0.25],
                                  [1.0, 0.0, 3.0]])}

EPIGRAPHS = {
    "half_space": ("half_space", 2, {}),
    "arc_bump": ("arc_bump", 2, {}),
    "arc_bump_ramp": ("arc_bump_ramp", 2, {}),
    "weierstrass": ("weierstrass", 2, {}),
    "weierstrass 3": ("weierstrass", 2, {"b": 3, "alpha": 0.3, "tol": 1e-9}),
    "coercive_quadratic": ("coercive_quadratic", 2, {}),
    "coercive_quadratic 3d": ("coercive_quadratic", 3, {}),
    "exp_x1": ("exp_x1", 2, {}),
    "exp_x1 3d": ("exp_x1", 3, {}),
    "custom_sampled": ("custom_sampled", 2, SAMPLED_2D),
    "custom_sampled 3d": ("custom_sampled", 3, SAMPLED_3D),
}

P1 = np.array([[-0.5], [0.0], [0.5], [1.0], [1.5]])
P2 = np.array([[x, y] for x in (-3.0, -1.5, -0.5, 0.0, 0.5, 1.2, 3.0)
               for y in (-3.5, -2.0, -1.0, -0.5, 0.0, 0.99, 1.0, 1.25, 1.6,
                         2.5, 3.2, 9.5)])
P3 = np.array([[x, y, z] for x in (-2.0, 0.0, 1.0, 3.5)
               for y in (-1.0, 0.0, 0.6, 1.1) for z in (-0.2, 0.0, 0.7)])

OPEN_SETS = {
    "strip 1d": (lambda: strip_set(0.0, 1.0, dimension=1), P1),
    "strip": (lambda: strip_set(-1.0, 1.25, dimension=2), P2),
    "winged_strip": (winged_strip_set, P2),
    "under_parabola": (under_parabola_set, P2),
    "orthant": (orthant_set, P2),
    "orthant 3d": (lambda: orthant_set(dimension=3), P3),
    "revolution constant": (revolution_set, P2),
    "revolution constant 3d": (
        lambda: revolution_set("constant", dimension=3, value=0.9), P3),
    "revolution cosine": (
        lambda: revolution_set("cosine", base=1.0, amp=0.2, freq=1.0), P2),
    "revolution cosine 3d": (
        lambda: revolution_set("cosine", dimension=3, base=0.8, amp=0.3,
                               freq=2.0), P3),
    "revolution samples": (
        lambda: revolution_set("samples", xs=[-1.5, 0.0, 1.2],
                               phis=[0.5, 1.0, 2.5]), P2),
}


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in np.ravel(values))


def nonlinearity_snapshot(name: str) -> dict:
    params = NONLINEARITIES[name]
    f = make_nonlinearity(name.split()[0], **params)
    # the table covers [-1, 2]: T inside it, with both edges
    t = np.append(T[(T >= -1.0) & (T < 2.0)], 2.0) if "ts" in params else T
    return {"f": _hex(eval_f(f, t)), "f'": _hex(eval_f_prime(f, t)),
            "L": _hex([lipschitz_on(f, iv) for iv in INTERVALS]),
            "f0": _hex([f.f0])}


def epigraph_snapshot(name: str) -> dict:
    kind, dimension, params = EPIGRAPHS[name]
    spec = make_epigraph(kind, dimension=dimension, **params)
    xp = X1 if dimension == 2 else X2
    return {"g": _hex(eval_g(spec, xp)), "shift": _hex([spec.shift])}


def open_set_snapshot(name: str) -> str:
    build, points = OPEN_SETS[name]
    return "".join("1" if v else "0" for v in build().contains(points))


@pytest.mark.parametrize("name", NONLINEARITIES)
def test_nonlinearity_bits(name):
    assert nonlinearity_snapshot(name) == EXPECTED_F[name]


@pytest.mark.parametrize("name", EPIGRAPHS)
def test_epigraph_profile_bits(name):
    assert epigraph_snapshot(name) == EXPECTED_G[name]


@pytest.mark.parametrize("name", OPEN_SETS)
def test_open_set_membership(name):
    assert open_set_snapshot(name) == EXPECTED_CONTAINS[name]


# recorded from the formulas these tests pin
EXPECTED_F = {
    'constant': {
        'f': ('0x1.0000000000000p+0 0x1.0000000000000p+0 '
              '0x1.0000000000000p+0 0x1.0000000000000p+0 '
              '0x1.0000000000000p+0 0x1.0000000000000p+0 '
              '0x1.0000000000000p+0 0x1.0000000000000p+0 '
              '0x1.0000000000000p+0 0x1.0000000000000p+0 '
              '0x1.0000000000000p+0 0x1.0000000000000p+0'),
        "f'": ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
               '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0'),
        'L': '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0',
        'f0': '0x1.0000000000000p+0',
    },
    'constant -2': {
        'f': ('-0x1.0000000000000p+1 -0x1.0000000000000p+1 '
              '-0x1.0000000000000p+1 -0x1.0000000000000p+1 '
              '-0x1.0000000000000p+1 -0x1.0000000000000p+1 '
              '-0x1.0000000000000p+1 -0x1.0000000000000p+1 '
              '-0x1.0000000000000p+1 -0x1.0000000000000p+1 '
              '-0x1.0000000000000p+1 -0x1.0000000000000p+1'),
        "f'": ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
               '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0'),
        'L': '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0',
        'f0': '-0x1.0000000000000p+1',
    },
    'linear': {
        'f': ('-0x1.0000000000000p+1 -0x1.0000000000000p+0 '
              '-0x1.0000000000000p-2 0x0.0p+0 0x1.0624dd2f1a9fcp-10 '
              '0x1.0000000000000p-2 0x1.0000000000000p-1 '
              '0x1.8000000000000p-1 0x1.ffffe00000000p-1 '
              '0x1.0000000000000p+0 0x1.8000000000000p+0 '
              '0x1.8000000000000p+1'),
        "f'": ('0x1.0000000000000p+0 0x1.0000000000000p+0 '
               '0x1.0000000000000p+0 0x1.0000000000000p+0 '
               '0x1.0000000000000p+0 0x1.0000000000000p+0 '
               '0x1.0000000000000p+0 0x1.0000000000000p+0 '
               '0x1.0000000000000p+0 0x1.0000000000000p+0 '
               '0x1.0000000000000p+0 0x1.0000000000000p+0'),
        'L': ('0x1.0000000000000p+0 0x1.0000000000000p+0 '
              '0x1.0000000000000p+0 0x1.0000000000000p+0 '
              '0x1.0000000000000p+0 0x1.0000000000000p+0'),
        'f0': '0x0.0p+0',
    },
    'linear -0.5': {
        'f': ('0x1.0000000000000p+0 0x1.0000000000000p-1 '
              '0x1.0000000000000p-3 -0x0.0p+0 -0x1.0624dd2f1a9fcp-11 '
              '-0x1.0000000000000p-3 -0x1.0000000000000p-2 '
              '-0x1.8000000000000p-2 -0x1.ffffe00000000p-2 '
              '-0x1.0000000000000p-1 -0x1.8000000000000p-1 '
              '-0x1.8000000000000p+0'),
        "f'": ('-0x1.0000000000000p-1 -0x1.0000000000000p-1 '
               '-0x1.0000000000000p-1 -0x1.0000000000000p-1 '
               '-0x1.0000000000000p-1 -0x1.0000000000000p-1 '
               '-0x1.0000000000000p-1 -0x1.0000000000000p-1 '
               '-0x1.0000000000000p-1 -0x1.0000000000000p-1 '
               '-0x1.0000000000000p-1 -0x1.0000000000000p-1'),
        'L': ('0x1.0000000000000p-1 0x1.0000000000000p-1 '
              '0x1.0000000000000p-1 0x1.0000000000000p-1 '
              '0x1.0000000000000p-1 0x1.0000000000000p-1'),
        'f0': '0x0.0p+0',
    },
    'allen_cahn': {
        'f': ('0x1.8000000000000p+2 0x0.0p+0 -0x1.e000000000000p-3 0x0.0p+0 '
              '0x1.0624cc010eb7ap-10 0x1.e000000000000p-3 '
              '0x1.8000000000000p-2 0x1.5000000000000p-2 '
              '0x1.ffffd00000000p-20 0x0.0p+0 -0x1.e000000000000p+0 '
              '-0x1.8000000000000p+4'),
        "f'": ('-0x1.6000000000000p+3 -0x1.0000000000000p+1 '
               '0x1.a000000000000p-1 0x1.0000000000000p+0 '
               '0x1.ffff9b56323bcp-1 0x1.a000000000000p-1 '
               '0x1.0000000000000p-2 -0x1.6000000000000p-1 '
               '-0x1.ffffa00003000p+0 -0x1.0000000000000p+1 '
               '-0x1.7000000000000p+2 -0x1.a000000000000p+4'),
        'L': ('0x1.6000000000000p+3 0x1.6000000000000p+3 '
              '0x1.0000000000000p+1 0x1.a000000000000p-1 '
              '0x1.a000000000000p+4 0x1.0000000000000p-2'),
        'f0': '0x0.0p+0',
    },
    'power': {
        'f': ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0c6f7a0b5ed8dp-20 '
              '0x1.0000000000000p-4 0x1.0000000000000p-2 '
              '0x1.2000000000000p-1 0x1.ffffc00002000p-1 '
              '0x1.0000000000000p+0 0x1.2000000000000p+1 '
              '0x1.2000000000000p+3'),
        "f'": ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0624dd2f1a9fcp-9 '
               '0x1.0000000000000p-1 0x1.0000000000000p+0 '
               '0x1.8000000000000p+0 0x1.ffffe00000000p+0 '
               '0x1.0000000000000p+1 0x1.8000000000000p+1 '
               '0x1.8000000000000p+2'),
        'L': ('0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+1 '
              '0x1.8000000000000p+0 0x1.8000000000000p+2 '
              '0x1.0000000000000p+0'),
        'f0': '0x0.0p+0',
    },
    'power 0.5': {
        'f': ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.030dc4ea03a72p-5 '
              '0x1.0000000000000p-1 0x1.6a09e667f3bcdp-1 '
              '0x1.bb67ae8584caap-1 0x1.ffffefffffc00p-1 '
              '0x1.0000000000000p+0 0x1.3988e1409212ep+0 '
              '0x1.bb67ae8584caap+0'),
        "f'": ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.f9f6e4990f227p+3 '
               '0x1.0000000000000p+0 0x1.6a09e667f3bcdp-1 '
               '0x1.279a74590331cp-1 0x1.0000080000600p-1 '
               '0x1.0000000000000p-1 0x1.a20bd700c2c3ep-2 '
               '0x1.279a74590331cp-2'),
        'L': ('0x0.0p+0 inf inf 0x1.0000000000000p+0 0x1.0000000000000p-1 '
              '0x1.6a09e667f3bcdp-1'),
        'f0': '0x0.0p+0',
    },
    'power 3': {
        'f': ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.12e0be826d695p-30 '
              '0x1.0000000000000p-6 0x1.0000000000000p-3 '
              '0x1.b000000000000p-2 0x1.ffffa00006000p-1 '
              '0x1.0000000000000p+0 0x1.b000000000000p+1 '
              '0x1.b000000000000p+4'),
        "f'": ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.92a737110e454p-19 '
               '0x1.8000000000000p-3 0x1.8000000000000p-1 '
               '0x1.b000000000000p+0 0x1.7fffd00001800p+1 '
               '0x1.8000000000000p+1 0x1.b000000000000p+2 '
               '0x1.b000000000000p+4'),
        'L': ('0x0.0p+0 0x1.8000000000000p+3 0x1.8000000000000p+1 '
              '0x1.b000000000000p+0 0x1.b000000000000p+4 '
              '0x1.8000000000000p-1'),
        'f0': '0x0.0p+0',
    },
    'sqrt_saturation': {
        'f': ('0x1.8000000000000p+3 0x1.8000000000000p+3 '
              '0x1.8000000000000p+3 0x1.8000000000000p+3 '
              '0x1.7fced5f0d1982p+3 0x1.4c8dc2e423980p+3 '
              '0x1.0f876ccdf6cdap+3 0x1.8000000000000p+2 '
              '0x1.8000000000000p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0'),
        "f'": ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.8031305b67f85p+2 '
               '-0x1.bb67ae8584cabp+2 -0x1.0f876ccdf6cd9p+3 '
               '-0x1.8000000000000p+3 -0x1.8000000000000p+12 0x0.0p+0 '
               '0x0.0p+0 0x0.0p+0'),
        'L': ('0x0.0p+0 inf inf 0x1.8000000000000p+3 0x0.0p+0 '
              '0x1.0f876ccdf6cd9p+3'),
        'f0': '0x1.8000000000000p+3',
    },
    'double_front_source': {
        'f': ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.1205406116ab5p+2 '
              '-0x1.82199ec28b091p+2 0x1.6259642abcf78p+1 '
              '0x1.c9a9b42b3c201p+2 0x1.7fffda7fff874p-6 0x0.0p+0 0x0.0p+0 '
              '0x0.0p+0'),
        "f'": ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.adc5c292ee1d0p+10 '
               '0x1.491bec8e197afp+5 0x1.b9248f1a8e4acp+4 '
               '0x1.713775e574c6cp+2 -0x1.7fff8f7ffe584p+13 0x0.0p+0 '
               '0x0.0p+0 0x0.0p+0'),
        'L': ('0x0.0p+0 inf inf 0x1.491bec8e197afp+5 0x0.0p+0 '
              '0x1.b9248f1a8e4acp+4'),
        'f0': '0x0.0p+0',
    },
    'custom_table': {
        'f': ('0x1.0000000000000p-1 0x1.c000000000000p-1 '
              '0x1.0000000000000p+0 0x1.fef9db22d0e56p-1 '
              '0x1.0000000000000p-1 0x0.0p+0 -0x1.0000000000000p-1 '
              '-0x1.ffffc00000000p-1 -0x1.0000000000000p+0 '
              '-0x1.8000000000000p-2 0x1.0000000000000p-2'),
        "f'": ('0x1.0000000000000p-1 0x1.0000000000000p-1 '
               '-0x1.0000000000000p+1 -0x1.0000000000000p+1 '
               '-0x1.0000000000000p+1 -0x1.0000000000000p+1 '
               '-0x1.0000000000000p+1 -0x1.0000000000000p+1 '
               '0x1.4000000000000p+0 0x1.4000000000000p+0 '
               '0x1.4000000000000p+0'),
        'L': ('0x0.0p+0 0x1.0000000000000p+1 0x1.0000000000000p+1 '
              '0x1.0000000000000p+1 0x1.4000000000000p+0 '
              '0x1.0000000000000p+1'),
        'f0': '0x1.0000000000000p+0',
    },
}
EXPECTED_G = {
    'half_space': {
        'g': ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
              '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
              '0x0.0p+0 0x0.0p+0'),
        'shift': '0x0.0p+0',
    },
    'arc_bump': {
        'g': ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+1 '
              '0x1.52a7fa9d2f8eap+0 0x0.0p+0 0x1.52a7fa9d2f8eap+0 '
              '0x1.bb67ae8584caap+0 0x1.0000000000000p+1 '
              '0x1.0000000000000p+1 0x1.0000000000000p+1 '
              '0x1.0000000000000p+1 0x1.0624db091e4dap-9 '
              '0x1.1b04c62a8f4cdp+0'),
        'shift': '0x0.0p+0',
    },
    'arc_bump_ramp': {
        'g': ('0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+1 '
              '0x1.52a7fa9d2f8eap+0 0x0.0p+0 0x1.52a7fa9d2f8eap+0 '
              '0x1.bb67ae8584caap+0 0x1.0000000000000p+1 '
              '0x1.0000000000000p+1 0x1.0000000000000p+1 '
              '0x1.c000000000000p+1 0x1.0624db091e4dap-9 '
              '0x1.1b04c62a8f4cdp+0'),
        'shift': '0x0.0p+0',
    },
    'weierstrass': {
        'g': ('0x1.ce015919a99a4p+1 0x1.ce015919a99a4p+1 '
              '0x1.ce015919a99a4p+1 0x1.ce015919a99a4p+1 '
              '0x1.18fc65e5afbbep+1 0x1.ce015919a99a4p+1 '
              '0x1.18fc65e5afbbep+1 0x1.ce015919a99a4p+1 '
              '0x1.ce015919a99a4p+1 0x1.18fc65e5afbbep+1 '
              '0x1.ce015919a99a4p+1 0x1.18fc65e5afbbep+1 '
              '0x1.cd434c1d52e84p+1 -0x1.86137a61be000p-7'),
        'shift': '0x1.31f8cbcb60124p+0',
    },
    'weierstrass 3': {
        'g': ('-0x1.27d0c93dc8000p-14 -0x1.27d0c93dc8000p-14 '
              '0x1.47df995d65b62p+2 0x1.47df995d65b62p+2 '
              '0x1.47de718c9c785p+1 0x1.47df995d65b62p+2 '
              '0x1.47de718c9c785p+1 -0x1.27d0c93dc8000p-14 '
              '0x1.47df995d65b62p+2 0x1.47de718c9c785p+1 '
              '0x1.47df995d65b62p+2 0x1.47de718c9c785p+1 '
              '0x1.42739b9ae5c9bp+2 -0x1.08ed971140000p-17'),
        'shift': '0x1.47de718c9c785p+1',
    },
    'coercive_quadratic': {
        'g': ('0x1.8800000000000p+5 0x1.9000000000000p+4 '
              '0x1.0000000000000p+4 0x1.0000000000000p+2 '
              '0x1.0000000000000p-2 0x0.0p+0 0x1.0000000000000p-2 '
              '0x1.0000000000000p+0 0x1.0000000000000p+2 '
              '0x1.9000000000000p+2 0x1.2000000000000p+5 '
              '0x1.c200000000000p+5 0x1.19799812dea11p-40 '
              '0x1.c71c71c71c71cp-4'),
        'shift': '0x0.0p+0',
    },
    'coercive_quadratic 3d': {
        'g': ('0x1.2b9c2454b92eep+1 0x1.a000000000000p+1 '
              '0x1.05daa91e1219ep+2 0x1.7c3c1cea9eba8p+1 '
              '0x1.73848a9725dd0p-4 0x1.0000000000000p+0 '
              '0x1.d76aa47848677p+0 0x1.70f073aa7aea0p-1 '
              '0x1.4e709152e4bbap-1 0x1.9000000000000p+0 '
              '0x1.33b5523c2433cp+1 0x1.487839d53d750p+0 '
              '0x1.05ce122a5c977p+2 0x1.4000000000000p+2 '
              '0x1.75daa91e1219ep+2 0x1.2e1e0e754f5d4p+2'),
        'shift': '0x1.0000000000000p+0',
    },
    'exp_x1': {
        'g': ('0x1.de16b9c24a98fp-11 0x1.b993fe00d5376p-8 '
              '0x1.2c155b8213cf4p-6 0x1.152aaa3bf81ccp-3 '
              '0x1.368b2fc6f960ap-1 0x1.0000000000000p+0 '
              '0x1.a61298e1e069cp+0 0x1.5bf0a8b145769p+1 '
              '0x1.d8e64b8d4ddaep+2 0x1.85d6fd931e0bbp+3 '
              '0x1.936dc5690c08fp+8 0x1.c402b6eb1f6adp+10 '
              '0x1.000010c6f82d7p+0 0x1.6546db1ba2d13p+0'),
        'shift': '0x0.0p+0',
    },
    'exp_x1 3d': {
        'g': ('0x1.31f15ff8b0090p-2 0x1.368b2fc6f960ap-1 '
              '0x1.ed8ca5963b555p-2 0x1.306ba1e0fe96ap-1 '
              '0x1.56c903301bb38p+0 0x1.5bf0a8b145769p+1 '
              '0x1.147deb2f47684p+1 0x1.55145612a9949p+1 '
              '0x1.6ad6907d30294p+1 0x1.704b6905bacbfp+2 '
              '0x1.24aaa95978cdcp+2 0x1.690857b5b7d28p+2 '
              '0x1.3c9b7dd1d498ap+3 0x1.415e5bf6fb106p+4 '
              '0x1.fec0e459f97a2p+3 0x1.3b0829d07b49dp+4'),
        'shift': '0x0.0p+0',
    },
    'custom_sampled': {
        'g': ('0x1.8000000000000p-1 0x1.8000000000000p-1 '
              '0x1.8000000000000p-1 0x1.8000000000000p-1 '
              '0x1.8000000000000p-2 0x0.0p+0 0x1.4000000000000p-1 '
              '0x1.4000000000000p+0 0x1.0000000000000p-2 '
              '0x1.0000000000000p-2 0x1.0000000000000p-2 '
              '0x1.0000000000000p-2 0x1.4f8b588e40000p-20 '
              '0x1.aaaaaaaaaaaaap-2'),
        'shift': '0x1.0000000000000p-2',
    },
    'custom_sampled 3d': {
        'g': ('0x1.0000000000000p-1 0x1.0000000000000p-1 '
              '0x1.0000000000000p+0 0x1.4000000000000p+1 '
              '0x1.0000000000000p+0 0x1.0000000000000p+0 '
              '0x1.0000000000000p-1 0x1.8000000000000p-1 '
              '0x1.3000000000000p+0 0x1.3000000000000p+0 '
              '0x1.6000000000000p-1 0x1.c800000000000p+0 '
              '0x1.8000000000000p+0 0x1.8000000000000p+0 '
              '0x1.0000000000000p+0 0x1.c000000000000p+1'),
        'shift': '0x1.0000000000000p-1',
    },
}
EXPECTED_CONTAINS = {
    'strip 1d': '00100',
    'strip': (
        '000111100000000111100000000111100000000111100000000111100000'
        '000111100000000111100000'
    ),
    'winged_strip': (
        '000111000000000111001000001111100000000111000000001111100000'
        '001111110000000111000000'
    ),
    'under_parabola': (
        '000001111110000001111000000000000000000000000000000000000000'
        '000001110000000001111110'
    ),
    'orthant': (
        '000000000000000000000000000000000000000000000000000001111111'
        '000001111111000001111111'
    ),
    'orthant 3d': '000000000000000000000000000000001001000000001001',
    'revolution constant': (
        '000111000000000111000000000111000000000111000000000111000000'
        '000111000000000111000000'
    ),
    'revolution constant 3d': (
        '000111110000000111110000000111110000000111110000'
    ),
    'revolution cosine': (
        '000110000000001111100000001111100000001111100000001111100000'
        '001111100000000110000000'
    ),
    'revolution cosine 3d': '000110010000110111111000000110110000110111111000',
    'revolution samples': (
        '000010000000000010000000000110000000000111000000001111111000'
        '011111111000011111111000'
    ),
}
