"""Adaptive Gauss–Kronrod quadrature, vectorised in numpy.

Uses QUADPACK's qk15 pair (Piessens et al., QUADPACK, 1983): a 15-point
Kronrod rule with the 7-point Gauss rule embedded in it. Each interval's error
estimate is |K15 - G7|. Every round evaluates all new intervals in one call of
the integrand, which must map a 1-D array of abscissae to an array of values.
"""

import math

import numpy as np

from .errors import QuadratureError

_LIMIT = 200  # intervals per piece

# Kronrod abscissae on [0, 1) in descending order; the odd-indexed ones and
# the centre are the Gauss nodes.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)


def _mirror(half, sign=1.0):
    return np.array([sign * v for v in half[:-1]] + list(half[::-1]))


_NODES = _mirror(_XGK, -1.0)
_RULES = np.stack([_mirror(_WGK), _mirror(_WG)], axis=1)  # (15, 2): Kronrod, Gauss


def _qk15(f, lo, hi):
    """K15 values and |K15 - G7| errors on the intervals [lo[i], hi[i]]."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    kg = (np.asarray(f(x.ravel()), dtype=float).reshape(x.shape) @ _RULES) * half[:, None]
    return kg[:, 0], np.abs(kg[:, 0] - kg[:, 1])


def _adapt(f, a, b, epsabs, epsrel):
    """Global adaptive bisection of [a, b].

    No interval is retired: each round bisects every interval whose error
    exceeds tol / n_intervals. While the total error exceeds tol, at least
    one interval does, so every round makes progress.
    """
    lo, hi = np.array([a]), np.array([b])
    value, err = _qk15(f, lo, hi)
    while True:
        total, total_err = float(value.sum()), float(err.sum())
        if not math.isfinite(total_err):
            raise QuadratureError("quadrature error estimate is not finite", total_err)
        tol = max(epsabs, epsrel * abs(total))
        if total_err <= tol:
            return total
        split = err > tol / err.size
        if err.size + np.count_nonzero(split) > _LIMIT:
            raise QuadratureError(f"quadrature needs more than {_LIMIT} intervals", total_err)
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_err = _qk15(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


def _tail(f, c, k):
    """f on [c, inf) as an integrand in u on (0, 1], where t = c + ((1 - u) / u)**k."""
    def mapped(u):
        w = (1.0 - u) / u
        return f(c + w ** k) * (k * w ** (k - 1.0)) / (u * u)
    return mapped


def integrate(f, a, b, epsabs, epsrel, points=(), tail_decay=2.0):
    """Integral of f over [a, b]; b may be +inf.

    `points` inside (a, b) cut the range into pieces, and each piece gets an
    equal share of `epsabs`. An infinite tail [c, inf), anchored at the last
    cut c, is mapped to u in (0, 1] by t = c + ((1 - u) / u)**k. When f falls
    off like t**-tail_decay (tail_decay > 1), k = max(1, 1 / (tail_decay - 1))
    keeps the mapped integrand bounded at u = 0, so bisection converges also
    for tails heavier than t**-2. Raises QuadratureError when a piece would
    need more than _LIMIT intervals or its error estimate is not finite.
    """
    cuts = [a, *sorted(p for p in points if a < p < b), b]
    share = epsabs / (len(cuts) - 1)
    k = max(1.0, 1.0 / (tail_decay - 1.0))
    value = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if math.isinf(hi):
            value += _adapt(_tail(f, lo, k), 0.0, 1.0, share, epsrel)
        else:
            value += _adapt(f, lo, hi, share, epsrel)
    return value
