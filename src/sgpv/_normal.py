"""Standard normal CDF / quantile kernel.

The CDF routes through the complementary error function (the platform's
implementation of the published rational approximations), which keeps the
absolute error at the 1e-15 level across the deep tails that the design
formulas evaluate. The quantile is Wichura's algorithm AS 241 (PPND16),
three rational approximations accurate to full double precision.

``norm_cdf_array`` is ``norm_cdf`` over a numpy column, bitwise: one ``math.erfc``
pass (``scipy.special.erfc`` is off by an ulp on a third of inputs). There is one
AS 241, ``norm_quantile_array``, with ``math.log`` on the tail elements (``np.log``
can be off by an ulp); ``norm_quantile`` is its one-row view.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_probability

_SQRT2 = math.sqrt(2.0)

# AS 241 coefficients, central region |p - 1/2| <= 0.425.
_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
# Intermediate region, r = sqrt(-log(min(p, 1-p))) in (1.6, 5].
_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
# Far tails, r > 5.
_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-6,
    1.42151175831644588870e-9,
    2.04426310338993978564e-15,
)


def norm_cdf(x: float) -> float:
    """Standard normal CDF, accurate in both tails."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_cdf_array(x: np.ndarray) -> np.ndarray:
    """``norm_cdf`` over a 1-d array, bitwise equal to the scalar kernel."""
    return 0.5 * np.fromiter(map(math.erfc, (-np.asarray(x, dtype=float) / _SQRT2).tolist()), float)


def _poly_array(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    # Horner's first step, 0.0 * x + coeffs[-1], is exactly coeffs[-1]
    acc = np.full_like(x, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc *= x
        acc += c
    return acc


def norm_quantile_array(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF (Wichura's PPND16 / AS 241), elementwise."""
    p = np.asarray(p, dtype=float)
    inside = (p > 0.0) & (p < 1.0)
    if not inside.all():
        check_probability("quantile argument", p[~inside].flat[0].item())
    q = p - 0.5
    out = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    out[central] = qc * _poly_array(_A, r) / _poly_array(_B, r)
    tail = ~central
    lower = q[tail] < 0.0
    pt = p[tail]
    r = np.where(lower, pt, 1.0 - pt)
    r = np.fromiter(map(math.log, r.tolist()), dtype=float, count=r.size)
    r = np.sqrt(-r)
    x = np.empty_like(r)
    mid = r <= 5.0
    rm = r[mid] - 1.6
    x[mid] = _poly_array(_C, rm) / _poly_array(_D, rm)
    rf = r[~mid] - 5.0
    x[~mid] = _poly_array(_E, rf) / _poly_array(_F, rf)
    out[tail] = np.where(lower, -x, x)
    return out


def norm_quantile(p: float) -> float:
    """``norm_quantile_array`` of one probability: about 90 us a call."""
    check_probability("quantile argument", p)  # as given: an int too large for a double, say
    return norm_quantile_array(np.array([p], dtype=float)).item()
