"""Fisher information of the amplification outcome distributions.

Closed forms implemented here, all as functions of a real-valued query
count ``n_q`` (the parity restriction to odd/even integers lives in the
sampling layer; the curves are smooth in ``n_q``).  Writing
``R = r**n_q``, ``s = 1 - R`` and ``u = 1/d``:

* classical, G:   ``4 n_q^2 sin^2 cos^2 R^2 / [(cos^2 R + s/2)(sin^2 R + s/2)]``
* classical, Q:   same numerator over ``[(cos^2 R + u s)(sin^2 R + (1-u) s)]``
  (``sin`` and ``cos`` of ``n_q theta``)
* envelope, G:    ``4 n_q^2 R^2``
* envelope, Q:    ``4 n_q^2 R^2 / (beta + alpha*s)^2`` with
  ``alpha = sqrt(u(1-u))`` and ``beta = sqrt((1-u*s)(R+u*s))``.  This is an
  exact rationalization of the textbook three-term expression
  ``4n_q^2 R + 8n_q^2 u(1-u)s^2 - 8n_q^2 s sqrt(u(1-u)(1-u*s)(R+u*s))``
  (expand ``(beta - alpha*s)^2`` and use ``beta^2 - alpha^2 s^2 = R``); the
  rationalized form adds only positive quantities, so it stays accurate when
  the three terms cancel almost completely (deep decay, or d = 2 where the
  envelope collapses onto the G envelope exactly).
* quantum (same for G and Q): ``4 n_q^2 R^2 / (2u + (1-2u)R)``.

Each factor of a classical denominator is an outcome probability written
as a sum of non-negative terms, with ``s`` from ``expm1``.  So a tiny
``cos^2`` or ``sin^2`` survives near the angles where it vanishes, even at
``r = 1``; the expanded ``1/2 + (cos^2 - 1/2) R`` would round it to the
spacing of floats near 1/2 and lift the information up to 1.5x above
``4 n_q^2`` there.

The chain ``envelope_G <= envelope_Q <= quantum`` holds for every ``d``,
with three-way equality at d = 2, and ``envelope_Q -> quantum`` pointwise
as ``d -> infinity``.

Every closed form broadcasts over ``theta`` and ``n_q`` with numpy rules, so
``aelab fisher-curves`` evaluates each series in one call; a scalar call
returns a Python ``float`` equal, bit for bit, to the array call's element.
A zero denominator gives 0 without a floating-point warning.
"""

from __future__ import annotations

import math

import numpy as np

from .model import INFINITE, Method, NoiseModel, SystemSize, _check_method, _check_theta, _scalar_or_array, decay

__all__ = [
    "classical_fisher",
    "classical_fisher_envelope",
    "quantum_fisher",
    "envelope_peak",
]


def _check_n_q(n_q) -> None:
    n = np.asarray(n_q)
    if np.count_nonzero((n > 0) & np.isfinite(n)) != n.size:
        raise ValueError(f"query count must be positive and finite, got {n_q}")


def _ratio(num, den):
    """``num / den``, and 0 where ``den == 0``, as a float or an array."""
    out = np.zeros(np.broadcast(num, den).shape)
    return _scalar_or_array(np.divide(num, den, out=out, where=den != 0.0))


def classical_fisher(
    method: Method,
    theta,
    n_q,
    noise: NoiseModel,
    size: SystemSize = INFINITE,
) -> float | np.ndarray:
    """Fisher information of the two-outcome distribution at fixed ``theta``.

    At ``r = 1`` this reduces to ``4 n_q^2`` everywhere except the isolated
    points ``sin(n_q*theta)*cos(n_q*theta) = 0``, where both outcome
    probabilities freeze and the value is taken to be 0 (the curves for
    ``r < 1`` genuinely touch 0 there).
    """
    _check_method(method)
    _check_theta(theta)
    _check_n_q(n_q)
    r_pow, mixed = decay(noise.r, n_q)
    x = n_q * np.asarray(theta)
    s2 = np.square(np.sin(x))
    c2 = np.square(np.cos(x))
    if method is Method.G:
        den = (c2 * r_pow + 0.5 * mixed) * (s2 * r_pow + 0.5 * mixed)
    else:
        u = size.inv_d
        den = (c2 * r_pow + u * mixed) * (s2 * r_pow + (1.0 - u) * mixed)
    num = 4.0 * n_q * n_q * s2 * c2 * r_pow * r_pow
    return _ratio(num, den)


def classical_fisher_envelope(
    method: Method, n_q, noise: NoiseModel, size: SystemSize = INFINITE
) -> float | np.ndarray:
    """Theta-independent upper envelope of :func:`classical_fisher`."""
    _check_method(method)
    _check_n_q(n_q)
    r_pow, mixed = decay(noise.r, n_q)
    top = 4.0 * n_q * n_q * r_pow * r_pow
    if method is Method.G:
        return _scalar_or_array(top)
    u = size.inv_d
    if u == 0.0:
        # d -> infinity limit: the envelope closes onto the quantum value
        return quantum_fisher(n_q, noise, size)
    alpha = math.sqrt(u * (1.0 - u))
    beta = np.sqrt((1.0 - u * mixed) * (r_pow + u * mixed))
    return _scalar_or_array(top / np.square(beta + alpha * mixed))


def quantum_fisher(n_q, noise: NoiseModel, size: SystemSize = INFINITE) -> float | np.ndarray:
    """Measurement-optimized Fisher information; identical for both methods."""
    _check_n_q(n_q)
    r_pow, _ = decay(noise.r, n_q)
    u = size.inv_d
    return _ratio(4.0 * n_q * n_q * r_pow * r_pow, 2.0 * u + (1.0 - 2.0 * u) * r_pow)


def golden_max(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Golden-section maximum ``(x, f(x))`` of a unimodal f on [lo, hi], with
    x the midpoint of the final bracket, |x error| <= xtol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def envelope_peak(
    method: Method, r: float, size: SystemSize = INFINITE
) -> tuple[float, float]:
    """Location and height of the envelope maximum over real ``n_q``.

    Closed forms: the G envelope peaks at ``n_q = -1/ln(r)`` with value
    ``4 / (e^2 ln^2 r)``; the infinite-size Q envelope peaks at twice that
    query count with four times that value.  For finite sizes the Q envelope
    has no closed-form peak and is maximized numerically on
    ``(0, -10/ln(r)]``, a bracket that always contains the maximum because
    the envelope decays like ``r**n_q``.
    """
    _check_method(method)
    if not 0.0 < r < 1.0:
        raise ValueError(f"peak requires r strictly inside (0, 1), got {r}")
    log_r = math.log(r)
    if method is Method.G:
        n_star = -1.0 / log_r
        return n_star, 4.0 / (math.e**2 * log_r**2)
    if size.is_infinite:
        n_star = -2.0 / log_r
        return n_star, 16.0 / (math.e**2 * log_r**2)
    noise = NoiseModel(r)

    def f(n_q: float) -> float:
        return classical_fisher_envelope(Method.Q, n_q, noise, size)

    return golden_max(f, 1e-9, -10.0 / log_r, xtol=1e-6)
