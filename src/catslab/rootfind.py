"""Bracketed scalar root finding: Newton safeguarded by bisection (rtsafe).

All transcendental equations in this package (critical scale, cone tangency,
threshold inversion) have a proven bracketed root, so the solver insists on a
sign change and never leaves the bracket, which shrinks on every evaluation.
Newton steps (secant without a derivative) converge quadratically near the
root; bisection steps in only when a step would leave the bracket or fails to
halve the step before last (Press et al., Numerical Recipes, section 9.4).
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

# a Newton update by d is off by about C*d**2 (C = f''/2f'; secant: C*d*s_old),
# below round-off for C*|x| up to 1e7 once |d| <= 2**-39 |x|
_FINISH = 2.0**-39
_MAX_ITER = 200  # even pure bisection narrows the bracket by 2**-200


def bracketed_root(
    f,
    lo: float,
    hi: float,
    fprime=None,
    *,
    residual_tol: float = 1e-12,
) -> float:
    """Root of ``f`` in ``[lo, hi]``; ``f(lo)`` and ``f(hi)`` must differ in sign.

    Starts from the end with the smaller ``|f|`` and takes a Newton step
    (secant through the last two iterates when ``fprime`` is None) from the
    first iteration, bisecting instead whenever the step leaves the bracket or
    is not below half the step before last.  ``fprime`` is only called at
    points where ``f`` was evaluated.  Once ``|f(x)| <= residual_tol``, the
    next step d (which needs no evaluation) decides: below 2**-39 relative,
    the update ``x - d`` is good to round-off and is returned; not four times
    shorter than the last step (the noise floor of ``f``, or a multiple root),
    ``x`` is returned.  Raises ValueError for an unbracketed start and
    ConvergenceError when ``f`` turns NaN or the iteration stalls above
    ``residual_tol``.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise ValueError(f"root not bracketed on [{lo}, {hi}]: f={flo}, {fhi}")

    x, fx, x_prev, f_prev = (lo, flo, hi, fhi) if abs(flo) <= abs(fhi) else (hi, fhi, lo, flo)
    step = step_old = hi - lo
    for _ in range(_MAX_ITER):
        df = fprime(x) if fprime is not None else (fx - f_prev) / (x - x_prev)
        d = fx / df if math.isfinite(df) and df != 0.0 else math.nan
        if abs(fx) <= residual_tol:
            if abs(d) <= _FINISH * abs(x):  # x - d is then good to round-off
                return min(max(x - d, lo), hi)
            if not abs(d) <= 0.25 * abs(step):  # quadratic convergence does far better
                return x
        x_new = x - d
        if not (lo < x_new < hi and abs(d) <= 0.5 * abs(step_old)):
            x_new = 0.5 * (lo + hi)
        if not lo < x_new < hi or x_new == x:  # at machine resolution
            break
        step_old, step = step, x_new - x
        x_prev, f_prev = x, fx
        x, fx = x_new, f(x_new)
        if fx == 0.0:
            return x
        if math.isnan(fx):
            raise ConvergenceError(f"f is NaN at x={x!r} inside the bracket", {"bracket": (lo, hi)})
        # lo keeps the sign of f(lo), hi the other
        lo, hi = (x, hi) if (fx > 0.0) == (flo > 0.0) else (lo, x)

    if abs(fx) <= residual_tol:
        return x
    raise ConvergenceError(f"root iteration stalled at x={x!r}", {"f": fx, "bracket": (lo, hi)})
