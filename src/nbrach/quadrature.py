"""Adaptive quadrature with explicit convergence reporting.

QUADPACK's QAGI (Piessens et al., *QUADPACK*, Springer 1983), transcribed
rather than wrapped: `dqagie` for the half line [0, inf), with the
15-point transformed Gauss-Kronrod rule `dqk15i` on QUADPACK's rational
map of (0, 1], the error-list insertion `dqpsrt` and the epsilon-algorithm
extrapolation `dqelg`.  The transcription keeps the Fortran's operation
order, constants and control flow in scalar floats, so it returns what
`scipy.integrate.quad(f, 0, inf)` returns, bit for bit, without importing
scipy.integrate or numpy.  On top of it, `improper_integral` turns silent
accuracy loss into a QuadratureError and normalises the tolerance contract:
on success the returned error estimate is at most rel_tol*|value| + abs_tol.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import QuadratureError, integer, real


@dataclass(frozen=True)
class QuadratureSettings:
    """Accuracy knobs for every integral evaluated by the analytics.  The
    cell-load sum is no integral: its tail mass is rach.CELL_LOAD_TAIL_MASS."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        real(self.rel_tol, "rel_tol", gt=0.0)
        real(self.abs_tol, "abs_tol", gt=0.0)
        integer(self.max_subdivisions, "max_subdivisions", ge=10)


def improper_integral(func, settings: QuadratureSettings | None = None) -> tuple[float, float]:
    """Integrate func over the half line [0, inf).

    Returns (value, error_estimate).  Raises QuadratureError with the best
    estimate attached when the adaptive scheme cannot meet the tolerance or
    QUADPACK flags the result (say, as probably divergent).
    """
    q = settings or QuadratureSettings()
    value, abserr, ier, _ = _qagi(func, q.abs_tol, q.rel_tol, q.max_subdivisions)
    tolerance = q.rel_tol * abs(value) + q.abs_tol
    if ier or abserr > tolerance:
        raise QuadratureError(
            f"quadrature did not converge: {_FLAGS[ier].format(q.max_subdivisions)}" if ier else
            f"quadrature error estimate {abserr:.3e} exceeds tolerance {tolerance:.3e}",
            best_estimate=value, error_estimate=abserr)
    return value, abserr


# QUADPACK's ier values 1..5 in words
_FLAGS = (None, "subdivision limit {} reached", "roundoff detected", "bad integrand behaviour",
          "roundoff in the extrapolation table", "integral probably divergent")

# d1mach(4), d1mach(1), d1mach(2)
_EPMACH, _UFLOW, _OFLOW = sys.float_info.epsilon, sys.float_info.min, sys.float_info.max

# dqk15i's abscissae, Kronrod weights and Gauss weights (zero off the Gauss
# nodes); the last weights are the centre's
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
_NODES = tuple(zip(_XGK, _WGK, _WG))


def _qk15i(f, a: float, b: float):
    """dqk15i for bound 0, inf 1: the rule on [a, b] of (0, 1] for
    f((1 - x)/x)/x^2, as (result, abserr, resabs, resasc)."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fc = (f((1.0 - centr) / centr) / centr) / centr
    resg, resk = _WG[7] * fc, _WGK[7] * fc
    resabs = abs(resk)
    fv = []
    for xgk, wgk, wg in _NODES:
        x1, x2 = centr - hlgth * xgk, centr + hlgth * xgk
        f1, f2 = (f((1.0 - x1) / x1) / x1) / x1, (f((1.0 - x2) / x2) / x2) / x2
        fv.append((wgk, f1, f2))
        resg, resk = resg + wg * (f1 + f2), resk + wgk * (f1 + f2)
        resabs = resabs + wgk * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK[7] * abs(fc - reskh)
    for wgk, f1, f2 in fv:
        resasc = resasc + wgk * (abs(f1 - reskh) + abs(f2 - reskh))
    resasc, resabs, abserr = resasc * hlgth, resabs * hlgth, abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:  # min(1, r)**1.5 == min(1, r**1.5), without overflow
        abserr = resasc * min(1.0, 200.0 * abserr / resasc) ** 1.5
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist, iord, nrmax: int):
    """dqpsrt: keep iord (1-based, as every list here) ordered by descending
    elist after a bisection; returns (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1:3] = 1, 2
    else:
        errmax, errmin = elist[maxerr], elist[last]
        for _ in range(nrmax - 1):
            if errmax <= elist[iord[nrmax - 1]]:
                break
            iord[nrmax] = iord[nrmax - 1]
            nrmax -= 1
        jbnd = (limit + 3 - last if last > limit // 2 + 2 else last) - 1
        for i in range(nrmax + 1, jbnd + 1):
            if errmax >= elist[iord[i]]:
                iord[i - 1] = maxerr
                for k in range(jbnd, i - 1, -1):
                    if errmin < elist[iord[k]]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = iord[k]
                else:
                    iord[i] = last
                break
            iord[i - 1] = iord[i]
        else:
            iord[jbnd], iord[jbnd + 1] = maxerr, last
    return iord[nrmax], elist[iord[nrmax]], nrmax


def _qelg(n: int, epstab, res3la, nres: int):
    """dqelg: extend the epsilon table epstab[1..n], n >= 3, by one limit;
    returns (n, result, abserr, nres)."""
    nres += 1
    abserr, result = _OFLOW, epstab[n]
    epstab[n + 2], epstab[n] = epstab[n], _OFLOW
    newelm = (n - 1) // 2
    num = k1 = n
    for i in range(1, newelm + 1):
        e0, e1, e2, e3 = epstab[k1 - 2], epstab[k1 - 1], epstab[k1 + 2], epstab[k1]
        delta1, delta2, delta3 = e1 - e3, e2 - e1, e1 - e0
        err1, err2, err3 = abs(delta1), abs(delta2), abs(delta3)
        tol1, tol2, tol3 = (max(abs(e1), abs(e3)) * _EPMACH, max(abs(e2), abs(e1)) * _EPMACH,
                            max(abs(e1), abs(e0)) * _EPMACH)
        if not (err2 > tol2 or err3 > tol3):  # e0, e1 and e2 agree: converged
            return n, e2, max(err2 + err3, 5.0 * _EPMACH * abs(e2)), nres
        epstab[k1] = e1
        ss = 0.0 if err1 <= tol1 or err2 <= tol2 or err3 <= tol3 else (
            1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3)
        if not abs(ss * e1) > 1e-4:  # two elements too close, or irregular: omit part of the table
            n = i + i - 1
            break
        res = epstab[k1] = e1 + 1.0 / ss
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr, result = error, res
    if n == 50:  # limexp
        n = 49
    for ib in range(2 - num % 2, 2 - num % 2 + 2 * newelm + 1, 2):
        epstab[ib] = epstab[ib + 2]
    if num != n:
        epstab[1:n + 1] = epstab[num - n + 1:num + 1]
    if nres < 4:
        res3la[nres - 1], abserr = result, _OFLOW
    else:
        abserr = abs(result - res3la[2]) + abs(result - res3la[1]) + abs(result - res3la[0])
        res3la[:] = res3la[1], res3la[2], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qagi(f, epsabs: float, epsrel: float, limit: int):
    """dqagie for bound 0, inf 1, epsabs > 0 and limit > 1: (result, abserr,
    ier, last), ier 0 on convergence, else 1..5 as in _FLAGS."""
    result, abserr, defabs, resabs = _qk15i(f, 0.0, 1.0)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        return result, abserr, 2, 1
    if (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 0, 1
    alist, blist, rlist, elist = ([0.0] * (limit + 1) for _ in range(4))
    iord = [0] * (limit + 1)
    blist[1], rlist[1], elist[1], iord[1] = 1.0, result, abserr, 1
    rlist2, res3la = [0.0] * 53, [0.0] * 3
    rlist2[1], errmax, maxerr, area, errsum, abserr = result, abserr, 1, result, abserr, _OFLOW
    nrmax, nres, ktmin, numrl2, extrap, noext = 1, 0, 0, 2, False, False
    ier = ierro = iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    plain_sum = False
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b2, erlast = alist[maxerr], blist[maxerr], errmax
        a2 = b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        area1, error1, _, defab1 = _qk15i(f, a1, b1)
        area2, error2, _, defab2 = _qk15i(f, a2, b2)
        area12, erro12 = area1 + area2, error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                iroff2, iroff1 = (iroff2 + 1, iroff1) if extrap else (iroff2, iroff1 + 1)
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last], elist[maxerr], elist[last] = area2, area1, error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            plain_sum = True
            break
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[2] = 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:  # extrapolate once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap, nrmax = True, 2
        if not (ierro == 3 or erlarg <= ertest):
            # first bisect the larger intervals, while they carry more error
            larger = False
            for _ in range(nrmax, (limit + 3 - last if last > 2 + limit // 2 else last) + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                larger = abs(blist[maxerr] - alist[maxerr]) > small
                if larger:
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax, nrmax, extrap, small, erlarg = elist[maxerr], 1, False, small * 0.5, errsum
    # dqagie's internal flags 3..6 are returned as QUADPACK's 2..5: ier - (ier > 2)
    if not plain_sum and abserr != _OFLOW and ier + ierro != 0:
        # keep the extrapolated result unless the plain sum is the better one
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            plain_sum = abserr / abs(result) > errsum / abs(area)
        elif not abserr > errsum and area == 0.0:
            return result, abserr, ier - (ier > 2), last
        else:
            plain_sum = abserr > errsum
    if plain_sum or abserr == _OFLOW:
        result = 0.0
        for value in rlist[1:last + 1]:
            result = result + value
        return result, errsum, ier - (ier > 2), last
    if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):  # test on divergence
        if area != 0.0:
            ratio = result / area
        else:  # IEEE, as in the Fortran: x/0 is +-inf, a divergence; 0/0 and NaN/0 are NaN
            ratio = math.nan if result == 0.0 or math.isnan(result) else math.inf
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    return result, abserr, ier - (ier > 2), last
