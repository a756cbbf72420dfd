"""Builders for the trivariate modular polynomials and the classical
j-polynomial used as an independent validation oracle.

The pipeline per kind: expand the distinguished root r_inf(q) and the
conjugate-generating series R(x) with x = q^{1/ell}; form the power sums
s_k = r_inf^k + trace(R^k) where the trace is arithmetic-progression
extraction (root-of-unity sums vanish off multiples of ell, so no
cyclotomic arithmetic is needed); match each s_k to the level-1 form basis
E4^a E6^b of the right weight; run Newton's identities on the matched
polynomials; assemble the monic degree-(ell+1) result.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BasisMatchError, BuildError, PrecisionError
from .ffield import is_probable_prime
from .qseries import PowerSeries, eisenstein_series, eta_squared_product, \
    j_series, sigma1_series
from .symbolic import MultiPoly
from .trivariate import PHI_ELLS, ClassicalModularPoly, TrivariatePoly, \
    X_WEIGHT

_FORM_VARS = ("E4", "E6")


def conjugate_series(kind: str, ell: int, n_q: int):
    """The distinguished-root series r_inf(q) and the conjugate generator
    R(x) as a step-ell series in x = q^{1/ell}."""
    n_x = ell * n_q
    if kind == "U":
        r_inf = sigma1_series(ell, n_q)
        r_x = (eisenstein_series(2, n_x)
               - ell * eisenstein_series(2, n_q).substitute_q_power(ell)
               ) * Fraction(1, 2)
    elif kind == "V":
        r_inf = eisenstein_series(4, n_q).substitute_q_power(ell) \
            .truncate(n_q) * (-3 * ell ** 4)
        r_x = eisenstein_series(4, n_x) * (-3)
    elif kind == "W":
        r_inf = eisenstein_series(6, n_q).substitute_q_power(ell) \
            .truncate(n_q) * (-2 * ell ** 6)
        r_x = eisenstein_series(6, n_x) * (-2)
    elif kind == "Ua":
        # distinguished root -ell*f; each coset contributes the same eta
        # shape in x (the twist leaves the (1-x^(ell*n)) factors alone)
        r_inf = eta_squared_product(ell, n_q) * (-ell)
        r_x = eta_squared_product(ell, n_x)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return r_inf, r_x.reinterpret(ell)


def power_sums(kind: str, ell: int, k_max: int, n_q: int) -> list:
    """s_k(q) = r_inf^k + trace of R^k over the ell cosets, k = 1..k_max."""
    r_inf, big_r = conjugate_series(kind, ell, n_q)
    out = []
    rp = bp = None
    for k in range(1, k_max + 1):
        rp = r_inf if k == 1 else rp * r_inf
        bp = big_r if k == 1 else bp * big_r
        out.append(rp + bp.extract_progression(ell))
    return out


def form_basis_exponents(w: int) -> list:
    """(a, b) with 2a + 3b = w, descending in a."""
    out = []
    for a in range(w // 2, -1, -1):
        r = w - 2 * a
        if r % 3 == 0:
            out.append((a, r // 3))
    return out


def _gauss_solve(rows: list, rhs: list, m: int) -> list:
    """Exact solve of an overdetermined integer system by fraction-free
    (Bareiss) elimination; raises BasisMatchError when rank-deficient or
    inconsistent.

    After step k every entry below the pivots is a (k+1)-minor of the
    augmented matrix, so each division by the previous pivot is exact, and
    a row past the m pivots ends with a zero right-hand side exactly when
    it agrees with the solution."""
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    n = len(aug)
    prev = 1
    for k in range(m):
        pr = next((i for i in range(k, n) if aug[i][k]), None)
        if pr is None:
            raise BasisMatchError("rank-deficient basis system")
        aug[k], aug[pr] = aug[pr], aug[k]
        piv = aug[k]
        p = piv[k]
        tail = piv[k + 1:]
        for row in aug[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * v - f * t) // prev
                           for v, t in zip(row[k + 1:], tail)]
        prev = p
    if any(row[m] for row in aug[m:]):
        raise BasisMatchError("inconsistent basis system")
    sol = [Fraction(0)] * m
    for k in range(m - 1, -1, -1):
        row = aug[k]
        acc = Fraction(row[m]) - sum(row[j] * sol[j] for j in range(k + 1, m))
        sol[k] = acc / row[k]
    return sol


def _form_powers(end: int) -> tuple:
    """([1, E4], [1, E6]) on the q-window [0, end).  match_to_form_basis
    appends higher powers to the lists as the weights it is asked for
    grow, so one pair serves every match of a build."""
    one = PowerSeries.constant(1, end)
    return [one, eisenstein_series(4, end)], [one, eisenstein_series(6, end)]


def match_to_form_basis(s: PowerSeries, w: int, powers=None) -> dict:
    """Write the q-series s exactly as sum of c_{a,b} E4^a E6^b over
    2a + 3b = w; every known coefficient beyond the solve rows is
    verified.  {} for the zero series.  Raises PrecisionError when s is
    known to fewer than the w//6 + 1 coefficients of Sturm's bound for
    weight 2w.

    E4^a E6^b have integer coefficients, so the system's rows are the
    basis numerators and its right-hand side is s.nums, solved over the
    integers and divided by s.den at the end.  The powers of E4 and E6
    come from ``powers`` (see _form_powers), whose window must cover s's,
    or from a fresh pair."""
    exps = form_basis_exponents(w)
    end = s.end
    if not exps:
        if not s.is_zero():
            raise BasisMatchError(f"nonzero series but empty weight-{w} basis")
        return {}
    m = len(exps)
    sturm = w // 6 + 1
    # s and its fit are weight-2w forms: by Sturm, exact rows prove s == fit
    if end < sturm:
        raise PrecisionError(f"need {sturm} coefficients, have {end}")
    p4, p6 = powers or _form_powers(end)
    basis_series = []
    for (a, b) in exps:
        for pw, t in ((p4, a), (p6, b)):
            while len(pw) <= t:
                pw.append(pw[-1] * pw[1])
        basis_series.append(p4[a] * p6[b] if a and b else
                            p4[a] if a else p6[b])
    rows = [[bs.nums[nn] for bs in basis_series] for nn in range(end)]
    rhs = [s.nums[nn - s.lead] if nn >= s.lead else 0 for nn in range(end)]
    sol = _gauss_solve(rows, rhs, m)
    return {exps[k]: sol[k] / s.den for k in range(m) if sol[k]}


def _newton_elementary(s_polys: list) -> list:
    """e_1..e_n as MultiPoly from power-sum MultiPolys via Newton's
    identities, all exact over Q."""
    one = MultiPoly.const(_FORM_VARS, 1)
    e = [one]
    for k in range(1, len(s_polys) + 1):
        acc = MultiPoly(_FORM_VARS, {})
        for i in range(1, k + 1):
            term = e[k - i] * s_polys[i - 1]
            acc = acc + term if i % 2 else acc - term
        e.append(acc * Fraction(1, k))
    return e[1:]


def _denominator_is_smooth(c: Fraction) -> bool:
    d = c.denominator
    for f in (2, 3):
        while d % f == 0:
            d //= f
    return d == 1


def _build_at(kind: str, ell: int, n_q: int) -> TrivariatePoly:
    n = ell + 1
    w_x = X_WEIGHT[kind]
    sums = power_sums(kind, ell, n, n_q)
    powers = _form_powers(max(s.end for s in sums))
    s_polys = []
    for k, s_k in enumerate(sums, 1):
        matched = match_to_form_basis(s_k, w_x * k, powers)
        s_polys.append(MultiPoly(_FORM_VARS, matched))
    elem = _newton_elementary(s_polys)
    terms = {(n, 0, 0): Fraction(1)}
    for k, e_k in enumerate(elem, 1):
        sign = -1 if k % 2 else 1
        for (a, b), c in e_k.terms.items():
            terms[(n - k, a, b)] = sign * c
    poly = TrivariatePoly(kind, ell, "E4E6", terms).validate()
    if kind == "Ua":
        if not all(_denominator_is_smooth(c) for c in poly.terms.values()):
            raise BuildError(f"Ua_{ell}: denominator not of the form 2^x 3^y")
    elif not poly.to_basis("AB").is_integral():
        raise BuildError(f"{kind}_{ell}: non-integer coefficients in AB basis")
    return poly


def build(kind: str, ell: int) -> TrivariatePoly:
    """Monic degree-(ell+1) polynomial in the E4E6 basis, validated for
    homogeneity and integrality.

    s_k is a level-1 form of weight 2wk (w the X-weight), so Sturm's bound
    fixes it by floor(wk/6) + 1 coefficients; the window covers k = ell+1
    with three rows to spare.  The coefficients are exact, so a matching
    failure is a fault, not a precision shortfall, and is not retried."""
    if kind not in X_WEIGHT:
        raise ValueError(f"unknown kind {kind!r}")
    if not (is_probable_prime(ell) and ell > 3):
        raise ValueError(f"ell must be an odd prime > 3, got {ell}")
    if kind == "Ua" and ell % 12 != 11:
        raise ValueError(f"eta-product kind needs ell = 11 mod 12, got {ell}")
    n_q = X_WEIGHT[kind] * (ell + 1) // 6 + 4
    try:
        return _build_at(kind, ell, n_q)
    except (BasisMatchError, PrecisionError) as exc:
        raise BuildError(f"{kind}_{ell}: matching failed") from exc


# ---------------------------------------------------------------------------
# Classical modular polynomial relating j(q) and j(q^ell).


def build_classical_phi(ell: int) -> ClassicalModularPoly:
    """Phi_ell(X, j) from the roots j(q^ell) and the ell coset conjugates
    of j(x), x = q^{1/ell}.

    Power sums have poles up to q^{-ell*k}, but each elementary symmetric
    function is a polynomial in j of degree <= ell+1.  After every Newton
    level the e_k series is matched against cached powers of j and then
    re-expanded from the matched polynomial on a long window, which stops
    the precision loss that the deep poles would otherwise cause.
    """
    if ell not in PHI_ELLS:
        raise ValueError(f"ell must be one of {PHI_ELLS}, got {ell}")
    n = ell + 1
    tail = 4                       # checked surplus coefficients past q^0
    end_s = tail + ell + 2         # power-sum window end
    end_e = tail + ell * n         # re-expanded window end
    # expand j once at the longest window; j_series(P) is known below
    # q^(P-2), so each shorter window is a truncation of this one
    j_long = j_series(ell * end_s + ell + 3)
    jq = j_long.truncate(end_e + ell + 2)
    jpow = [None, jq]
    for m in range(2, n + 1):
        jpow.append(jpow[-1] * jq)

    r = j_long.truncate(n - (-end_s // ell)).substitute_q_power(ell)
    big_r = j_long.reinterpret(ell)
    sums = []
    rp = bp = None
    for k in range(1, n + 1):
        rp = r if k == 1 else rp * r
        bp = big_r if k == 1 else bp * big_r
        sums.append((rp + bp.extract_progression(ell)).truncate(end_s))

    e_ser = [PowerSeries.constant(1, end_e)]
    e_poly = [{0: 1}]
    for k in range(1, n + 1):
        acc = None
        for i in range(1, k + 1):
            prod = e_ser[k - i] * sums[i - 1]
            if i % 2 == 0:
                prod = -prod
            acc = prod if acc is None else acc + prod
        raw = acc * Fraction(1, k)
        lead = raw.effective_lead()
        if lead is not None and lead < -n:
            raise BuildError(f"Phi_{ell}: e_{k} pole below j-degree bound")
        pk = {}
        cur = raw
        for m in range(n, 0, -1):
            c = cur.coefficient(-m)
            if c:
                pk[m] = c
                cur = cur - c * jpow[m]
        c0 = cur.coefficient(0)
        if c0:
            pk[0] = c0
            cur = cur - c0
        if not cur.is_zero():
            raise BuildError(f"Phi_{ell}: e_{k} is not a polynomial in j "
                             "at this precision")
        for m, c in pk.items():
            if c.denominator != 1:
                raise BuildError(f"Phi_{ell}: non-integer coefficient at "
                                 f"e_{k}, j^{m}")
        e_poly.append(pk)
        rebuilt = None
        for m, c in pk.items():
            if m == 0:
                continue
            piece = c * jpow[m]
            rebuilt = piece if rebuilt is None else rebuilt + piece
        if rebuilt is None:
            rebuilt = PowerSeries.constant(0, end_e)
        if 0 in pk:
            rebuilt = rebuilt + pk[0]
        e_ser.append(rebuilt)

    terms = {(n, 0): 1}
    for k in range(1, n + 1):
        sign = -1 if k % 2 else 1
        for m, c in e_poly[k].items():
            terms[(n - k, m)] = sign * int(c)
    return ClassicalModularPoly(ell, terms).validate()

