"""Builders for the trivariate modular polynomials and the classical
j-polynomial used as an independent validation oracle.

The pipeline per kind: expand the distinguished root r_inf(q) and the
conjugate-generating series R(x) with x = q^{1/ell}; form the power sums
s_k = r_inf^k + trace(R^k) where the trace is arithmetic-progression
extraction (root-of-unity sums vanish off multiples of ell, so no
cyclotomic arithmetic is needed); run Newton's identities on the power-sum
series; match each elementary symmetric function e_k to the level-1 form
basis E4^a E6^b of the right weight; assemble the monic degree-(ell+1)
result from the matches.  build_classical_phi runs the same Newton routine
and matches each e_k against the powers of j instead.

The traces come from baby and giant steps (power_traces): with
m = ceil(sqrt(k_max)), only R^1..R^m and R^m, R^2m, ... are formed in
full, and the trace of R^(tm+j) is convolved from R^(tm) and R^j at the
exponents ell divides, so the ell+1 traces cost about 2*sqrt(ell+1) full
products.  build_classical_phi shares that routine too.  Every chain of
powers (_powers) forms its even powers as squares, which PowerSeries
multiplies with half the products.

match_to_form_basis solves triangularly, in the basis Delta^i E4^a E6^b
with b <= 1 whose i-th element starts with q^i, and rewrites the result
in E4^a E6^b.  build_classical_phi peels the powers of j off e_k in
integers on e_k's own window, and re-expands e_k only on the slots that
later Newton levels read.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

from .errors import BasisMatchError, BuildError, PrecisionError
from .ffield import check_level
from .qseries import PowerSeries, _series, delta_series, \
    eisenstein_series, eta_squared_product, j_series, sigma1_series
from .trivariate import PHI_ELLS, ClassicalModularPoly, TrivariatePoly, \
    X_WEIGHT
# the denominator gate lives in validate(); perfbench's layer spans wrap
# it under this module's name
from .trivariate import _denominator_is_smooth  # noqa: F401


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


def _powers(pw: list, top: int) -> list:
    """Grow pw = [x^0 or None, x, x^2, ...] in place through x^top and
    return it; every even power is formed as a square."""
    while len(pw) <= top:
        k = len(pw)
        pw.append(pw[k // 2] * pw[k // 2] if k % 2 == 0 else pw[-1] * pw[1])
    return pw


def power_traces(big_r: PowerSeries, ell: int, k_max: int) -> list:
    """[trace of R^k over the ell cosets for k = 1..k_max], from about
    2*sqrt(k_max) full products (the baby-step/giant-step split of
    Paterson and Stockmeyer, 1973).

    With m = ceil(sqrt(k_max)), the baby steps R^1..R^m and the giant
    steps R^m, R^2m, ... are formed in full, the even ones as squares;
    every other k = t*m + j is traced from R^(tm) and R^j by
    PowerSeries.product_trace, which never forms R^k.  All R^k share R's window length, so each trace is exactly
    the one the full power would give."""
    m = isqrt(k_max - 1) + 1
    baby = _powers([None, big_r], m)
    giant = _powers([None, baby[m]], k_max // m)
    out = []
    for k in range(1, k_max + 1):
        t, j = divmod(k, m)
        if not j:
            out.append(giant[t].extract_progression(ell))
        elif not t:
            out.append(baby[j].extract_progression(ell))
        else:
            out.append(giant[t].product_trace(baby[j], ell))
    return out


def power_sums(kind: str, ell: int, k_max: int, n_q: int) -> list:
    """s_k(q) = r_inf^k + trace of R^k over the ell cosets, k = 1..k_max."""
    r_inf, big_r = conjugate_series(kind, ell, n_q)
    out = []
    rp = None
    for trace in power_traces(big_r, ell, k_max):
        rp = r_inf if rp is None else rp * r_inf
        out.append(rp + trace)
    return out


def form_basis_exponents(w: int) -> list:
    """(a, b) with 2a + 3b = w, descending in a."""
    out = []
    for a in range(w // 2, -1, -1):
        r = w - 2 * a
        if r % 3 == 0:
            out.append((a, r // 3))
    return out


def _form_powers(end: int) -> tuple:
    """([1, E4], E6, [1, Delta]) on the q-window [0, end).
    match_to_form_basis appends higher powers of E4 and Delta to the
    lists as the weights it is asked for grow, so one triple serves every
    match of a build."""
    one = PowerSeries.constant(1, end)
    return ([one, eisenstein_series(4, end)], eisenstein_series(6, end),
            [one, delta_series(end)])


def match_to_form_basis(s: PowerSeries, w: int, powers=None) -> dict:
    """Write the q-series s exactly as sum of c_{a,b} E4^a E6^b over
    2a + 3b = w; every known coefficient is verified.  {} for the zero
    series.  Raises PrecisionError when s is known to fewer than the
    w//6 + 1 coefficients of Sturm's bound for weight 2w, and
    BasisMatchError when s has a pole or is no such sum.

    The solve runs in the basis Delta^i E4^a E6^b with 6i + 2a + 3b = w
    and b <= 1, one element for each i with w - 6i != 1.  Element i
    starts with 1*q^i and has integer coefficients, so for i = 0, 1, ...
    its multiple is the q^i coefficient of the integer residual, starting
    from s.nums, and is subtracted; the residual must then vanish on the
    whole window.  The multiples are rewritten in E4^a E6^b through
    Delta = (E4^3 - E6^2)/1728 and divided by s.den.  The powers come
    from ``powers`` (see _form_powers), whose window must cover s's, or
    from a fresh triple."""
    exps = form_basis_exponents(w)
    end = s.end
    if not exps:
        if not s.is_zero():
            raise BasisMatchError(f"nonzero series but empty weight-{w} basis")
        return {}
    sturm = w // 6 + 1
    # s and its fit are weight-2w forms: by Sturm, exact rows prove s == fit
    if end < sturm:
        raise PrecisionError(f"need {sturm} coefficients, have {end}")
    below = max(-s.lead, 0)
    if any(s.nums[:below]):
        raise BasisMatchError("pole in a series matched to E4E6 forms")
    p4, e6, pd = powers or _form_powers(end)
    res = [0] * s.lead + s.nums[below:]         # on [0, end)
    top = w // 6
    nums = {}                       # over 1728**top * s.den
    for i in range(top + 1):
        b = (w - 6 * i) % 2
        a = (w - 6 * i - 3 * b) // 2
        c = res[i]
        if not c or a < 0:      # no element for w - 6i == 1
            continue
        elem = _powers(p4, a)[a] * _powers(pd, i)[i]
        if b:
            elem = elem * e6
        res[i:] = [u - c * v for u, v in zip(res[i:], elem.nums[i:end],
                                              strict=True)]
        # Delta^i = sum over j of C(i, j) (-E6^2)^j E4^(3(i-j)) / 1728^i
        c *= 1728 ** (top - i)
        for j in range(i + 1):
            ab = (a + 3 * (i - j), b + 2 * j)
            nums[ab] = nums.get(ab, 0) + (-1) ** j * comb(i, j) * c
    if any(res):
        raise BasisMatchError("inconsistent basis system")
    den = 1728 ** top * s.den
    return {ab: Fraction(nums[ab], den) for ab in exps if nums.get(ab)}


def _newton_elementary(sums: list, e0: PowerSeries, step) -> list:
    """e_1..e_n from the power-sum series s_1..s_n by Newton's identities,
    k*e_k = sum over i = 1..k of (-1)^(i-1) * e_(k-i) * s_i, exact over Q.

    e0 is the series of e_0 = 1.  After each level, step(k, e_k) does that
    builder's work on e_k and returns the series that later levels read in
    its place; the list of those series is returned."""
    e = [e0]
    for k in range(1, len(sums) + 1):
        acc = e[k - 1] * sums[0]
        for i in range(2, k + 1):
            term = e[k - i] * sums[i - 1]
            acc = acc + term if i % 2 else acc - term
        e.append(step(k, acc * Fraction(1, k)))
    return e[1:]


def _build_at(kind: str, ell: int, n_q: int) -> TrivariatePoly:
    n = ell + 1
    w_x = X_WEIGHT[kind]
    powers = _form_powers(n_q)
    terms = {(n, 0, 0): Fraction(1)}

    def match(k, e_k):
        # the coefficient of X^(n-k) is (-1)^k e_k.  With a positive lead
        # (Ua) a product's window runs past n_q, beyond the cached powers
        # of E4 and E6; the Sturm window is all the match needs.
        e_k = e_k.truncate(n_q)
        for (a, b), c in match_to_form_basis(e_k, w_x * k, powers).items():
            terms[(n - k, a, b)] = -c if k % 2 else c
        return e_k

    _newton_elementary(power_sums(kind, ell, n, n_q),
                       PowerSeries.constant(1, n_q), match)
    return TrivariatePoly(kind, ell, "E4E6", terms).validate()


def build(kind: str, ell: int) -> TrivariatePoly:
    """Monic degree-(ell+1) polynomial in the E4E6 basis, validated for
    homogeneity and integrality.

    e_k is a polynomial in s_1..s_k over Q, so like s_k it is a level-1
    form of weight 2wk (w the X-weight), and Sturm's bound fixes it by
    floor(wk/6) + 1 coefficients; the window covers k = ell+1 with three
    rows to spare.  The coefficients are exact, so a matching failure is a
    fault, not a precision shortfall, and is not retried."""
    if kind not in X_WEIGHT:
        raise ValueError(f"unknown kind {kind!r}")
    check_level(ell)
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
    re-expanded from the matched polynomial on a longer window, which
    stops the precision loss that the deep poles would otherwise cause.
    Level k + i multiplies e_k by s_i, whose window has end_s + ell*i
    slots, so e_k is re-expanded on end_s + ell*(n - k) slots: every
    product keeps the size it would have with any longer window.
    """
    if ell not in PHI_ELLS:
        raise ValueError(f"ell must be one of {PHI_ELLS}, got {ell}")
    n = ell + 1
    tail = 4                       # checked surplus coefficients past q^0
    end_s = tail + ell + 2         # power-sum window end
    end_e = tail + ell * n         # e_0's window end
    # expand j once at the longest window; j_series(P) is known below
    # q^(P-2), so each shorter window is a truncation of this one
    j_long = j_series(ell * end_s + ell + 3)
    # the powers of j outrun every window match() zips them against
    jq = j_long.truncate(end_e + ell + 2)
    jpow = _powers([None, jq], n)

    # the root j(q^ell) on the q-window [-ell, ell*r_end): its k-th power
    # is the k-th power of j on [-1, r_end), i.e. a truncation of jpow[k],
    # with q replaced by q^ell
    r_end = n - (-end_s // ell)
    sums = [(jpow[k].truncate(r_end + 1 - k).substitute_q_power(ell)
             + trace).truncate(end_s)
            for k, trace in enumerate(
                power_traces(j_long.reinterpret(ell), ell, n), 1)]

    terms = {(n, 0): 1}

    def match(k, e_k):
        lead = e_k.effective_lead()
        if lead is not None and lead < -n:
            raise BuildError(f"Phi_{ell}: e_{k} pole below j-degree bound")
        # peel the powers of j off from the deepest pole, in integers on
        # e_k's own window: r[t] is the numerator of the q^(t-n) term
        r = [0] * (e_k.lead + n) + e_k.nums[max(-n - e_k.lead, 0):]
        if len(r) <= n:
            raise PrecisionError(f"Phi_{ell}: e_{k} ends below q^0")
        pk = {}
        for m in range(n, 0, -1):
            v = r[n - m]
            if v:
                pk[m] = Fraction(v, e_k.den)
                r[n - m:] = [u - v * t
                             for u, t in zip(r[n - m:], jpow[m].nums)]
        pk[0] = Fraction(r[n], e_k.den)
        if any(r[n + 1:]):
            raise BuildError(f"Phi_{ell}: e_{k} is not a polynomial in j "
                             "at this precision")
        for m, c in pk.items():
            if c.denominator != 1:
                raise BuildError(f"Phi_{ell}: non-integer coefficient at "
                                 f"e_{k}, j^{m}")
            terms[(n - k, m)] = -int(c) if k % 2 else int(c)
        # re-expand from the deepest pole on the slots later levels read
        top = next(iter(pk))
        nums = [0] * (end_s + ell * (n - k))
        nums[top] = int(pk.pop(0))
        for m, c in pk.items():
            c = int(c)
            nums[top - m:] = [u + c * t
                              for u, t in zip(nums[top - m:], jpow[m].nums)]
        return _series(nums, 1, -top, 1)

    _newton_elementary(sums, PowerSeries.constant(1, end_e), match)
    return ClassicalModularPoly(ell, terms).validate()
