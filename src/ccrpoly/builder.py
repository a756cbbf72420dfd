"""Builders for the trivariate modular polynomials and the classical
j-polynomial used as an independent validation oracle.

Both chains start alike.  conjugate_series expands the generator R(x),
x = q^{1/ell}, that the kind's KINDS row names, for U, V, W and Ua just
past x^(ell*(n_q - 1)), the last exponent a trace on [.., n_q) reads,
and reads the root r_inf(q) at the cusp off it.  power_sums traces
R^1, R^2, ... over the ell cosets into the power sums t_k of the ell
conjugates (the trace is arithmetic-progression extraction: root-of-unity
sums vanish off multiples of ell, so no cyclotomic arithmetic is needed).

U, V, W and Ua (_build_at) are monic in X with coefficients in
Q[E4, E6], so the power sum p_k = t_k + r_inf^k of all ell + 1 roots is
a level-one form of weight 2wk (w the X-weight).  Each of p_1..p_(ell+1)
is matched against the form basis E4^a E6^b of its weight as integer
rows (_Form), and Newton's identities run on those rows: their e_k are
the coefficients up to sign, with no series product in Newton.

Phi (build_classical_phi) keeps its chain in series, since its p_k
would carry q^(-ell*k) poles: Newton's identities on t_1..t_ell give the
conjugates' elementary symmetric functions E'_k, _elementary multiplies
the root in, and _peel_j_powers peels the powers of j off each e_k.  No
series holds a power of j(q^ell).

The traces of R^1..R^k_max (k_max = ell + 1, or ell for Phi) come from
baby and giant steps (power_traces): with
m = max(ceil(sqrt(k_max)), ceil(k_max/3)), only R^1..R^m and the one
giant square R^(2m) are formed in full, and the trace of R^(tm+j),
1 <= j <= m, is convolved from R^(tm) and R^j at the exponents ell
divides, so the traces cost about k_max/3 full products, nearly all of
them baby steps.  When R's numerators off x^0 share a factor g > 1 (U,
V and W), the chain runs on R re-centred, T = (den*R - c0)/g with c0
R's x^0 numerator, and the traces of R^k are binomial sums of T's.
PowerSeries forms a full product as packed integer products when its
numerators are narrow, their widest bit lengths summing to at most
twice the window length, and by dot products otherwise; the convolved
traces always take dot products.  Every chain of powers (R^k, r_inf^k,
the j powers, and the 1/E4 and tau powers that _form_powers starts and
the match extends) is qseries._powers: it forms its even powers as
squares, which PowerSeries multiplies with half the work.

Both windows are a theorem's and no wider: Sturm's bound for U, V, W
and Ua (_sturm_window), the j-degree bound ell + 1 for Phi.  No row past
them re-checks a build; check_at_cm_vectors certifies every result at
the supersingular CM vectors instead.

match_to_form_basis divides p_k once by f = E4^a0 E6^b0, the basis
element of its weight with no Delta, solves triangularly in the powers
tau^i of tau = Delta/E4^3 = 1/j that every weight shares, and rewrites
the result as rows in E4^a E6^b.  _peel_j_powers peels the powers of j
off e_k in integers on e_k's own window.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from operator import mul

from .certify import check_at_cm_vectors
from .errors import BasisMatchError, BuildError, PrecisionError
from .qseries import PowerSeries, _powers, delta_series, \
    eisenstein_series, expand, j_series
from .trivariate import KINDS, ClassicalModularPoly, TrivariatePoly, \
    check_kind
# the denominator gate lives in validate(); perfbench's layer spans wrap
# it under this module's name
from .trivariate import _denominator_is_smooth  # noqa: F401


def conjugate_series(kind: str, ell: int, n_q: int):
    """(r_inf, R): the root at the cusp infinity, a series in q, and the
    conjugate generator R, scale times the expansion the kind's KINDS row
    names, in x = q^{1/ell}, the builder's one series not in q.  R ends
    just past x^(ell*(n_q - 1)), the last exponent a trace on [.., n_q)
    reads; Phi's j(x) takes ell*n_q + 2 terms, as j(x)^k, k <= ell, is
    known below x^(ell*n_q - k).  r_inf is R under diag(ell, 1), with w
    the X-weight: ell^(2w) R(q^ell) for the level-one E4, E6 and j, and
    -ell R read in q for U's and Ua's weight-2 Fricke eigenforms of
    eigenvalue -1 (the eta twist leaves the (1 - x^(ell*n)) factors
    alone, so every coset has R's shape in x)."""
    row = check_kind(kind, ell)
    (name, scale), w = row.series, row.x_weight
    n_x = ell * (n_q - 1) + 1 if w else ell * n_q + 2
    r_x = expand(name, n_x, ell) * scale
    if w == 1:
        return r_x.truncate(r_x.lead + n_q) * -ell, r_x
    return r_x.substitute_q_power(ell, n_q) * ell ** (2 * w), r_x


def _chain_traces(big_r: PowerSeries, ell: int, k_max: int) -> list:
    """[trace of R^k for k = 1..k_max] by baby and giant steps, after
    Paterson and Stockmeyer, 1973.  With
    m = max(ceil(sqrt(k_max)), ceil(k_max/3)) and k = t*m + j,
    1 <= j <= m, the baby steps R^1..R^m are formed in full, the even
    ones as squares, and so is R^(2m) when some k passes 2m: as
    k_max <= 3m, it is the one giant step past R^m.  A k that is a formed
    power is read off it; every other k is traced from R^(tm) and R^j by
    PowerSeries.product_trace, which never forms R^k.  R^k has R's
    window length, so its trace is exactly the full power's."""
    m = max(isqrt(k_max - 1) + 1, -(-k_max // 3))
    baby = _powers([None, big_r], m)
    giant = _powers([None, baby[m]], (k_max - 1) // m)
    out = []
    for k in range(1, k_max + 1):
        t, j = divmod(k - 1, m)
        j += 1
        if j == m and t + 1 < len(giant):
            out.append(giant[t + 1].extract_progression(ell))
        elif not t:
            out.append(baby[j].extract_progression(ell))
        else:
            out.append(giant[t].product_trace(baby[j], ell))
    return out


def power_traces(big_r: PowerSeries, ell: int, k_max: int) -> list:
    """[trace of R^k over the ell cosets for k = 1..k_max], series in q
    from R in x = q^{1/ell}, by about k_max/3 full products, nearly all
    of them baby steps (_chain_traces).

    When R has a nonzero x^0 numerator c0 and its other numerators share
    a factor g > 1, as those of U, V and W do (12, 720 and 1008), the
    chain runs on a smaller generator: R = (c0 + g*T)/den, with T on R's
    window and 0 at x^0.  Then T^i has R^i's window, its numerators
    carry neither c0 nor g, and
    den^k Tr(R^k) = sum over i = 0..k of C(k, i) c0^(k-i) g^i Tr(T^i),
    in integers, with Tr(T^0) = ell at q^0.  As x^0 is on R's window,
    R's lead is at most 0, so Tr(T^i), exact zeros below its lead,
    starts and ends at or past Tr(R^k)'s lead and end for i <= k.
    Phi's j(x) and Ua's eta product have g = 1 and run the chain on R
    itself.

    A product of the chain packs (PowerSeries) when its numerators are
    narrow, their widest bit lengths summing to at most twice the window
    length, and takes dot products otherwise."""
    lead, nums = big_r.lead, big_r.nums
    c0 = nums[-lead] if 0 <= -lead < len(nums) else 0
    g = gcd(*nums[:-lead], *nums[1 - lead:]) if c0 else 1
    if g <= 1:
        return _chain_traces(big_r, ell, k_max)
    t_nums = [v // g for v in nums]
    t_nums[-lead] = 0
    t_traces = _chain_traces(PowerSeries.from_numerators(t_nums, 1, lead),
                             ell, k_max)
    # row i is Tr(T^i) padded down to Tr(T^k_max)'s lead, the lowest, and
    # row 0 is Tr(T^0); every row i <= k reaches Tr(T^k)'s end, so each
    # slot of Tr(R^k) is one dot product down the column of rows 0..k.
    # Summing scaled series in place of the dot products took 40% longer
    # on U31's traces (8.4 -> 11.7 ms, 2-vCPU host)
    base = t_traces[-1].lead
    rows = [[0] * (tr.lead - base) + tr.nums for tr in t_traces]
    rows.insert(0, [0] * len(rows[0]))
    rows[0][-base] = ell
    out = []
    for k, tr in enumerate(t_traces, 1):
        coef = [comb(k, i) * c0 ** (k - i) * g ** i for i in range(k + 1)]
        at = tr.lead - base
        cols = zip(*[r[at:at + len(tr.nums)] for r in rows[:k + 1]])
        out.append(PowerSeries.from_numerators(
            [sum(map(mul, coef, col)) for col in cols], big_r.den ** k,
            tr.lead))
    return out


def power_sums(kind: str, ell: int, n_q: int, k_max: int) -> tuple:
    """(r_inf, [t_1..t_k_max]): the distinguished root and the power sums
    t_k = trace of R^k of the ell coset conjugates."""
    r_inf, big_r = conjugate_series(kind, ell, n_q)
    return r_inf, power_traces(big_r, ell, k_max)


def _weight_rows(w: int) -> tuple:
    """(a0, b0, rows) for weight w >= 0: every E4^a E6^b with 2a + 3b = w
    is E4^(a0-3j) E6^(b0+2j) for one j in range(rows), with b0 = w mod 2
    and a0 = (w - 3b0)/2; w = 1 has a0 = -1 and no row."""
    b0 = w % 2
    a0 = (w - 3 * b0) // 2
    return a0, b0, a0 // 3 + 1


def _sturm_window(w: int) -> int:
    """Sturm's bound: a level-one form of weight 2w is fixed by its first
    floor(2w/12) + 1 = w//6 + 1 coefficients, q^0..q^(w//6)."""
    return w // 6 + 1


def _form_powers(end: int) -> tuple:
    """([1, 1/E4, 1/E4^2, 1/E4^3], 1/E6, [1, tau]) on the q-window
    [0, end), with tau = Delta/E4^3 = 1/j = q - 744q^2 + ...: all three
    have integer coefficients.  match_to_form_basis appends higher powers
    of 1/E4 and tau to the lists as the weights it is asked for grow, so
    one triple serves every match of a build."""
    one = PowerSeries.constant(1, end)
    p4inv = _powers([one, eisenstein_series(4, end).inverse()], 3)
    return (p4inv, eisenstein_series(6, end).inverse(),
            [one, delta_series(end) * p4inv[3]])


def match_to_form_basis(s: PowerSeries, w: int, powers=None) -> "_Form":
    """The q-series s exactly as the weight-w _Form, sum of c_{a,b}
    E4^a E6^b over 2a + 3b = w; every known coefficient is verified.
    Raises PrecisionError when s is known to fewer than the w//6 + 1
    coefficients of Sturm's bound for weight 2w, and BasisMatchError when
    s has a pole or is no such sum.

    The solve runs in the basis Delta^i E4^(a0-3i) E6^b0 = f tau^i for
    i < rows (_weight_rows), f = E4^a0 E6^b0, tau = Delta/E4^3 = q + ...:
    s is multiplied once by 1/f; then for i = 0, 1, ... the q^i
    coefficient of the integer residual is the multiple of tau^i, which is
    subtracted, and the residual must vanish on the whole window.  Horner's
    rule in Delta = (E4^3 - E6^2)/1728 turns the multiples into the rows,
    over 1728^(rows-1) * s.den.  The powers come from ``powers`` (see
    _form_powers), whose window must cover s's, or from a fresh triple."""
    a0, b0, rows = _weight_rows(w)
    end = s.end
    if a0 < 0:
        if not s.is_zero():
            raise BasisMatchError(f"nonzero series but empty weight-{w} basis")
        return _Form(w, [], 1)
    sturm = _sturm_window(w)
    # s and its fit are weight-2w forms: by Sturm, exact rows prove s == fit
    if end < sturm:
        raise PrecisionError(f"need {sturm} coefficients, have {end}")
    below = max(-s.lead, 0)
    if any(s.nums[:below]):
        raise BasisMatchError("pole in a series matched to E4E6 forms")
    p4inv, e6inv, ptau = powers or _form_powers(end)
    f_inv = _powers(p4inv, a0)[a0]
    if b0:
        f_inv = f_inv * e6inv
    # s/f on [0, end), over s.den
    res = (PowerSeries.from_numerators([0] * s.lead + s.nums[below:])
           * f_inv).nums
    mult = []
    for i in range(rows):
        c = res[i]
        mult.append(c)
        if c:
            res[i:] = [u - c * v for u, v in zip(
                res[i:], _powers(ptau, i)[i].nums[i:end], strict=True)]
    if any(res):
        raise BasisMatchError("inconsistent basis system")
    # with t = rows - 1, 1728^t * sum of c_i f tau^i is E4^(a0-3t) E6^b0
    # times sum of c_i (1728 E4^3)^(t-i) (E4^3 - E6^2)^i, by Horner's rule
    # from i = t down; nums[j] is row j's numerator
    nums = []
    for i in reversed(range(rows)):
        nums = [u - v for u, v in zip(nums + [0], [0] + nums)]
        nums[0] += mult[i] * 1728 ** (rows - 1 - i)
    return _Form(w, nums, 1728 ** (rows - 1) * s.den)


class _Form:
    """A weight-w form in Q[E4, E6] as rows: nums[j]/den, den > 0, is the
    coefficient of E4^(a0-3j) E6^(b0+2j), (a0, b0, len(nums)) being
    _weight_rows(w).  Only Newton's arithmetic: + and - row by row at one
    weight, * by a form (the rows convolved) or by a scalar.  Only the
    scalar product reduces, to gcd(den, *nums) == 1 (zero is all zeros
    over 1), and Newton ends each e_k with one, so every e_k is canonical."""

    __slots__ = ("w", "nums", "den")

    def __init__(self, w: int, nums: list, den: int):
        self.w, self.nums, self.den = w, nums, den

    def items(self):
        """((a, b), c) for each nonzero coefficient c of E4^a E6^b, as a
        Fraction, in descending a."""
        a0, b0, _ = _weight_rows(self.w)
        return [((a0 - 3 * j, b0 + 2 * j), Fraction(v, self.den))
                for j, v in enumerate(self.nums) if v]

    def _plus(self, other: "_Form", sign: int) -> "_Form":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return _Form(self.w, [u * fa + v * fb for u, v in zip(
            self.nums, other.nums, strict=True)], den)

    def __add__(self, other: "_Form") -> "_Form":
        return self._plus(other, 1)

    def __sub__(self, other: "_Form") -> "_Form":
        return self._plus(other, -1)

    def __mul__(self, other) -> "_Form":
        if isinstance(other, _Form):
            w = self.w + other.w
            # rows j and l meet at row j + l, or one row up when both
            # weights are odd: E6 * E6 is the next row's E6^2
            shift = self.w & other.w & 1
            nums = [0] * _weight_rows(w)[2]
            for j, u in enumerate(self.nums, shift):
                for l, v in enumerate(other.nums, j):
                    nums[l] += u * v
            return _Form(w, nums, self.den * other.den)
        c = Fraction(other)
        nums = [v * c.numerator for v in self.nums]
        den = self.den * c.denominator
        g = gcd(den, *nums)
        return _Form(self.w, [v // g for v in nums], den // g)


def _newton_elementary(sums: list, e0) -> list:
    """e_1..e_n from the power sums s_1..s_n by Newton's identities,
    k*e_k = sum over i = 1..k of (-1)^(i-1) * e_(k-i) * s_i, exact over Q;
    e0 is e_0 = 1 in the sums' ring: a series, or _Form(0, [1], 1)."""
    e = [e0]
    for k in range(1, len(sums) + 1):
        acc = e[k - 1] * sums[0]
        for i in range(2, k + 1):
            term = e[k - i] * sums[i - 1]
            acc = acc + term if i % 2 else acc - term
        e.append(acc * Fraction(1, k))
    return e[1:]


def _elementary(r_inf: PowerSeries, traces: list) -> list:
    """e_1..e_(ell+1) of the root r_inf and the ell conjugates whose power
    sums are traces.  Newton on the traces alone gives the conjugates'
    E'_k; as sum of e_k T^k = (1 + r_inf*T) * sum of E'_k T^k,
    e_k = E'_k + r_inf*E'_(k-1), and e_(ell+1) = r_inf*E'_ell.  E'_0 is
    as long as r_inf, so that r_inf*E'_0 ends where E'_1 does."""
    e0 = PowerSeries.constant(1, len(r_inf.nums))
    conj = [e0] + _newton_elementary(traces, e0)
    return [c + r_inf * d for c, d in zip(conj[1:], conj)] \
        + [r_inf * conj[-1]]


def _build_at(kind: str, ell: int, n_q: int) -> TrivariatePoly:
    n = ell + 1
    w_x = KINDS[kind].x_weight
    powers = _form_powers(n_q)
    r_inf, traces = power_sums(kind, ell, n_q, n)
    sums = []
    for k, (r_k, t_k) in enumerate(zip(_powers([None, r_inf], n)[1:],
                                       traces), 1):
        # p_k = r_inf^k + t_k.  With a positive lead (Ua) a sum's window
        # can run past n_q, beyond the cached powers of 1/E4 and tau; the
        # Sturm window is all the match needs.
        p_k = (r_k + t_k).truncate(n_q)
        sums.append(match_to_form_basis(p_k, w_x * k, powers))
    terms = {(n, 0, 0): Fraction(1)}
    for k, e_k in enumerate(_newton_elementary(sums, _Form(0, [1], 1)), 1):
        # the coefficient of X^(n-k) is (-1)^k e_k
        for (a, b), c in e_k.items():
            terms[(n - k, a, b)] = -c if k % 2 else c
    return TrivariatePoly(kind, ell, terms).validate()


def build(kind: str, ell: int):
    """Monic degree-(ell+1) polynomial in the E4E6 basis, validated for
    homogeneity and integrality; Phi is build_classical_phi's.

    U, V, W and Ua take the power sums p_k of the ell + 1 roots, match
    each, and run Newton on the matched forms.  p_k is a level-1 form of
    weight 2wk (w the X-weight), and Sturm's bound fixes it by
    floor(wk/6) + 1 coefficients; the window is that of k = ell+1 and no
    wider.  The coefficients are exact, so a matching failure is a fault,
    not a precision shortfall, and is not retried.  No surplus row
    re-checks the match: the result is certified at the CM vectors
    (check_at_cm_vectors), where a wrong polynomial is a BuildError."""
    w_x = check_kind(kind, ell).x_weight
    if not w_x:
        # a weight-0 root is a value of j: its e_k are polynomials in j
        return build_classical_phi(ell)
    n_q = _sturm_window(w_x * (ell + 1))
    try:
        poly = _build_at(kind, ell, n_q)
    except (BasisMatchError, PrecisionError) as exc:
        raise BuildError(f"{kind}_{ell}: matching failed") from exc
    return check_at_cm_vectors(poly)


# ---------------------------------------------------------------------------
# Classical modular polynomial relating j(q) and j(q^ell).


def _peel_j_powers(e: PowerSeries, jpow: list, ell: int, k: int) -> dict:
    """{m: c} with e = e_k of Phi_ell = sum of c * j^m over m <= n,
    n = ell + 1, the c integers; jpow[m] = j^m, known on [-m, e.end).  The
    powers are peeled off from the deepest pole in integers on e's window
    (r[t] is the numerator of q^(t-n)); every row past q^0 must cancel."""
    n = ell + 1
    lead = e.effective_lead()
    if lead is not None and lead < -n:
        raise BuildError(f"Phi_{ell}: e_{k} pole below j-degree bound")
    r = [0] * (e.lead + n) + e.nums[max(-n - e.lead, 0):]
    if len(r) <= n:
        raise BuildError(f"Phi_{ell}: e_{k} ends below q^0")
    pk = {}
    for m in range(n, 0, -1):
        v = r[n - m]
        if v:
            pk[m] = v
            # a j^m short of e's end is an error, not fewer checked rows
            r[n - m:] = [u - v * t for u, t in zip(
                r[n - m:], jpow[m].nums[:len(r) - n + m], strict=True)]
    pk[0] = r[n]
    if any(r[n + 1:]):
        raise BuildError(f"Phi_{ell}: e_{k} is not a polynomial in j "
                         "at this precision")
    for m, v in pk.items():
        if v % e.den:
            raise BuildError(f"Phi_{ell}: non-integer coefficient at "
                             f"e_{k}, j^{m}")
    return {m: v // e.den for m, v in pk.items()}


def build_classical_phi(ell: int) -> ClassicalModularPoly:
    """Phi_ell(X, j) from the roots J = j(q^ell) and the ell coset
    conjugates of j(x), x = q^{1/ell}, by the series chain: the traces
    of j(x)^k, k <= ell, whose poles are at most q^-1, Newton, then J
    multiplied in, e_k = E'_k + J*E'_(k-1).  So no series carries
    the q^(-ell*k) poles of the roots' power sums.  The powers of j are
    peeled off each e_k."""
    check_kind("Phi", ell)
    n = ell + 1
    # e_k is a polynomial in j of degree at most n, so its rows q^-n..q^0
    # fix it; as J's pole is at q^-ell, e_k = E'_k + J*E'_(k-1) is known
    # through q^0 once the traces are known through q^ell, and no further
    n_q = ell + 1
    # j^m on [-m, n + n_q), past the end of every e_k
    jpow = _powers([None, j_series(n + n_q + 2)], n)
    terms = {(n, 0): 1}
    r_inf, traces = power_sums("Phi", ell, n_q, ell)
    for k, e_k in enumerate(_elementary(r_inf, traces), 1):
        # the coefficient of X^(n-k) is (-1)^k e_k
        for m, c in _peel_j_powers(e_k, jpow, ell, k).items():
            terms[(n - k, m)] = -c if k % 2 else c
    return check_at_cm_vectors(ClassicalModularPoly(ell, terms).validate())
