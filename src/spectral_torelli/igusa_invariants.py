"""Igusa invariants of genus-2 hyperelliptic models y^2 = f(x).

`igusa` takes coefficients from any commutative ring in which the small
integers it divides by (4 and factorials up to 6!^2) are invertible:
Fraction and MultiPoly (exact, over Q and over symbolic parameters) or
Jet1 (first-order jets mod q = 2^61 - 1). A curve over F_p holds plain
int residues, so it is refused rather than read as its integer lift.
Int coefficients reach the generated code as ints; each invariant
lands in the ring of the coefficients by adding its zero (`_ring_zero`)
at the end.

J2, J4 and J6 come from the transvectants of Mestre ("Construction de
courbes de genre 2 à partir de leurs modules", 1991): a = (f, f)_6, the
quartic i = (f, f)_4, b = (i, i)_4, the Hessian (i, i)_2 and
c = (i, (i, i)_2)_4. A transvectant works straight on ascending
coefficient lists: each partial derivative it needs is one integer
factor per coefficient (with the weight (-1)^i C(k, i) folded in), and
the products are summed; the Fraction prefactors are folded into the
constants of J2, J4 and J6 (`_weights`), so ints stay ints. These
transvectants are expanded once on the coordinate MultiPolys into 4, 17
and 50 integer terms of a, b and c (`_abc_terms`), and the discriminant
J10 comes from a frozen table of 246 integer terms. Each table is
written out at its first use as Python code of b0..b6 in nested Horner
form, and all such code sits behind one cache (`_program`); `igusa` and
the rank runs take a, b, c and J10 from these programs on every ring,
and a curve's discriminant mod p is the same program on its residues.

The independence rank runs the invariant map on ints mod q^2, at the
point and at the point moved by q along each parameter, and reads the
Jacobian mod q from the differences; its rank is a certified lower bound
on the rank over Q, and rejections stay exact (see `rank_at_point`).
Each run reads the family's coefficients as ints over one denominator, a
scale the absolute invariants do not see.

Both paths hand the programs the smallest model with the same
invariants, by two exact identities. J_2k has degree 2k in the
coefficients, so J_2k(lam f) = lam^2k J_2k(f): `igusa` runs a family
that keeps a content lam (`CurveFamily`) on its primitive coefficients,
and a curve over Q (lam = 1/L) on its int numerators, and multiplies
back; as the absolute invariants ignore any scale, a rank run ranks the
primitive model where lam is a unit mod q. They also ignore an affine
change x -> (x - t)/l, so a rank run moves a model whose top
coefficient times its degree is a unit mod q^2 to a monic one without
its second-highest term (`_absolute_mod`).

Known coefficients are folded into the tables before the code is
written (`_program`), so no product multiplies a known 0 or 1: the
rank runs fold those of their monic model, and symbolic `igusa` keeps
constant coefficients as numbers and folds its int 0s, 1s and -1s.
"""

import json
import math
import numbers
import random
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from ._record import Record
from .errors import (
    AlignmentError,
    DegenerateCurveError,
    DegreeBoundError,
    InconclusiveError,
    UndefinedChartError,
)
from .exact_algebra import (
    Jet1,
    MultiPoly,
    _integer,
    _rational,
    _residue,
    rational_matrix_rank,
)

DEFAULT_SEED = 20260819
_SAMPLE_BOUND = 100  # of |numerator| and denominator at sample points


@lru_cache(maxsize=None)
def _data(name):
    path = resources.files("spectral_torelli.data").joinpath(name)
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=1)
def _discriminant_terms():
    blob = _data("sextic_discriminant.json")
    if blob.get("schema_version") != 1:
        raise ValueError("unsupported sextic discriminant table version")
    terms = tuple(
        (tuple(exps), int(coeff)) for exps, coeff in blob["terms"]
    )
    if len(terms) != 246:
        raise ValueError("sextic discriminant table is truncated")
    return terms


def _horner(terms, powers, i=0):
    """Source of integer terms (exponents of b0..b6, coefficient) as
    nested Horner in b_i, then b_(i+1), ..., b6, highest exponent first;
    each power b_i^g it uses is named in `powers`."""
    if i == 7:
        return str(terms[0][1])

    def times(g, x):
        name = powers.setdefault((i, g), f"b{i}_{g}" if g > 1 else f"b{i}")
        return f"{name} * ({x})"

    groups = {}
    for term in terms:
        groups.setdefault(term[0][i], []).append(term)
    expr = above = None
    for e in sorted(groups, reverse=True):
        inner = _horner(groups[e], powers, i + 1)
        if above is not None:
            inner = f"{times(above - e, expr)} + ({inner})"
        expr, above = inner, e
    return times(above, expr) if above else expr


def _fold(terms, constants):
    """`terms` with b_i = v put in for each (i, v) of `constants`, v in
    {0, 1, -1}: a term with a positive power of a b_i at 0 goes, a power
    b_i^e at 1 or -1 leaves the monomial and multiplies the coefficient
    by v^e, and terms left with equal exponents merge, so no term is
    added."""
    folded = {}
    for exps, coeff in terms:
        exps = list(exps)
        for i, v in constants:
            if exps[i]:
                if not v:
                    break
                coeff *= v ** exps[i]
                exps[i] = 0
        else:
            key = tuple(exps)
            folded[key] = folded.get(key, 0) + coeff
    return [term for term in folded.items() if term[1]]


def _straight_line(name, tables):
    """One function of b0..b6, compiled once, that binds each power to a
    local and returns the term tables in the Horner form of `_horner`; an
    empty table returns 0, and the caller adds the ring's zero."""
    powers = {}
    result = ", ".join(_horner(terms, powers) if terms else "0"
                       for terms in tables)
    lines = [f"def {name}(b0, b1, b2, b3, b4, b5, b6):"]
    lines += [f"    {v} = b{i} ** {g}" for (i, g), v in powers.items()
              if g > 1]
    lines.append(f"    return {result}")
    namespace = {}
    exec(compile("\n".join(lines), f"<{name}>", "exec"), namespace)
    return namespace[name]


@lru_cache(maxsize=32)
def _program(table, constants):
    """The table "discriminant" (J10) or "abc" (a, b, c of `_abc_terms`)
    as one function of b0..b6 (`_straight_line`), with b_i = v folded in
    (`_fold`) for each (i, v) of `constants`, v an int 0, 1 or -1 (at
    most 3^7 patterns); the function ignores its arguments there. Each
    table compiles at its first use, so a caller that needs only J10
    never builds a, b, c.

    With `constants` () the discriminant binds 26 powers, then makes 703
    ring products in all, on no int but the table's. J10 and a, b, c are
    homogeneous of degrees 10 and 2, 4, 6 and isobaric of weights 30 and
    6, 12, 18 in the b_i, so folding at most two places to 1 or -1 merges
    no terms. On the monic model with no
    second-highest term of a rank run, {b5 = 0, b6 = 1} leaves 76 of the
    246 discriminant terms and 3, 11, 27 of the 4, 17, 50 terms of a, b,
    c; {b4 = 0, b5 = 1, b6 = 0} for a quintic leaves 19 and 2, 4, 7."""
    tables = _abc_terms() if table == "abc" else [_discriminant_terms()]
    if constants:
        tables = [_fold(terms, constants) for terms in tables]
    return _straight_line(table, tables)


def _constants(b):
    """The (index, value) pairs of the int 0s, 1s and -1s among the
    coefficients b when one of them is a ring element, for `_program`;
    coefficients that are all numbers keep the general programs."""
    if all(isinstance(c, (int, Fraction)) for c in b):
        return ()
    return tuple((i, c) for i, c in enumerate(b)
                 if type(c) is int and -1 <= c <= 1)


def binary_sextic_discriminant(coefficients):
    """Discriminant of b0 + b1*x + ... + b6*x^6 (`_program`).

    `coefficients` is an ascending length-7 sequence over a commutative
    ring whose elements support x + y, x * y, x ** g (g >= 2), and + and *
    with an int on either side. A number or a string among them must be
    an int or a Fraction.

    Coefficients that are all numbers (a curve over Q, its residues mod
    p) run the general program, and `+ b0 * 0` keeps a zero in their
    ring. When one of them is a ring element, the int 0s, 1s and -1s
    among them are folded into the table (`_constants`), so no ring
    product multiplies a known 0 or 1 (a catalog family's constant
    coefficients, say), and the sum of the ring elements' zeros is
    added: it keeps the result in the ring when the folded table is
    empty, and refuses rings that do not mix, as their products would.
    """
    b = tuple(map(_exact_scalar, coefficients))
    if len(b) != 7:
        raise DegreeBoundError("expected 7 ascending sextic coefficients")
    constants = _constants(b)
    if not constants:
        return _program("discriminant", ())(*b) + b[0] * 0
    zero = sum(c * 0 for c in b if not isinstance(c, (int, Fraction)))
    return _program("discriminant", constants)(*b) + zero


def _exact_scalar(c):
    """A number or a string must be an exact rational (`_rational`);
    ring elements, MultiPoly and Jet1 among them, pass unchanged."""
    return _rational(c) if isinstance(c, (numbers.Number, str)) else c


def _ring_zero(coeffs):
    """The zero of the one ring that holds every coefficient: Fraction(0)
    for numbers, else the MultiPoly or Jet1 zero of the ring elements. A
    number must be an exact rational (`_exact_scalar`, TypeError), and
    rings that do not add raise AlignmentError."""
    zeros = [_exact_scalar(c) * 0 for c in coeffs]
    try:
        return sum(zeros, Fraction(0))
    except TypeError:
        raise AlignmentError("coefficients from different rings") from None


def _partial(c, a, b, w):
    """w * d^a/dx^a d^b/dz^b of the binary form sum c_j x^j z^(d-j), as
    ascending coefficients: one integer factor per coefficient."""
    d = len(c) - 1
    return [
        c[j] * (w * math.perm(j, a) * math.perm(d - j, b))
        for j in range(a, d - b + 1)
    ]


def _prefactor(m, n, k):
    """(m-k)! (n-k)! / (m! n!), the scale of (f, g)_k for degrees m, n."""
    if k < 0 or k > min(m, n):
        raise DegreeBoundError("transvectant index exceeds a form degree")
    fact = math.factorial
    return Fraction(fact(m - k) * fact(n - k), fact(m) * fact(n))


def _transvectant(f, g, k):
    """(f, g)_k of two forms given by ascending coefficient lists over one
    ring, without its prefactor (`_prefactor`, which checks k): the sum
    over i of (-1)^i C(k, i) d^k f/dx^(k-i) dz^i * d^k g/dx^i dz^(k-i)."""
    out = [None] * (len(f) + len(g) - 2 * k - 1)
    for i in range(k + 1):
        pf = _partial(f, k - i, i, (-1) ** i * math.comb(k, i))
        pg = _partial(g, i, k - i, 1)
        for s, p in enumerate(pf):
            for t, q in enumerate(pg):
                pq = p * q
                out[s + t] = pq if out[s + t] is None else out[s + t] + pq
    return out


def transvectant(f_coefficients, g_coefficients, k):
    """k-th transvectant of two binary forms given by ascending
    coefficient sequences (degree = length - 1). Returns the ascending
    coefficient tuple of the resulting form. Both forms are lifted into
    one ring by adding its zero (`_ring_zero`)."""
    f, g = list(f_coefficients), list(g_coefficients)
    zero = _ring_zero(f + g)
    f, g = [c + zero for c in f], [c + zero for c in g]
    pref = _prefactor(len(f) - 1, len(g) - 1, k)
    return tuple(c * pref for c in _transvectant(f, g, k))


@lru_cache(maxsize=None)
def _weights(modulus=None):
    """Mestre's -240, 4320, -18000, 34560, -432000 and -1440000 times the
    prefactors of a, b, c in `_abc`: Fractions, or mod `modulus`."""
    pa, pi = _prefactor(6, 6, 6), _prefactor(6, 6, 4)
    pb = _prefactor(4, 4, 4) * pi * pi
    pc = pb * pi * _prefactor(4, 4, 2)
    w = (-240 * pa, 4320 * pa**2, -18000 * pb,
         34560 * pa**3, -432000 * pa * pb, -1440000 * pc)
    return w if modulus is None else tuple(_residue(x, modulus) for x in w)


def _abc(f):
    """a = [f, f]_6, b = [i, i]_4 and c = [i, [i, i]_2]_4 with
    i = [f, f]_4, the transvectants [., .]_k without prefactor of the
    sextic f (7 coefficients over one ring): the source of the tables of
    `_abc_terms`."""
    (a,) = _transvectant(f, f, 6)
    i = _transvectant(f, f, 4)
    (b,) = _transvectant(i, i, 4)
    (c,) = _transvectant(i, _transvectant(i, i, 2), 4)
    return a, b, c


@lru_cache(maxsize=1)
def _abc_terms():
    """The tables of a, b and c: `_abc` expanded once on the coordinate
    MultiPolys, 4, 17 and 50 integer terms."""
    names = tuple(f"b{i}" for i in range(7))
    forms = _abc([MultiPoly.variable(n, names) for n in names])
    return tuple(tuple(x.numerators.items()) for x in forms)


def _j2_j4_j6(a, b, c, w):
    """J2, J4, J6 from a, b, c of `_abc` and w from `_weights`."""
    return (a * w[0], a * a * w[1] + b * w[2],
            a * a * a * w[3] + a * b * w[4] + c * w[5])


def _is_zero_value(x):
    if isinstance(x, MultiPoly):
        return x.is_zero()
    if isinstance(x, Jet1):
        return not x.value
    return x == 0


def _number(c):
    """A constant MultiPoly as an int, or a Fraction when it is not
    integral; anything else unchanged."""
    if isinstance(c, MultiPoly) and c.is_constant():
        c = c.constant_value()
        return c.numerator if c.denominator == 1 else c
    return c


class IgusaInvariants(Record):
    """The tuple (J2, J4, J6, J8, J10), weighted by coefficient degree."""

    __slots__ = ("j2", "j4", "j6", "j8", "j10")

    def as_tuple(self):
        return (self.j2, self.j4, self.j6, self.j8, self.j10)

    @property
    def degenerate(self):
        return _is_zero_value(self.j10)

    def absolute(self):
        """Scaling-free coordinates (J4/J2^2, J6/J2^3, J10/J2^5).

        Only defined on the chart J2 != 0; symbolic inputs should keep
        the weighted tuple instead.
        """
        j2 = self.j2
        if _is_zero_value(j2):
            raise UndefinedChartError(
                "absolute invariants undefined: J2 vanishes"
            )
        return (
            self.j4 / (j2 * j2),
            self.j6 / (j2 * j2 * j2),
            self.j10 / (j2 ** 5),
        )


def igusa(source):
    """Igusa invariants of y^2 = f(x) with deg f in {5, 6}.

    `source` is either an ascending coefficient sequence (length 6 or 7;
    a quintic is treated as a sextic with vanishing leading coefficient)
    or any object exposing sextic_coefficients(), other than a curve over
    F_p.

    A source with a `content` lam is lam times its `primitive` model g
    (see `CurveFamily`; a curve over Q is 1/L times its int numerators):
    its invariants are those of g with J_2k multiplied by lam^2k, which
    is J_2k of the products exactly. Ints and constant MultiPolys enter
    the invariant map as ints or Fractions, so the generated code
    multiplies numbers where it can; the ring's zero (`_ring_zero`) is
    added to each invariant at the end.

    a, b, c and J10 come from the generated programs, folded at the int
    0s, 1s and -1s among the coefficients when one of them is a ring
    element (`_constants`): Gar9/2 keeps (b4, b5, b6) = (0, 1, 0), MatI
    and KFS keep b6 = 1.
    """
    if hasattr(source, "sextic_coefficients"):
        if getattr(source, "characteristic", 0):
            raise AlignmentError(
                "Igusa invariants of a curve over F_p are not computed: "
                "its residues would give those of an integer lift"
            )
        content = getattr(source, "content", None)
        if content is not None:
            lam2 = content * content
            lam4 = lam2 * lam2
            lam8 = lam4 * lam4
            j2, j4, j6, j8, j10 = igusa(source.primitive).as_tuple()
            return IgusaInvariants(j2 * lam2, j4 * lam4, j6 * (lam4 * lam2),
                                   j8 * lam8, j10 * (lam8 * lam2))
        coeffs = list(source.sextic_coefficients())
    else:
        coeffs = list(source)
    if len(coeffs) == 6:
        coeffs.append(coeffs[0] * 0)
    if len(coeffs) != 7:
        raise DegreeBoundError("need 6 or 7 ascending coefficients")
    zero = _ring_zero(coeffs)
    coeffs = [_number(c) for c in coeffs]
    abc = _program("abc", _constants(coeffs))
    j2, j4, j6 = _j2_j4_j6(*abc(*coeffs), _weights())
    j8 = (j2 * j6 + (j4 * j4) * (-1)) / 4
    j10 = binary_sextic_discriminant(coeffs)
    return IgusaInvariants(*(j + zero for j in (j2, j4, j6, j8, j10)))


class RankReport(Record):
    """Outcome of a randomized invariant-independence search."""

    __slots__ = ("identifier", "rank", "witness", "trials", "rejected", "seed")

    def __init__(self, identifier, rank, witness, trials, rejected, seed):
        super().__init__(identifier, rank, dict(witness), trials, rejected,
                         seed)


# the known coefficients of the monic model without its second-highest
# term that `_absolute_mod` runs, by degree
_DEPRESSED = {6: ((5, 0), (6, 1)), 5: ((4, 0), (5, 1), (6, 0))}


def _absolute_mod(coefficients, m):
    """The absolute invariants mod m, run on ints, of int sextic or
    quintic coefficients; None if J2 is not a unit. They are those of
    any rational multiple of the coefficients by a unit mod m.

    The generated programs get the cheapest model with the same values.
    A = (J4/J2^2, J6/J2^3, J10/J2^5) is unchanged by f -> lam f (J_2k has
    degree 2k in the coefficients) and by x -> (x - t)/l (J_2k of the
    binary sextic has weight 6k, so it gains the factor l^-6k, which the
    quotients cancel): these are identities of polynomials over Z[1/30]
    in the coefficients, lam, t and 1/l, so they hold mod m when lam and
    l are units. With top = 6 for a sextic and 5 for a quintic, l = top
    b_top, t = b_(top-1) and lam = l^top / b_top, the model F(y) =
    lam f((y - t)/l) is monic with no y^(top-1) term: it is the Taylor
    shift by -t of the polynomial with coefficients top b_k l^(top-1-k)
    (k < top) and 1, so no inverse is taken. J2(F) = lam^2 l^-6 J2(f) is
    a unit exactly when J2(f) is. F runs the programs folded at its known
    coefficients (`_program`), so no product multiplies them: {b5 = 0,
    b6 = 1} for a sextic (76 of the 246 discriminant terms) and {b4 = 0,
    b5 = 1, b6 = 0} for a quintic (19 terms). When l is not a unit mod m
    (q divides top b_top), f runs the general programs as given."""
    b = [c % m for c in coefficients]
    top = len(b) - 1
    lead = top * b[top]
    constants = ()
    if math.gcd(lead, m) == 1:
        constants = _DEPRESSED[top]
        shift = -b[top - 1]
        scale = top
        for k in range(top - 1, -1, -1):
            b[k] = b[k] * scale % m
            scale = scale * lead % m
        b[top] = 1
        # Taylor shift by Horner: b becomes the coefficients of F(y)
        for i in range(top):
            for k in range(top - 1, i - 1, -1):
                b[k] = (b[k] + shift * b[k + 1]) % m
    b += [0] * (7 - len(b))
    j2, j4, j6 = _j2_j4_j6(*_program("abc", constants)(*b), _weights(m))
    if math.gcd(j2, m) != 1:
        return None
    u = pow(j2, -1, m)
    j10 = _program("discriminant", constants)(*b)
    return j4 * u**2 % m, j6 * u**3 % m, j10 * u**5 % m


def rank_at_point(family, point):
    """Rank of the Jacobian of the absolute invariants with respect to
    the family parameters, at one rational parameter point, certified by
    its reduction mod q = Jet1.MODULUS.

    Point coordinates must be exact rationals, ints or Fractions; a
    bool, float or anything else raises TypeError. A name that is not a
    parameter of the family, or a parameter without a value, raises
    AlignmentError.

    The Jacobian comes from n + 1 exact runs of the invariant map on
    ints, at the point v and at v + q e_k for each parameter k: the
    coefficients at that point of the family's `primitive` model g (the
    family f itself unless it keeps a content c, f = c g; see
    `CurveFamily`) as ints N = lam g over one denominator lam, read with
    c(v) = R_c / lam from the family's integer rows (`_rows_at`), then
    A = (J4/J2^2, J6/J2^3, J10/J2^5) of N mod q^2 (`_absolute_mod`,
    which runs the folded programs on a monic model without its
    second-highest term when it can). As J2, ..., J10 have
    weights 2, ..., 10, A(N) = A(g) = A(f) wherever c(v) is nonzero,
    which is A(f) mod q^2 when lam and c(v) are units mod q; lam is the
    same at every run, since n/d + q = (n + q d)/d keeps d, and
    c(v + q e_k) = c(v) mod q. Column k
    is (A(v + q e_k) - A(v)) mod q^2 // q, by the step-q lemma: if
    F = P/Q with P, Q polynomials over Z_(q) (rationals with denominators
    prime to q) and Q(v) a unit mod q, then F(v + q e_k) = F(v) +
    q dF/dx_k(v) mod q^2. Proof: P and Q agree mod q^2 with their
    first-order Taylor expansions at v, which lie over Z_(q), and
    1/(Q + q t) = 1/Q - q t/Q^2 mod q^2. Each A_j is such a quotient, Q a
    power of J2. A minor of the Jacobian that is nonzero mod q
    (`rational_matrix_rank`) is nonzero over Q, so the result is a lower
    bound on the rank over Q at the point; `independence_rank` reports
    it as an observed rank.

    Rejections are exact. Points where J10 or J2 of f vanishes over Q
    (the absolute chart breaks down there) raise DegenerateCurveError. A
    point where the content vanishes makes f zero, and raises as on the
    discriminant locus; elsewhere it is decided on the ints N, since
    lam c(v) scales J2 and J10 by its square and tenth power: J10 is the
    general discriminant program of N, and J2 is a nonzero multiple of
    the `a` of the general "abc" program (`_program`).
    When J10 or J2 is 0 mod q, or q divides lam, c(v) or the denominator
    of a value (a parameter of degree 0 does not enter lam), the point is
    first settled over Q. If it passes but J2 or a denominator is 0 mod
    q, it has no certificate mod q and counts as rank 0, which is still
    a true lower bound.
    """
    values = family._values(point, full=True)
    q = Jet1.MODULUS
    qq = q * q
    exact, content, scale = family._rows_at(values)
    if content == 0:
        raise DegenerateCurveError("sample hits the discriminant locus")
    units = scale % q and (content is None or content % q) and all(
        v.denominator % q for v in values.values())
    base = _absolute_mod(exact, qq) if units else None
    if base is None or not base[2] % q:
        b = exact + [0] * (7 - len(exact))
        if not _program("discriminant", ())(*b):
            raise DegenerateCurveError("sample hits the discriminant locus")
        if not _program("abc", ())(*b)[0]:
            raise DegenerateCurveError("sample hits the J2 = 0 locus")
        if base is None:
            return 0
    steps = [_absolute_mod(family._rows_at(
        {**values, name: values[name] + q})[0], qq)
        for name in family.parameters]
    rows = [[(s - a) % qq // q for s in col]
            for a, col in zip(base, zip(*steps))]
    return rational_matrix_rank(rows)


def independence_rank(family, *, trials=16, seed=DEFAULT_SEED):
    """Maximal observed rank of the absolute-invariant Jacobian over
    random rational parameter points with numerator and denominator
    bounded by 100. Deterministic for a fixed seed. Each point's rank
    is a lower bound on the rank there (see `rank_at_point`), so the
    result is a lower bound on the generic rank.

    `trials` and `seed` are ints; `trials` below 1 raises ValueError."""
    trials, seed = _integer(trials), _integer(seed)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    params = tuple(family.parameters)
    if not params:
        raise AlignmentError("family has no parameters")
    cap = min(3, len(params))
    rng = random.Random(seed)
    best_rank = 0
    best_point = None
    rejected = 0
    used = 0
    for _ in range(trials):
        used += 1
        point = {
            name: Fraction(
                rng.randint(-_SAMPLE_BOUND, _SAMPLE_BOUND),
                rng.randint(1, _SAMPLE_BOUND),
            )
            for name in params
        }
        try:
            r = rank_at_point(family, point)
        except DegenerateCurveError:
            rejected += 1
            continue
        if r > best_rank or best_point is None:
            best_rank = r
            best_point = point
        if best_rank == cap:
            break
    if best_point is None:
        raise InconclusiveError(
            f"all {trials} sample points were degenerate; try another seed"
        )
    identifier = getattr(family, "identifier", None)
    return RankReport(identifier, best_rank, best_point, used, rejected, seed)


def frozen_rank_witnesses():
    """Recorded (family, point, rank) triples for deterministic replay."""
    blob = _data("rank_witnesses.json")
    if blob.get("schema_version") != 1:
        raise ValueError("unsupported rank witness table version")
    return [
        {"family": entry["family"],
         "point": {k: Fraction(v) for k, v in entry["point"].items()},
         "rank": int(entry["rank"])}
        for entry in blob["witnesses"]
    ]
