"""Igusa invariants of genus-2 hyperelliptic models y^2 = f(x).

`igusa` takes coefficients from any commutative ring in which the small
integers it divides by (4 and factorials up to 6!^2) are invertible:
Fraction and MultiPoly (exact, over Q and over symbolic parameters) or
Jet1 (first-order jets mod q = 2^61 - 1). A curve over F_p holds plain
int residues, so it is refused rather than read as its integer lift.
Adding the ring's zero to every coefficient first turns ints into
Fractions and lifts scalars into the ring of the others.

J2, J4 and J6 come from the transvectants of Mestre ("Construction de
courbes de genre 2 à partir de leurs modules", 1991): a = (f, f)_6, the
quartic i = (f, f)_4, b = (i, i)_4, the Hessian (i, i)_2 and
c = (i, (i, i)_2)_4. A transvectant works straight on ascending
coefficient lists: each partial derivative it needs is one integer
factor per coefficient (with the weight (-1)^i C(k, i) folded in), the
products are summed, and the Fraction prefactor is applied once. The
discriminant J10 comes from a frozen table of 246 integer terms, run as
one nested Horner program (grouped by the exponent of b0, then b1, ...,
b6) that every coefficient ring shares; a curve's discriminant mod p is
the same program run on its residues.

The independence rank evaluates the invariants with jets mod q and takes
the rank of their Jacobian mod q. A minor that is nonzero mod q is
nonzero over Q, so the rank found is a certified lower bound on the rank
over Q. Rejections stay exact: a point is degenerate only when J10 or J2
is 0 over Q, and wherever one of them, or a denominator, is 0 mod q the
point is settled with Fraction arithmetic (see `rank_at_point`).
"""

import json
import math
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
from .exact_algebra import Jet1, MultiPoly, jet_eval, rational_matrix_rank

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


@lru_cache(maxsize=1)
def _discriminant_program():
    """The table as nested Horner in b0, then b1, ..., b6, in postorder:
    the powers (i, g) = b_i^g it uses, and ops (c, None) that push the int
    c, (k, False) that multiply the top by power k, and (k, True) that pop
    v and replace the top t by t * (power k) + v."""
    powers, program = {}, []

    def emit(terms, i):
        if i == 7:
            program.append((terms[0][1], None))
            return
        groups = {}
        for term in terms:
            groups.setdefault(term[0][i], []).append(term)
        above = None
        for e in sorted(groups, reverse=True):
            emit(groups[e], i + 1)
            if above is not None:
                key = powers.setdefault((i, above - e), len(powers))
                program.append((key, True))
            above = e
        if above:
            program.append((powers.setdefault((i, above), len(powers)), False))

    emit(_discriminant_terms(), 0)
    return tuple(powers), tuple(program)


def binary_sextic_discriminant(coefficients):
    """Discriminant of b0 + b1*x + ... + b6*x^6 from the frozen table.

    `coefficients` is an ascending length-7 sequence over a commutative
    ring whose elements support x + y, x * y, x ** g (g >= 2), and + and *
    with an int on either side. Each power is computed once, the Horner
    program runs on one stack, and `+ b0 * 0` keeps a zero in the ring.
    """
    b = tuple(coefficients)
    if len(b) != 7:
        raise DegreeBoundError("expected 7 ascending sextic coefficients")
    pairs, program = _discriminant_program()
    powers = [b[i] ** g if g > 1 else b[i] for i, g in pairs]
    stack = []
    for x, fma in program:
        if fma is None:
            stack.append(x)
        elif fma:
            v = stack.pop()
            stack[-1] = powers[x] * stack[-1] + v
        else:
            stack[-1] = powers[x] * stack[-1]
    return stack.pop() + b[0] * 0


def _lift_common(coeffs):
    """Put every coefficient into one ring by adding that ring's zero:
    ints become Fractions, and int/Fraction scalars join the MultiPoly or
    Jet1 ring of the others. Rings that do not add raise AlignmentError."""
    try:
        zero = sum((c * 0 for c in coeffs), Fraction(0))
    except TypeError:
        raise AlignmentError("coefficients from different rings") from None
    return [c + zero for c in coeffs]


def _partial(c, a, b, w):
    """w * d^a/dx^a d^b/dz^b of the binary form sum c_j x^j z^(d-j), as
    ascending coefficients: one integer factor per coefficient."""
    d = len(c) - 1
    return [
        c[j] * (w * math.perm(j, a) * math.perm(d - j, b))
        for j in range(a, d - b + 1)
    ]


def _transvectant(f, g, k):
    """(f, g)_k of two forms given by ascending coefficient lists over one
    ring: (m-k)! (n-k)! / (m! n!) times the sum over i of (-1)^i C(k, i)
    d^k f/dx^(k-i) dz^i * d^k g/dx^i dz^(k-i)."""
    m, n = len(f) - 1, len(g) - 1
    if k < 0 or k > min(m, n):
        raise DegreeBoundError("transvectant index exceeds a form degree")
    out = [None] * (m + n - 2 * k + 1)
    for i in range(k + 1):
        pf = _partial(f, k - i, i, (-1) ** i * math.comb(k, i))
        pg = _partial(g, i, k - i, 1)
        for s, p in enumerate(pf):
            for t, q in enumerate(pg):
                pq = p * q
                out[s + t] = pq if out[s + t] is None else out[s + t] + pq
    pref = Fraction(
        math.factorial(m - k) * math.factorial(n - k),
        math.factorial(m) * math.factorial(n),
    )
    return tuple(c * pref for c in out)


def transvectant(f_coefficients, g_coefficients, k):
    """k-th transvectant of two binary forms given by ascending
    coefficient sequences (degree = length - 1). Returns the ascending
    coefficient tuple of the resulting form. Both forms are lifted into
    one ring."""
    f = list(f_coefficients)
    lifted = _lift_common(f + list(g_coefficients))
    return _transvectant(lifted[:len(f)], lifted[len(f):], k)


def _is_zero_value(x):
    if isinstance(x, MultiPoly):
        return x.is_zero()
    if isinstance(x, Jet1):
        return not x.value
    return x == 0


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
    """
    if hasattr(source, "sextic_coefficients"):
        if getattr(source, "characteristic", 0):
            raise AlignmentError(
                "Igusa invariants of a curve over F_p are not computed: "
                "its residues would give those of an integer lift"
            )
        coeffs = list(source.sextic_coefficients())
    else:
        coeffs = list(source)
    if len(coeffs) == 6:
        coeffs.append(coeffs[0] * 0)
    if len(coeffs) != 7:
        raise DegreeBoundError("need 6 or 7 ascending coefficients")
    coeffs = _lift_common(coeffs)
    (a,) = _transvectant(coeffs, coeffs, 6)
    quartic = _transvectant(coeffs, coeffs, 4)
    (b,) = _transvectant(quartic, quartic, 4)
    hessian = _transvectant(quartic, quartic, 2)
    (c,) = _transvectant(quartic, hessian, 4)
    j2 = a * (-240)
    j4 = (a * a) * 4320 + b * (-18000)
    j6 = (a * a * a) * 34560 + (a * b) * (-432000) + c * (-1440000)
    j8 = (j2 * j6 + (j4 * j4) * (-1)) / 4
    j10 = binary_sextic_discriminant(coeffs)
    return IgusaInvariants(j2, j4, j6, j8, j10)


class RankReport(Record):
    """Outcome of a randomized invariant-independence search."""

    __slots__ = ("identifier", "rank", "witness", "trials", "rejected", "seed")

    def __init__(self, identifier, rank, witness, trials, rejected, seed):
        super().__init__(identifier, rank, dict(witness), trials, rejected,
                         seed)


def _reject_exactly(family, values):
    """Raise DegenerateCurveError if J10 or J2 of the family member at the
    rational point `values` is 0 over Q."""
    inv = igusa([p.evaluate(values) for p in family.sextic_coefficients()])
    if inv.j10 == 0:
        raise DegenerateCurveError("sample hits the discriminant locus")
    if inv.j2 == 0:
        raise DegenerateCurveError("sample hits the J2 = 0 locus")


def rank_at_point(family, point):
    """Rank of the Jacobian of the absolute invariants with respect to
    the family parameters, at one rational parameter point, certified by
    its reduction mod q = Jet1.MODULUS.

    Point coordinates must be ints or Fractions (TypeError otherwise).
    The Jacobian is evaluated with jets mod q, and its rank is taken mod
    q (`rational_matrix_rank`). A minor that is nonzero mod q is nonzero
    over Q, so the result is a lower bound on the rank over Q at the
    point; `independence_rank` reports it as an observed rank.

    Rejections are exact. Points where J10 or J2 vanishes over Q (the
    absolute chart breaks down there) raise DegenerateCurveError. When
    J10 or J2 is 0 mod q, or a denominator of the point or of the
    family's coefficients is divisible by q, the point is settled over Q
    with Fraction arithmetic before anything is reported. A point that
    passes that exact check but has J2 or a denominator 0 mod q has no
    certificate mod q: it counts as rank 0, which is still a true lower
    bound.
    """
    params = tuple(family.parameters)
    values = {}
    for name in params:
        if name not in point:
            raise AlignmentError(f"no value for parameter {name!r}")
        value = point[name]
        if not isinstance(value, (int, Fraction)):
            raise TypeError(
                f"parameter {name!r}: expected an exact rational, "
                f"got {type(value).__name__}"
            )
        values[name] = Fraction(value)
    try:
        coeffs = [
            jet_eval(p, values, params) for p in family.sextic_coefficients()
        ]
    except ZeroDivisionError:
        inv = None
    else:
        inv = igusa(coeffs)
    if inv is None or not (inv.j10.value and inv.j2.value):
        _reject_exactly(family, values)
        if inv is None or not inv.j2.value:
            return 0
    rows = [list(coord.partials) for coord in inv.absolute()]
    return rational_matrix_rank(rows)


def independence_rank(family, *, trials=16, seed=DEFAULT_SEED):
    """Maximal observed rank of the absolute-invariant Jacobian over
    random rational parameter points with numerator and denominator
    bounded by 100. Deterministic for a fixed seed. Each point's rank
    is a lower bound on the rank there (see `rank_at_point`), so the
    result is a lower bound on the generic rank.

    `trials` below 1 raises ValueError."""
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
    out = []
    for entry in blob["witnesses"]:
        point = {k: Fraction(v) for k, v in entry["point"].items()}
        out.append(
            {
                "family": entry["family"],
                "point": point,
                "rank": int(entry["rank"]),
            }
        )
    return out
