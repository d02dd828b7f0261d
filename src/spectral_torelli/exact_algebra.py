"""Exact polynomial arithmetic: sparse multivariate polynomials over Q,
dense univariate polynomials over a pluggable coefficient domain,
resultants via fraction-free elimination, and first-order jets and
matrix ranks modulo the prime q = 2^61 - 1.

The multivariate layer is fraction-free: a `MultiPoly` is int numerators
over one positive denominator, in lowest terms, and its arithmetic runs on
those ints with one content gcd per result. Fractions appear only at its
edges: the constructor accepts them, and `terms`, `constant_value` and
`evaluate` hand them out. The univariate layer is domain-generic: anything
with ring arithmetic works as a coefficient (Fraction, MultiPoly, Jet1),
which is what the resultant routine relies on.

`Jet1` and `rational_matrix_rank` work mod q instead of over Q. That is
sound for lower bounds on ranks, because a minor that is nonzero mod q is
nonzero over Q; what reduction cannot decide raises ZeroDivisionError,
for callers to settle over Q (see `Jet1`).
"""

import math
import operator
from fractions import Fraction

from ._record import Frozen
from .errors import (
    AlignmentError,
    DegreeBoundError,
    ExactDivisionError,
    PolyParseError,
)

MAX_UNIPOLY_DEGREE = 128


def _rational(value):
    """`value` itself if it is an exact rational: an int other than a
    bool, or a Fraction. Anything else raises TypeError."""
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise TypeError(
            "expected an exact rational (int or Fraction), "
            f"got {type(value).__name__}"
        )
    return value


def _integer(value):
    """`value` itself if it is an int other than a bool; anything else,
    a float or a numeric string included, raises TypeError."""
    if type(value) is bool or not isinstance(value, int):
        raise TypeError(f"expected an int, got {type(value).__name__}")
    return value


def _power(base, n):
    """base ** n for n >= 1 by squaring, starting from base itself, so
    no product is spent on 1 * base."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def _grlex_key(exponents):
    return (sum(exponents), exponents)


def _check_distinct(variables):
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable in {variables!r}")


_add = operator.add


def _reduced(variables, numerators, denominator):
    """A MultiPoly from int numerators with no zero among them and a
    positive denominator, brought to lowest terms by one content gcd."""
    if denominator != 1:
        g = math.gcd(denominator, *numerators.values())
        if g != 1:
            numerators = {e: n // g for e, n in numerators.items()}
            denominator //= g
    return MultiPoly._trusted(variables, numerators, denominator)


class MultiPoly(Frozen):
    """Sparse multivariate polynomial over Q.

    Stored fraction-free, as a content times a primitive integer
    polynomial would be: one positive int `denominator` and a map
    `numerators` from exponent tuples to nonzero int numerators, so the
    polynomial is sum(n * monomial) / denominator. Arithmetic runs on the
    ints and brings each result to lowest terms with one gcd, not one per
    term. `terms` is the same polynomial as a fresh dict of Fractions.
    Instances are treated as immutable; no operation mutates its operands.

    Canonical form: `variables` is a tuple of distinct names; every key
    of `numerators` is a tuple of `len(variables)` non-negative ints,
    mapped to a nonzero int; `denominator` is a positive int, and the gcd
    of it and every numerator is 1 (so the zero polynomial has
    denominator 1). The form is unique, so equality compares the fields.
    The public constructor establishes it from int or Fraction terms; the
    class's own arithmetic preserves it and hands its results to
    `_trusted`, which skips the checks.
    """

    __slots__ = ("variables", "numerators", "denominator")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        _check_distinct(variables)
        clean = {}
        for exponents, coeff in terms.items():
            coeff = _rational(coeff)
            if not coeff:
                continue
            exponents = tuple(map(_integer, exponents))
            if len(exponents) != len(variables):
                raise ValueError(
                    f"exponent vector {exponents!r} does not match "
                    f"variables {variables!r}"
                )
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents!r}")
            clean[exponents] = coeff
        # Over the lcm of lowest-terms denominators the numerators are
        # already coprime to it: no further reduction is needed.
        den = math.lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(
            self,
            "numerators",
            {e: c.numerator * (den // c.denominator) for e, c in clean.items()},
        )
        object.__setattr__(self, "denominator", den)

    @classmethod
    def _trusted(cls, variables, numerators, denominator):
        """An instance from data already in canonical form, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)
        return self

    @property
    def terms(self):
        """Exponent tuple -> nonzero Fraction coefficient, built on access."""
        den = self.denominator
        return {e: Fraction(n, den) for e, n in self.numerators.items()}

    # construction helpers

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): _rational(value)})

    @classmethod
    def variable(cls, name, variables):
        variables = tuple(variables)
        if name not in variables:
            raise AlignmentError(f"{name!r} is not among {variables!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: 1})

    # predicates and accessors

    def is_zero(self):
        return not self.numerators

    def is_constant(self):
        return all(not any(e) for e in self.numerators)

    def constant_value(self):
        """The value of a constant polynomial, as a Fraction."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        zero = (0,) * len(self.variables)
        return Fraction(self.numerators.get(zero, 0), self.denominator)

    def total_degree(self):
        if not self.numerators:
            return -1
        return max(sum(e) for e in self.numerators)

    def degree_in(self, name):
        i = self._index(name)
        if not self.numerators:
            return -1
        return max(e[i] for e in self.numerators)

    def coefficient_of(self, name, power):
        """Coefficient of name**power, as a MultiPoly over the remaining
        variables."""
        i = self._index(name)
        rest = self.variables[:i] + self.variables[i + 1:]
        picked = {}
        for exps, n in self.numerators.items():
            if exps[i] == power:
                picked[exps[:i] + exps[i + 1:]] = n
        return _reduced(rest, picked, self.denominator)

    def _index(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise AlignmentError(
                f"{name!r} is not among {self.variables!r}"
            ) from None

    def sorted_terms(self):
        """Terms in ascending graded-lexicographic order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    # arithmetic

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise AlignmentError(
                    f"variable lists differ: {self.variables!r} vs "
                    f"{other.variables!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly._trusted(self.variables, {}, 1)
            return MultiPoly._trusted(
                self.variables,
                {(0,) * len(self.variables): other.numerator},
                other.denominator,
            )
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self.denominator, other.denominator)
        s1, s2 = den // self.denominator, den // other.denominator
        if s1 == 1:
            out = dict(self.numerators)
        else:
            out = {e: n * s1 for e, n in self.numerators.items()}
        for exps, n in other.numerators.items():
            n *= s2
            if exps in out:
                s = out[exps] + n
                if s:
                    out[exps] = s
                else:
                    del out[exps]
            else:
                out[exps] = n
        return _reduced(self.variables, out, den)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(
            self.variables,
            {e: -n for e, n in self.numerators.items()},
            self.denominator,
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # MultiPoly first: an isinstance test against Fraction goes
        # through the ABC machinery and costs more than this one.
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return MultiPoly._trusted(self.variables, {}, 1)
            k = other.numerator
            return _reduced(
                self.variables,
                {e: n * k for e, n in self.numerators.items()},
                self.denominator * other.denominator,
            )
        other = self._coerce(other)
        out = {}
        get = out.get
        right = other.numerators.items()
        for e1, n1 in self.numerators.items():
            for e2, n2 in right:
                key = tuple(map(_add, e1, e2))
                out[key] = get(key, 0) + n1 * n2
        if 0 in out.values():
            out = {e: n for e, n in out.items() if n}
        return _reduced(
            self.variables, out, self.denominator * other.denominator
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        n = _integer(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n) if n else self._coerce(1)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of polynomial by zero")
            return self * (Fraction(1) / other)
        if isinstance(other, MultiPoly):
            return self._exact_divide(other)
        return NotImplemented

    def _exact_divide(self, divisor):
        """Exact division; raises ExactDivisionError on any remainder.

        Both numerator polynomials are made primitive first. By Gauss's
        lemma a primitive integer polynomial that divides another over Q
        leaves a primitive integer quotient, so every step of the
        division is an exact int division, and one that is not shows
        there is a remainder. Single-divisor reduction under graded-lex
        order is a normal form for the principal ideal, so remainder 0 is
        equivalent to divisibility. The leading monomial of the remainder
        falls at every step, so each quotient monomial is produced
        exactly once.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division of polynomial by zero")
        if self.is_zero():
            return self
        content = math.gcd(*self.numerators.values())
        div_content = math.gcd(*divisor.numerators.values())
        div_terms = sorted(
            ((e, n // div_content) for e, n in divisor.numerators.items()),
            key=lambda kv: _grlex_key(kv[0]),
        )
        lead_e, lead_c = div_terms[-1]
        quotient = {}
        rem = {e: n // content for e, n in self.numerators.items()}
        while rem:
            e = max(rem, key=_grlex_key)
            q_e = tuple(a - b for a, b in zip(e, lead_e))
            q_c, r = divmod(rem[e], lead_c)
            if r or any(x < 0 for x in q_e):
                raise ExactDivisionError(
                    f"{divisor} does not divide the dividend exactly"
                )
            quotient[q_e] = q_c
            for de, dc in div_terms:
                key = tuple(map(_add, q_e, de))
                if key in rem:
                    s = rem[key] - q_c * dc
                    if s:
                        rem[key] = s
                    else:
                        del rem[key]
                else:
                    rem[key] = -(q_c * dc)
        # The quotient is primitive, so scaling it by a fraction in lowest
        # terms leaves it in lowest terms.
        scale = Fraction(
            content * divisor.denominator, div_content * self.denominator
        )
        k = scale.numerator
        return MultiPoly._trusted(
            self.variables,
            {e: n * k for e, n in quotient.items()},
            scale.denominator,
        )

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (
                self.variables == other.variables
                and self.denominator == other.denominator
                and self.numerators == other.numerators
            )
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __bool__(self):
        return not self.is_zero()

    __hash__ = None

    # calculus and substitution

    def derivative(self, name):
        i = self._index(name)
        out = {}
        for exps, n in self.numerators.items():
            e = exps[i]
            if e == 0:
                continue
            out[exps[:i] + (e - 1,) + exps[i + 1:]] = n * e
        return _reduced(self.variables, out, self.denominator)

    def evaluate(self, values):
        """Evaluate with values from any commutative ring.

        `values` maps every variable name to a ring element supporting
        +, *, ** and multiplication by int and Fraction (an int may be
        added to it from the left). Returns a ring element (a Fraction
        when the polynomial is constant and no value is consulted). Each
        power values[name] ** e is computed once; the terms are summed
        with their int numerators, and the sum is divided by the
        denominator once.
        """
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise AlignmentError(f"missing assignment for {missing!r}")
        powers = {}
        total = None
        for exps, n in self.numerators.items():
            factor = None
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                p = powers.get((i, e))
                if p is None:
                    p = powers[i, e] = values[self.variables[i]] ** e
                factor = p if factor is None else factor * p
            contrib = n if factor is None else factor * n
            total = contrib if total is None else total + contrib
        if total is None:
            for v in values.values():
                return v * 0
            return Fraction(0)
        if isinstance(total, int):
            return Fraction(total, self.denominator)
        if self.denominator == 1:
            return total
        return total * Fraction(1, self.denominator)

    def substitute(self, images, variables=None):
        """Polynomial substitution.

        `images` maps some of this polynomial's variables to MultiPoly
        values over the target variable list (`variables`, defaulting to
        this polynomial's own). Unmapped variables must exist in the
        target list and map to themselves.
        """
        target = tuple(variables) if variables is not None else self.variables
        table = {}
        for name in self.variables:
            if name in images:
                img = images[name]
                if isinstance(img, (int, Fraction)):
                    img = MultiPoly.constant(target, img)
                if img.variables != target:
                    raise AlignmentError(
                        f"image of {name!r} lives over {img.variables!r}, "
                        f"expected {target!r}"
                    )
                table[name] = img
            else:
                table[name] = MultiPoly.variable(name, target)
        result = self.evaluate(table)
        if isinstance(result, (int, Fraction)):
            result = MultiPoly.constant(target, result)
        return result

    def with_variables(self, variables):
        """The same polynomial viewed over a superset variable list."""
        variables = tuple(variables)
        positions = []
        for name in self.variables:
            if name not in variables:
                raise AlignmentError(
                    f"{name!r} missing from target list {variables!r}"
                )
            positions.append(variables.index(name))
        out = {}
        for exps, n in self.numerators.items():
            key = [0] * len(variables)
            for pos, e in zip(positions, exps):
                key[pos] = e
            out[tuple(key)] = n
        _check_distinct(variables)
        return MultiPoly._trusted(variables, out, self.denominator)

    def drop_to_variables(self, variables):
        """Restrict to a smaller variable list; the dropped variables must
        not occur."""
        variables = tuple(variables)
        keep = []
        for i, name in enumerate(self.variables):
            if name in variables:
                keep.append((variables.index(name), i))
            else:
                if any(e[i] for e in self.numerators):
                    raise AlignmentError(
                        f"{name!r} occurs but is absent from {variables!r}"
                    )
        out = {}
        for exps, n in self.numerators.items():
            key = [0] * len(variables)
            for pos, i in keep:
                key[pos] = exps[i]
            out[tuple(key)] = n
        _check_distinct(variables)
        return MultiPoly._trusted(variables, out, self.denominator)

    def used_variables(self):
        used = set()
        for exps in self.numerators:
            for name, e in zip(self.variables, exps):
                if e:
                    used.add(name)
        return used

    # text form

    def __str__(self):
        if not self.numerators:
            return "0"
        chunks = []
        for exps, c in reversed(self.sorted_terms()):
            mon = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables, exps)
                if e
            )
            if not mon:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mon
            else:
                body = f"{abs(c)}*{mon}"
            sign = "-" if c < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"MultiPoly({self.variables!r}, {str(self)!r})"

    @classmethod
    def parse(cls, text, variables):
        """Parse an expression built from integers, the listed variable
        names, +, -, *, ^ and parentheses. A / is accepted for rational
        constants (numerator and denominator must be constant)."""
        return _Parser(text, tuple(variables)).parse()


class _Parser:
    """Recursive-descent parser for the small polynomial grammar."""

    def __init__(self, text, variables):
        self.text = text
        self.variables = variables
        self.pos = 0

    def parse(self):
        result = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise PolyParseError(
                f"trailing input at offset {self.pos}: {self.text[self.pos:]!r}"
            )
        return result

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def _expr(self):
        sign = 1
        while self._peek() in ("+", "-"):
            if self.text[self.pos] == "-":
                sign = -sign
            self.pos += 1
        result = self._term() * sign
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                result = result + self._term()
            elif ch == "-":
                self.pos += 1
                result = result - self._term()
            else:
                return result

    def _term(self):
        result = self._factor()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                result = result * self._factor()
            elif ch == "/":
                self.pos += 1
                divisor = self._factor()
                if not divisor.is_constant():
                    raise PolyParseError(
                        "only constant divisors are allowed in expressions"
                    )
                value = divisor.constant_value()
                if not value:
                    raise PolyParseError("division by zero in expression")
                result = result * (Fraction(1) / value)
            else:
                return result

    def _factor(self):
        sign = 1
        while self._peek() == "-":
            self.pos += 1
            sign = -sign
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdecimal():
                self.pos += 1
            if start == self.pos:
                raise PolyParseError(f"expected exponent at offset {start}")
            base = base ** int(self.text[start:self.pos])
        return base * sign

    def _atom(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            raise PolyParseError("unexpected end of expression")
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            if self._peek() != ")":
                raise PolyParseError(f"missing ')' at offset {self.pos}")
            self.pos += 1
            return inner
        if ch.isdecimal():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdecimal():
                self.pos += 1
            return MultiPoly.constant(self.variables, int(self.text[start:self.pos]))
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in self.variables:
                raise PolyParseError(
                    f"unknown symbol {name!r}; declared variables: "
                    f"{', '.join(self.variables)}"
                )
            return MultiPoly.variable(name, self.variables)
        raise PolyParseError(f"unexpected character {ch!r} at offset {self.pos}")


def _elem_is_zero(c):
    return c == 0


def _domain_zero(sample):
    return sample * 0


class UniPoly(Frozen):
    """Dense univariate polynomial over a generic coefficient domain.

    Coefficients are stored ascending (index = degree). The zero polynomial
    keeps a single explicit zero coefficient so a domain zero is always on
    hand.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        while len(coeffs) > 1 and _elem_is_zero(coeffs[-1]):
            coeffs.pop()
        if len(coeffs) - 1 > MAX_UNIPOLY_DEGREE:
            raise DegreeBoundError(
                f"degree {len(coeffs) - 1} exceeds bound {MAX_UNIPOLY_DEGREE}"
            )
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self):
        if len(self.coeffs) == 1 and _elem_is_zero(self.coeffs[0]):
            return -1
        return len(self.coeffs) - 1

    def is_zero(self):
        return self.degree < 0

    def leading(self):
        return self.coeffs[-1]

    def coefficient(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _domain_zero(self.coeffs[0])

    def _zero(self):
        return _domain_zero(self.coeffs[0])

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        za, zb = _domain_zero(a[0]), _domain_zero(b[0])
        for i in range(n):
            ca = a[i] if i < len(a) else za
            cb = b[i] if i < len(b) else zb
            if not ca == cb:
                return False
        return True

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        z = self._zero()
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else z
            b = other.coeffs[i] if i < len(other.coeffs) else z
            out.append(a + b)
        return UniPoly(out)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero() or other.is_zero():
                return UniPoly([self._zero()])
            z = self._zero()
            out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if _elem_is_zero(a):
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return UniPoly(out)
        # scalar from the coefficient domain
        return UniPoly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n):
        n = _integer(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n) if n else UniPoly([self.coeffs[0] ** 0])

    def derivative(self):
        if len(self.coeffs) == 1:
            return UniPoly([self._zero()])
        return UniPoly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def evaluate(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return acc

    def shifted(self, k):
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("negative shift")
        z = self._zero()
        return UniPoly([z] * k + list(self.coeffs))

    def divmod(self, other):
        """Quotient and remainder; requires invertible leading coefficient
        (field-valued coefficients such as Fraction)."""
        if not isinstance(other, UniPoly):
            raise TypeError("divmod expects a UniPoly divisor")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        z = self._zero()
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.coeffs[-1]
        if len(rem) - 1 < dn:
            return UniPoly([z]), UniPoly(rem)
        quot = [z] * (len(rem) - dn)
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k]
            if _elem_is_zero(c):
                continue
            q = c / lead
            quot[k - dn] = q
            for j in range(dn + 1):
                rem[k - dn + j] = rem[k - dn + j] - q * other.coeffs[j]
        return UniPoly(quot), UniPoly(rem[:dn] if dn else [z])

    def __divmod__(self, other):
        return self.divmod(other)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __str__(self, var="x"):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if _elem_is_zero(c):
                continue
            if k == 0:
                parts.append(f"({c})")
            elif k == 1:
                parts.append(f"({c})*{var}")
            else:
                parts.append(f"({c})*{var}^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"UniPoly<deg {self.degree}>({self.__str__()})"


def _exact_elem_quotient(num, den):
    """Exact division of domain elements, with an int fast path."""
    if isinstance(den, int):
        if den == 1:
            return num
        if isinstance(num, int):
            q, r = divmod(num, den)
            if r:
                raise ExactDivisionError("inexact integer division")
            return q
        den = Fraction(den)
    if isinstance(num, int) and isinstance(den, Fraction):
        num = Fraction(num)
    return num / den


def _bareiss_determinant(matrix):
    """Fraction-free determinant of a square matrix over an integral
    domain. Mutates its (list-of-lists) argument."""
    n = len(matrix)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if _elem_is_zero(matrix[k][k]):
            pivot_row = None
            for i in range(k + 1, n):
                if not _elem_is_zero(matrix[i][k]):
                    pivot_row = i
                    break
            if pivot_row is None:
                return _domain_zero(matrix[k][k])
            matrix[k], matrix[pivot_row] = matrix[pivot_row], matrix[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = matrix[k][k] * matrix[i][j] - matrix[i][k] * matrix[k][j]
                matrix[i][j] = _exact_elem_quotient(num, prev)
            matrix[i][k] = _domain_zero(matrix[i][k])
        prev = matrix[k][k]
    return matrix[n - 1][n - 1] * sign


def resultant(f, g):
    """Resultant of two univariate polynomials over a shared integral
    domain, via the Sylvester matrix and Bareiss elimination."""
    if not isinstance(f, UniPoly) or not isinstance(g, UniPoly):
        raise TypeError("resultant expects UniPoly inputs")
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    m, n = f.degree, g.degree
    one = f.coeffs[-1] ** 0
    if m == 0 and n == 0:
        return one
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    z = _domain_zero(f.coeffs[0])
    size = m + n
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    rows = []
    for i in range(n):
        rows.append([z] * i + fd + [z] * (size - m - 1 - i))
    for i in range(m):
        rows.append([z] * i + gd + [z] * (size - n - 1 - i))
    return _bareiss_determinant(rows)


def _residue(value, q):
    """The image of an exact rational in Z/qZ, as an int in range(q), for
    q a prime or a prime's square. A denominator divisible by q raises
    ZeroDivisionError (one that is otherwise not a unit mod q, ValueError),
    and anything but an exact rational TypeError (see `_rational`)."""
    if type(value) is int:
        return value % q
    value = _rational(value)
    den = value.denominator % q
    if not den:
        raise ZeroDivisionError(
            f"denominator {value.denominator} is divisible by {q}"
        )
    return value.numerator * pow(den, -1, q) % q


class Jet1(Frozen):
    """First-order jet over Z/qZ, q = MODULUS = 2^61 - 1 (prime): a value
    plus its first partials with respect to a fixed tuple of tracked
    parameters, all reduced mod q. Arithmetic follows the product and
    quotient rules exactly in Z/qZ.

    Why reduction is sound. Evaluate a rational function with jets at a
    rational point whose denominators, and the denominators met on the
    way (divisors, scalars), are units mod q. Then every rational number
    involved lies in the local ring Z_(q), and reduction mod q is a ring
    map from Z_(q) onto Z/qZ that commutes with +, -, *, / and with
    differentiation. So the jet's value and partials are the images mod q
    of the exact rational value and partials. A division by a jet whose
    value is 0 mod q, or a rational whose denominator is a multiple of q,
    raises ZeroDivisionError even if the exact quotient exists; callers
    settle such points over Q.

    Canonical form: `value` is an int in range(q) and `partials` a tuple
    of such ints. The public constructor reduces int and Fraction input
    mod q (a denominator divisible by q raises ZeroDivisionError) and
    refuses anything else (bool too) with TypeError; the class's own
    arithmetic preserves the form and hands its results to `_trusted`,
    which skips the reduction. Every operation reads MODULUS when it runs.
    """

    MODULUS = (1 << 61) - 1

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        q = self.MODULUS
        object.__setattr__(self, "value", _residue(value, q))
        object.__setattr__(
            self, "partials", tuple(_residue(p, q) for p in partials)
        )

    @classmethod
    def _trusted(cls, value, partials):
        """An instance from data already in canonical form, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "partials", partials)
        return self

    @classmethod
    def constant(cls, value, n_tracked):
        return cls(value, (0,) * n_tracked)

    @classmethod
    def tracked(cls, value, index, n_tracked):
        partials = [0] * n_tracked
        partials[index] = 1
        return cls(value, partials)

    def _coerce(self, other):
        if isinstance(other, Jet1):
            if len(other.partials) != len(self.partials):
                raise AlignmentError("jets track different parameter lists")
            return other
        if isinstance(other, (int, Fraction)):
            return Jet1._trusted(
                _residue(other, self.MODULUS), (0,) * len(self.partials)
            )
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = self.MODULUS
        return Jet1._trusted(
            (self.value + other.value) % q,
            tuple((a + b) % q for a, b in zip(self.partials, other.partials)),
        )

    __radd__ = __add__

    def __neg__(self):
        q = self.MODULUS
        return Jet1._trusted(
            -self.value % q, tuple(-p % q for p in self.partials)
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        q = self.MODULUS
        # Jet1 first, as in MultiPoly.__mul__: an isinstance test against
        # Fraction goes through the ABC machinery.
        if not isinstance(other, Jet1):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            k = _residue(other, q)
            return Jet1._trusted(
                self.value * k % q, tuple(p * k % q for p in self.partials)
            )
        other = self._coerce(other)
        a, b = self.value, other.value
        return Jet1._trusted(
            a * b % q,
            tuple(
                (a * db + da * b) % q
                for da, db in zip(self.partials, other.partials)
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.value:
            raise ZeroDivisionError("jet division by a value that is 0 mod q")
        q = self.MODULUS
        inv = pow(other.value, -1, q)
        v = self.value * inv % q
        return Jet1._trusted(
            v,
            tuple(
                (da - v * db) * inv % q
                for da, db in zip(self.partials, other.partials)
            ),
        )

    def __rtruediv__(self, other):
        return Jet1.constant(other, len(self.partials)) / self

    def __pow__(self, n):
        n = _integer(n)
        if n < 0:
            return (1 / self) ** (-n)
        return _power(self, n) if n else Jet1.constant(1, len(self.partials))

    def __eq__(self, other):
        if isinstance(other, Jet1):
            return self.value == other.value and self.partials == other.partials
        if isinstance(other, (int, Fraction)):
            return self.value == _residue(other, self.MODULUS) and not any(
                self.partials
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Jet1({self.value}, {self.partials})"


def jet_point(point, tracked):
    """Lift a rational point to a jet-valued point: tracked parameters get
    unit derivative vectors, the rest are constants."""
    tracked = list(tracked)
    n = len(tracked)
    lifted = {}
    for name, value in point.items():
        if name in tracked:
            lifted[name] = Jet1.tracked(value, tracked.index(name), n)
        else:
            lifted[name] = Jet1.constant(value, n)
    return lifted


def jet_eval(p, point, tracked):
    """Evaluate a MultiPoly to a Jet1: value plus partials with respect to
    the tracked symbols, all mod Jet1.MODULUS."""
    for name in tracked:
        if name not in point:
            raise AlignmentError(f"tracked symbol {name!r} has no assignment")
    lifted = jet_point(point, tracked)
    result = p.evaluate(lifted)
    if isinstance(result, (int, Fraction)):
        return Jet1.constant(result, len(tracked))
    return result


def _integral_row(row, q):
    """A row of exact rationals scaled by the lcm of its denominators
    (which keeps its span over Q), then reduced mod q."""
    row = [_rational(c) for c in row]
    den = math.lcm(*(c.denominator for c in row))
    return [c.numerator * (den // c.denominator) % q for c in row]


def rational_matrix_rank(rows):
    """Rank over Z/qZ, q = Jet1.MODULUS, of a matrix of ints and
    Fractions, by Gaussian elimination mod q.

    Each row is first scaled to integers by the lcm of its denominators,
    which leaves the rank over Q unchanged. A minor of the integer matrix
    that is nonzero mod q is a nonzero integer, so the result is a lower
    bound on the rank over Q, and equal to it unless q divides every
    nonzero minor of that size. In particular it is exact whenever the
    nonzero minors are smaller than q in absolute value. Jet partials,
    which are already residues mod q, pass through unchanged.
    """
    q = Jet1.MODULUS
    work = [_integral_row(row, q) for row in rows]
    if not work:
        return 0
    rank = 0
    for col in range(len(work[0])):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, q)
        top = [c * inv % q for c in work[rank]]
        for r in range(rank + 1, len(work)):
            factor = work[r][col]
            if factor:
                work[r] = [(a - factor * b) % q for a, b in zip(work[r], top)]
        rank += 1
        if rank == len(work):
            break
    return rank
