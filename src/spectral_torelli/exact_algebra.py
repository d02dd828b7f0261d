"""Exact polynomial arithmetic: rationals, sparse multivariate polynomials,
dense univariate polynomials over a pluggable coefficient domain, resultants
via fraction-free elimination, and first-order jets.

Coefficients are `fractions.Fraction` throughout the multivariate layer.
The univariate layer is domain-generic: anything with ring arithmetic works
as a coefficient (Fraction, MultiPoly, Jet1, finite-field elements), which
is what the resultant and discriminant routines rely on.
"""

import operator
from fractions import Fraction

from ._record import Frozen
from .errors import (
    AlignmentError,
    DegreeBoundError,
    ExactDivisionError,
    PolyParseError,
)

Rational = Fraction

MAX_UNIPOLY_DEGREE = 128


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _grlex_key(exponents):
    return (sum(exponents), exponents)


def _check_distinct(variables):
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable in {variables!r}")


_add = operator.add


class MultiPoly(Frozen):
    """Sparse multivariate polynomial over Q.

    Terms are stored as a map from exponent tuples to nonzero Fractions.
    Instances are treated as immutable; no operation mutates its operands.

    Canonical form: `variables` is a tuple of distinct names, and every
    key of `terms` is a tuple of `len(variables)` non-negative ints mapped
    to a nonzero `Fraction`. The public constructor establishes it from
    any input; the class's own arithmetic preserves it and hands its
    results to `_trusted`, which skips the checks.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        _check_distinct(variables)
        clean = {}
        for exponents, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if not coeff:
                continue
            exponents = tuple(int(e) for e in exponents)
            if len(exponents) != len(variables):
                raise ValueError(
                    f"exponent vector {exponents!r} does not match "
                    f"variables {variables!r}"
                )
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents!r}")
            clean[exponents] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, variables, terms):
        """An instance from data already in canonical form, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        return self

    # construction helpers

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): _as_fraction(value)})

    @classmethod
    def variable(cls, name, variables):
        variables = tuple(variables)
        if name not in variables:
            raise AlignmentError(f"{name!r} is not among {variables!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: Fraction(1)})

    # predicates and accessors

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        """The value of a constant polynomial, as a Fraction."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        i = self._index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coefficient_of(self, name, power):
        """Coefficient of name**power, as a MultiPoly over the remaining
        variables."""
        i = self._index(name)
        rest = self.variables[:i] + self.variables[i + 1:]
        picked = {}
        for exps, c in self.terms.items():
            if exps[i] == power:
                picked[exps[:i] + exps[i + 1:]] = c
        return MultiPoly._trusted(rest, picked)

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
            value = _as_fraction(other)
            terms = {(0,) * len(self.variables): value} if value else {}
            return MultiPoly._trusted(self.variables, terms)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in out:
                s = out[exps] + c
                if s:
                    out[exps] = s
                else:
                    del out[exps]
            else:
                out[exps] = c
        return MultiPoly._trusted(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if not other:
                return MultiPoly._trusted(self.variables, {})
            return MultiPoly._trusted(
                self.variables, {e: c * other for e, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(_add, e1, e2))
                if key in out:
                    s = out[key] + c1 * c2
                    if s:
                        out[key] = s
                    else:
                        del out[key]
                else:
                    out[key] = c1 * c2
        return MultiPoly._trusted(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self._coerce(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if not other:
                raise ZeroDivisionError("division of polynomial by zero")
            return self * (Fraction(1) / other)
        if isinstance(other, MultiPoly):
            return self._exact_divide(other)
        return NotImplemented

    def _exact_divide(self, divisor):
        """Exact division; raises ExactDivisionError on any remainder.

        Single-divisor reduction under graded-lex order is a normal form
        for the principal ideal, so remainder 0 is equivalent to
        divisibility. The leading monomial of the remainder falls at every
        step, so each quotient monomial is produced exactly once.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division of polynomial by zero")
        if self.is_zero():
            return self
        div_terms = divisor.sorted_terms()
        lead_e, lead_c = div_terms[-1]
        quotient = {}
        rem = dict(self.terms)
        while rem:
            e = max(rem, key=_grlex_key)
            c = rem[e]
            q_e = tuple(a - b for a, b in zip(e, lead_e))
            if any(x < 0 for x in q_e):
                raise ExactDivisionError(
                    f"{divisor} does not divide the dividend exactly"
                )
            q_c = c / lead_c
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
        return MultiPoly._trusted(self.variables, quotient)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.variables == other.variables and self.terms == other.terms
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
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            out[exps[:i] + (e - 1,) + exps[i + 1:]] = c * e
        return MultiPoly._trusted(self.variables, out)

    def evaluate(self, values):
        """Evaluate with values from any commutative ring.

        `values` maps every variable name to a ring element supporting
        +, *, ** and multiplication by Fraction. Returns a ring element
        (a Fraction when the polynomial is constant and no value is
        consulted).
        """
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise AlignmentError(f"missing assignment for {missing!r}")
        total = None
        for exps, c in self.sorted_terms():
            factor = None
            for name, e in zip(self.variables, exps):
                if e == 0:
                    continue
                p = values[name] ** e
                factor = p if factor is None else factor * p
            contrib = c if factor is None else factor * c
            total = contrib if total is None else total + contrib
        if total is None:
            for v in values.values():
                return v * 0
            return Fraction(0)
        return total

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
        for exps, c in self.terms.items():
            key = [0] * len(variables)
            for pos, e in zip(positions, exps):
                key[pos] = e
            out[tuple(key)] = c
        _check_distinct(variables)
        return MultiPoly._trusted(variables, out)

    def drop_to_variables(self, variables):
        """Restrict to a smaller variable list; the dropped variables must
        not occur."""
        variables = tuple(variables)
        keep = []
        for i, name in enumerate(self.variables):
            if name in variables:
                keep.append((variables.index(name), i))
            else:
                if any(e[i] for e in self.terms):
                    raise AlignmentError(
                        f"{name!r} occurs but is absent from {variables!r}"
                    )
        out = {}
        for exps, c in self.terms.items():
            key = [0] * len(variables)
            for pos, i in keep:
                key[pos] = exps[i]
            out[tuple(key)] = c
        _check_distinct(variables)
        return MultiPoly._trusted(variables, out)

    def used_variables(self):
        used = set()
        for exps in self.terms:
            for name, e in zip(self.variables, exps):
                if e:
                    used.add(name)
        return used

    # text form

    def __str__(self):
        if not self.terms:
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
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
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
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
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
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                break
            base = base * base
        if result is None:
            one = self.coeffs[0] ** 0
            return UniPoly([one])
        return result

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


def discriminant(f):
    """disc(f) = (-1)^(d(d-1)/2) * Res(f, f') / lc(f).

    A derivative that vanishes identically (possible over F_p) means every
    root is repeated, so the discriminant is zero.
    """
    if not isinstance(f, UniPoly):
        raise TypeError("discriminant expects a UniPoly")
    d = f.degree
    if d < 2:
        raise ValueError("discriminant needs degree >= 2")
    fp = f.derivative()
    if fp.is_zero():
        return _domain_zero(f.coeffs[0])
    res = resultant(f, fp)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    value = res * sign
    lead = f.leading()
    if isinstance(value, MultiPoly):
        return value / lead
    if isinstance(value, int) and isinstance(lead, int):
        return _exact_elem_quotient(value, lead)
    return value / lead


class Jet1(Frozen):
    """First-order jet: a value plus exact first partials with respect to
    a fixed tuple of tracked parameters. Arithmetic follows the product
    and quotient rules exactly.

    Canonical form: `value` is a `Fraction` and `partials` a tuple of
    `Fraction`s. The public constructor coerces any exact rationals to
    it; the class's own arithmetic preserves it and hands its results to
    `_trusted`, which skips the coercion.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        object.__setattr__(self, "value", _as_fraction(value))
        object.__setattr__(
            self, "partials", tuple(_as_fraction(p) for p in partials)
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
        return cls(value, (Fraction(0),) * n_tracked)

    @classmethod
    def tracked(cls, value, index, n_tracked):
        partials = [Fraction(0)] * n_tracked
        partials[index] = Fraction(1)
        return cls(value, partials)

    def _coerce(self, other):
        if isinstance(other, Jet1):
            if len(other.partials) != len(self.partials):
                raise AlignmentError("jets track different parameter lists")
            return other
        if isinstance(other, (int, Fraction)):
            return Jet1._trusted(
                _as_fraction(other), (Fraction(0),) * len(self.partials)
            )
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet1._trusted(
            self.value + other.value,
            tuple(map(_add, self.partials, other.partials)),
        )

    __radd__ = __add__

    def __neg__(self):
        return Jet1._trusted(-self.value, tuple(-p for p in self.partials))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Jet1._trusted(
                self.value * other, tuple(p * other for p in self.partials)
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet1._trusted(
            self.value * other.value,
            tuple(
                self.value * db + da * other.value
                for da, db in zip(self.partials, other.partials)
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.value:
            raise ZeroDivisionError("jet division by zero value")
        v = self.value / other.value
        return Jet1._trusted(
            v,
            tuple(
                (da - v * db) / other.value
                for da, db in zip(self.partials, other.partials)
            ),
        )

    def __rtruediv__(self, other):
        return Jet1.constant(other, len(self.partials)) / self

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return (1 / self) ** (-n)
        result = Jet1.constant(1, len(self.partials))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Jet1):
            return self.value == other.value and self.partials == other.partials
        if isinstance(other, (int, Fraction)):
            return self.value == other and not any(self.partials)
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
    """Evaluate a MultiPoly to a Jet1: value plus exact partials with
    respect to the tracked symbols."""
    for name in tracked:
        if name not in point:
            raise AlignmentError(f"tracked symbol {name!r} has no assignment")
    lifted = jet_point(point, tracked)
    result = p.evaluate(lifted)
    if isinstance(result, (int, Fraction)):
        return Jet1.constant(result, len(tracked))
    return result


def rational_matrix_rank(rows):
    """Rank of a matrix of Fractions by exact Gaussian elimination."""
    work = [[_as_fraction(c) for c in row] for row in rows]
    if not work:
        return 0
    n_cols = len(work[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = Fraction(1) / work[row][col]
        work[row] = [c * inv for c in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
        rank += 1
        row += 1
        if row == len(work):
            break
    return rank
