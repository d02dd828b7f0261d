"""Truncated Laurent series in one time variable with exact polynomial
coefficients, plus the transcribed three-parameter Laurent solution of the
degree-9/2 Garnier flow and the machinery to compose Hamiltonians with it.

A series is known on a window [valuation, truncation); everything at or
beyond the truncation is unknown, never silently zero. Its terms are one
flat fraction-free map, which a product cuts at the truncation inside its
loop; MultiPoly coefficients are built only on access. Compositions
account for the unknown tails with one placeholder symbol per input
series and report a coefficient only when no placeholder survives in it.
"""

import json
import math
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from ._record import Record
from .errors import AlignmentError, TruncationError
from .exact_algebra import (
    FIELD_BITS,
    MultiPoly,
    _bounded,
    _integer,
    _power,
    _reduced,
    _unpack,
)

# effectively +infinity for truncation bookkeeping of exactly-known series
EXACT = 10 ** 9

SERIES_VARIABLES = ("alpha", "beta", "gamma", "s1", "s2")
PHASE_VARIABLES = ("q1", "p1", "q2", "p2")
HAMILTONIAN_VARIABLES = PHASE_VARIABLES + ("s1", "s2")

_CANONICAL_PAIRS = (("q1", "p1"), ("q2", "p2"))


def _clamp(n):
    return EXACT if n >= EXACT else n


class TruncatedSeries(Record):
    """Laurent series known modulo O(t^truncation).

    Stored as `MultiPoly` is: a private map from packed keys to nonzero
    ints over one positive int `denominator`, in lowest terms, so the
    fields compare as the series do; absent keys below the truncation are
    exact zeros. The key of t^k * monomial is (k << FIELD_BITS * n) plus
    the monomial's `MultiPoly` key, n = len(variables): the signed
    t-exponent sits on top and a floor shift reads it back, so sorted keys
    run by t-exponent and t^k is cut by one comparison with k << FIELD_BITS
    * n. The exponent bound `_top` (not part of the value) follows the
    MultiPoly rule. A product walks the term pairs once, the right factor
    sorted, and leaves each inner loop at the first pair that reaches the
    truncation. `coefficients` (t-exponent -> MultiPoly) is built on
    access, and `coefficient(e)` builds only that one, both from the
    monomial keys as they are. The constructor takes int, Fraction or
    MultiPoly coefficients at int exponents below an int truncation
    (TypeError otherwise, see `_integer`).
    """

    __slots__ = ("variables", "_packed", "denominator", "truncation", "_top")

    def __init__(self, variables, coefficients, truncation):
        variables = tuple(variables)
        truncation = _clamp(_integer(truncation))
        clean = {}
        for exp, poly in coefficients.items():
            exp = _integer(exp)
            if isinstance(poly, (int, Fraction)):
                poly = MultiPoly.constant(variables, poly)
            if poly.variables != variables:
                raise AlignmentError(
                    f"coefficient at t^{exp} lives over {poly.variables!r}, "
                    f"expected {variables!r}"
                )
            if exp >= truncation:
                raise ValueError(
                    f"stored exponent {exp} at or beyond truncation {truncation}"
                )
            clean[exp] = poly
        # coprime over the lcm of lowest-terms denominators, as in MultiPoly
        den = math.lcm(*(poly.denominator for poly in clean.values()))
        shift = FIELD_BITS * len(variables)
        super().__init__(variables, {
            (exp << shift) + k: n * (den // poly.denominator)
            for exp, poly in clean.items() for k, n in poly._packed.items()
        }, den, truncation, max((p._top for p in clean.values()), default=0))

    @classmethod
    def _reduced(cls, variables, packed, denominator, truncation, top):
        """A series from nonzero int numerators over a positive
        denominator, in lowest terms by one content gcd."""
        if denominator != 1:
            g = math.gcd(denominator, *packed.values())
            if g != 1:
                packed = {k: n // g for k, n in packed.items()}
                denominator //= g
        return object.__new__(cls)._set(
            variables, packed, denominator, truncation, top if packed else 0
        )

    def _fields(self):
        # the exponent bound is bookkeeping, not part of the value
        return (self.variables, self._packed, self.denominator,
                self.truncation)

    @classmethod
    def exact_constant(cls, variables, value):
        return cls(variables, {0: value}, EXACT)

    @classmethod
    def exact_zero(cls, variables):
        return cls(variables, {}, EXACT)

    @property
    def _t_shift(self):
        """The bit offset of the t field."""
        return FIELD_BITS * len(self.variables)

    @property
    def coefficients(self):
        """t-exponent -> nonzero MultiPoly coefficient, built on access."""
        return {e: self.coefficient(e) for e in self.known_exponents()}

    def valuation(self):
        """Order of the lowest known nonzero term; equals the truncation
        when no nonzero term is known (lower bound semantics)."""
        if not self._packed:
            return self.truncation
        return min(self._packed) >> self._t_shift

    def is_known_zero(self):
        return not self._packed

    def coefficient(self, exp):
        if exp >= self.truncation:
            raise TruncationError(
                f"coefficient of t^{exp} is beyond the computed window "
                f"O(t^{self.truncation})"
            )
        low = exp << self._t_shift
        high = (exp + 1) << self._t_shift
        nums = {k - low: n for k, n in self._packed.items() if low <= k < high}
        return _reduced(self.variables, nums, self.denominator, self._top)

    def known_exponents(self):
        shift = self._t_shift
        return sorted({k >> shift for k in self._packed})

    def _check(self, other):
        if self.variables != other.variables:
            raise AlignmentError(
                f"coefficient variables differ: {self.variables!r} vs "
                f"{other.variables!r}"
            )

    def _coerce(self, other):
        """An aligned series; int, Fraction and MultiPoly scalars become
        exact constants."""
        if isinstance(other, (int, Fraction, MultiPoly)):
            return TruncatedSeries.exact_constant(self.variables, other)
        if isinstance(other, TruncatedSeries):
            self._check(other)
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        trunc = min(self.truncation, other.truncation)
        cut = trunc << self._t_shift
        den = math.lcm(self.denominator, other.denominator)
        s1, s2 = den // self.denominator, den // other.denominator
        out = {k: n * s1 for k, n in self._packed.items() if k < cut}
        get = out.get
        for k, n in other._packed.items():
            if k < cut:
                out[k] = get(k, 0) + n * s2
        if 0 in out.values():
            out = {k: n for k, n in out.items() if n}
        return TruncatedSeries._reduced(
            self.variables, out, den, trunc, max(self._top, other._top)
        )

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) in (int, Fraction) and other:
            # a nonzero scalar keeps the window; zero (or a bool) goes below
            return TruncatedSeries._reduced(
                self.variables,
                {k: n * other.numerator for k, n in self._packed.items()},
                self.denominator * other.denominator,
                self.truncation,
                self._top,
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        for factor in (self, other):
            if factor.truncation >= EXACT and not factor._packed:
                # zero times an unknown tail is still exactly zero
                return factor
        # the unknown tail of one factor meets the valuation of the other;
        # an exactly known factor has no tail and imposes no bound
        bounds = []
        if self.truncation < EXACT:
            bounds.append(self.truncation + other.valuation())
        if other.truncation < EXACT:
            bounds.append(other.truncation + self.valuation())
        trunc = _clamp(min(bounds)) if bounds else EXACT
        top = _bounded(self._top + other._top)
        # k1 + k2 is below `cut` exactly when its t-exponent is below trunc
        cut = trunc << self._t_shift
        out = {}
        get = out.get
        right = sorted(other._packed.items())
        for k1, n1 in self._packed.items():
            rest = cut - k1
            for k2, n2 in right:
                if k2 >= rest:
                    break
                key = k1 + k2
                out[key] = get(key, 0) + n1 * n2
        if 0 in out.values():
            out = {k: n for k, n in out.items() if n}
        return TruncatedSeries._reduced(
            self.variables, out, self.denominator * other.denominator, trunc,
            top,
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        n = _integer(n)
        if n < 0:
            raise ValueError("negative series power is not supported")
        if n == 0:
            return TruncatedSeries.exact_constant(self.variables, 1)
        return _power(self, n)

    def differentiate(self):
        """d/dt: c*t^k maps to k*c*t^(k-1)."""
        shift = self._t_shift
        one = 1 << shift
        out = {}
        for k, n in self._packed.items():
            exp = k >> shift
            if exp:
                out[k - one] = n * exp
        trunc = EXACT if self.truncation >= EXACT else self.truncation - 1
        return TruncatedSeries._reduced(
            self.variables, out, self.denominator, trunc, self._top
        )

    __hash__ = None

    def agrees_with(self, other):
        """Equality of all coefficients on the shared known window, which
        is where their difference is known."""
        self._check(other)
        return (self - other).is_known_zero()

    def __str__(self):
        parts = []
        for exp, c in self.coefficients.items():
            body = str(c)
            if " " in body:
                body = f"({body})"
            if exp == 0:
                parts.append(body)
            elif exp == 1:
                parts.append(f"{body}*t")
            else:
                parts.append(f"{body}*t^{exp}")
        head = " + ".join(parts) if parts else "0"
        if self.truncation >= EXACT:
            return head
        return f"{head} + O(t^{self.truncation})"

    def __repr__(self):
        return f"TruncatedSeries({self})"


class LaurentSolution(Record):
    """The four phase series q1, p1, q2, p2 of one Laurent solution."""

    __slots__ = ("q1", "p1", "q2", "p2")

    def __init__(self, q1, p1, q2, p2):
        for s in (q1, p1, q2, p2):
            if s.variables != q1.variables:
                raise AlignmentError("phase series over mixed variable lists")
        super().__init__(q1, p1, q2, p2)

    @property
    def variables(self):
        return self.q1.variables

    def series(self, name):
        if name not in PHASE_VARIABLES:
            raise KeyError(name)
        return getattr(self, name)

    def replace(self, **kwargs):
        parts = {name: getattr(self, name) for name in PHASE_VARIABLES}
        parts.update(kwargs)
        return LaurentSolution(**parts)

    def __repr__(self):
        return f"LaurentSolution(variables={list(self.variables)!r})"


@lru_cache(maxsize=1)
def _flow_data():
    raw = (
        resources.files("spectral_torelli.data")
        .joinpath("garnier92_laurent.json")
        .read_text()
    )
    data = json.loads(raw)
    if data.get("schema_version") != 1:
        raise ValueError("unsupported garnier92_laurent.json schema version")
    cvars = tuple(data["coefficient_variables"])
    series = {}
    for name, entry in data["series"].items():
        coeffs = {
            int(exp): MultiPoly.parse(expr, cvars)
            for exp, expr in entry["terms"].items()
        }
        s = TruncatedSeries(cvars, coeffs, entry["truncation"])
        if s.valuation() != entry["lowest"]:
            raise ValueError(f"series {name} does not start at its declared order")
        series[name] = s
    hams = {
        key: MultiPoly.parse(expr, HAMILTONIAN_VARIABLES)
        for key, expr in data["hamiltonians"].items()
    }
    values = {
        key: MultiPoly.parse(expr, cvars)
        for key, expr in data["hamiltonian_values"].items()
    }
    return series, hams, values


def garnier92_solution():
    """The transcribed Laurent solution (q1, p1, q2, p2)."""
    series, _, _ = _flow_data()
    return LaurentSolution(**series)


def garnier92_hamiltonians():
    """The two commuting Hamiltonians as polynomials in
    (q1, p1, q2, p2, s1, s2)."""
    _, hams, _ = _flow_data()
    return hams["H1"], hams["H2"]


def garnier92_hamiltonian_values():
    """The transcribed constant values h1, h2 of the two Hamiltonians on
    the Laurent solution, as polynomials in (alpha, beta, gamma, s1, s2)."""
    _, _, values = _flow_data()
    return values["h1"], values["h2"]


def substitute_hamiltonian(H, sol, max_order=4):
    """Compose a phase-space polynomial with a Laurent solution.

    Returns the composed series with exact coefficients below an honest
    truncation: only orders below the int `max_order` that the known
    input windows determine. TruncationError means the windows determine
    no order at or above the lowest one the composition can reach.

    A tail coefficient of series v enters a monomial at order >= its
    exponent plus the valuation of the rest, so only exponents below
    `tail_top` reach below max_order. A series with truncation k below it
    gets one placeholder `_tail_<v>` at t^k, then zeros up to tail_top,
    and the result stops where a placeholder first survives. By Taylor
    expansion at the known parts K, a tail monomial prod c_{v,j} with
    derivative multiset alpha enters order m as [t^(m - sum j)]
    (d^alpha H)(K) / alpha!, so it first shows up with every j at its
    series' first unknown exponent, and one symbol per series finds the
    same cut. The symbols stay distinct, so that terms of different
    alpha cannot cancel, as they could through one shared symbol.
    """
    max_order = _integer(max_order)
    if not isinstance(H, MultiPoly):
        raise TypeError("substitute_hamiltonian expects a MultiPoly")
    base = sol.variables
    foreign = H.used_variables() - set(PHASE_VARIABLES) - set(base)
    if foreign:
        raise AlignmentError(
            f"Hamiltonian uses symbols outside phase and coefficient "
            f"variables: {sorted(foreign)!r}"
        )
    valuations = {name: sol.series(name).valuation() for name in PHASE_VARIABLES}

    rests, lowest = [], []
    for key in H._packed:
        phase = [
            (valuations[v], e)
            for v, e in zip(H.variables, _unpack(key, len(H.variables)))
            if e and v in valuations
        ]
        lowest.append(sum(o * e for o, e in phase))
        if phase:
            rests.append(lowest[-1] - max(o for o, _ in phase))
    if not rests:
        value = H.with_variables(tuple(sorted(set(base) | set(H.variables))))
        value = value.drop_to_variables(base)
        return TruncatedSeries(base, {0: value}, EXACT)

    tail_top = max_order - min(rests)
    tails = {
        name: f"_tail_{name}" for name in PHASE_VARIABLES
        if sol.series(name).truncation < tail_top
    }
    ext = base + tuple(tails.values())
    # declared but unused variables outside base still need a value
    values = {
        v: TruncatedSeries.exact_constant(
            ext, MultiPoly.variable(v, ext) if v in base else 0
        )
        for v in H.variables if v not in PHASE_VARIABLES
    }
    # the placeholders take the lowest fields of the extended keys, so a
    # key over `base` moves up by `lift` bits
    lift = FIELD_BITS * len(tails)
    t_shift = FIELD_BITS * len(ext)
    placeholder = 1 << lift
    for name in PHASE_VARIABLES:
        s = sol.series(name)
        window = {k << lift: n for k, n in s._packed.items()}
        if name in tails:
            # the placeholder times 1, over the window's denominator
            placeholder >>= FIELD_BITS
            window[(s.truncation << t_shift) + placeholder] = s.denominator
        values[name] = TruncatedSeries._reduced(
            ext, window, s.denominator, max(tail_top, s.truncation),
            max(s._top, 1),
        )
    composed = H.evaluate(values)

    tail_mask = (1 << lift) - 1
    reached = [k >> t_shift for k in composed._packed if k & tail_mask]
    truncation = min(max_order, composed.truncation, *reached)
    cut = truncation << t_shift
    result = TruncatedSeries._reduced(base, {
        k >> lift: n for k, n in composed._packed.items() if k < cut
    }, composed.denominator, truncation, composed._top)
    if result.is_known_zero() and max_order > truncation <= min(lowest):
        raise TruncationError(
            "series truncations are too short to determine any coefficient "
            "of the composition"
        )
    return result


class ResidualCheck(Record):
    """One flow-equation residual and what could be checked about it."""

    __slots__ = ("label", "residual")

    @property
    def unchecked_from(self):
        return self.residual.truncation

    @property
    def vanishes(self):
        return self.residual.is_known_zero()

    def first_nonzero(self):
        exps = self.residual.known_exponents()
        return exps[0] if exps else None

    def describe(self):
        if self.vanishes:
            return (
                f"{self.label}: all computable coefficients vanish "
                f"(unchecked from t^{self.unchecked_from})"
            )
        return (
            f"{self.label}: first nonzero at t^{self.first_nonzero()}, "
            f"coefficient {self.residual.coefficient(self.first_nonzero())}"
        )


class FlowResidualReport(Record):
    """All four Hamilton-flow residuals for one Hamiltonian."""

    __slots__ = ("checks",)

    def __init__(self, checks):
        super().__init__(tuple(checks))

    @property
    def all_zero(self):
        return all(c.vanishes for c in self.checks)

    def check(self, label):
        for c in self.checks:
            if c.label == label:
                return c
        raise KeyError(label)


def verify_hamilton_flow(H, sol, max_order=8):
    """Residuals of the canonical flow of H along the Laurent solution:
    dq/dt - dH/dp and dp/dt + dH/dq for both canonical pairs."""
    checks = []
    for q_name, p_name in _CANONICAL_PAIRS:
        dq = sol.series(q_name).differentiate()
        rhs = substitute_hamiltonian(H.derivative(p_name), sol, max_order)
        checks.append(ResidualCheck(f"d{q_name}/dt - dH/d{p_name}", dq - rhs))
        dp = sol.series(p_name).differentiate()
        rhs = substitute_hamiltonian(H.derivative(q_name), sol, max_order)
        checks.append(ResidualCheck(f"d{p_name}/dt + dH/d{q_name}", dp + rhs))
    return FlowResidualReport(checks)
