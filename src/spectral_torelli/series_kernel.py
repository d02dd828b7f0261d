"""Truncated Laurent series in one time variable with exact polynomial
coefficients, plus the transcribed three-parameter Laurent solution of the
degree-9/2 Garnier flow and the machinery to compose Hamiltonians with it.

A series is known on a window [valuation, truncation); everything at or
beyond the truncation is unknown, never silently zero. Compositions account
for the unknown tails by carrying explicit placeholder symbols for them and
reporting a coefficient only when no placeholder survives in it.
"""

import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from ._record import Frozen, Record
from .errors import AlignmentError, TruncationError
from .exact_algebra import MultiPoly

# effectively +infinity for truncation bookkeeping of exactly-known series
EXACT = 10 ** 9

SERIES_VARIABLES = ("alpha", "beta", "gamma", "s1", "s2")
PHASE_VARIABLES = ("q1", "p1", "q2", "p2")
HAMILTONIAN_VARIABLES = PHASE_VARIABLES + ("s1", "s2")

_CANONICAL_PAIRS = (("q1", "p1"), ("q2", "p2"))


def _clamp(n):
    return EXACT if n >= EXACT else n


class TruncatedSeries(Frozen):
    """Laurent series known modulo O(t^truncation).

    Coefficients are MultiPoly over a fixed variable list; exponents absent
    from the map but below the truncation are exact zeros.
    """

    __slots__ = ("variables", "coefficients", "truncation")

    def __init__(self, variables, coefficients, truncation):
        variables = tuple(variables)
        truncation = _clamp(int(truncation))
        clean = {}
        for exp, poly in coefficients.items():
            exp = int(exp)
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
            if not poly.is_zero():
                clean[exp] = poly
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "coefficients", clean)
        object.__setattr__(self, "truncation", truncation)

    @classmethod
    def exact_constant(cls, variables, value):
        return cls(variables, {0: value}, EXACT)

    @classmethod
    def exact_zero(cls, variables):
        return cls(variables, {}, EXACT)

    def valuation(self):
        """Order of the lowest known nonzero term; equals the truncation
        when no nonzero term is known (lower bound semantics)."""
        if not self.coefficients:
            return self.truncation
        return min(self.coefficients)

    def is_known_zero(self):
        return not self.coefficients

    def coefficient(self, exp):
        if exp >= self.truncation:
            raise TruncationError(
                f"coefficient of t^{exp} is beyond the computed window "
                f"O(t^{self.truncation})"
            )
        return self.coefficients.get(exp, MultiPoly.zero(self.variables))

    def known_exponents(self):
        return sorted(self.coefficients)

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
        out = {e: c for e, c in self.coefficients.items() if e < trunc}
        for e, d in other.coefficients.items():
            if e < trunc:
                out[e] = out[e] + d if e in out else d
        return TruncatedSeries(self.variables, out, trunc)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(
            self.variables,
            {e: -c for e, c in self.coefficients.items()},
            self.truncation,
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        for factor in (self, other):
            if factor.truncation >= EXACT and not factor.coefficients:
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
        out = {}
        for e1, c1 in self.coefficients.items():
            for e2, c2 in other.coefficients.items():
                e = e1 + e2
                if e < trunc:
                    out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return TruncatedSeries(self.variables, out, trunc)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative series power is not supported")
        if n == 0:
            return TruncatedSeries.exact_constant(self.variables, 1)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def differentiate(self):
        """d/dt: c*t^k maps to k*c*t^(k-1)."""
        out = {}
        for exp, c in self.coefficients.items():
            if exp == 0:
                continue
            out[exp - 1] = c * exp
        trunc = EXACT if self.truncation >= EXACT else self.truncation - 1
        return TruncatedSeries(self.variables, out, trunc)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.truncation == other.truncation
            and self.coefficients == other.coefficients
        )

    __hash__ = None

    def agrees_with(self, other):
        """Equality of all coefficients on the shared known window."""
        self._check(other)
        trunc = min(self.truncation, other.truncation)
        return all(
            self.coefficient(e) == other.coefficient(e)
            for e in set(self.coefficients) | set(other.coefficients)
            if e < trunc
        )

    def __str__(self):
        parts = []
        for exp in self.known_exponents():
            c = self.coefficients[exp]
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


def _tail_symbol(name, exp):
    tag = str(exp).replace("-", "m")
    return f"_tail_{name}_{tag}"


def substitute_hamiltonian(H, sol, max_order=4):
    """Compose a phase-space polynomial with a Laurent solution.

    Returns the composed series with exact coefficients. The reported
    truncation is honest: a coefficient is included only if it is fully
    determined by the known windows of the input series. Orders that would
    feel the unknown tails are cut off, which is detected by extending each
    input series with placeholder symbols for its unknown coefficients and
    checking that none survives.
    """
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

    # Soundness window: a tail coefficient of factor v in a monomial enters
    # the composition at order >= (its exponent) + the valuation of the
    # rest of the monomial. Placeholders must cover every exponent that
    # could reach below max_order.
    rests = []
    for exps in H.terms:
        phase = [
            (valuations[v], e) for v, e in zip(H.variables, exps)
            if e and v in valuations
        ]
        if phase:
            rests.append(sum(o * e for o, e in phase) - max(o for o, _ in phase))
    if not rests:
        value = H.with_variables(tuple(sorted(set(base) | set(H.variables))))
        value = value.drop_to_variables(base)
        return TruncatedSeries(base, {0: value}, EXACT)

    tail_top = max_order - min(rests)
    tails = {
        name: range(sol.series(name).truncation, tail_top)
        for name in PHASE_VARIABLES
    }
    ext = base + tuple(
        _tail_symbol(name, exp) for name in PHASE_VARIABLES for exp in tails[name]
    )
    # declared but unused variables outside base still need a value
    values = {
        v: TruncatedSeries.exact_constant(
            ext, MultiPoly.variable(v, ext) if v in base else 0
        )
        for v in H.variables
    }
    for name in PHASE_VARIABLES:
        s = sol.series(name)
        window = {e: c.with_variables(ext) for e, c in s.coefficients.items()}
        for exp in tails[name]:
            window[exp] = MultiPoly.variable(_tail_symbol(name, exp), ext)
        values[name] = TruncatedSeries(ext, window, max(tail_top, s.truncation))
    composed = H.evaluate(values)

    placeholders = set(ext[len(base):])
    truncation = min(max_order, composed.truncation)
    for exp in composed.known_exponents():
        if exp >= truncation:
            break
        if composed.coefficients[exp].used_variables() & placeholders:
            truncation = exp
            break
    determined = {
        e: c.drop_to_variables(base)
        for e, c in composed.coefficients.items()
        if e < truncation
    }
    result = TruncatedSeries(base, determined, truncation)
    if result.is_known_zero():
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
