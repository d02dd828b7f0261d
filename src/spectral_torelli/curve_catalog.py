"""Spectral curve models.

The catalog maps family identifiers to exact genus-2 models y^2 = f(x)
whose coefficients are polynomials in the family parameters. Quartic
plane covers (two of the families arrive in that shape) are reduced to
genus-2 models by splitting off the branch radical; the reduction clears
denominators with a fixed weight so every output coefficient stays
polynomial in the parameters.
"""

import json
import math
import os
from fractions import Fraction
from functools import lru_cache

from ._record import Frozen, Record
from .errors import (
    AlignmentError,
    BadReductionError,
    BlockedOnDataError,
    DegenerateCurveError,
    DegreeBoundError,
    PolyParseError,
    StructureError,
    UnknownFamilyError,
)
from .exact_algebra import MultiPoly
from .finite_arithmetic import _to_residue, _validated_odd_prime
from .igusa_invariants import binary_sextic_discriminant
from .series_kernel import garnier92_hamiltonians

GAR92 = "Gar9/2"
GAR52_32 = "Gar5/2+3/2"
MAT_I = "MatI"
MAT_III = "MatIII(D8)"
KFS = "KFS4/3+4/3"
KSS = "KSs3/2+5/4"

_ALIASES = {
    "KFS": KFS,
    "MatIII": MAT_III,
}

LAX_PHASE = ("q1", "p1", "q2", "p2")
_LAX_VARS = LAX_PHASE + ("s1", "s2")


class HyperellipticCurve(Frozen):
    """y^2 = f(x) with f squarefree of degree 5 or 6, over Q or F_p.

    The constructor takes rational coefficients. A curve over F_p comes
    only from `reduce_mod_p`: its coefficients are the residues of f as
    plain ints in range(p), and `characteristic` is p."""

    __slots__ = ("coefficients", "degree", "characteristic")

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        if len(coeffs) not in (6, 7):
            raise DegreeBoundError("need 6 or 7 ascending coefficients")
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) == 7 and not coeffs[6]:
            coeffs = coeffs[:6]
        if not coeffs[-1]:
            raise DegenerateCurveError(
                "degree drops below 5: the model is not genus 2"
            )
        self._fill(coeffs, 0)
        if not self.discriminant():
            raise DegenerateCurveError(
                "f has a repeated root: the model is singular"
            )

    @classmethod
    def _over_prime_field(cls, residues, p):
        """The curve with these residues mod p, unchecked: `reduce_mod_p`
        checks the degree and the discriminant."""
        curve = object.__new__(cls)
        curve._fill(residues, p)
        return curve

    def _fill(self, coeffs, characteristic):
        object.__setattr__(self, "coefficients", tuple(coeffs))
        object.__setattr__(self, "degree", len(coeffs) - 1)
        object.__setattr__(self, "characteristic", characteristic)

    def sextic_coefficients(self):
        zero = self.coefficients[0] * 0
        pad = (zero,) * (7 - len(self.coefficients))
        return self.coefficients + pad

    def discriminant(self):
        """The discriminant of f, from the sextic table evaluated on
        plain integers: the coefficients times L, the lcm of their
        denominators (the discriminant is homogeneous of degree 10, so it
        is D(L f) / L^10). Over F_p, L = 1 and the result is the residue
        of D(f) in range(p)."""
        coeffs = self.sextic_coefficients()
        scale = math.lcm(*(c.denominator for c in coeffs))
        scaled = [c.numerator * (scale // c.denominator) for c in coeffs]
        disc = binary_sextic_discriminant(scaled)
        if self.characteristic:
            return disc % self.characteristic
        return Fraction(disc, scale**10)

    def __eq__(self, other):
        if not isinstance(other, HyperellipticCurve):
            return NotImplemented
        return (
            self.characteristic == other.characteristic
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        field = "QQ" if not self.characteristic else f"GF({self.characteristic})"
        return (
            f"HyperellipticCurve(degree={self.degree}, field={field}, "
            f"coefficients={list(self.coefficients)!r})"
        )


class CurveFamily(Frozen):
    """A parameterized genus-2 model: ascending coefficients of f(x) as
    polynomials in the family parameters. Validity (a squarefree f) is
    generic; specialization checks it at each chosen parameter point."""

    __slots__ = ("identifier", "parameters", "coefficients", "degree", "metadata")

    def __init__(self, identifier, parameters, coefficients, *, metadata=None):
        parameters = tuple(parameters)
        lifted = []
        for c in coefficients:
            if isinstance(c, MultiPoly):
                if c.variables != parameters:
                    raise AlignmentError(
                        "coefficient variables differ from the parameter list"
                    )
                lifted.append(c)
            elif isinstance(c, (int, Fraction)):
                lifted.append(MultiPoly.constant(parameters, Fraction(c)))
            else:
                raise AlignmentError(
                    f"cannot use {type(c).__name__} as a family coefficient"
                )
        if len(lifted) not in (6, 7):
            raise DegreeBoundError("need 6 or 7 ascending coefficients")
        if len(lifted) == 7 and lifted[6].is_zero():
            lifted = lifted[:6]
        if lifted[-1].is_zero():
            raise DegenerateCurveError(
                "leading coefficient is identically zero"
            )
        object.__setattr__(self, "identifier", identifier)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "coefficients", tuple(lifted))
        object.__setattr__(self, "degree", len(lifted) - 1)
        object.__setattr__(self, "metadata", dict(metadata or {}))

    def with_identifier(self, identifier, **extra_metadata):
        meta = dict(self.metadata)
        meta.update(extra_metadata)
        return CurveFamily(
            identifier, self.parameters, self.coefficients, metadata=meta
        )

    def sextic_coefficients(self):
        zero = MultiPoly.zero(self.parameters)
        pad = (zero,) * (7 - len(self.coefficients))
        return self.coefficients + pad

    def discriminant_polynomial(self):
        """The discriminant of f as a polynomial in the parameters."""
        return binary_sextic_discriminant(self.sextic_coefficients())

    def specialize(self, values):
        """Substitute parameter values. A full assignment returns a
        validated HyperellipticCurve; a partial one returns the smaller
        family."""
        values = {k: Fraction(v) for k, v in values.items()}
        unknown = sorted(set(values) - set(self.parameters))
        if unknown:
            raise AlignmentError(f"not parameters of this family: {unknown!r}")
        remaining = tuple(p for p in self.parameters if p not in values)
        if remaining:
            coeffs = [
                c.substitute(values, variables=remaining)
                for c in self.coefficients
            ]
            meta = dict(self.metadata)
            if self.identifier:
                meta.setdefault("specialized_from", self.identifier)
            return CurveFamily(None, remaining, coeffs, metadata=meta)
        return HyperellipticCurve(
            [c.evaluate(values) for c in self.coefficients]
        )

    def __repr__(self):
        name = self.identifier or "<anonymous>"
        return (
            f"CurveFamily({name!r}, parameters={list(self.parameters)!r}, "
            f"degree={self.degree})"
        )


class PlaneSpectralCurve(Frozen):
    """Affine plane model F(x, y; parameters) = 0 of a spectral curve."""

    __slots__ = ("polynomial", "x_name", "y_name")

    def __init__(self, polynomial, x_name, y_name):
        if not isinstance(polynomial, MultiPoly):
            raise AlignmentError("polynomial must be a MultiPoly")
        for name in (x_name, y_name):
            if name not in polynomial.variables:
                raise AlignmentError(f"{name!r} is not a model variable")
        object.__setattr__(self, "polynomial", polynomial)
        object.__setattr__(self, "x_name", x_name)
        object.__setattr__(self, "y_name", y_name)

    @property
    def parameters(self):
        skip = {self.x_name, self.y_name}
        return tuple(v for v in self.polynomial.variables if v not in skip)

    def y_coefficient(self, power):
        """Coefficient of y^power, over the base variable and parameters."""
        return self.polynomial.coefficient_of(self.y_name, power)

    def __repr__(self):
        return (
            f"PlaneSpectralCurve(x={self.x_name!r}, y={self.y_name!r}, "
            f"parameters={list(self.parameters)!r})"
        )


def _family_from_strings(identifier, parameters, ascending, degree, metadata):
    coeffs = [MultiPoly.parse(text, parameters) for text in ascending]
    if len(coeffs) != degree + 1:
        raise DegreeBoundError("coefficient count does not match degree")
    return CurveFamily(identifier, parameters, coeffs, metadata=metadata)


@lru_cache(maxsize=None)
def _build_gar92():
    # coefficient frame: the slots of the depressed quintic are the
    # parameters, which is the frame the invariant formulas live in;
    # the conserved-value frame differs by an invertible substitution
    # (see gar92_hamiltonian_frame)
    return _family_from_strings(
        GAR92,
        ("h1", "h2", "s1", "s2"),
        ["h2", "h1", "s2", "s1", "0", "1"],
        5,
        {
            "description": (
                "quintic spectral family of the four-dimensional flow with "
                "one irregular point of rank 9/2, parameterized by its "
                "coefficient slots"
            ),
        },
    )


@lru_cache(maxsize=None)
def gar92_hamiltonian_frame():
    """The same spectral quintic written through the conserved values
    h1, h2 of the commuting Hamiltonian pair and the couplings s1, s2:
    the catalog family after the substitution h1 -> 2*s2^2 - h1,
    h2 -> h2 - s1*s2, s1 -> 3*s2, s2 -> -s1, which is invertible over Q.
    """
    slots = _build_gar92()
    images = {
        name: MultiPoly.parse(text, slots.parameters)
        for name, text in (
            ("h1", "2*s2^2 - h1"),
            ("h2", "h2 - s1*s2"),
            ("s1", "3*s2"),
            ("s2", "-s1"),
        )
    }
    return CurveFamily(
        None,
        slots.parameters,
        [c.substitute(images) for c in slots.coefficients],
        metadata={
            "description": (
                "rank-9/2 spectral quintic in conserved-value coordinates"
            ),
        },
    )


@lru_cache(maxsize=None)
def _build_gar52_32():
    return _family_from_strings(
        GAR52_32,
        ("h1", "h2", "s1", "s2"),
        ["0", "s2", "h2", "h1", "-s1", "1"],
        5,
        {
            "description": (
                "quintic spectral family of the flow with irregular points "
                "of ranks 5/2 and 3/2"
            ),
        },
    )


@lru_cache(maxsize=None)
def _build_kfs():
    return _family_from_strings(
        KFS,
        ("h1", "h2", "s"),
        [
            "h2^2 - 4*s",
            "2*h1*h2",
            "h1^2 - 2*h2",
            "2*h2 - 2*h1",
            "2*h1 + 1",
            "-2",
            "1",
        ],
        6,
        {
            "description": (
                "sextic spectral family of the coupled 4/3 + 4/3 flow; the "
                "generic member has split extra structure, so it serves as "
                "the negative control for invariant independence"
            ),
        },
    )


def mat_i_weierstrass_family(odd_sign=1):
    """Compact sextic model (S^2 - h1 S + h2)^3 + theta^4 s (S^2 - h1 S
    + h2) + odd_sign * theta^6 S. The two sign choices are exchanged by
    S -> -S together with (h1, s) -> (-h1, s) level negation, and are
    generically not isomorphic for fixed parameter values."""
    if odd_sign not in (1, -1):
        raise ValueError("odd_sign must be +1 or -1")
    names = ("x", "h1", "h2", "s", "theta")
    x = MultiPoly.variable("x", names)
    h1 = MultiPoly.variable("h1", names)
    h2 = MultiPoly.variable("h2", names)
    s = MultiPoly.variable("s", names)
    theta = MultiPoly.variable("theta", names)
    t = x * x - h1 * x + h2
    f = t ** 3 + theta ** 4 * s * t + theta ** 6 * x * odd_sign
    coeffs = [f.coefficient_of("x", k) for k in range(7)]
    return CurveFamily(
        MAT_I if odd_sign == 1 else None,
        ("h1", "h2", "s", "theta"),
        coeffs,
        metadata={
            "description": "compact sextic model of the 2x2 degenerate-"
            "quartic-cover family",
            "odd_sign": str(odd_sign),
        },
    )


@lru_cache(maxsize=None)
def _build_mat_i():
    return mat_i_weierstrass_family(1)


@lru_cache(maxsize=None)
def _build_mat_iii():
    fam = quadratic_resolvent_curve(mat_iii_quartic())
    return fam.with_identifier(
        MAT_III,
        description=(
            "branch-radical reduction of the quartic cover with dihedral "
            "symmetry; degree-6 model in the radical coordinate"
        ),
    )


_BUILDERS = {
    GAR92: _build_gar92,
    GAR52_32: _build_gar52_32,
    MAT_I: _build_mat_i,
    MAT_III: _build_mat_iii,
    KFS: _build_kfs,
}


def catalog_ids():
    return (GAR92, GAR52_32, MAT_I, MAT_III, KFS, KSS)


def _resolve_identifier(identifier):
    if identifier in _BUILDERS or identifier == KSS:
        return identifier
    if identifier in _ALIASES:
        return _ALIASES[identifier]
    known = ", ".join(catalog_ids())
    raise UnknownFamilyError(
        f"unknown family {identifier!r}; known identifiers: {known}"
    )


def catalog_get(identifier):
    """The catalog family for an identifier (aliases accepted)."""
    canonical = _resolve_identifier(identifier)
    if canonical == KSS:
        raise BlockedOnDataError(
            f"family {KSS!r} is registered, but no exact spectral "
            "coefficients are available for it; nothing can be computed"
        )
    return _BUILDERS[canonical]()


def catalog_entries():
    """Status listing of every registered family."""
    out = []
    for identifier in catalog_ids():
        try:
            fam = catalog_get(identifier)
        except BlockedOnDataError as exc:
            out.append(
                {
                    "identifier": identifier,
                    "available": False,
                    "note": str(exc),
                }
            )
            continue
        out.append(
            {
                "identifier": identifier,
                "available": True,
                "parameters": list(fam.parameters),
                "degree": fam.degree,
                "description": fam.metadata.get("description", ""),
            }
        )
    return out


def reduce_mod_p(curve, p):
    """Reduce a rational curve modulo an odd prime, requiring good
    reduction: denominators coprime to p, degree preserved, and the
    reduced discriminant nonzero."""
    p = int(p)
    if p == 2:
        raise BadReductionError(
            "p = 2: y^2 = f(x) is inseparable in characteristic 2"
        )
    if curve.characteristic:
        raise AlignmentError("curve is already over a finite field")
    p = _validated_odd_prime(p)
    residues = [_to_residue(c, p) for c in curve.coefficients]
    if not residues[-1]:
        raise BadReductionError(
            f"leading coefficient vanishes modulo {p}: the degree drops"
        )
    reduced = HyperellipticCurve._over_prime_field(residues, p)
    if not reduced.discriminant():
        raise BadReductionError(
            f"the reduction modulo {p} is singular (discriminant is 0)"
        )
    return reduced


def _rational_from_json(value):
    if isinstance(value, bool):
        raise PolyParseError("booleans are not rational numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise PolyParseError(f"bad rational literal {value!r}") from exc
    if isinstance(value, dict):
        try:
            return Fraction(int(value["num"]), int(value["den"]))
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise PolyParseError(
                "rational objects need integer 'num' and 'den'"
            ) from exc
    if isinstance(value, float):
        raise PolyParseError(
            "floats are not accepted: supply exact integers or 'num/den'"
        )
    raise PolyParseError(f"cannot read {type(value).__name__} as a rational")


def load_curve_file(source):
    """Read a curve or curve-family description, either a path to a
    JSON file or an already-parsed dict:

        {"variables": ["h1", ...],
         "f_coefficients": ["poly-expr", ...],
         "degree": 5 | 6}

    `variables` lists the family parameters (empty for a single curve).
    f_coefficients is ascending (constant term first); each entry is an
    expression in the parameters built from integers, +, -, *, ^ and
    parentheses (plain integers and {"num": ..., "den": ...} objects
    are also accepted). Returns a CurveFamily, or a validated
    HyperellipticCurve when there are no parameters.
    """
    if isinstance(source, dict):
        blob = source
    else:
        with open(os.fspath(source), "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    if not isinstance(blob, dict):
        raise PolyParseError("curve file must hold a JSON object")
    for key in ("f_coefficients", "degree"):
        if key not in blob:
            raise PolyParseError(f"curve file lacks {key!r}")
    degree = blob["degree"]
    if degree not in (5, 6):
        raise PolyParseError("degree must be 5 or 6")
    raw = blob["f_coefficients"]
    if not isinstance(raw, list) or len(raw) != degree + 1:
        raise PolyParseError(
            "f_coefficients must list degree + 1 ascending values"
        )
    variables = blob.get("variables", [])
    if not (
        isinstance(variables, list)
        and all(isinstance(v, str) for v in variables)
    ):
        raise PolyParseError("variables must list parameter names")
    params = tuple(variables)

    def entry(value):
        if isinstance(value, str):
            return MultiPoly.parse(value, params)
        return MultiPoly.constant(params, _rational_from_json(value))

    coeffs = [entry(v) for v in raw]
    if params:
        return CurveFamily(None, params, coeffs)
    plain = [c.constant_value() for c in coeffs]
    if not plain[-1]:
        raise PolyParseError("leading coefficient must be nonzero")
    return HyperellipticCurve(plain)


# Lax data for the rank-9/2 flow. The source table has s1 and s2 swapped;
# with them in these slots the characteristic polynomial reproduces the
# spectral quintic of the commuting Hamiltonian pair.
_LAX_TABLE = (
    (("0", "1"), ("0", "0")),
    (("0", "p1"), ("1", "0")),
    (("q2", "p1^2 + p2 + 2*s2"), ("-p1", "-q2")),
    (
        ("q1 - p1*q2", "p1^3 + 2*p1*p2 - q2^2 + s2*p1 - s1"),
        ("-p2 + s2", "-q1 + p1*q2"),
    ),
)


def gar92_lax():
    """The four 2x2 coefficient matrices (A0, A1, A2, A3) of the cubic
    Lax matrix A(x) = A0 x^3 + A1 x^2 + A2 x + A3, over the phase
    variables and couplings."""
    return tuple(
        tuple(
            tuple(MultiPoly.parse(text, _LAX_VARS) for text in row)
            for row in matrix
        )
        for matrix in _LAX_TABLE
    )


def lax_matrix():
    """A(x) as a 2x2 matrix of polynomials in x, phase variables, and
    couplings."""
    names = ("x",) + _LAX_VARS
    x = MultiPoly.variable("x", names)
    matrices = gar92_lax()
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            entry = MultiPoly.zero(names)
            for k, matrix in enumerate(matrices):
                entry = entry + matrix[i][j].with_variables(names) * x ** (3 - k)
            row.append(entry)
        out.append(tuple(row))
    return tuple(out)


def lax_spectral_curve():
    """det(y*I - A(x)) = 0 as a plane spectral model."""
    names = ("x", "y") + _LAX_VARS
    y = MultiPoly.variable("y", names)
    (a11, a12), (a21, a22) = (
        tuple(e.with_variables(names) for e in row) for row in lax_matrix()
    )
    det = (y - a11) * (y - a22) - a12 * a21
    return PlaneSpectralCurve(det, "x", "y")


class SpectralIdentityReport(Record):
    """Comparison of det(y*I - A(x)) against the spectral quintic written
    through the commuting Hamiltonians."""

    __slots__ = ("characteristic_polynomial", "expected")

    @property
    def difference(self):
        return self.characteristic_polynomial - self.expected

    @property
    def identical(self):
        return self.difference.is_zero()

    def __repr__(self):
        status = "identical" if self.identical else "different"
        return f"SpectralIdentityReport({status})"


def gar92_spectral_identity():
    """Check that the Lax characteristic polynomial equals y^2 - f(x),
    with f the conserved-value quintic (`gar92_hamiltonian_frame`) at
    h1, h2 -> H1, H2, the commuting Hamiltonians as phase polynomials."""
    curve = lax_spectral_curve()
    names = curve.polynomial.variables
    x = MultiPoly.variable("x", names)
    y = MultiPoly.variable("y", names)
    levels = {
        name: h.with_variables(names)
        for name, h in zip(("h1", "h2"), garnier92_hamiltonians())
    }
    expected = y * y
    for k, c in enumerate(gar92_hamiltonian_frame().coefficients):
        expected = expected - c.substitute(levels, variables=names) * x ** k
    return SpectralIdentityReport(curve.polynomial, expected)


def mat_i_quartic():
    """Monic quartic cover in y over x for the first 2x2 family:
    y^4 - q(x) y^2 + c(x) with a linear branch radical q^2 - 4c."""
    names = ("x", "y", "h1", "h2", "s", "theta")
    x = MultiPoly.variable("x", names)
    y = MultiPoly.variable("y", names)
    h1 = MultiPoly.variable("h1", names)
    h2 = MultiPoly.variable("h2", names)
    s = MultiPoly.variable("s", names)
    theta = MultiPoly.variable("theta", names)
    q = x ** 3 * 2 + s * x * 2 + h1
    c = (
        x ** 6
        + s * x ** 4 * 2
        + h1 * x ** 3
        + s * s * x * x
        + (h1 * s - theta * theta) * x
        + h2
    )
    u = y * y
    return PlaneSpectralCurve(u * u - q * u + c, "x", "y")


def mat_iii_quartic():
    """Monic quartic cover for the dihedral 2x2 family, written through
    the involution-invariant combination u = y^2 + x y."""
    names = ("x", "y", "h1", "h2", "s", "theta")
    x = MultiPoly.variable("x", names)
    y = MultiPoly.variable("y", names)
    h1 = MultiPoly.variable("h1", names)
    h2 = MultiPoly.variable("h2", names)
    s = MultiPoly.variable("s", names)
    theta = MultiPoly.variable("theta", names)
    tt = theta * theta
    u = y * y + x * y
    q = x ** 3 * (-2) + (h1 + tt) * x * x + s * x * 2
    c = (
        x ** 6
        + h1 * x ** 5
        + h2 * x ** 4
        + (h1 * s + tt * s) * x ** 3
        + s * s * x * x
    )
    return PlaneSpectralCurve(u * u - q * u + c, "x", "y")


def quadratic_resolvent_curve(curve):
    """Genus-2 model carried by the branch radical of a monic quartic
    cover u^2 - q(x) u + c(x) with u = y^2 + e x y, e in {0, 1}.

    Writes r = q^2 - 4c. When r = x^(2m) (A x + B) with A nonzero, the
    substitution x = (v^2 - B)/A and w = A^3 (2y + e x) turns the cover
    sheet 2u - q = x^m v into w^2 = g(v) with g polynomial of degree 5
    or 6; that family is returned. When r itself is a degree-5/6
    polynomial in x, the direct model w^2 = r(x) is returned. Anything
    else raises StructureError.
    """
    poly = curve.polynomial
    xn, yn = curve.x_name, curve.y_name
    if poly.degree_in(yn) != 4:
        raise StructureError("model is not quartic in the cover variable")
    rest = tuple(v for v in poly.variables if v != yn)
    c_list = [poly.coefficient_of(yn, k) for k in range(5)]
    if not (c_list[4].is_constant() and c_list[4].constant_value() == 1):
        raise StructureError("cover is not monic in the cover variable")
    x = MultiPoly.variable(xn, rest)
    if c_list[3].is_zero():
        shift = 0
    elif (c_list[3] - x * 2).is_zero():
        shift = 1
    else:
        raise StructureError(
            "cubic coefficient is neither 0 nor 2x: no sheet combination "
            "u = y^2 + e x y fits"
        )
    q = x * x * (shift * shift) - c_list[2]
    if not (c_list[1] + q * x * shift).is_zero():
        raise StructureError(
            "linear coefficient contradicts the sheet combination"
        )
    c0 = c_list[0]
    r = q * q - c0 * 4
    d = r.degree_in(xn)
    if d <= 0:
        raise StructureError(
            "branch radical does not involve the base variable"
        )
    params = tuple(v for v in rest if v != xn)
    r_coeffs = [r.coefficient_of(xn, k) for k in range(d + 1)]
    pattern = d % 2 == 1 and all(p.is_zero() for p in r_coeffs[: d - 1])
    if pattern:
        m = (d - 1) // 2
        lead = r_coeffs[d]
        const = r_coeffs[d - 1]
        h = q * 2 + x * x * (shift * shift)
        dh = h.degree_in(xn)
        if max(dh, m) > 6:
            raise StructureError(
                "base degree exceeds the fixed clearing weight"
            )
        names = ("v",) + params
        v = MultiPoly.variable("v", names)
        lead_v = lead.with_variables(names)
        square = v * v - const.with_variables(names)
        g = MultiPoly.zero(names)
        for k in range(dh + 1):
            hk = h.coefficient_of(xn, k)
            g = g + hk.with_variables(names) * square ** k * lead_v ** (6 - k)
        g = g + square ** m * lead_v ** (6 - m) * v * 2
        dg = g.degree_in("v")
        if dg not in (5, 6):
            raise StructureError(
                f"reduced model has degree {dg}, not 5 or 6"
            )
        coeffs = [g.coefficient_of("v", k) for k in range(dg + 1)]
        sheet = f"2*{yn} + {xn}" if shift else f"2*{yn}"
        return CurveFamily(
            None,
            params,
            coeffs,
            metadata={
                "construction": "branch-radical reduction",
                "radical_pattern": f"{xn}^{2 * m}*(A*{xn} + B)",
                "base_image": f"{xn} = (v^2 - B)/A",
                "cover_image": f"w = A^3*({sheet})",
            },
        )
    if d in (5, 6):
        sheet = f"2*{yn} + {xn}" if shift else f"2*{yn}"
        return CurveFamily(
            None,
            params,
            r_coeffs,
            metadata={
                "construction": "direct branch radical",
                "cover_image": f"w = {sheet}",
            },
        )
    raise StructureError(
        f"branch radical of degree {d} admits no genus-2 reduction here"
    )
