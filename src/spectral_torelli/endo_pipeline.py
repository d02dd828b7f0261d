"""Two-prime endomorphism-triviality certificates and the symbolic
identity tying the Laurent divisor data of the rank-9/2 flow to its
spectral quintic.

Certificate logic: for each chosen odd prime of good reduction, count
points over F_p and F_{p^2} and form the Frobenius quartic, which the
Galois layer receives as its Weil triple (p, a1, a2). When that
quartic is irreducible, the endomorphism algebra of the reduced
Jacobian is the quartic CM field Q(pi) it cuts out (Tate, Invent. Math.
1966), whose real quadratic subfield Q(sqrt(a1^2 - 4 a2 + 8p)) is
recorded by its squarefree discriminant core. Any endomorphism of the
original Jacobian survives reduction, so End^0_Q(J) embeds in the field
of each prime. Two primes with different real cores leave no room for a
real quadratic or a quartic End^0_Q(J). An imaginary quadratic one
embeds only in a biquadratic (V4) field, so the rule also needs one of
the two primes to have group D4 or C4; then the rational endomorphism
ring is Z, and two V4 primes stay INCONCLUSIVE. If, additionally, no
ratio of Frobenius eigenvalues is a root of unity at either prime, the
same holds over every finite extension, hence geometrically. The
argument is laid out in `galois_certificates`; Lombardo (Math. Comp.
2019) and Costa, Mascot, Sijsling and Voight (Math. Comp. 2019) bound
endomorphism algebras from reductions the same way.
"""

from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .curve_catalog import (
    CurveFamily,
    HyperellipticCurve,
    catalog_get,
    gar92_hamiltonian_frame,
    reduce_mod_p,
)
from .errors import (
    AlignmentError,
    BadReductionError,
    ReducibleQuarticError,
    StructureError,
)
from .exact_algebra import MultiPoly, _integer
from .finite_arithmetic import point_counts, weil_polynomial
from .galois_certificates import (
    _is_square,
    quadratic_subfield,
    root_ratio_orders,
    tate_condition,
)
from .series_kernel import (
    garnier92_hamiltonian_values,
    garnier92_hamiltonians,
    garnier92_solution,
    substitute_hamiltonian,
    verify_hamilton_flow,
    TruncatedSeries,
)

TRIVIAL_END = "TRIVIAL_END"
TRIVIAL_GEOMETRIC_END = "TRIVIAL_GEOMETRIC_END"
INCONCLUSIVE = "INCONCLUSIVE"


def resolve_curve(source, point=None):
    """Normalize (source, point) to a rational curve plus a label.

    `source` may be a catalog identifier, a CurveFamily, or a rational
    HyperellipticCurve; `point` assigns every family parameter an exact
    rational value (an int or Fraction; anything else raises TypeError)
    and must be absent for a plain curve. Returns (curve, label, point),
    the point's values as Fractions.
    """
    if isinstance(source, str):
        label = source
        source = catalog_get(source)
    else:
        label = getattr(source, "identifier", None) or "curve"
    if isinstance(source, CurveFamily):
        if point is None:
            raise AlignmentError(
                "a parameter point is needed to specialize the family"
            )
        values = source._values(point, full=True)
        point = {k: Fraction(v) for k, v in values.items()}
        return source.specialize(point), label, point
    if isinstance(source, HyperellipticCurve):
        if point:
            raise AlignmentError("a plain curve takes no parameter point")
        if source.characteristic:
            raise AlignmentError("certification starts from a rational curve")
        return source, label, None
    raise AlignmentError(
        f"cannot interpret {type(source).__name__} as a curve source"
    )


def rational_json(value):
    """An exact rational as the {"num", "den"} strings of JSON envelopes."""
    frac = Fraction(value)
    return {"num": str(frac.numerator), "den": str(frac.denominator)}


class EndoCertificate(Record):
    """Outcome of the two-prime endomorphism check, with the full
    per-prime evidence trail."""

    __slots__ = ("source", "point", "primes", "geometric", "records",
                 "verdict", "reasons")

    def __init__(self, source, point, primes, geometric, records,
                 verdict, reasons):
        super().__init__(source, point, tuple(primes), bool(geometric),
                         tuple(records), verdict, tuple(reasons))

    @property
    def trivial(self):
        return self.verdict in (TRIVIAL_END, TRIVIAL_GEOMETRIC_END)

    def as_dict(self):
        """JSON-ready form with a stable field order."""
        point = None
        if self.point is not None:
            point = {k: rational_json(v) for k, v in sorted(self.point.items())}
        return {
            "schema_version": 1,
            "source": self.source,
            "point": point,
            "primes": list(self.primes),
            "geometric": self.geometric,
            "records": [dict(r) for r in self.records],
            "verdict": self.verdict,
            "reasons": list(self.reasons),
        }


_VERDICT_FIELDS = ("tate", "irreducible", "galois_group", "subfield_core",
                   "subfield_minimal_polynomial", "ratio_orders")


def frobenius_verdict(weil, *, ratios=True):
    """Classify one Weil quartic: separability, irreducibility, Galois
    class, real quadratic subfield, and (optionally) root-of-unity
    ratios. Failures are recorded in `notes`; only a separable triple
    outside the Weil bounds raises (see `quadratic_subfield`)."""
    verdict = dict.fromkeys(_VERDICT_FIELDS)
    verdict.update(tate=tate_condition(weil), notes=[])
    if not verdict["tate"]:
        verdict["notes"].append(
            "Frobenius quartic has a repeated eigenvalue, so it does not "
            "pin down the endomorphism algebra"
        )
        return verdict
    try:
        subfield = quadratic_subfield(weil)
    except ReducibleQuarticError as exc:
        verdict["irreducible"] = False
        verdict["notes"].append(str(exc))
    else:
        verdict["irreducible"] = True
        verdict["galois_group"] = subfield.group
        verdict["subfield_core"] = subfield.core
        verdict["subfield_minimal_polynomial"] = list(
            subfield.minimal_polynomial
        )
        if subfield.core is None:
            d = _subfield_discriminant(verdict)
            verdict["notes"].append(
                f"the squarefree part of D = {d} is not certified, so no "
                "subfield core is reported; the pair rule compares the "
                "fields Q(sqrt D) without it"
            )
    if ratios:
        verdict["ratio_orders"] = list(root_ratio_orders(weil).orders)
    return verdict


def _prime_record(curve, p, geometric):
    """Evidence for one prime. Every failure past input validation is
    recorded in the `notes` list instead of raised, so a bad prime
    degrades the verdict rather than the run."""
    record = dict.fromkeys(
        ("p", "curve_mod_p", "n1", "n2", "a1", "a2", "l_coefficients",
         "frobenius_coefficients") + _VERDICT_FIELDS
    )
    record.update(p=p, usable=False, notes=[])
    try:
        reduction = reduce_mod_p(curve, p)
    except BadReductionError as exc:
        record["notes"].append(f"bad reduction: {exc}")
        return record
    record["curve_mod_p"] = list(reduction.coefficients)
    counts = point_counts(reduction, p)
    weil = weil_polynomial(counts)
    record["n1"] = counts.n1
    record["n2"] = counts.n2
    record["a1"] = weil.a1
    record["a2"] = weil.a2
    record["l_coefficients"] = list(weil.l_coefficients)
    record["frobenius_coefficients"] = list(weil.frobenius_coefficients)
    record.update(frobenius_verdict(weil, ratios=geometric))
    record["usable"] = record["tate"] and record["irreducible"]
    return record


def _subfield_discriminant(record):
    """D = a1^2 - 4(a2 - 2p) of an irreducible record: the discriminant
    of its subfield minimal polynomial (a2 - 2p, -a1, 1)."""
    c0, c1, _ = record["subfield_minimal_polynomial"]
    return c1 * c1 - 4 * c0


def _core_text(record):
    """The subfield core for the reasons text: where `squarefree_part`
    could not certify it, the squarefree part of D."""
    core = record["subfield_core"]
    if core is None and record["usable"]:
        return f"the squarefree part of {_subfield_discriminant(record)}"
    return core


def _pair_verdict(first, second, geometric):
    """The two-prime rule on two prime records: (verdict, reasons).

    TRIVIAL needs two usable records with different real cores, at least
    one of them with group D4 or C4 (see the module docstring). The
    cores differ exactly when D1 * D2 is not a square, so the rule needs
    no factorization; a core that `squarefree_part` could not certify is
    quoted as the squarefree part of its D.
    """
    (p1, core1), (p2, core2) = (
        (r["p"], _core_text(r)) for r in (first, second)
    )
    differ = first["usable"] and second["usable"] and not _is_square(
        _subfield_discriminant(first) * _subfield_discriminant(second)
    )
    both_v4 = first["galois_group"] == second["galois_group"] == "V4"
    if differ and not both_v4:
        reasons = [
            f"subfield cores {core1} (p={p1}) and {core2} (p={p2}) differ: "
            "the two reduced endomorphism fields share no quadratic "
            "subfield, so the rational endomorphism ring is Z"
        ]
        if not geometric:
            return TRIVIAL_END, reasons
        dirty = [r for r in (first, second) if r["ratio_orders"] != []]
        if not dirty:
            return TRIVIAL_GEOMETRIC_END, reasons + [
                "no eigenvalue ratio is a root of unity at either prime, so "
                "the conclusion holds over every field extension"
            ]
        return TRIVIAL_END, reasons + [
            f"p={r['p']}: eigenvalue ratios of orders "
            f"{r['ratio_orders']!r} block the geometric upgrade"
            for r in dirty
        ]
    reasons = [
        f"p={r['p']}: {note}" for r in (first, second) for note in r["notes"]
    ]
    if differ:
        reasons.append(
            f"subfield cores {core1} (p={p1}) and {core2} (p={p2}) differ, "
            "but both primes have group V4: each Frobenius field also has "
            "two imaginary quadratic subfields, so an imaginary quadratic "
            "endomorphism algebra is not excluded; try other primes"
        )
    elif first["usable"] and second["usable"]:
        reasons.append(
            f"both primes give subfield core {core1}: the disjointness "
            "test cannot distinguish the endomorphism fields; try other "
            "primes"
        )
    elif not reasons:
        reasons.append("fewer than two primes produced usable evidence")
    return INCONCLUSIVE, reasons


def certify_endomorphisms(source, point, p1, p2, *, geometric=False):
    """Run the two-prime certificate and return an EndoCertificate.

    Equal primes raise ValueError: one prime cannot give two different
    cores. A degenerate rational specialization raises; a prime of bad
    reduction only downgrades the verdict to INCONCLUSIVE. The verdict
    is symmetric in the two primes, and dropping `geometric` never
    weakens a TRIVIAL_END outcome.
    """
    primes = (_integer(p1), _integer(p2))
    if primes[0] == primes[1]:
        raise ValueError(f"the two primes must differ, got p1 = p2 = {p1}")
    curve, label, point_used = resolve_curve(source, point)
    records = [_prime_record(curve, p, geometric) for p in primes]
    verdict, reasons = _pair_verdict(*records, geometric)
    return EndoCertificate(
        label, point_used, primes, geometric, records, verdict, reasons
    )


class DivisorIdentityReport(Record):
    """Staged comparison between the Laurent divisor data of the
    rank-9/2 flow and its spectral quintic."""

    __slots__ = ("stages", "flow_reports", "eliminated", "transformed",
                 "spectral", "difference")

    def __init__(self, stages, flow_reports, eliminated, transformed,
                 spectral, difference):
        super().__init__(tuple(stages), dict(flow_reports), eliminated,
                         transformed, spectral, difference)

    @property
    def identical(self):
        return all(ok for _, ok, _ in self.stages)

    def __repr__(self):
        status = "identical" if self.identical else "broken"
        return f"DivisorIdentityReport({status}, stages={len(self.stages)})"


# Relation among the pole data after the free tail coefficient is
# eliminated; the construction below must land on it exactly.
_POLE_RELATION_TEXT = (
    "-243/32*alpha^5 + 81*beta^2 + 3/2*alpha*h1 - h2"
    " - 81/8*alpha^3*s2 + 9/4*alpha^2*s1 + s1*s2 - 3*alpha*s2^2"
)
_RELATION_VARIABLES = ("alpha", "beta", "h1", "h2", "s1", "s2")
_CURVE_VARIABLES = ("x", "y", "h1", "h2", "s1", "s2")


@lru_cache(maxsize=1)
def _pole_relation():
    """`_POLE_RELATION_TEXT` parsed once per process."""
    return MultiPoly.parse(_POLE_RELATION_TEXT, _RELATION_VARIABLES)


def _constant_agrees(series, expected_poly):
    """True when a truncated series is the constant expected_poly as far
    as it is determined, with the constant term actually in window."""
    if series.truncation <= 0:
        return False
    reference = TruncatedSeries.exact_constant(
        series.variables, expected_poly.with_variables(series.variables)
    )
    return series.agrees_with(reference)


def _eliminate_tail(h1_value, h2_value):
    """Solve the h1 relation for the free Laurent tail coefficient
    (it enters linearly) and substitute into the h2 relation, leaving a
    single polynomial tying pole position and slope to the levels."""
    tail_coeff = h1_value.coefficient_of("gamma", 1)
    rest = h1_value.coefficient_of("gamma", 0)
    linear = (
        h1_value.degree_in("gamma") == 1
        and tail_coeff.is_constant()
        and tail_coeff.constant_value() != 0
    )
    if not linear:
        raise StructureError(
            "h1 does not determine the tail coefficient linearly"
        )
    h1_var = MultiPoly.variable("h1", _RELATION_VARIABLES)
    tail_image = (h1_var - rest.with_variables(_RELATION_VARIABLES)) * (
        1 / tail_coeff.constant_value()
    )
    eliminated = h2_value.substitute(
        {"gamma": tail_image}, variables=_RELATION_VARIABLES
    ) - MultiPoly.variable("h2", _RELATION_VARIABLES)
    return eliminated


def verify_painleve_divisor_gar92():
    """Check, stage by stage, that the transcribed Laurent solution of
    the rank-9/2 flow lies on the spectral quintic of the flow, written
    through the conserved Hamiltonian values:

    1.   the solution satisfies the first Hamiltonian flow (it is a
         solution of that flow only; the second Hamiltonian enters
         through its conserved value);
    2-3. both Hamiltonians are constant on it, with the transcribed
         values;
    4.   eliminating the free tail coefficient from the two values
         reproduces the single transcribed relation among the pole data;
    5.   rescaling that relation by x = (3/2) alpha, y = 9 beta turns it
         into y^2 - f(x) with f exactly that spectral quintic.

    The flow check runs with max_order 8 and the two constants with
    max_order 4 (see `verify_hamilton_flow`, `substitute_hamiltonian`).
    """
    sol = garnier92_solution()
    h1_phase, h2_phase = garnier92_hamiltonians()
    h1_value, h2_value = garnier92_hamiltonian_values()
    stages = []
    report = verify_hamilton_flow(h1_phase, sol, max_order=8)
    flow_reports = {"H1": report}
    stages.append(("flow-H1", report.all_zero, ""))
    for name, ham, value in (
        ("H1", h1_phase, h1_value),
        ("H2", h2_phase, h2_value),
    ):
        series = substitute_hamiltonian(ham, sol, max_order=4)
        ok = _constant_agrees(series, value)
        stages.append(
            (
                f"constant-{name}",
                ok,
                f"checked below t^{series.truncation}",
            )
        )
    relation = _pole_relation()
    eliminated = _eliminate_tail(h1_value, h2_value)
    stages.append(
        (
            "tail-elimination",
            eliminated == relation,
            "constructed eliminant matches the transcribed relation",
        )
    )
    family = gar92_hamiltonian_frame()
    x_var = MultiPoly.variable("x", _CURVE_VARIABLES)
    y_var = MultiPoly.variable("y", _CURVE_VARIABLES)
    transformed = relation.substitute(
        {
            "alpha": x_var * Fraction(2, 3),
            "beta": y_var * Fraction(1, 9),
        },
        variables=_CURVE_VARIABLES,
    )
    y2_coeff = transformed.coefficient_of("y", 2)
    stages.append(
        (
            "normalization",
            y2_coeff.is_constant() and y2_coeff.constant_value() == 1,
            "y^2 arrives with coefficient exactly 1",
        )
    )
    spectral = y_var * y_var
    for k, coeff in enumerate(family.coefficients):
        spectral = spectral - coeff.with_variables(_CURVE_VARIABLES) * x_var ** k
    difference = transformed - spectral
    stages.append(
        (
            "spectral-quintic",
            difference.is_zero(),
            "rescaled relation equals y^2 - f(x) for the spectral quintic "
            "in conserved-value coordinates",
        )
    )
    return DivisorIdentityReport(
        stages,
        flow_reports,
        eliminated,
        transformed,
        spectral,
        None if difference.is_zero() else difference,
    )
