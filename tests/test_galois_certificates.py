"""Galois classification of Frobenius quartics and the count of
eigenvalue ratios that are roots of unity, checked against sympy's
number-field machinery, the reference ratio polynomial and
hand-computable small cases."""

import json
import math
import random

import numpy
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.abc import t
from sympy.polys.numberfields.galoisgroups import galois_group as sympy_galois

from spectral_torelli import cli, galois_certificates
from spectral_torelli.endo_pipeline import frobenius_verdict
from spectral_torelli.errors import (
    InconsistentCountsError,
    ReducibleQuarticError,
    StructureError,
)
from spectral_torelli.finite_arithmetic import (
    PointCount,
    WeilPolynomial,
    _within_weil_bounds,
    is_prime,
    weil_polynomial,
    zeta_rational_form,
)
from spectral_torelli.galois_certificates import (
    _RATIO_STEPS,
    _coinciding_pairs,
    _eval_int_poly,
    _int_divisors,
    _quartic_discriminant,
    factor_quartic,
    galois_group,
    quadratic_subfield,
    resolvent_cubic,
    root_ratio_orders,
    squarefree_part,
    tate_condition,
)
from ratio_reference import (
    cyclotomic,
    divmod_monic,
    power_sum_ratio_orders,
    ratio_polynomial,
)

# ascending quartics with known groups, cross-checked against sympy below
GROUP_SUITE = [
    ((-3, 0, 0, 0, 1), "D4"),
    ((1, 1, 1, 1, 1), "C4"),
    ((2, 0, 4, 0, 1), "C4"),
    ((1, 0, 0, 0, 1), "V4"),
    # sqrt(2) + sqrt(3): the resolvent's quadratic cofactor splits
    ((1, 0, -10, 0, 1), "V4"),
    ((12, 8, 0, 0, 1), "A4"),
    ((1, 1, 0, 0, 1), "S4"),
    ((1369, -74, 38, -2, 1), "D4"),
    ((2809, 159, 100, 3, 1), "D4"),
]

# a group name pins (order, cyclic); that is enough to separate the five
_GROUP_SHAPE = {
    "S4": (24, False),
    "A4": (12, False),
    "D4": (8, False),
    "C4": (4, True),
    "V4": (4, False),
}


def as_expr(ascending):
    return sum(int(c) * t**i for i, c in enumerate(ascending))


def is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def sympy_squarefree_part(n):
    core = 1
    for prime, exponent in sympy.factorint(abs(n)).items():
        if exponent % 2:
            core *= prime
    return core if n > 0 else -core


def full_trial_division(n):
    """`squarefree_part` as it was before its trial division stopped once
    d^3 exceeds the cofactor: it divided by every d up to sqrt(m) (at
    most 10^6), kept here as the reference."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    m, core, d = abs(n), 1, 2
    while d * d <= m and d <= galois_certificates._TRIAL_LIMIT:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e % 2:
            core *= d
        d += 1 if d == 2 else 2
    if m > 1 and not galois_certificates._is_square(m):
        if m > galois_certificates._CERTIFIED_COFACTOR_BOUND:
            raise ValueError(f"cofactor {m} is too large to certify squarefree")
        core *= m
    return core if n > 0 else -core


def squarefree_outcome(function, n):
    try:
        return function(n)
    except ValueError:
        return "refused"


# primes around the points where the loops stop: the trial limit 10^6,
# cube roots of the cofactors and their squares
EDGE_PRIMES = [int(sympy.nextprime(x)) for x in (
    2, 97, 997, 9973, 46340, 10**5, 999_000, 10**6 - 100, 10**6, 2 * 10**6,
)]


class TestSquarefreePart:
    @settings(max_examples=300)
    @given(st.integers(-10**10, 10**10).filter(bool))
    def test_matches_the_full_trial_division(self, n):
        assert squarefree_part(n) == full_trial_division(n)

    @settings(max_examples=60)
    @given(st.lists(st.sampled_from(EDGE_PRIMES), min_size=1, max_size=4),
           st.integers(1, 60), st.sampled_from((1, -1)))
    def test_prime_products_match_the_full_trial_division(
            self, primes, k, sign):
        """Semiprimes, squares and cubes of primes near the stopping
        points, times a small square part, refused or not on both
        sides."""
        n = sign * math.prod(primes) * k
        assert squarefree_outcome(squarefree_part, n) == squarefree_outcome(
            full_trial_division, n)

    def test_small_values_match_the_full_trial_division(self):
        for n in range(1, 3001):
            assert squarefree_part(n) == full_trial_division(n)
            assert squarefree_part(-n) == full_trial_division(-n)

    def test_a_large_prime_cofactor_is_decided_without_full_division(self):
        # 8 * (10^12 + 39) + 1 is 3 * 2666666666771, a prime cofactor
        # whose square root is above the 10^6 trial limit
        n = 8 * (10**12 + 39) + 1
        assert squarefree_part(n) == sympy_squarefree_part(n)
        assert squarefree_part(n) == full_trial_division(n)

    def test_against_factorization(self):
        rng = random.Random(5)
        values = [rng.randrange(1, 10**6) for _ in range(40)]
        values += [-12, 148, 33, 4 * 37, 720, -720, 10**10 + 1]
        for n in values:
            assert squarefree_part(n) == sympy_squarefree_part(n)

    def test_perfect_squares_and_zero(self):
        assert squarefree_part(49) == 1
        assert squarefree_part(-49) == -1
        assert squarefree_part(1) == 1
        with pytest.raises(ValueError):
            squarefree_part(0)

    def test_large_cofactor_paths(self):
        p1 = int(sympy.nextprime(10**6))
        p2 = int(sympy.nextprime(p1))
        p3 = int(sympy.nextprime(p2))
        # cofactor with two huge prime factors is still certifiable
        assert squarefree_part(4 * p1 * p2) == p1 * p2
        assert squarefree_part(p1 * p1) == 1
        with pytest.raises(ValueError):
            squarefree_part(p1 * p2 * p3)


class TestEulerPhiAndCyclotomic:
    def test_ratio_orders_are_those_with_phi_dividing_8(self):
        # phi(n) >= sqrt(n / 2), so no n above 128 has phi(n) <= 8
        expected = tuple(n for n in range(2, 200) if 8 % sympy.totient(n) == 0)
        assert tuple(_RATIO_STEPS) == expected
        # the exact-order count subtracts every proper divisor d >= 2
        for n in _RATIO_STEPS:
            assert all(d in _RATIO_STEPS for d in range(2, n) if n % d == 0)
        # each order is one Dickson step D_2, D_3 or D_5 from an earlier
        # order or from 1
        seen = [1]
        for n, k in _RATIO_STEPS.items():
            assert k in seen and n // k in (2, 3, 5) and n % k == 0
            seen.append(n)

    def test_cyclotomic_matches_sympy(self):
        # the reference's cyclotomic polynomials
        for n in list(range(1, 31)) + [105]:
            expected = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()
            assert list(cyclotomic(n)) == list(reversed(expected))
        # 105 is the first index with a coefficient of magnitude 2
        assert min(cyclotomic(105)) == -2


class TestQuarticFactorization:
    def test_random_products_match_sympy(self):
        rng = random.Random(11)
        for _ in range(40):
            shape = rng.choice(["llll", "llq", "qq", "lc", "lls"])
            factors = []
            if shape == "llll":
                factors = [(-rng.randrange(-6, 7), 1) for _ in range(4)]
            elif shape == "lls":
                # two small roots, then a quadratic that splits over wider
                # roots, a repeated or a zero one included
                r1 = rng.randrange(-300, 301)
                r2 = rng.choice([r1, 0, rng.randrange(-300, 301)])
                factors = [(-rng.randrange(-6, 7), 1), (-rng.randrange(-6, 7), 1),
                           (r1 * r2, -(r1 + r2), 1)]
            elif shape == "llq":
                factors = [(-rng.randrange(-6, 7), 1), (-rng.randrange(-6, 7), 1),
                           (rng.randrange(1, 7), rng.randrange(-5, 6), 1)]
            elif shape == "qq":
                factors = [(rng.randrange(1, 7), rng.randrange(-5, 6), 1),
                           (rng.randrange(1, 7), rng.randrange(-5, 6), 1)]
            else:
                factors = [(-rng.randrange(-6, 7), 1),
                           (rng.randrange(-6, 7), rng.randrange(-6, 7),
                            rng.randrange(-6, 7), 1)]
            expr = sympy.prod(as_expr(f) for f in factors)
            descending = sympy.Poly(expr, t).all_coeffs()
            ascending = [int(c) for c in reversed(descending)]
            got = factor_quartic(ascending)
            expected = []
            for factor, multiplicity in sympy.factor_list(expr)[1]:
                coeffs = sympy.Poly(factor, t).all_coeffs()
                tup = tuple(int(c) for c in reversed(coeffs))
                expected.extend([tup] * multiplicity)
            assert sorted(got) == sorted(expected)
            product = sympy.prod(as_expr(f) for f in got)
            assert sympy.expand(product - expr) == 0

    def test_specific_splits(self):
        assert factor_quartic((6, 0, -5, 0, 1)) == ((-3, 0, 1), (-2, 0, 1))
        assert factor_quartic((1, 2, 3, 2, 1)) == ((1, 1, 1), (1, 1, 1))
        assert factor_quartic((1, 1, 0, 0, 1)) == ((1, 1, 0, 0, 1),)
        with pytest.raises(ValueError):
            factor_quartic((1, 0, 0, 1))
        with pytest.raises(ValueError):
            factor_quartic((1, 0, 0, 0, 2))


class TestResolventCubic:
    def test_roots_are_the_partial_products(self):
        # quartic with roots 1, 2, 3, 6: partial products 20, 15, 12
        cubic = resolvent_cubic((36, -72, 47, -12, 1))
        for y in (20, 15, 12):
            assert sum(c * y**i for i, c in enumerate(cubic)) == 0
        assert cubic[-1] == 1

    def test_symbolic_identity(self):
        b, c, d, e, y = sympy.symbols("b c d e y")
        cubic = resolvent_cubic((0, 0, 0, 0, 1))
        assert cubic == (0, 0, 0, 1)
        # coefficient pattern against the classical formula
        got = resolvent_cubic((7, 5, 3, 2, 1))
        classical = sympy.Poly(
            y**3 - 3 * y**2 + (2 * 5 - 4 * 7) * y
            - (2 * 2 * 7 - 4 * 3 * 7 + 5 * 5),
            y,
        )
        assert list(got) == list(reversed(classical.all_coeffs()))
        with pytest.raises(ValueError):
            resolvent_cubic((1, 1, 1, 1, 2))


class TestGaloisGroup:
    def test_suite_against_sympy(self):
        for ascending, expected in GROUP_SUITE:
            analysis = galois_group(ascending)
            assert analysis.group == expected
            group, _ = sympy_galois(sympy.Poly(as_expr(ascending), t))
            assert (group.order(), group.is_cyclic) == _GROUP_SHAPE[expected]

    def test_discriminants_match_sympy(self):
        for ascending, _ in GROUP_SUITE:
            analysis = galois_group(ascending)
            expected = int(sympy.discriminant(as_expr(ascending), t))
            assert analysis.discriminant == expected

    def test_analysis_record_details(self):
        analysis = galois_group((-3, 0, 0, 0, 1))
        assert analysis.resolvent == (0, 12, 0, 1)
        assert analysis.resolvent_roots == (0,)
        assert analysis.coefficients == (-3, 0, 0, 0, 1)
        assert analysis.discriminant == -6912

    def test_reducible_quartic_carries_its_factors(self):
        with pytest.raises(ReducibleQuarticError) as info:
            galois_group((6, 0, -5, 0, 1))
        assert info.value.factors == ((-3, 0, 1), (-2, 0, 1))
        with pytest.raises(ValueError):
            galois_group((1, 2, 3, 4))

    def test_divisor_scan_is_lazy(self):
        # the root scan stops at the first root it meets, so the divisors
        # come one (divisor, cofactor) pair at a time, not as a list
        pairs = _int_divisors(-36)
        assert iter(pairs) is pairs
        assert next(pairs) == (1, 36)
        assert list(pairs) == [(2, 18), (3, 12), (4, 9), (6, 6)]


def weil_triples(primes):
    """(Weil polynomial, Galois group or None when reducible) for every
    triple (p, a1, a2) inside the Weil bounds."""
    for p in primes:
        bound = math.isqrt(16 * p)
        for a1 in range(-bound, bound + 1):
            for a2 in range(-2 * p, 6 * p + 1):
                if not _within_weil_bounds(p, a1, a2):
                    continue
                weil = WeilPolynomial(p, a1, a2)
                try:
                    group = galois_group(weil.frobenius_coefficients).group
                except ReducibleQuarticError:
                    group = None
                yield weil, group


def irreducible_weil_triples(primes):
    """(Weil polynomial, Galois group) for every triple (p, a1, a2) inside
    the Weil bounds whose Frobenius quartic is irreducible."""
    for weil, group in weil_triples(primes):
        if group is not None:
            yield weil, group


class TestQuadraticSubfield:
    def test_reference_cores(self):
        w37 = weil_polynomial(PointCount(37, 36, 1442))
        sub = quadratic_subfield(w37)
        assert sub.core == 37
        assert sub.minimal_polynomial == (-36, -2, 1)
        w53 = weil_polynomial(PointCount(53, 57, 3001))
        sub53 = quadratic_subfield(w53)
        assert sub53.core == 33
        assert sub53.minimal_polynomial == (-6, 3, 1)

    def test_minimal_polynomial_annihilates_the_trace_sum(self):
        # alpha + p/alpha must satisfy the printed quadratic
        for p, a1, a2 in ((37, 2, 38), (53, -3, 100)):
            sub = quadratic_subfield(WeilPolynomial(p, a1, a2))
            alpha = sympy.symbols("alpha")
            quartic = sum(
                c * alpha**i
                for i, c in enumerate(WeilPolynomial(p, a1, a2).frobenius_coefficients)
            )
            s = alpha + p / alpha
            value = sum(c * s**i for i, c in enumerate(sub.minimal_polynomial))
            _, remainder = sympy.div(
                sympy.together(value).as_numer_denom()[0], quartic, alpha
            )
            assert remainder == 0

    def test_v4_has_three_subfields(self):
        # x^4 + 9 = (x^2 - sqrt(6) x + 3)(x^2 + sqrt(6) x + 3): it splits into
        # quadratics over each of Q(sqrt 6), Q(i) and Q(sqrt -6), and the
        # certificate takes the real one, Q(sqrt 6)
        weil = WeilPolynomial(3, 0, 0)
        assert galois_group(weil.frobenius_coefficients).group == "V4"
        t = sympy.symbols("t")
        for d in (6, -1, -6):
            _, factors = sympy.factor_list(t**4 + 9, extension=sympy.sqrt(d))
            assert sorted(sympy.degree(f, t) for f, _ in factors) == [2, 2]
        sub = quadratic_subfield(weil)
        assert (sub.core, sub.minimal_polynomial) == (6, (-6, 0, 1))

    def test_v4_keeps_the_companion_pairing_subfield(self):
        # Gar9/2 at its first frozen rank witness, p = 103: the subfield
        # generated by pi + p/pi, which pairs each root with its complex
        # conjugate p/pi, is the real one
        weil = WeilPolynomial(103, -4, 8)
        assert galois_group(weil.frobenius_coefficients).group == "V4"
        sub = quadratic_subfield(weil)
        assert (sub.core, sub.minimal_polynomial) == (202, (-198, 4, 1))

    def test_square_discriminant_is_reducible(self):
        # a1^2 - 4 a2 + 8p = 0 and 16: pi + p/pi is rational
        for p, a1, a2 in ((5, 2, 11), (5, 2, 7)):
            weil = WeilPolynomial(p, a1, a2)
            with pytest.raises(ReducibleQuarticError):
                quadratic_subfield(weil)
            assert len(factor_quartic(weil.frobenius_coefficients)) > 1

    def test_out_of_bounds_and_square_norm_are_refused(self):
        # (t^2 + 1)(t^2 + 9) has roots off the circle |t| = sqrt 3, where D
        # would read core -1; (t^2 - 5)^2 has E = 0 but D = 80, no square
        with pytest.raises(InconsistentCountsError):
            quadratic_subfield(WeilPolynomial(3, 0, 10))
        with pytest.raises(ReducibleQuarticError) as info:
            quadratic_subfield(WeilPolynomial(5, 0, -10))
        assert info.value.factors == ((-5, 0, 1), (-5, 0, 1))

    def test_exhaustive_table_up_to_53(self):
        # Every irreducible Weil quartic cuts out a CM field, so its group
        # has a quadratic subfield (never S4/A4), and its real core is
        # positive. The whole table also has a closed form in
        # D = a1^2 - 4 a2 + 8p and E = (a2 + 2p)^2 - 4p a1^2: the
        # discriminant is p^2 D^2 E, and the quartic is reducible exactly
        # when D is a square or E = 0; otherwise it is V4 when E is a
        # square, C4 when D E is, and D4 otherwise. `quadratic_subfield`
        # is that rule; `galois_group` is the reference on every triple,
        # separable or not, down to the factors and text of a reducible one.
        primes = [p for p in range(3, 54) if is_prime(p)]
        groups = {}
        for weil, group in weil_triples(primes):
            p, a1, a2 = weil.p, weil.a1, weil.a2
            big_d = a1 * a1 - 4 * a2 + 8 * p
            big_e = (a2 + 2 * p) ** 2 - 4 * p * a1 * a1
            disc = _quartic_discriminant(weil.frobenius_coefficients)
            assert disc == p * p * big_d * big_d * big_e
            assert tate_condition(weil) == bool(disc)
            assert (group is None) == (is_square(big_d) or big_e == 0)
            if group is None:
                coefficients = weil.frobenius_coefficients
                with pytest.raises(ReducibleQuarticError) as reference:
                    galois_group(coefficients)
                with pytest.raises(ReducibleQuarticError) as info:
                    quadratic_subfield(weil)
                assert info.value.factors == factor_quartic(coefficients)
                assert str(info.value) == str(reference.value)
                groups[None] = groups.get(None, 0) + 1
                continue
            groups[group] = groups.get(group, 0) + 1
            if is_square(big_e):
                assert group == "V4"
            elif is_square(big_d * big_e):
                assert group == "C4"
            else:
                assert group == "D4"
            sub = quadratic_subfield(weil)
            assert sub.group == group
            assert sub.core == squarefree_part(big_d)
            assert sub.core > 0
        assert groups == {"D4": 18364, "V4": 1868, "C4": 148, None: 3209}

    def test_cores_match_numeric_eigenvalue_sums(self):
        # The two values s, s' of r + p/r over the numeric eigenvalues r are
        # real, and (s - s')^2 has the squarefree part of the core.
        checked = 0
        for weil, _ in irreducible_weil_triples((3, 5, 7)):
            p = weil.p
            roots = numpy.roots(weil.frobenius_coefficients[::-1])
            sums = sorted((r + p / r for r in roots), key=lambda z: z.real)
            assert all(abs(z.imag) < 1e-6 for z in sums)
            assert abs(sums[1] - sums[0]) < 1e-6
            assert abs(sums[3] - sums[2]) < 1e-6
            square = round((sums[3].real - sums[0].real) ** 2)
            assert squarefree_part(square) == quadratic_subfield(weil).core
            checked += 1
        assert checked > 100


def old_weil_bounds(p, a1, a2):
    """The closed form of the Weil bounds before they were written in D
    and E, kept as the oracle of `_within_weil_bounds`."""
    edge = 2 * p + a2
    return (
        4 * (a2 - 2 * p) <= a1 * a1 <= 16 * p
        and edge >= 0
        and edge * edge >= 4 * p * a1 * a1
    )


def reducible_weil_table():
    """(Weil polynomial, `factor_quartic` factors, `galois_group` error
    text) for every reducible triple inside the Weil bounds with int p in
    0..80: primes, composites, squares and 0 alike. A reducible quartic
    has D a square, or E = 0, which off a square p means (a1, a2) =
    (0, -2p); the candidates come from those two shapes, and the
    reference decides."""
    table = []
    for p in range(81):
        bound = math.isqrt(16 * p)
        for a1 in range(-bound, bound + 1):
            top = math.isqrt(a1 * a1 + 16 * p)
            shapes = {(a1 * a1 + 8 * p - k * k) // 4
                      for k in range(a1 % 2, top + 1, 2)}
            shapes |= {-2 * p} if not a1 else set()
            for a2 in sorted(shapes):
                if not old_weil_bounds(p, a1, a2):
                    continue
                weil = WeilPolynomial(p, a1, a2)
                factors = factor_quartic(weil.frobenius_coefficients)
                if len(factors) == 1:
                    continue
                with pytest.raises(ReducibleQuarticError) as reference:
                    galois_group(weil.frobenius_coefficients)
                table.append((weil, factors, str(reference.value)))
    return table


def refuse_divisor_scans(monkeypatch):
    def refuse(*args):
        raise AssertionError("a divisor scan reached on a Weil quartic")

    for name in ("factor_quartic", "_int_divisors"):
        monkeypatch.setattr(galois_certificates, name, refuse)


class TestClosedFormFactors:
    def test_bounds_agree_with_their_old_closed_form(self):
        # D >= 0, E >= 0, 2p + a2 >= 0 and a1^2 <= 16p, one for one with
        # the old four conditions, on a box that reaches past every bound
        inside = checked = 0
        for p in range(61):
            bound = math.isqrt(16 * p) + 2
            for a1 in range(-bound, bound + 1):
                for a2 in range(-2 * p - 2, 6 * p + 3):
                    expected = old_weil_bounds(p, a1, a2)
                    assert _within_weil_bounds(p, a1, a2) == expected
                    inside += expected
                    checked += 1
        assert 0 < inside < checked

    def test_closed_forms_match_the_general_code_with_no_scan(
        self, monkeypatch
    ):
        # the closed forms in p, a1 and D give `factor_quartic`'s tuples
        # and `galois_group`'s error text on every reducible triple, and
        # neither the subfield nor the verdict scans a divisor
        table = reducible_weil_table()
        # as many as a scan of the whole box with `factor_quartic` finds
        assert len(table) == 26997
        refuse_divisor_scans(monkeypatch)
        for weil, factors, text in table:
            with pytest.raises(ReducibleQuarticError) as info:
                quadratic_subfield(weil)
            assert info.value.factors == factors
            assert str(info.value) == text
            # the ratio orders read no factors; they run at the large p
            verdict = frobenius_verdict(weil, ratios=False)
            if verdict["tate"]:
                assert verdict["irreducible"] is False
                assert verdict["notes"] == [text]
        # at p = 10^9 + 7 a scan of the divisors of p^2 up to p would run
        # for minutes; D = 4 gives s, s' = 1, -1 at once
        p = 10**9 + 7
        weil = WeilPolynomial(p, 0, 2 * p - 1)
        note = (f"quartic splits as (({p}, -1, 1), ({p}, 1, 1)); "
                "no Galois class is assigned")
        with pytest.raises(ReducibleQuarticError) as info:
            quadratic_subfield(weil)
        assert str(info.value) == note
        verdict = frobenius_verdict(weil)
        assert (verdict["tate"], verdict["irreducible"]) == (True, False)
        assert verdict["notes"] == [note]

    def test_frobenius_command_at_a_large_prime(self, monkeypatch, capsys):
        # (a1, a2) = (0, 2p - 1): N1 = p + 1 and N2 = p^2 + 4p - 1
        refuse_divisor_scans(monkeypatch)
        p = 10**9 + 7
        argv = ["frobenius", "--p", str(p), "--n1", str(p + 1),
                "--n2", str(p * p + 4 * p - 1), "--json"]
        assert cli.main(argv) == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert (outputs["a1"], outputs["a2"]) == (0, 2 * p - 1)
        assert outputs["notes"] == [
            f"quartic splits as (({p}, -1, 1), ({p}, 1, 1)); "
            "no Galois class is assigned"
        ]


class TestTateCondition:
    def test_separable_and_repeated(self):
        assert tate_condition(WeilPolynomial(37, 2, 38))
        # (t^2 - 5)^2 has every eigenvalue doubled
        assert not tate_condition(WeilPolynomial(5, 0, -10))

    def test_discriminant_is_p2_d2_e(self):
        # disc P = p^2 D^2 E as polynomials in p, a1, a2, so the test
        # D E != 0 (with p != 0) is exact on every triple, including the
        # ones outside the Weil bounds that `root_ratio_orders` takes
        p, a1, a2 = sympy.symbols("p a1 a2")
        quartic = t**4 - a1 * t**3 + a2 * t**2 - a1 * p * t + p**2
        big_d = a1**2 - 4 * a2 + 8 * p
        big_e = (a2 + 2 * p) ** 2 - 4 * p * a1**2
        identity = sympy.discriminant(quartic, t) - p**2 * big_d**2 * big_e
        assert sympy.expand(identity) == 0
        for weil in (WeilPolynomial(3, 0, 10), WeilPolynomial(0, 1, 2),
                     WeilPolynomial(4, 4, 8), WeilPolynomial(2, 9, -30)):
            disc = _quartic_discriminant(weil.frobenius_coefficients)
            assert tate_condition(weil) == bool(disc)

    def test_only_weil_polynomials_are_accepted(self):
        # the triple and the coefficient tuple of WeilPolynomial(37, 2, 38)
        for scan in (tate_condition, root_ratio_orders, quadratic_subfield,
                     zeta_rational_form):
            for bad in ((37, 2, 38), (1369, -74, 38, -2, 1)):
                with pytest.raises(TypeError):
                    scan(bad)


class TestRootRatioOrders:
    def test_reference_polynomials_are_clean(self):
        for p, a1, a2 in ((37, 2, 38), (53, -3, 100)):
            report = root_ratio_orders(WeilPolynomial(p, a1, a2))
            assert report.orders == ()
            assert report.clean

    def test_supersingular_ratios_are_roots_of_unity(self):
        # eigenvalues of t^4 + 9 differ by powers of i
        report = root_ratio_orders(WeilPolynomial(3, 0, 0))
        assert report.orders == (2, 4)
        assert not report.clean

    def test_ratio_polynomial_matches_the_resultant_construction(self):
        # the reference's power-sum construction
        u = sympy.symbols("u")
        for weil in (WeilPolynomial(37, 2, 38), WeilPolynomial(3, 0, 0)):
            ascending = weil.frobenius_coefficients
            fixed = as_expr(ascending)
            scaled = sum(c * u**i * t**i for i, c in enumerate(ascending))
            res = sympy.resultant(fixed, scaled, t)
            expected = sympy.Poly(
                sympy.cancel(res / (u - 1) ** 4), u
            ).all_coeffs()
            assert list(ratio_polynomial(weil)) == list(reversed(expected))

    def test_ratio_polynomial_vanishes_on_numeric_ratios(self):
        import mpmath

        ratio = ratio_polynomial(WeilPolynomial(37, 2, 38))
        with mpmath.workdps(60):
            roots = mpmath.polyroots([1, -2, 38, -74, 1369])
            scale = max(abs(c) for c in ratio)
            for j, a in enumerate(roots):
                for k, b in enumerate(roots):
                    if j == k:
                        continue
                    value = mpmath.polyval(list(reversed(ratio)), a / b)
                    assert abs(value) < scale * mpmath.mpf(10) ** -40

    def test_repeated_eigenvalues_are_rejected(self):
        with pytest.raises(StructureError):
            root_ratio_orders(WeilPolynomial(5, 0, -10))

    def test_pair_count_on_each_shape(self):
        # (t^2 - S t + q)(t^2 - S' t + q) with q = 4, so b1 = S + S' and
        # b2 = S S' + 2q; the count is sum m (m - 1) over the multiplicities
        # m of the roots
        u = sympy.symbols("u")
        shapes = {
            "distinct": (1, 0, 0),
            "one double root": (4, 1, 2),
            "two doubles, S' = -S": (4, -4, 4),
            "S = S'": (1, 1, 4),
            "(t - 2)^4": (4, 4, 12),
        }
        for name, (s, s_prime, pairs) in shapes.items():
            quartic = (u**2 - s * u + 4) * (u**2 - s_prime * u + 4)
            roots = sympy.roots(sympy.Poly(quartic, u))
            assert sum(m * (m - 1) for m in roots.values()) == pairs, name
            assert _coinciding_pairs(4, s + s_prime, s * s_prime + 8) == pairs

    def test_orders_match_the_old_window_exhaustively(self):
        # The reference is the ratio polynomial scanned over the wider
        # window every n <= 90 with phi(n) <= 24 whose cyclotomic
        # polynomial fits its degree 12. The pair count over the 13 orders
        # with phi(n) | 8 finds the same orders on every separable quartic
        # of Weil shape t^4 - a1 t^3 + a2 t^2 - p a1 t + p^2 in a box
        # around the Weil bounds, p <= 11. A division is tried only where
        # Phi_n(x) divides R(x) at x = 2^64, which every factor Phi_n of
        # the ratio polynomial R passes.
        x = 2 ** 64
        window = [
            (n, phi_n, _eval_int_poly(phi_n, x))
            for n in range(1, 91)
            if sympy.totient(n) <= 24
            for phi_n in (cyclotomic(n),)
        ]
        checked = with_orders = 0
        for p in (2, 3, 5, 7, 11):
            bound = math.isqrt(16 * p) + 1
            for a1 in range(-bound, bound + 1):
                for a2 in range(-6 * p, 6 * p + 1):
                    weil = WeilPolynomial(p, a1, a2)
                    if not tate_condition(weil):
                        continue
                    ratio = ratio_polynomial(weil)
                    ratio_x = _eval_int_poly(ratio, x)
                    old = tuple(
                        n for n, phi_n, phi_x in window
                        if len(phi_n) <= len(ratio)
                        and ratio_x % phi_x == 0
                        and not any(divmod_monic(ratio, phi_n)[1])
                    )
                    assert root_ratio_orders(weil).orders == old
                    checked += 1
                    with_orders += bool(old)
        assert (checked, with_orders) == (7801, 569)


class TestDicksonStepsAgainstPowerSums:
    """`root_ratio_orders` reaches the quartic of n-th powers by Dickson
    steps; the reference reads it from the power sums s_n and s_2n."""

    def test_every_separable_weil_triple_at_odd_p_up_to_47(self):
        checked = with_orders = 0
        for p in range(3, 48, 2):
            if not is_prime(p):
                continue
            bound = math.isqrt(16 * p)
            for a1 in range(-bound, bound + 1):
                for a2 in range(-2 * p, 6 * p + 1):
                    if not _within_weil_bounds(p, a1, a2):
                        continue
                    weil = WeilPolynomial(p, a1, a2)
                    if not tate_condition(weil):
                        with pytest.raises(StructureError):
                            root_ratio_orders(weil)
                        continue
                    orders = root_ratio_orders(weil).orders
                    assert orders == power_sum_ratio_orders(weil), (p, a1, a2)
                    checked += 1
                    with_orders += bool(orders)
        assert (checked, with_orders) == (19180, 2080)

    @given(st.data())
    def test_weil_triples_at_large_primes(self, data):
        p = sympy.nextprime(data.draw(st.integers(2, 10**15)))
        bound = math.isqrt(16 * p)
        a1 = data.draw(
            st.one_of(st.integers(-bound, bound), st.sampled_from([0, bound]))
        )
        # the Weil bounds: 2 sqrt(p) |a1| - 2p <= a2 <= a1^2 / 4 + 2p
        low = math.isqrt(4 * p * a1 * a1) - 2 * p
        high = a1 * a1 // 4 + 2 * p
        a2 = data.draw(
            st.one_of(
                st.integers(low, high),
                st.sampled_from([low, low + 1, high, 0, p, -p, 2 * p]),
            )
        )
        if not _within_weil_bounds(p, a1, a2):
            return
        weil = WeilPolynomial(p, a1, a2)
        if not tate_condition(weil):
            with pytest.raises(StructureError):
                root_ratio_orders(weil)
            return
        assert root_ratio_orders(weil).orders == power_sum_ratio_orders(weil)

    def test_zero_p_has_a_repeated_eigenvalue(self):
        # t^2 (t^2 - t + 2): c(1) reads 0 at q = 0, but 0 is a double root
        with pytest.raises(StructureError):
            root_ratio_orders(WeilPolynomial(0, 1, 2))


class TestIntegerArithmeticAgainstSympy:
    """The integer constructions against sympy's resultant, factorization
    and discriminant."""

    U = sympy.symbols("u")
    # n <= 90 with phi(n) <= 24 whose cyclotomic polynomial fits degree 12
    SMALL_ORDERS = [n for n in range(1, 91) if sympy.totient(n) <= 12]

    def oracle(self, ascending):
        u = self.U
        fixed = as_expr(ascending)
        scaled = sum(c * u**i * t**i for i, c in enumerate(ascending))
        ratio = sympy.Poly(
            sympy.cancel(sympy.resultant(fixed, scaled, t) / (u - 1) ** 4), u
        )
        factors = {f for f, _ in ratio.factor_list()[1]}
        return tuple(
            n for n in self.SMALL_ORDERS
            if sympy.Poly(sympy.cyclotomic_poly(n, u), u) in factors
        )

    @given(st.data())
    def test_weil_triples(self, data):
        p = data.draw(st.sampled_from([3, 5, 7, 11, 13, 37, 53, 101, 1009]))
        bound = math.isqrt(16 * p)
        a1 = data.draw(st.integers(-bound, bound))
        a2 = data.draw(st.integers(-2 * p, 6 * p))
        weil = WeilPolynomial(p, a1, a2)
        ascending = weil.frobenius_coefficients
        if sympy.discriminant(as_expr(ascending), t) == 0:
            with pytest.raises(StructureError):
                root_ratio_orders(weil)
            return
        assert root_ratio_orders(weil).orders == self.oracle(ascending)

    @given(
        st.integers(-10**6, 10**6).filter(bool),
        st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4),
    )
    def test_quartic_discriminant(self, lead, rest):
        ascending = (*rest, lead)
        assert _quartic_discriminant(ascending) == sympy.discriminant(
            as_expr(ascending), t
        )
