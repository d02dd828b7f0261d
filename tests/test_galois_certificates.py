"""Galois classification of Frobenius quartics and the cyclotomic scan
of eigenvalue ratios, checked against sympy's number-field machinery and
hand-computable small cases."""

import math
import random

import numpy
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.abc import t
from sympy.polys.numberfields.galoisgroups import galois_group as sympy_galois

from spectral_torelli.errors import (
    DegreeBoundError,
    ReducibleQuarticError,
    StructureError,
)
from spectral_torelli.finite_arithmetic import (
    PointCount,
    WeilPolynomial,
    _within_weil_bounds,
    is_prime,
    weil_polynomial,
)
from spectral_torelli.galois_certificates import (
    _int_divisors,
    _quartic_discriminant,
    cyclotomic,
    euler_phi,
    factor_quartic,
    galois_group,
    quadratic_subfield,
    resolvent_cubic,
    root_ratio_orders,
    squarefree_part,
    tate_condition,
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


class TestSquarefreePart:
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
    def test_phi_matches_sympy(self):
        for n in range(1, 200):
            assert euler_phi(n) == int(sympy.totient(n))
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_cyclotomic_matches_sympy(self):
        for n in list(range(1, 31)) + [105]:
            expected = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()
            assert list(cyclotomic(n)) == list(reversed(expected))
        # 105 is the first index with a coefficient of magnitude 2
        assert min(cyclotomic(105)) == -2
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_cyclotomic_respects_the_degree_cap(self):
        assert len(cyclotomic(128)) == 65
        with pytest.raises(DegreeBoundError):
            cyclotomic(129)


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
            ascending = list(reversed(sympy.Poly(expr, t).all_coeffs()))
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
        cubic = resolvent_cubic(
            (sympy.Integer(0) + 0, 0, 0, 0, 1)
        )
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

    def test_exhaustive_table_up_to_53(self):
        # Every irreducible Weil quartic cuts out a CM field, so its group
        # has a quadratic subfield (never S4/A4), and its real core is
        # positive. The whole table also has a closed form in
        # D = a1^2 - 4 a2 + 8p and E = (a2 + 2p)^2 - 4p a1^2: the
        # discriminant is p^2 D^2 E, and a separable quartic is
        # irreducible exactly when D is not a square; it is then V4 when
        # E is a square, C4 when D E is, and D4 otherwise.
        primes = [p for p in range(3, 54) if is_prime(p)]
        groups = {}
        for weil, group in weil_triples(primes):
            p, a1, a2 = weil.p, weil.a1, weil.a2
            big_d = a1 * a1 - 4 * a2 + 8 * p
            big_e = (a2 + 2 * p) ** 2 - 4 * p * a1 * a1
            disc = _quartic_discriminant(weil.frobenius_coefficients)
            assert disc == p * p * big_d * big_d * big_e
            if not disc:
                assert group is None
                continue
            assert (group is None) == is_square(big_d)
            if group is None:
                continue
            groups[group] = groups.get(group, 0) + 1
            if is_square(big_e):
                assert group == "V4"
            elif is_square(big_d * big_e):
                assert group == "C4"
            else:
                assert group == "D4"
            core = quadratic_subfield(weil).core
            assert core == squarefree_part(big_d)
            assert core > 0
        assert groups == {"D4": 18364, "V4": 1868, "C4": 148}

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


class TestTateCondition:
    def test_separable_and_repeated(self):
        assert tate_condition(WeilPolynomial(37, 2, 38))
        # (t^2 - 5)^2 has every eigenvalue doubled
        assert not tate_condition(WeilPolynomial(5, 0, -10))

    def test_only_weil_polynomials_are_accepted(self):
        # the coefficient tuple of WeilPolynomial(37, 2, 38)
        for scan in (tate_condition, root_ratio_orders, quadratic_subfield):
            with pytest.raises(TypeError):
                scan((1369, -74, 38, -2, 1))


class TestRootRatioOrders:
    def test_reference_polynomials_are_clean(self):
        for p, a1, a2 in ((37, 2, 38), (53, -3, 100)):
            report = root_ratio_orders(WeilPolynomial(p, a1, a2))
            assert report.orders == ()
            assert report.clean
            assert report.max_order == 90
            assert report.phi_bound == 24
            assert len(report.ratio_coefficients) == 13

    def test_supersingular_ratios_are_roots_of_unity(self):
        # eigenvalues of t^4 + 9 differ by powers of i
        report = root_ratio_orders(WeilPolynomial(3, 0, 0))
        assert report.orders == (2, 4)
        assert not report.clean

    def test_ratio_polynomial_matches_the_resultant_construction(self):
        u = sympy.symbols("u")
        for weil in (WeilPolynomial(37, 2, 38), WeilPolynomial(3, 0, 0)):
            report = root_ratio_orders(weil)
            ascending = weil.frobenius_coefficients
            fixed = as_expr(ascending)
            scaled = sum(c * u**i * t**i for i, c in enumerate(ascending))
            res = sympy.resultant(fixed, scaled, t)
            expected = sympy.Poly(
                sympy.cancel(res / (u - 1) ** 4), u
            ).all_coeffs()
            assert list(report.ratio_coefficients) == list(reversed(expected))

    def test_ratio_polynomial_vanishes_on_numeric_ratios(self):
        import mpmath

        report = root_ratio_orders(WeilPolynomial(37, 2, 38))
        with mpmath.workdps(60):
            roots = mpmath.polyroots([1, -2, 38, -74, 1369])
            scale = max(abs(c) for c in report.ratio_coefficients)
            for j, a in enumerate(roots):
                for k, b in enumerate(roots):
                    if j == k:
                        continue
                    value = mpmath.polyval(
                        list(reversed(report.ratio_coefficients)), a / b
                    )
                    assert abs(value) < scale * mpmath.mpf(10) ** -40

    def test_repeated_eigenvalues_are_rejected(self):
        with pytest.raises(StructureError):
            root_ratio_orders(WeilPolynomial(5, 0, -10))


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
        orders = tuple(
            n for n in self.SMALL_ORDERS
            if sympy.Poly(sympy.cyclotomic_poly(n, u), u) in factors
        )
        return tuple(reversed(ratio.all_coeffs())), orders

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
        report = root_ratio_orders(weil)
        coefficients, orders = self.oracle(ascending)
        assert report.ratio_coefficients == coefficients
        assert report.orders == orders

    @given(
        st.integers(-10**6, 10**6).filter(bool),
        st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4),
    )
    def test_quartic_discriminant(self, lead, rest):
        ascending = (*rest, lead)
        assert _quartic_discriminant(ascending) == sympy.discriminant(
            as_expr(ascending), t
        )
