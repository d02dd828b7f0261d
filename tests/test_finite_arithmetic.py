"""Finite-field kernels: curves over F_p, quadratic-extension arithmetic,
exhaustive point counting, and the Weil data assembled from the counts.

The counting oracle below is a deliberately naive scan written against
its own modular arithmetic (and, over the quadratic extension, against a
different choice of nonresidue), so the production tables get a witness
that shares no code with them.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy
import pytest
import sympy
from hypothesis import assume, given, strategies as st

from spectral_torelli import finite_arithmetic
from spectral_torelli.curve_catalog import (
    HyperellipticCurve,
    catalog_get,
    reduce_mod_p,
)
from spectral_torelli.errors import BadReductionError, InconsistentCountsError
from spectral_torelli.finite_arithmetic import (
    Fp2,
    PointCount,
    WeilPolynomial,
    count_points,
    is_prime,
    point_counts,
    quadratic_character,
    smallest_nonresidue,
    weil_polynomial,
    zeta_rational_form,
)

KFS_POINT = {"h1": 12, "h2": 17, "s": 29}
KFS_RATIONAL = (173, 408, 110, 10, 25, -2, 1)
# x^5 + x: the quintic normal form at (h1, h2, s1, s2) = (1, 0, 0, 0)
SYMMETRIC_QUINTIC = (0, 1, 0, 0, 0, 1)


def good_primes(coeffs, top):
    """Odd primes up to top where the model stays smooth of full degree."""
    x = sympy.Symbol("x")
    expr = sum(int(c) * x**i for i, c in enumerate(coeffs))
    disc = int(sympy.discriminant(expr, x)) * int(coeffs[-1])
    return [p for p in range(3, top + 1) if sympy.isprime(p) and disc % p]


def brute_count_ground(coeffs, p):
    seq = list(coeffs) + [0] * (7 - len(coeffs))
    desc = [int(c) % p for c in reversed(seq)]
    affine = 0
    for x in range(p):
        v = 0
        for c in desc:
            v = (v * x + c) % p
        for y in range(p):
            if (y * y - v) % p == 0:
                affine += 1
    lead = int(seq[6]) % p
    if lead == 0:
        return affine + 1
    # two rational branches at infinity exactly when the leading
    # coefficient is a nonzero square
    return affine + (2 if any(y * y % p == lead for y in range(1, p)) else 0)


def brute_count_quadratic(coeffs, p):
    """Scan of F_{p^2} modeled as pairs over the largest nonresidue."""
    w = max(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    seq = list(coeffs) + [0] * (7 - len(coeffs))
    desc = [int(c) % p for c in reversed(seq)]
    squares = {}
    for a in range(p):
        for b in range(p):
            key = ((a * a + w * b * b) % p, 2 * a * b % p)
            squares[key] = squares.get(key, 0) + 1
    affine = 0
    for xa in range(p):
        for xb in range(p):
            u, v = 0, 0
            for c in desc:
                u, v = (u * xa + w * v * xb + c) % p, (u * xb + v * xa) % p
            affine += squares.get((u, v), 0)
    if int(seq[6]) % p == 0:
        return affine + 1
    # every scalar of the prime field becomes a square upstairs
    return affine + 2


def brute_count_fp2(coeffs, p):
    """Points over F_{p^2} by enumerating every x and y with Fp2
    elements: affine pairs with y^2 = f(x), and at infinity one point
    for a quintic or the square roots of the leading coefficient."""
    field = [Fp2(a, b, p) for a in range(p) for b in range(p)]
    roots = {}
    for y in field:
        square = y * y
        roots[square] = roots.get(square, 0) + 1
    seq = list(coeffs) + [0] * (7 - len(coeffs))
    affine = 0
    for x in field:
        v = Fp2(0, 0, p)
        for c in reversed(seq):
            v = v * x + c
        affine += roots.get(v, 0)
    if seq[6] % p == 0:
        return affine + 1
    return affine + roots.get(Fp2.embed(seq[6], p), 0)


def squarefree_mod_p(coeffs, p):
    """gcd(f, f') = 1 over F_p, for ascending residues with a nonzero
    leading one (f' = 0 means f is a p-th power)."""

    def trim(poly):
        poly = [c % p for c in poly]
        while poly and poly[-1] == 0:
            poly.pop()
        return poly

    a = trim(coeffs)
    b = trim([k * c for k, c in enumerate(coeffs)][1:])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            a = trim(a)
        a, b = b, a
    return len(a) == 1


def hasse_witt_matrix(residues, p):
    """W = (c_{ip-j}) for i, j in {1, 2}, with c_k the coefficients of
    f^((p-1)/2) modulo p (Yui 1978), by repeated truncated products."""
    f = numpy.array(residues, dtype=numpy.int64)
    power = numpy.array([1], dtype=numpy.int64)
    for _ in range((p - 1) // 2):
        power = numpy.convolve(power, f)[: 2 * p] % p
    return [[int(power[i * p - j]) for j in (1, 2)] for i in (1, 2)]


def rootless_sextic(p, lead, bs, ss):
    """lead * prod (x^2 + b*x + c) over distinct b, with c chosen so that
    the discriminant b^2 - 4c = n*s^2 (n a non-residue, s != 0) makes
    each factor irreducible: a squarefree sextic without roots mod p."""
    n = smallest_nonresidue(p)
    poly = [lead % p]
    for b, s in zip(bs, ss):
        c = (b * b - n * s * s) * pow(4, -1, p) % p
        shifted = [0] + poly
        poly = [
            (c * x + b * y + z) % p
            for x, y, z in zip(poly + [0, 0], shifted + [0], [0] + shifted)
        ]
    return tuple(poly)


# (N1, N2) of each family at a fixed point, recorded with the counting
# code that scanned all of F_{p^2} with a table of square roots.
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "point_counts.json").read_text()
)


def kfs_curve():
    return catalog_get("KFS").specialize(KFS_POINT)


class TestPrimality:
    def test_small_range_against_sympy(self):
        for n in range(-3, 200):
            assert is_prime(n) == sympy.isprime(n)

    def test_carmichael_numbers_are_composite(self):
        assert not is_prime(561)
        assert not is_prime(1105)
        assert not is_prime(41041)

    def test_large_inputs(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(7919 * 7927)
        assert is_prime(10**18 + 9)


class TestPrimeField:
    """A curve over F_p is the plain int residues that reduce_mod_p
    makes; count_points reduces raw int and Fraction sequences itself."""

    def test_constructor_validates_modulus(self):
        curve = kfs_curve()
        for p in (1, 0, -7, 9, 41041):
            with pytest.raises(ValueError, match="is not prime"):
                reduce_mod_p(curve, p)
        with pytest.raises(BadReductionError):
            reduce_mod_p(curve, 2)
        with pytest.raises(ValueError):
            Fp2(1, 0, 15)

    def test_fraction_coercion(self):
        # 1/2 = 4 modulo 7
        half = (Fraction(1, 2), 1, 0, 0, 0, 1)
        reduced = reduce_mod_p(HyperellipticCurve(half), 7)
        assert reduced.coefficients == (4, 1, 0, 0, 0, 1)
        assert all(type(c) is int for c in reduced.coefficients)
        assert count_points(half, 7) == count_points(reduced, 7)
        assert Fp2(Fraction(1, 2), 0, 7) == 4
        seventh = (Fraction(1, 7), 1, 0, 0, 0, 1)
        with pytest.raises(BadReductionError,
                           match="^denominator 7 is divisible by 7$"):
            reduce_mod_p(HyperellipticCurve(seventh), 7)
        with pytest.raises(BadReductionError):
            count_points(seventh, 7)

    def test_mixed_fields_and_bad_types_are_rejected(self):
        reduced = reduce_mod_p(kfs_curve(), 37)
        assert count_points(reduced, 37) == 36
        # a curve over F_37 is not counted at another prime
        for extension in (1, 2):
            with pytest.raises(ValueError, match="different prime fields"):
                count_points(reduced, 53, extension=extension)
        with pytest.raises(ValueError):
            Fp2(1, 0, 5) + Fp2(1, 0, 7)
        for bad in (True, 0.5):
            with pytest.raises(TypeError):
                count_points((bad, 1, 0, 0, 0, 1), 7)
            with pytest.raises(TypeError):
                Fp2(bad, 0, 7)


class TestQuadraticExtension:
    def test_generator_squares_to_the_nonresidue(self):
        for p in (7, 11, 23):
            z = Fp2(0, 1, p)
            assert z * z == smallest_nonresidue(p)

    def test_field_laws_on_sample_points(self):
        p = 13
        xs = [Fp2(a, b, p) for a, b in [(3, 5), (0, 1), (7, 0), (12, 11)]]
        one = Fp2(1, 0, p)
        for x in xs:
            for y in xs:
                assert x * y == y * x
                for z in xs:
                    assert (x * y) * z == x * (y * z)
                    assert x * (y + z) == x * y + x * z
            assert x / x == one
            assert (one / x) * x == one

    def test_frobenius_is_the_p_power_map(self):
        p = 11
        for a, b in [(0, 1), (3, 7), (10, 10), (5, 0)]:
            z = Fp2(a, b, p)
            assert z.frobenius() == z**p
            assert z.frobenius().frobenius() == z
        assert Fp2.embed(9, p).frobenius() == Fp2(9, 0, p)

    def test_norm_lands_in_the_prime_field(self):
        p = 19
        for a, b in [(2, 3), (0, 5), (18, 1)]:
            norm = Fp2(a, b, p) * Fp2(a, b, p).frobenius()
            assert norm.b == 0
            assert norm == a * a - smallest_nonresidue(p) * b * b

    def test_division_by_zero_and_mixed_fields(self):
        with pytest.raises(ZeroDivisionError):
            Fp2(1, 1, 7) / Fp2(0, 0, 7)
        with pytest.raises(ValueError):
            Fp2(1, 0, 7) + Fp2(1, 0, 11)
        assert 3 / Fp2(3, 0, 7) == 1
        assert Fp2(4, 0, 7) == 4 == Fp2(11, 0, 7)
        with pytest.raises(AttributeError):
            Fp2(1, 0, 7).a = 2


class TestCharacter:
    def test_euler_criterion_equivalence(self):
        p = 41
        for a in range(2 * p):
            chi = quadratic_character(a, p)
            if a % p == 0:
                assert chi == 0
            else:
                assert chi == (1 if pow(a, (p - 1) // 2, p) == 1 else -1)

    def test_multiplicativity_and_residue_count(self):
        p = 37
        for a in (2, 5, 20, 36):
            for b in (3, 7, 19):
                product = quadratic_character(a * b, p)
                assert product == quadratic_character(a, p) * quadratic_character(b, p)
        assert sum(quadratic_character(a, p) == 1 for a in range(1, p)) == (p - 1) // 2

    def test_smallest_nonresidue(self):
        assert smallest_nonresidue(3) == 2
        assert smallest_nonresidue(7) == 3
        for p in (5, 13, 41, 97):
            m = smallest_nonresidue(p)
            assert quadratic_character(m, p) == -1
            assert all(quadratic_character(c, p) == 1 for c in range(2, m))

    def test_composite_modulus_is_rejected(self):
        with pytest.raises(ValueError):
            quadratic_character(3, 21)
        with pytest.raises(BadReductionError):
            smallest_nonresidue(2)


class TestPointCounts:
    def test_ground_field_counts_match_the_naive_scan(self):
        for coeffs in (KFS_RATIONAL, SYMMETRIC_QUINTIC):
            primes = good_primes(coeffs, 97)
            assert primes, "corpus model has no good prime in range"
            for p in primes:
                assert count_points(coeffs, p) == brute_count_ground(coeffs, p)

    def test_quadratic_counts_match_the_naive_scan(self):
        for coeffs in (KFS_RATIONAL, SYMMETRIC_QUINTIC):
            for p in good_primes(coeffs, 13):
                got = count_points(coeffs, p, extension=2)
                assert got == brute_count_quadratic(coeffs, p)

    def test_reference_specialization_counts(self):
        curve = kfs_curve()
        assert point_counts(curve, 37) == PointCount(37, 36, 1442)
        assert point_counts(curve, 53) == PointCount(53, 57, 3001)
        # the already-reduced model gives the same counts
        reduced = reduce_mod_p(curve, 37)
        assert count_points(reduced, 37) == 36

    def test_six_coefficient_input_is_a_quintic_model(self):
        assert count_points(SYMMETRIC_QUINTIC, 7) == brute_count_ground(
            SYMMETRIC_QUINTIC, 7
        )

    def test_square_polynomial_violates_the_weil_bound(self):
        # (x^3 + x + 1)^2 doubles almost every fiber
        squared = (1, 2, 1, 2, 2, 0, 1)
        with pytest.raises(InconsistentCountsError):
            count_points(squared, 37)
        # over F_{37^2} it reaches the direct count, which breaks the
        # bound as well
        with pytest.raises(InconsistentCountsError):
            count_points(squared, 37, extension=2)

    def test_input_validation(self):
        with pytest.raises(BadReductionError):
            count_points((1, 1, 0, 0, 0, 0, 37), 37)
        with pytest.raises(BadReductionError):
            count_points((1, 2, 3, 4, 5), 7)
        with pytest.raises(ValueError):
            count_points(KFS_RATIONAL, 7, extension=3)
        with pytest.raises(BadReductionError):
            count_points(KFS_RATIONAL, 2)
        with pytest.raises(ValueError):
            count_points(KFS_RATIONAL, 15)
        with pytest.raises(BadReductionError):
            count_points((Fraction(1, 37), 0, 0, 0, 0, 0, 1), 37)

    @given(data=st.data())
    def test_quadratic_counts_match_fp2_enumeration(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
        degree = data.draw(st.sampled_from((5, 6)))
        coeffs = data.draw(
            st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree)
        ) + [data.draw(st.integers(1, p - 1))]
        assume(squarefree_mod_p(coeffs, p))
        n2 = count_points(coeffs, p, extension=2)
        assert n2 == brute_count_fp2(coeffs, p)
        weil_polynomial(PointCount(p, count_points(coeffs, p), n2))

    def test_hasse_witt_matrix_matches_the_counts(self):
        checked = 0
        for family, point in GOLDEN["points"].items():
            curve = catalog_get(family).specialize(point)
            for p in (101, 103, 137, 277, 547):
                try:
                    reduction = reduce_mod_p(curve, p)
                except BadReductionError:
                    continue
                residues = list(reduction.coefficients)
                w = weil_polynomial(point_counts(reduction, p))
                (h11, h12), (h21, h22) = hasse_witt_matrix(residues, p)
                assert (w.a1 - (h11 + h22)) % p == 0, (family, p)
                assert (w.a2 - (h11 * h22 - h12 * h21)) % p == 0, (family, p)
                checked += 1
        assert checked == 25

    @pytest.mark.parametrize("family", sorted(GOLDEN["points"]))
    def test_golden_count_table(self, family):
        curve = catalog_get(family).specialize(GOLDEN["points"][family])
        rows = [r for r in GOLDEN["counts"] if r["family"] == family]
        assert [r["p"] for r in rows] == GOLDEN["primes"]
        for row in rows:
            p = row["p"]
            if row["n1"] is None:
                with pytest.raises(BadReductionError):
                    reduce_mod_p(curve, p)
                continue
            counts = point_counts(reduce_mod_p(curve, p), p)
            assert (counts.n1, counts.n2) == (row["n1"], row["n2"]), p


PRIMES_TO_300 = [q for q in range(3, 300) if sympy.isprime(q)]


def draw_model(data, p):
    """A squarefree quintic, sextic or rootless sextic model mod p as
    (7 ascending residues, degree)."""
    kind = data.draw(st.sampled_from(("quintic", "sextic", "rootless")))
    if kind == "rootless":
        bs = data.draw(
            st.lists(st.integers(0, p - 1), min_size=3, max_size=3, unique=True)
        )
        ss = data.draw(st.lists(st.integers(1, p - 1), min_size=3, max_size=3))
        coeffs = rootless_sextic(p, data.draw(st.integers(1, p - 1)), bs, ss)
        assert all(sum(c * x**i for i, c in enumerate(coeffs)) % p for x in range(p))
        return coeffs, 6
    degree = 5 if kind == "quintic" else 6
    coeffs = data.draw(
        st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree)
    ) + [data.draw(st.integers(1, p - 1))]
    assume(squarefree_mod_p(coeffs, p))
    return tuple(coeffs + [0] * (6 - degree)), degree


class TestFrobeniusCount:
    """N2 from a1, det W and the Jacobian order test, against the direct
    F_{p^2} count that stays as its fallback."""

    @given(data=st.data())
    def test_matches_the_direct_count(self, data):
        p = data.draw(
            st.one_of(st.sampled_from((3, 5, 7)), st.sampled_from(PRIMES_TO_300))
        )
        coeffs, degree = draw_model(data, p)
        direct = finite_arithmetic._count_quadratic(coeffs, degree, p)
        fast = finite_arithmetic._count_quadratic_frobenius(coeffs, degree, p)
        assert fast in (None, direct)
        assert count_points(coeffs, p, extension=2) == direct

    @given(data=st.data())
    def test_hasse_witt_matrix_matches_the_numpy_oracle(self, data):
        p = data.draw(st.sampled_from(PRIMES_TO_300))
        ends = st.integers(1, p - 1)
        middle = st.lists(st.integers(0, p - 1), min_size=5, max_size=5)
        coeffs = [data.draw(ends)] + data.draw(middle) + [data.draw(ends)]
        w = finite_arithmetic._hasse_witt(tuple(coeffs), p)
        assert [list(row) for row in w] == hasse_witt_matrix(coeffs, p)

    def test_golden_counts_come_from_the_frobenius_path(self):
        # every good row of the table, from p = 29 up, without a fallback
        rows = 0
        for family, point in GOLDEN["points"].items():
            curve = catalog_get(family).specialize(point)
            for row in GOLDEN["counts"]:
                p = row["p"]
                if row["family"] != family or row["n1"] is None:
                    continue
                reduction = reduce_mod_p(curve, p)
                coeffs = reduction.coefficients
                coeffs += (0,) * (7 - len(coeffs))
                n2 = finite_arithmetic._count_quadratic_frobenius(
                    coeffs, 6 if coeffs[6] else 5, p
                )
                assert n2 == row["n2"], (family, p)
                rows += 1
        assert rows == 38

    @given(data=st.data())
    def test_explicit_group_law_matches_cantor(self, data):
        p = data.draw(st.sampled_from([q for q in PRIMES_TO_300 if q > 7]))
        lead = data.draw(st.integers(1, p - 1))
        assume(quadratic_character(lead, p) == -1)
        f = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=6, max_size=6)))
        f += (lead,)
        assume(squarefree_mod_p(f, p))
        points = list(finite_arithmetic._points(f, p))
        assume(len(points) >= 4)
        for x, y in points:
            assert (y * y - sum(c * x**i for i, c in enumerate(f))) % p == 0

        def pair(a, b):
            return finite_arithmetic._cantor(
                *(((-x % p, 1), (y,)) for x, y in (a, b)), f, p
            )

        d, e = pair(*points[:2]), pair(*points[2:4])
        for _ in range(8):
            total = finite_arithmetic._jac_add(d, e, f, p)
            double = finite_arithmetic._jac_double(d, f, p)
            assert total == finite_arithmetic._cantor(d, e, f, p)
            assert double == finite_arithmetic._cantor(d, d, f, p)
            d, e = double, total
        # #J(F_p) = P(1) from the direct counts annihilates every class
        w = weil_polynomial(
            PointCount(
                p,
                count_points(f, p),
                finite_arithmetic._count_quadratic(f, 6, p),
            )
        )
        order = sum(w.frobenius_coefficients)
        assert finite_arithmetic._jac_mul(d, order, f, p) == ((1,), ())

    def test_undecided_order_test_falls_back_to_the_direct_count(self, monkeypatch):
        # x^5 + x leaves several candidates at p = 101; with every
        # divisor annihilated by all of them the order test cannot decide
        coeffs, degree, p = (0, 1, 0, 0, 0, 1, 0), 5, 101
        expected = finite_arithmetic._count_quadratic(coeffs, degree, p)
        direct = []
        monkeypatch.setattr(
            finite_arithmetic, "_jac_mul", lambda divisor, n, f, p: ((1,), ())
        )
        monkeypatch.setattr(
            finite_arithmetic,
            "_count_quadratic",
            lambda *args: direct.append(args) or expected,
        )
        assert finite_arithmetic._count_quadratic_frobenius(coeffs, degree, p) is None
        assert count_points(coeffs, p, extension=2) == expected == 10606
        assert direct == [(coeffs, degree, p)]

    def test_rootless_sextics_need_no_fallback(self):
        # no rational Weierstrass point: the order test still decides
        for p in (41, 101, 547):
            coeffs = rootless_sextic(p, 3, (1, 2, 3), (1, 1, 1))
            n2 = finite_arithmetic._count_quadratic_frobenius(coeffs, 6, p)
            assert n2 == finite_arithmetic._count_quadratic(coeffs, 6, p)

    def test_hasse_witt_trace_mismatch_raises(self, monkeypatch):
        real = finite_arithmetic._hasse_witt

        def off_by_one(model, p):
            (h11, h12), row = real(model, p)
            return ((h11 + 1) % p, h12), row

        monkeypatch.setattr(finite_arithmetic, "_hasse_witt", off_by_one)
        with pytest.raises(InconsistentCountsError, match="Hasse-Witt trace"):
            count_points(SYMMETRIC_QUINTIC, 101, extension=2)

    def test_order_no_candidate_annihilates_raises(self, monkeypatch):
        monkeypatch.setattr(
            finite_arithmetic, "_jac_mul", lambda divisor, n, f, p: divisor
        )
        with pytest.raises(InconsistentCountsError, match="Jacobian order"):
            count_points(SYMMETRIC_QUINTIC, 101, extension=2)


class TestWeilData:
    def test_reference_weil_coefficients(self):
        w37 = weil_polynomial(PointCount(37, 36, 1442))
        assert (w37.a1, w37.a2) == (2, 38)
        assert w37.l_coefficients == (1, -2, 38, -74, 1369)
        w53 = weil_polynomial(PointCount(53, 57, 3001))
        assert (w53.a1, w53.a2) == (-3, 100)
        assert w53.l_coefficients == (1, 3, 100, 159, 2809)

    def test_power_sum_identity_on_live_counts(self):
        # N2 = p^2 + 1 - (a1^2 - 2 a2) ties the second count to the
        # first two power sums of the Frobenius roots
        for coeffs in (KFS_RATIONAL, SYMMETRIC_QUINTIC):
            for p in good_primes(coeffs, 31):
                counts = point_counts(coeffs, p)
                w = weil_polynomial(counts)
                assert counts.n1 == p + 1 - w.a1
                assert counts.n2 == p * p + 1 - (w.a1**2 - 2 * w.a2)

    def test_parity_mismatch_is_rejected(self):
        with pytest.raises(InconsistentCountsError):
            weil_polynomial(PointCount(37, 36, 1443))

    def test_counts_outside_the_weil_interval_are_rejected(self):
        p = 37

        def counts(a1, a2):
            n1 = p + 1 - a1
            return PointCount(p, n1, 2 * (a2 + (p + 1) * n1 - p) - n1 * n1)

        with pytest.raises(InconsistentCountsError):
            weil_polynomial(PointCount(p, 100, 0))  # a1 = -62, |a1| > 4 sqrt(p)
        for a1, a2 in [(25, 0), (0, 2 * p + 1), (12, -2 * p), (0, -3 * p)]:
            with pytest.raises(InconsistentCountsError):
                weil_polynomial(counts(a1, a2))
        # a1^2 = 16p - 16 with a double root of the real Weil polynomial
        # lies inside the interval
        assert weil_polynomial(counts(24, 144 + 2 * p)) == WeilPolynomial(
            p, 24, 144 + 2 * p
        )

    def test_functional_equation(self):
        samples = [
            weil_polynomial(PointCount(37, 36, 1442)),
            weil_polynomial(PointCount(53, 57, 3001)),
            WeilPolynomial(11, 4, 9),
        ]
        for w in samples:
            c = w.frobenius_coefficients
            assert c[0] == w.p**2 * c[4]
            assert c[1] == w.p * c[3]
            assert c[2] == c[2]
            # the zeta numerator lists the same coefficients reversed
            assert w.l_coefficients == tuple(reversed(c))

    def test_root_magnitudes_are_sqrt_p(self):
        polys = [
            weil_polynomial(point_counts(KFS_RATIONAL, p)) for p in (37, 53)
        ] + [
            weil_polynomial(point_counts(SYMMETRIC_QUINTIC, p)) for p in (11, 13)
        ]
        for w in polys:
            descending = list(reversed(w.frobenius_coefficients))
            for root in numpy.roots(descending):
                assert abs(abs(root) - math.sqrt(w.p)) < 1e-6

    def test_zeta_rational_form_shape(self):
        form = zeta_rational_form(weil_polynomial(PointCount(37, 36, 1442)))
        assert form["p"] == 37
        assert form["numerator"] == [1, -2, 38, -74, 1369]
        assert form["denominator_factors"] == [[1, -1], [1, -37]]
        assert form["display"] == (
            "(1369*t^4 - 74*t^3 + 38*t^2 - 2*t + 1) / ((1 - t)*(1 - 37*t))"
        )

    def test_weil_polynomial_record(self):
        w = WeilPolynomial(37, 2, 38)
        assert w == weil_polynomial(PointCount(37, 36, 1442))
