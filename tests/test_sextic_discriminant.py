"""The sextic discriminant kernel: exact expansion of the generated
nested-Horner function, agreement with the term-by-term table loop on
every coefficient ring (jets included), the programs with known
coefficients folded in against the general ones, guards on the number
of ring products one evaluation makes, and the step-q lemma behind the
integer rank runs."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_torelli.errors import AlignmentError
from spectral_torelli.exact_algebra import Jet1, MultiPoly
from spectral_torelli.igusa_invariants import (
    _discriminant_terms,
    _program,
    binary_sextic_discriminant,
    igusa,
)

B = tuple(f"b{i}" for i in range(7))


def reference_discriminant(b):
    """The table summed term by term, one product of powers per term."""
    total = b[0] * 0
    for exps, c in _discriminant_terms():
        factor = None
        for elt, e in zip(b, exps):
            if e:
                p = elt ** e
                factor = p if factor is None else factor * p
        total = total + factor * c
    return total


def test_generic_expansion_is_the_table():
    # every monomial of the table appears once with its coefficient, so
    # flattening the Horner tree dropped or duplicated none of them
    generic = [MultiPoly.variable(name, B) for name in B]
    disc = binary_sextic_discriminant(generic)
    table = _discriminant_terms()
    assert len(disc.terms) == len(table) == 246
    assert disc.terms == {exps: Fraction(c) for exps, c in table}


small = st.integers(-(10**6), 10**6)


def seven(elements):
    return st.lists(elements, min_size=7, max_size=7)


def jets(q):
    """Seven jets mod q with a common count of 0-5 partials, values and
    partials over range(q), built as (value, partials) pairs so that a
    test can make the Jet1 objects under a patched modulus."""
    residue = st.integers(0, q - 1)
    return st.integers(0, 5).flatmap(lambda n: seven(st.tuples(
        residue, st.lists(residue, min_size=n, max_size=n)
    )))


COEFFICIENTS = st.one_of(
    seven(st.integers(-(2**200), 2**200)),
    seven(st.builds(Fraction, small, st.integers(1, 10**4))),
    jets(Jet1.MODULUS).map(lambda pairs: [Jet1(*p) for p in pairs]),
)


@settings(max_examples=120)
@given(COEFFICIENTS, st.sampled_from(["sextic", "quintic", "zero"]))
def test_kernel_matches_term_by_term_loop(coeffs, shape):
    zero = coeffs[0] * 0
    if shape == "quintic":
        coeffs[6] = zero
    elif shape == "zero":
        coeffs = [zero] * 7
    disc = binary_sextic_discriminant(coeffs)
    # the same element, and the ring's own zero on all-zero input
    assert type(disc) is type(zero)
    assert disc == reference_discriminant(coeffs)
    if shape == "zero":
        assert disc == zero


UV = ("u", "v")
# seven polynomials in u, v with up to two terms of degree up to 1
SMALL_SEXTICS = seven(st.dictionaries(
    st.sampled_from([(0, 0), (1, 0), (0, 1)]),
    st.integers(-9, 9) | st.builds(Fraction, small, st.integers(1, 50)),
    max_size=2,
).map(lambda terms: MultiPoly(UV, terms)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    seven(st.integers(-(2**130), 2**130)),
    seven(st.builds(Fraction, small, st.integers(1, 10**4))),
    SMALL_SEXTICS,
))
def test_generated_function_is_the_table(coeffs):
    # the compiled Horner expression, called straight, on each ring
    disc = _program("discriminant", ())(*coeffs)
    assert disc == reference_discriminant(coeffs)


@settings(max_examples=60)
@given(jets(11), st.sampled_from(["sextic", "quintic", "zero"]))
def test_jet_kernel_matches_term_by_term_loop_mod_11(pairs, shape):
    # at a small modulus a partial taken from a wrong difference quotient
    # would be hit often
    with mock.patch.object(Jet1, "MODULUS", 11):
        coeffs = [Jet1(*p) for p in pairs]
        zero = coeffs[0] * 0
        if shape == "quintic":
            coeffs[6] = zero
        elif shape == "zero":
            coeffs = [zero] * 7
        disc = binary_sextic_discriminant(coeffs)
        assert type(disc) is Jet1
        assert disc == reference_discriminant(coeffs)


def test_jet_discriminant_lifts_ints_and_fractions_anywhere():
    # a scalar may stand at any index, first and last included; the result
    # is the Jet1 the jet arithmetic gives on the same mixed list
    jet = Jet1(12345, (1, 0, 2**60))
    scalars = [3, Fraction(-7, 5), 0, 2**70, Fraction(1, 3), -1, 9]
    for mixed in (
        [jet] * 6 + [3],
        [3] + [jet] * 6,
        [jet if i % 2 else s for i, s in enumerate(scalars)],
        scalars[:3] + [jet] + scalars[4:],
    ):
        disc = binary_sextic_discriminant(mixed)
        assert type(disc) is Jet1
        assert disc == reference_discriminant(mixed)
        lifted = [c if isinstance(c, Jet1) else Jet1.constant(c, 3)
                  for c in mixed]
        assert disc == binary_sextic_discriminant(lifted)


def test_jet_discriminant_refuses_jets_of_different_lengths():
    # a zip over the partials would silently drop the extra ones
    short, long = Jet1(2, (1, 1)), Jet1(3, (1, 1, 1))
    for coeffs in ([short] * 6 + [long], [long] + [short] * 6,
                   [short, 4, 5, long, 1, 2, 3]):
        with pytest.raises(AlignmentError):
            binary_sextic_discriminant(coeffs)


def test_jet_discriminant_refuses_a_denominator_divisible_by_q():
    jet = Jet1(2, (1,))
    bad = Fraction(1, 3 * Jet1.MODULUS)
    for coeffs in ([jet] * 6 + [bad], [bad] + [jet] * 6):
        with pytest.raises(ZeroDivisionError):
            binary_sextic_discriminant(coeffs)
    with mock.patch.object(Jet1, "MODULUS", 11):
        with pytest.raises(ZeroDivisionError):
            binary_sextic_discriminant([Jet1(2, (1,))] * 6 + [Fraction(5, 22)])
    # the jet route takes no ring other than ints and Fractions, and no bool
    for other in (MultiPoly.variable("x", ("x",)), True):
        with pytest.raises(TypeError):
            binary_sextic_discriminant([jet] * 6 + [other])


X = ("x0", "x1", "x2")


@st.composite
def lemma_cases(draw):
    exponents = st.tuples(*(st.integers(0, 6) for _ in X))
    terms = draw(st.dictionaries(
        exponents, st.integers(-(10**6), 10**6), max_size=8
    ))
    coordinates = st.lists(
        st.integers(-(10**4), 10**4), min_size=len(X), max_size=len(X)
    )
    return (MultiPoly(X, terms), draw(coordinates), draw(coordinates),
            draw(st.sampled_from((5, 7, 11, 13))))


def _at(poly, point):
    value = Fraction(poly.evaluate(dict(zip(X, point))))
    assert value.denominator == 1
    return value.numerator


@settings(max_examples=300)
@given(lemma_cases())
def test_step_q_difference_is_the_directional_derivative_mod_q(case):
    # P(v + q d) = P(v) + q grad P(v) . d mod q^2 for an integer polynomial
    # P: the rank runs of `rank_at_point` rest on this, and a small q would
    # expose a wrong version of it
    poly, v, d, q = case
    step = _at(poly, [a + q * b for a, b in zip(v, d)]) - _at(poly, v)
    assert step % q == 0
    slope = sum(_at(poly.derivative(x), v) * b for x, b in zip(X, d))
    assert (step // q - slope) % q == 0


class Counted:
    """An int wrapper that counts ring products, powers included."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __add__(self, other):
        return Counted(self.value + getattr(other, "value", other))

    __radd__ = __add__

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.value * getattr(other, "value", other))

    __rmul__ = __mul__

    def __pow__(self, n):
        result = self
        for _ in range(n - 1):
            result = result * self
        return result


def test_one_discriminant_makes_703_products():
    # the term-by-term loop made 1,277 products with this ring
    values = (3, -1, 4, 1, -5, 9, 2)
    Counted.products = 0
    disc = binary_sextic_discriminant([Counted(v) for v in values])
    assert Counted.products == 703
    assert disc.value == binary_sextic_discriminant(list(values))
    assert disc.value == reference_discriminant(values)


# each place is free (None) or folded to an int 0, 1 or -1
PATTERNS = st.lists(st.sampled_from([None, None, 0, 1, -1]),
                    min_size=7, max_size=7)
M = Jet1.MODULUS**2


def programs(constants):
    """The discriminant and a, b, c programs folded at `constants`."""
    return (_program("discriminant", constants),
            _program("abc", constants))


def folded_case(ring):
    """(constants, b): a fold pattern and seven coefficients that hold its
    ints at the folded places and elements of `ring` at the free ones."""
    def case(draw):
        pattern = draw(PATTERNS)
        constants = tuple((i, v) for i, v in enumerate(pattern)
                          if v is not None)
        free = draw(seven(ring))
        return constants, [v if v is not None else x
                           for v, x in zip(pattern, free)]
    return st.composite(case)()


FOLDED_CASES = st.one_of(
    folded_case(st.integers(0, M - 1)),
    folded_case(st.builds(Fraction, small, st.integers(1, 10**4))),
    SMALL_SEXTICS.flatmap(lambda polys: folded_case(st.sampled_from(polys))),
    jets(Jet1.MODULUS).flatmap(lambda pairs: folded_case(
        st.sampled_from([Jet1(*p) for p in pairs]))),
)


@settings(max_examples=150, deadline=None)
@given(FOLDED_CASES)
def test_folded_programs_equal_the_general_ones(case):
    """At every pattern of folded 0s and 1s and -1s, the folded
    discriminant and a, b, c equal the general programs on the same
    coefficients: ints mod q^2, Fractions, MultiPolys and Jet1s mixed with
    ints. A table that folds away returns 0, and the ring's zero makes it
    the general value."""
    constants, b = case
    zero = sum(c * 0 for c in b)
    discriminant, abc = programs(constants)
    general = _program("discriminant", ())
    assert discriminant(*b) + zero == general(*b) + zero
    for got, want in zip(abc(*b), _program("abc", ())(*b)):
        assert got + zero == want + zero


def test_a_table_that_folds_away_returns_zero():
    # f = u x^6 has a sixfold root, so every term of J10 and of a, b, c
    # holds a b_i folded to 0; the ring's zero comes back from the callers
    constants = tuple((i, 0) for i in range(6))
    discriminant, abc = programs(constants)
    assert discriminant(*[0] * 6, 7) == 0
    assert abc(*[0] * 6, 7) == (0, 0, 0)
    u = MultiPoly.variable("u", ("u",))
    disc = binary_sextic_discriminant([0] * 6 + [u])
    assert type(disc) is MultiPoly and disc.is_zero()
    assert all(type(j) is MultiPoly and j.is_zero()
               for j in igusa([0] * 6 + [u]).as_tuple())
    # rings that do not mix are refused although no product meets them
    jet = Jet1(2, (1,))
    with pytest.raises(TypeError):
        binary_sextic_discriminant([jet] + [0] * 5 + [u])
    with pytest.raises(AlignmentError):
        binary_sextic_discriminant([jet] + [0] * 5 + [Jet1(3, (1, 1))])


@pytest.mark.parametrize("constants, folded, general", [
    (((5, 0), (6, 1)), (179, 95), (320, 126)),
    (((4, 0), (5, 1), (6, 0)), (52, 34), (152, 83)),
])
def test_folded_programs_make_fewer_products(constants, folded, general):
    # the rank runs' monic models without their second-highest term: the
    # discriminant and a, b, c folded at the known coefficients, against
    # the general programs on the same arguments (703 and 196 products
    # when no argument is known)
    values = (3, -1, 4, 1, -5, 9, 2)
    fixed = dict(constants)
    counted = [fixed.get(i, Counted(v)) for i, v in enumerate(values)]
    results = []
    for pattern, products in ((constants, folded), ((), general)):
        discriminant, abc = programs(pattern)
        Counted.products = 0
        disc = discriminant(*counted)
        assert Counted.products == products[0]
        Counted.products = 0
        forms = abc(*counted)
        assert Counted.products == products[1]
        results.append([x.value for x in (disc, *forms)])
    assert results[0] == results[1]
