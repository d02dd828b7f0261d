"""The sextic discriminant kernel: exact expansion of the nested-Horner
program, agreement with the term-by-term table loop on every coefficient
ring, and a guard on the number of ring products one evaluation makes."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_torelli.exact_algebra import Jet1, MultiPoly
from spectral_torelli.igusa_invariants import (
    _discriminant_terms,
    binary_sextic_discriminant,
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


COEFFICIENTS = st.one_of(
    seven(st.integers(-(2**200), 2**200)),
    seven(st.builds(Fraction, small, st.integers(1, 10**4))),
    seven(st.builds(
        Jet1, st.integers(0, 2**61), st.lists(small, min_size=3, max_size=3)
    )),
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
