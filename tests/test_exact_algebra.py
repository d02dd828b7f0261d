"""Exact-arithmetic kernel checked against sympy on random inputs."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from spectral_torelli.errors import (
    AlignmentError,
    DegreeBoundError,
    ExactDivisionError,
    PolyParseError,
)
from spectral_torelli.exact_algebra import (
    Jet1,
    MultiPoly,
    UniPoly,
    discriminant,
    jet_eval,
    rational_matrix_rank,
    resultant,
)
from spectral_torelli.finite_arithmetic import Fp2
from spectral_torelli.series_kernel import TruncatedSeries

VARS = ("a", "b", "c")
SYMS = sympy.symbols(VARS)


def to_sympy(p):
    expr = sympy.Integer(0)
    for exps, coeff in p.sorted_terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(SYMS, exps):
            term *= s ** e
        expr += term
    return expr


def random_poly(rng, variables=VARS, max_terms=6, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiPoly(variables, terms)


def test_zero_terms_are_dropped():
    p = MultiPoly(VARS, {(1, 0, 0): 0, (0, 1, 0): 2})
    assert p == MultiPoly.parse("2*b", VARS)
    assert not p.is_zero()
    assert MultiPoly(VARS, {(2, 1, 0): 0}).is_zero()


def test_parse_agrees_with_sympy():
    texts = [
        "3*a^2*b - 7",
        "-(a + b)*(a - b) + c^3",
        "a^2 - 2*a*b + b^2",
        "1/2*a - 3/4",
        "-5",
        "a*(b + 2*(c - 1))",
    ]
    for text in texts:
        mine = MultiPoly.parse(text, VARS)
        ref = sympy.expand(sympy.sympify(text.replace("^", "**")))
        assert sympy.expand(to_sympy(mine) - ref) == 0


def test_parse_rejects_garbage():
    for bad in ("a +", "2**a", "(a", "a^b", "q + 1", ""):
        with pytest.raises(PolyParseError):
            MultiPoly.parse(bad, VARS)


def test_ring_ops_match_sympy():
    rng = random.Random(101)
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        assert sympy.expand(to_sympy(p + q) - (to_sympy(p) + to_sympy(q))) == 0
        assert sympy.expand(to_sympy(p - q) - (to_sympy(p) - to_sympy(q))) == 0
        assert sympy.expand(to_sympy(p * q) - to_sympy(p) * to_sympy(q)) == 0


def test_pow_and_scalar_ops():
    rng = random.Random(5)
    p = random_poly(rng, max_terms=3, max_exp=2)
    assert to_sympy(p ** 3) == sympy.expand(to_sympy(p) ** 3)
    assert to_sympy(p * 7) == sympy.expand(7 * to_sympy(p))
    assert to_sympy(p * Fraction(2, 3)) == sympy.expand(to_sympy(p) * sympy.Rational(2, 3))
    assert (p ** 0).is_constant() and (p ** 0).constant_value() == 1


def test_exact_division():
    p = MultiPoly.parse("a^2 - b^2", VARS)
    q = MultiPoly.parse("a + b", VARS)
    assert (p * q) / q == p
    with pytest.raises(ExactDivisionError):
        _ = p / MultiPoly.parse("c", VARS)


def test_derivative_matches_sympy():
    rng = random.Random(77)
    for _ in range(20):
        p = random_poly(rng)
        for name, sym in zip(VARS, SYMS):
            assert sympy.expand(
                to_sympy(p.derivative(name)) - sympy.diff(to_sympy(p), sym)
            ) == 0


def test_evaluate_matches_sympy():
    rng = random.Random(13)
    for _ in range(20):
        p = random_poly(rng)
        point = {
            v: Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for v in VARS
        }
        ref = to_sympy(p).subs(
            {s: sympy.Rational(point[v].numerator, point[v].denominator)
             for v, s in zip(VARS, SYMS)}
        )
        got = p.evaluate(point)
        assert got == Fraction(int(ref.p), int(ref.q))


def test_substitute_matches_sympy():
    rng = random.Random(23)
    for _ in range(15):
        p = random_poly(rng, max_terms=4, max_exp=2)
        images = {
            "a": random_poly(rng, max_terms=2, max_exp=2),
            "b": random_poly(rng, max_terms=2, max_exp=2),
        }
        got = p.substitute(images, variables=VARS)
        ref = to_sympy(p).subs(
            [(SYMS[0], to_sympy(images["a"])), (SYMS[1], to_sympy(images["b"]))],
            simultaneous=True,
        )
        assert sympy.expand(to_sympy(got) - ref) == 0


def test_substitute_alignment_rules():
    p = MultiPoly.parse("a + b", VARS)
    # an image over a foreign variable tuple is rejected
    with pytest.raises(AlignmentError):
        p.substitute({"a": MultiPoly.parse("x", ("x",))}, variables=VARS)
    # unmapped variables must exist in the target tuple
    with pytest.raises(AlignmentError):
        p.substitute({"a": MultiPoly.constant(("a",), 1)}, variables=("a",))
    # rational images are lifted
    q = p.substitute({"a": Fraction(1, 2)}, variables=VARS)
    assert q == MultiPoly.parse("1/2 + b", VARS)


def test_coefficient_extraction():
    p = MultiPoly.parse("a^2*b + 3*a*c - b + 4", VARS)
    inner = p.coefficient_of("a", 1)
    assert inner.variables == ("b", "c")
    assert inner == MultiPoly.parse("3*c", ("b", "c"))
    assert p.coefficient_of("a", 0) == MultiPoly.parse("-b + 4", ("b", "c"))
    assert p.degree_in("a") == 2
    assert p.total_degree() == 3


def test_unipoly_divmod_property():
    rng = random.Random(31)
    for _ in range(25):
        f = UniPoly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))])
        g = UniPoly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))])
        if g.is_zero():
            continue
        q, r = f.divmod(g)
        assert f == q * g + r
        assert r.is_zero() or r.degree < g.degree


def test_unipoly_degree_guard():
    with pytest.raises(DegreeBoundError):
        UniPoly([Fraction(0)] * 200 + [Fraction(1)])


def sylvester_det(f, g):
    # sympy.resultant silently reorders by degree, losing the
    # (-1)^(mn) swap sign; the Sylvester determinant pins the
    # convention without that ambiguity.
    n, m = f.degree, g.degree
    frow = [c for c in reversed(f.coeffs)]
    grow = [c for c in reversed(g.coeffs)]
    rows = []
    for i in range(m):
        rows.append([0] * i + frow + [0] * (m - 1 - i))
    for i in range(n):
        rows.append([0] * i + grow + [0] * (n - 1 - i))
    mat = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]
    )
    return mat.det()


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(41)
    x = sympy.Symbol("x")
    checked_library = 0
    for _ in range(20):
        fc = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(2, 6))]
        gc = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(2, 6))]
        f, g = UniPoly(fc), UniPoly(gc)
        if f.is_zero() or g.is_zero() or f.degree == 0 or g.degree == 0:
            continue
        ref = sylvester_det(f, g)
        mine = resultant(f, g)
        assert mine == Fraction(int(ref.p), int(ref.q))
        if f.degree >= g.degree:
            # sympy agrees with the determinant when no reorder happens
            lib = sympy.resultant(
                sympy.Poly([c for c in reversed(fc)], x),
                sympy.Poly([c for c in reversed(gc)], x),
            )
            assert mine == Fraction(int(lib.p), int(lib.q))
            checked_library += 1
    assert checked_library > 0


def test_resultant_root_evaluation():
    # res(x - a, g) = g(a) fixes which argument contributes its roots
    g = UniPoly([Fraction(3), Fraction(-5), Fraction(-3), Fraction(-3)])
    for a in (Fraction(2), Fraction(-3, 2), Fraction(0)):
        linear = UniPoly([-a, Fraction(1)])
        assert resultant(linear, g) == g.evaluate(a)


def test_discriminant_matches_sympy():
    rng = random.Random(43)
    x = sympy.Symbol("x")
    for _ in range(20):
        fc = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(3, 7))]
        f = UniPoly(fc)
        if f.is_zero() or f.degree < 2:
            continue
        ref = sympy.discriminant(sympy.Poly([c for c in reversed(fc)], x))
        assert discriminant(f) == Fraction(int(ref.p), int(ref.q))


Q = Jet1.MODULUS


def mod_q(x):
    """Image of an exact rational in Z/QZ, computed apart from the kernel."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, Q) % Q


def test_jet_modulus_is_the_mersenne_prime():
    assert Q == 2**61 - 1 and sympy.isprime(Q)


def test_jet_partials_match_sympy():
    rng = random.Random(53)
    tracked = ("a", "b")
    for _ in range(100):
        p = random_poly(rng, max_terms=5, max_exp=3)
        point = {
            v: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for v in VARS
        }
        jet = jet_eval(p, point, tracked)
        subs = {
            s: sympy.Rational(point[v].numerator, point[v].denominator)
            for v, s in zip(VARS, SYMS)
        }
        assert jet.value == mod_q(Fraction(str(to_sympy(p).subs(subs))))
        for i, name in enumerate(tracked):
            sym = SYMS[VARS.index(name)]
            ref = sympy.diff(to_sympy(p), sym).subs(subs)
            assert jet.partials[i] == mod_q(Fraction(str(ref)))


def test_jet_quotient_rule():
    num = Jet1(Fraction(3), (Fraction(1), Fraction(0)))
    den = Jet1(Fraction(2), (Fraction(0), Fraction(1)))
    q = num / den
    assert q.value == mod_q(Fraction(3, 2))
    assert q.partials == (mod_q(Fraction(1, 2)), mod_q(Fraction(-3, 4)))
    with pytest.raises(ZeroDivisionError):
        num / Jet1(Fraction(0), (Fraction(1), Fraction(0)))
    # Q is nonzero over Q but 0 mod Q: the quotient has no image mod Q.
    with pytest.raises(ZeroDivisionError):
        num / Jet1(Q, (Fraction(1), Fraction(0)))
    with pytest.raises(ZeroDivisionError):
        Jet1(Fraction(1, Q), (0, 0))
    inverse_square = den ** -2
    assert inverse_square.value == mod_q(Fraction(1, 4))
    assert inverse_square.partials == (0, mod_q(Fraction(-1, 4)))


def test_matrix_rank_matches_sympy():
    rng = random.Random(61)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        # plant a dependent row now and then
        if rows >= 2 and rng.random() < 0.4:
            m[-1] = [2 * c for c in m[0]]
        ref = sympy.Matrix(m).rank()
        assert rational_matrix_rank(m) == ref
    assert rational_matrix_rank([]) == 0


# Canonical form: what MultiPoly and Jet1 arithmetic results must satisfy,
# since the classes build them without going through the validating
# constructor.

small_fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=5
)


@st.composite
def small_polys(draw, variables=VARS):
    exponents = st.tuples(*(st.integers(0, 3) for _ in variables))
    terms = draw(st.dictionaries(exponents, small_fractions, max_size=5))
    return MultiPoly(variables, terms)


def assert_canonical_poly(r, variables=VARS, reference=None):
    """r is in canonical form and, when a reference is given, equals that
    dict of Fractions."""
    assert r.variables == variables
    assert type(r.denominator) is int and r.denominator > 0
    assert math.gcd(r.denominator, *r.numerators.values()) == 1
    for exps, n in r.numerators.items():
        assert type(n) is int and n != 0
        assert type(exps) is tuple and len(exps) == len(variables)
        assert all(type(e) is int and e >= 0 for e in exps)
    rebuilt = MultiPoly(r.variables, r.terms)
    assert rebuilt.numerators == r.numerators
    assert rebuilt.denominator == r.denominator
    assert all(type(c) is Fraction for c in r.terms.values())
    if reference is not None:
        assert r.terms == reference


# The dict-of-Fraction reference: MultiPoly's arithmetic as it was before
# it went fraction-free, one Fraction per term.

def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_scale(a, k):
    return ref_clean({e: c * k for e, c in a.items()})


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_pow(a, n, n_vars):
    out = {(0,) * n_vars: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_derivative(a, i):
    return {
        e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]
    }


def ref_coefficient_of(a, i, power):
    return {e[:i] + e[i + 1:]: c for e, c in a.items() if e[i] == power}


def ref_evaluate(a, values):
    total = Fraction(0)
    for e, c in a.items():
        for v, k in zip(values, e):
            c *= v ** k
        total += c
    return total


def ref_compose(a, images, n_vars):
    """a with its i-th variable replaced by the reference images[i]."""
    total = {}
    for e, c in a.items():
        term = {(0,) * n_vars: c}
        for image, k in zip(images, e):
            term = ref_mul(term, ref_pow(image, k, n_vars))
        total = ref_add(total, term)
    return total


def ref_divide(a, b):
    """The exact quotient a / b by graded-lex reduction, or None when
    there is a remainder."""
    lead = max(b, key=lambda e: (sum(e), e))
    quotient, rem = {}, dict(a)
    while rem:
        e = max(rem, key=lambda e: (sum(e), e))
        q_e = tuple(x - y for x, y in zip(e, lead))
        if min(q_e) < 0:
            return None
        q_c = rem[e] / b[lead]
        quotient[q_e] = q_c
        rem = ref_add(rem, ref_scale(ref_mul({q_e: Fraction(1)}, b), -q_c))
    return quotient


@given(small_polys(), small_polys(), small_polys(), small_fractions,
       st.integers(0, 3))
def test_multipoly_results_are_canonical(a, b, c, k, n):
    """Every operation matches the dict-of-Fraction reference, and every
    result is in canonical form."""
    ta, tb = a.terms, b.terms
    zero = {}
    results = [
        (a + b, ref_add(ta, tb)),
        (a - b, ref_add(ta, ref_scale(tb, -1))),
        (1 - a, ref_add({(0, 0, 0): Fraction(1)}, ref_scale(ta, -1))),
        (a + k, ref_add(ta, ref_clean({(0, 0, 0): k}))),
        (-a, ref_scale(ta, -1)),
        (a * b, ref_mul(ta, tb)),
        (a * k, ref_scale(ta, k)),
        (k * a, ref_scale(ta, k)),
        (a * 3, ref_scale(ta, 3)),
        (a * 0, zero),
        (a - a, zero),
        (a ** n, ref_pow(ta, n, 3)),
        (a.substitute({"a": b, "c": c}),
         ref_compose(ta, [tb, {(0, 1, 0): Fraction(1)}, c.terms], 3)),
    ]
    if k:
        results.append((a / k, ref_scale(ta, 1 / k)))
    results += [
        (a.derivative(name), ref_derivative(ta, i))
        for i, name in enumerate(VARS)
    ]
    results += [
        (a.coefficient_of("b", 1).with_variables(VARS),
         {e[:1] + (0,) + e[1:]: v
          for e, v in ref_coefficient_of(ta, 1, 1).items()}),
        (a.with_variables(VARS + ("d",)).drop_to_variables(VARS), ta),
    ]
    if b:
        results.append(((a * b) / b, ta))
        quotient = ref_divide(ta, tb)
        if quotient is None:
            with pytest.raises(ExactDivisionError):
                a / b
        else:
            results.append((a / b, quotient))
    for r, reference in results:
        assert_canonical_poly(r, reference=reference)
    assert_canonical_poly(a.coefficient_of("b", 1), ("a", "c"),
                          reference=ref_coefficient_of(ta, 1, 1))
    assert_canonical_poly(a.with_variables(VARS + ("d",)), VARS + ("d",),
                          reference={e + (0,): v for e, v in ta.items()})
    assert (a + b) * c == a * c + b * c
    # evaluation sums int numerators and divides once, over Q and mod q
    point = (k, Fraction(1, 3), -2)
    assert a.evaluate(dict(zip(VARS, point))) == ref_evaluate(ta, point)
    jets = {v: Jet1.tracked(x, i, 3) for i, (v, x) in enumerate(zip(VARS, point))}
    got = a.evaluate(jets)
    assert got == Jet1(ref_evaluate(ta, point), [
        ref_evaluate(ref_derivative(ta, i), point) for i in range(3)
    ])


jet_parts = st.tuples(small_fractions, small_fractions)


@given(small_fractions, jet_parts, small_fractions, jet_parts, small_fractions)
def test_jet_results_match_the_validated_constructor(v, dv, w, dw, k):
    """Every jet result is canonical (ints in range(Q)), passes the
    validating constructor unchanged, and equals the product and quotient
    rules worked in Fractions, reduced mod Q."""
    a, b = Jet1(v, dv), Jet1(w, dw)
    cases = [
        (a + b, v + w, [x + y for x, y in zip(dv, dw)]),
        (a - b, v - w, [x - y for x, y in zip(dv, dw)]),
        (a * b, v * w, [v * y + x * w for x, y in zip(dv, dw)]),
        (-a, -v, [-x for x in dv]),
        (a * k, v * k, [x * k for x in dv]),
        (k * a, v * k, [x * k for x in dv]),
        (a * 2, v * 2, [x * 2 for x in dv]),
        (a + 1, v + 1, list(dv)),
        (1 - a, 1 - v, [-x for x in dv]),
    ]
    if w:
        cases += [
            (a / b, v / w, [(x * w - v * y) / w**2 for x, y in zip(dv, dw)]),
            (a / w, v / w, [x / w for x in dv]),
        ]
    for r, value, partials in cases:
        assert type(r.value) is int and 0 <= r.value < Q
        assert type(r.partials) is tuple and len(r.partials) == 2
        assert all(type(p) is int and 0 <= p < Q for p in r.partials)
        assert r == Jet1(r.value, r.partials)
        assert r.value == mod_q(value)
        assert r.partials == tuple(mod_q(p) for p in partials)
    assert a * k == a * Jet1.constant(k, 2)


@st.composite
def planted_rank_matrices(draw):
    """Small rational matrices whose later rows are often rational
    combinations of the earlier ones."""
    n_cols = draw(st.integers(1, 5))
    n_free = draw(st.integers(1, 4))
    rows = [draw(st.lists(small_fractions, min_size=n_cols, max_size=n_cols))
            for _ in range(n_free)]
    for _ in range(draw(st.integers(0, 3))):
        weights = draw(st.lists(small_fractions, min_size=len(rows),
                                max_size=len(rows)))
        rows.append([sum(wt * row[j] for wt, row in zip(weights, rows))
                     for j in range(n_cols)])
    return draw(st.permutations(rows))


@given(planted_rank_matrices())
def test_modular_rank_matches_sympy_on_planted_dependencies(m):
    assert rational_matrix_rank(m) == sympy.Matrix(m).rank()


def test_matrix_rank_is_a_lower_bound_when_q_divides_the_minors():
    # det [[Q, 0], [0, 1]] = Q: full rank over Q, rank 1 mod Q.
    assert rational_matrix_rank([[Q, 0], [0, 1]]) == 1
    assert rational_matrix_rank([[Fraction(Q, 2), 0], [0, 1]]) == 1
    # A denominator divisible by Q is cleared with its row, not inverted.
    assert rational_matrix_rank([[Fraction(1, Q), 1], [0, 1]]) == 2
    with pytest.raises(TypeError, match="exact rational"):
        rational_matrix_rank([[1, 0.5]])


def test_arithmetic_skips_validation(monkeypatch):
    """Products and sums of existing polynomials and jets make no
    validated construction: their results are canonical by construction,
    and re-validating them dominated the symbolic computations. Polynomial
    arithmetic runs on int numerators over one denominator, so it makes
    no Fraction either; only the `terms` view does."""
    p = MultiPoly.parse("3*a^2*b - 1/2*c + 7", VARS)
    q = MultiPoly.parse("a - 2*b*c", VARS)
    half = Fraction(5, 2)
    j1 = Jet1(Fraction(3), (Fraction(1), Fraction(2, 3)))
    j2 = Jet1(Fraction(-1, 2), (Fraction(0), Fraction(5)))
    validated = []
    for cls in (MultiPoly, Jet1):
        original = cls.__init__

        def counting(self, *args, _original=original):
            validated.append(type(self).__name__)
            _original(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    fractions_made = []
    original_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        fractions_made.append(args)
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    polys = (
        p * q, p + q, p - q, 1 - p, -p, p * 5, p * half, p ** 3,
        p.derivative("a"), p.coefficient_of("a", 2),
        p.with_variables(VARS + ("d",)).drop_to_variables(VARS),
    )
    assert fractions_made == []
    assert all(type(n) is int for r in polys for n in r.numerators.values())
    assert [r.denominator for r in polys] == [2, 2, 2, 2, 2, 2, 4, 8, 1, 1, 2]
    _ = (p * q) / q
    _ = p.terms
    assert fractions_made
    _ = (j1 * j2, j1 + j2, j1 - j2, j1 / j2, j1 * 4)
    assert validated == []
    MultiPoly(VARS, {})
    Jet1(1, (0, 0))
    assert validated == ["MultiPoly", "Jet1"]


def test_public_constructors_still_validate():
    with pytest.raises(ValueError, match="duplicate variable"):
        MultiPoly(("a", "a"), {})
    with pytest.raises(ValueError, match="does not match"):
        MultiPoly(VARS, {(1, 0): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly(VARS, {(1, -1, 0): 1})
    with pytest.raises(TypeError, match="exact rational"):
        MultiPoly(VARS, {(1, 0, 0): 0.5})
    p = MultiPoly.parse("a*b", VARS)
    with pytest.raises(ValueError, match="duplicate variable"):
        p.with_variables(("a", "b", "c", "a"))
    with pytest.raises(ValueError, match="duplicate variable"):
        p.drop_to_variables(("a", "b", "b"))
    with pytest.raises(AlignmentError):
        p.drop_to_variables(("a", "c"))
    with pytest.raises(TypeError, match="exact rational"):
        Jet1(0.5, (0, 0))
    with pytest.raises(TypeError, match="exact rational"):
        Jet1(1, (0, 1.5))
    with pytest.raises(TypeError, match="unsupported operand"):
        Jet1(1, (0, 0)) * 0.5


def count_products(monkeypatch, cls):
    """Count calls of cls.__mul__ into the returned list."""
    products = []
    original = cls.__mul__

    def counting(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    return products


def test_powers_start_from_the_base(monkeypatch):
    """Square-and-multiply starts from the base itself, so x ** 6 makes
    three products (x^2, x^4, x^2 * x^4), x ** 4 two and x ** 1 none."""
    poly = MultiPoly.parse("3*a^2*b - 1/2*c + 7", VARS)
    jet = Jet1(Fraction(3), (Fraction(1), Fraction(2, 3)))
    for x in (poly, jet, Fp2(3, 5, 11)):
        sixth = x * x * x * x * x * x
        one = type(x).__pow__(x, 0)
        products = count_products(monkeypatch, type(x))
        assert x ** 6 == sixth and len(products) == 3
        products.clear()
        assert x ** 1 == x and not products
        assert x ** 0 == one == 1 and not products
        monkeypatch.undo()
    assert jet ** -2 == (1 / jet) * (1 / jet)
    with pytest.raises(ValueError, match="negative power"):
        poly ** -1
    # a Laurent series known below t^3: the truncation of s^4 is the same
    # whichever way the four factors are grouped
    s = TruncatedSeries(("a",), {-1: 1, 0: Fraction(1, 2), 2: 3}, 3)
    fourth = s * s * s * s
    products = count_products(monkeypatch, TruncatedSeries)
    assert s ** 4 == fourth and len(products) == 2
    assert fourth.truncation == 0


def test_evaluate_powers_each_value_once():
    """evaluate computes values[name] ** e once per (variable, exponent)
    pair, however many terms share that power."""
    powered = []

    class Counting:
        def __init__(self, name, value):
            self.name, self.value = name, Fraction(value)

        def __pow__(self, e):
            powered.append((self.name, e))
            return self.value ** e

    poly = MultiPoly.parse(
        "a^2*b + a^2*c - 3*a*b^2 + b^2*c^3 + a^2 - a*c^3 + 5", VARS
    )
    values = {"a": 2, "b": Fraction(1, 3), "c": -1}
    counted = {name: Counting(name, v) for name, v in values.items()}
    assert poly.evaluate(counted) == poly.evaluate(values)
    assert sorted(powered) == [
        ("a", 1), ("a", 2), ("b", 1), ("b", 2), ("c", 1), ("c", 3),
    ]
