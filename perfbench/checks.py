"""Output checks that do not trust the code under test.

Each check takes a parsed CLI envelope (or plain values) and returns a
list of failure messages; an empty list means the output passed. The
point-count checks recount N1 with a naive Legendre-symbol loop written
here, and test the Weil data with exact integer arithmetic, so a wrong
count cannot pass by agreeing with itself.
"""

from fractions import Fraction

TRIVIAL_VERDICTS = ("TRIVIAL_END", "TRIVIAL_GEOMETRIC_END")
# KFS has no frozen rank witness: its absolute-invariant map has rank 2.
KFS_RANK = 2


def reduce_rational(value, p):
    """A rational (Fraction, int or 'a/b' text) modulo p, or None when p
    divides the denominator."""
    value = Fraction(value)
    if value.denominator % p == 0:
        return None
    return value.numerator * pow(value.denominator, -1, p) % p


def legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def naive_n1(coefficients, p):
    """Points of the smooth model of y^2 = f(x) over F_p, f given by
    ascending residues of degree 5 or 6: sum over x of 1 + chi(f(x)),
    plus one point at infinity for a quintic and 1 + chi(lead) for a
    sextic."""
    coeffs = [c % p for c in coefficients]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) not in (6, 7):
        raise ValueError(f"degree {len(coeffs) - 1} modulo {p} is not 5 or 6")
    count = 0
    for x in range(p):
        v = 0
        for c in reversed(coeffs):
            v = (v * x + c) % p
        count += 1 + legendre(v, p)
    if len(coeffs) == 6:
        return count + 1
    return count + 1 + legendre(coeffs[-1], p)


def _poly_rem(a, b, p):
    """Remainder of ascending residue lists a by b (b's lead nonzero)."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - q * c) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def good_reduction(curve, p):
    """True when y^2 = f(x), f given by rational ascending coefficients,
    reduces modulo p to a genus-2 model: no denominator divisible by p,
    the degree kept, and gcd(f, f') = 1 over F_p."""
    f = [reduce_rational(c, p) for c in curve]
    if None in f or f[-1] == 0:
        return False
    derivative = [k * c % p for k, c in enumerate(f)][1:]
    while derivative and derivative[-1] == 0:
        derivative.pop()
    a, b = f, derivative
    while b:
        a, b = b, _poly_rem(a, b, p)
    return len(a) == 1


def weil_interval_ok(p, a1, a2):
    """Exact test that t^2 - a1*t + (a2 - 2p) has both roots real and in
    [-2*sqrt(p), 2*sqrt(p)], as the real Weil polynomial of a genus-2
    curve must."""
    if a1 * a1 - 4 * (a2 - 2 * p) < 0:
        return False
    if a1 * a1 > 16 * p:
        return False
    edge = 2 * p + a2
    return edge >= 0 and edge * edge >= 4 * a1 * a1 * p


def check_counts(p, n1, n2, a1, a2, residues):
    """Point counts and Weil data of one reduction against `residues`,
    the ascending coefficients of f modulo p."""
    failures = []
    try:
        expected = naive_n1(residues, p)
    except ValueError as exc:
        return [f"p={p}: counted a model that is not genus 2: {exc}"]
    if n1 != expected:
        failures.append(f"p={p}: N1={n1}, naive Legendre count gives {expected}")
    if (n2 + n1 * n1) % 2:
        failures.append(f"p={p}: N2 + N1^2 = {n2 + n1 * n1} is odd")
    if a1 != p + 1 - n1:
        failures.append(f"p={p}: a1={a1} does not match N1={n1}")
    elif a2 != (n2 + n1 * n1) // 2 - (p + 1) * n1 + p:
        failures.append(f"p={p}: a2={a2} does not match N1={n1}, N2={n2}")
    if not weil_interval_ok(p, a1, a2):
        failures.append(f"p={p}: (a1, a2) = ({a1}, {a2}) is outside the Weil interval")
    return failures


def _exit_failures(code, allowed):
    if code not in allowed:
        return [f"exit code {code}"]
    return []


def check_count_points(envelope, code, curve):
    """`count-points --ext 2` output against the rational coefficients
    `curve` of the specialized curve."""
    failures = _exit_failures(code, (0,))
    if failures:
        return failures
    out = envelope["outputs"]
    p = out["p"]
    if not good_reduction(curve, p):
        return [f"p={p}: counted a curve with bad reduction"]
    residues = [reduce_rational(c, p) for c in curve]
    return check_counts(p, out["N1"], out["N2"], out["a1"], out["a2"], residues)


def check_certificate(envelope, code, curve):
    """`certify-endo` output: every usable count is checked as above,
    and the verdict must be backed by its records."""
    failures = _exit_failures(code, (0, 4))
    if failures:
        return failures
    out = envelope["outputs"]
    verdict = out["verdict"]
    if (code == 0) != (verdict in TRIVIAL_VERDICTS):
        failures.append(f"exit code {code} with verdict {verdict}")
    records = out["records"]
    for record in records:
        if record["n1"] is None:
            continue
        p = record["p"]
        residues = [reduce_rational(c, p) for c in curve]
        if None in residues:
            failures.append(f"p={p}: counted a curve whose coefficients do not reduce")
            continue
        if record["curve_mod_p"] != residues:
            failures.append(f"p={p}: curve_mod_p {record['curve_mod_p']} != {residues}")
        failures += check_counts(
            p, record["n1"], record["n2"], record["a1"], record["a2"], residues
        )
    if verdict in TRIVIAL_VERDICTS:
        cores = {r["subfield_core"] for r in records if r["usable"]}
        usable = sum(1 for r in records if r["usable"])
        if usable < 2 or len(cores) < 2:
            failures.append(f"{verdict} without two usable records of distinct cores")
    if verdict == "TRIVIAL_GEOMETRIC_END":
        if any(r["ratio_orders"] != [] for r in records):
            failures.append("TRIVIAL_GEOMETRIC_END with a root-of-unity ratio")
    return failures


def check_divisor(envelope, code):
    failures = _exit_failures(code, (0,))
    if envelope is None or envelope["outputs"].get("identical") is not True:
        failures.append("verify-divisor did not report identical: true")
    return failures


def expected_ranks(witnesses):
    """Family -> rank from the frozen rank witnesses, plus KFS."""
    ranks = {w["family"]: w["rank"] for w in witnesses}
    ranks.setdefault("KFS4/3+4/3", KFS_RANK)
    return ranks


def check_independence(envelope, code, family, ranks):
    failures = _exit_failures(code, (0,))
    if failures:
        return failures
    rank = envelope["outputs"]["rank"]
    if rank != ranks[family]:
        failures.append(f"{family}: rank {rank}, expected {ranks[family]}")
    return failures


def check_igusa(symbolic_at_point, specialized):
    """Symbolic (J2, ..., J10) evaluated at a point against the
    invariants of the curve specialized at that point."""
    if [Fraction(v) for v in symbolic_at_point] != [Fraction(v) for v in specialized]:
        return ["symbolic invariants at the point differ from the specialized curve's"]
    return []
