import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftok import harness, poly

VARS = [
    poly.variable("x", 1),
    poly.variable("x", 2),
    poly.variable("y", 1),
    poly.variable("y", 2),
    poly.variable("a", 0),
    poly.variable("a", 1),
    poly.variable("t"),
    poly.variable("z", 1),
    poly.variable("alpha", 2),
]

coeffs = st.integers(min_value=-50, max_value=50)
exponents = st.integers(min_value=-3, max_value=3).filter(lambda e: e != 0)
monomials = st.dictionaries(st.sampled_from(VARS), exponents, max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)
polys = st.dictionaries(monomials, coeffs, max_size=5).map(poly.Polynomial)


def test_variable_validation():
    with pytest.raises(ValueError):
        poly.variable("w", 1)
    with pytest.raises(ValueError):
        poly.variable("t", 1)
    with pytest.raises(ValueError):
        poly.variable("x", 0)
    poly.variable("a", 0)  # a0 is legal


def test_add_disjoint_monomials():
    assert poly.canonical(poly.x(1) + poly.t() * poly.x(2)) == "t*x2 + x1"


def test_difference_of_squares():
    p = (poly.x(1) + poly.y(2)) * (poly.x(1) - poly.y(2))
    assert p == poly.x(1) ** 2 - poly.y(2) ** 2


def test_laurent_cancellation():
    a1_inv = poly.Polynomial({((poly.variable("a", 1), -1),): 1})
    assert poly.x(1) * a1_inv * poly.a(1) == poly.x(1)


def test_zero_and_one():
    assert not poly.ZERO
    assert poly.ONE
    assert poly.canonical(poly.ZERO) == "0"
    assert poly.canonical(poly.y(2) - poly.a(1)) == "y2 - a1"


def test_immutability():
    p = poly.x(1)
    with pytest.raises(AttributeError):
        p.terms = {}


@given(polys, polys)
def test_add_commutative(p, q):
    assert p + q == q + p


@given(polys, polys)
def test_mul_commutative(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
@settings(max_examples=60)
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
@settings(max_examples=60)
def test_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_identities(p):
    assert p + poly.ZERO == p
    assert p * poly.ONE == p
    assert p - p == poly.ZERO
    assert p * poly.ZERO == poly.ZERO


@given(polys)
def test_canonical_round_trip(p):
    assert poly.parse(poly.canonical(p)) == p


SUBS = {
    "y": lambda i: poly.x(i),
    poly.variable("a", 1): poly.const(3),
    "z": lambda i: poly.x(i) + poly.ONE,
}

UNIT_SUBS = {
    "y": lambda i: -poly.x(i),
    "a": lambda j: poly.Polynomial({((poly.variable("t"), 2),): -1}),
}


@given(polys, polys)
@settings(max_examples=60)
def test_substitute_is_additive_and_multiplicative(p, q):
    sub = lambda r: poly.substitute(r, UNIT_SUBS)
    assert sub(p + q) == sub(p) + sub(q)
    assert sub(p * q) == sub(p) * sub(q)


def test_substitute_examples():
    assert poly.substitute(poly.x(1) + poly.y(2), {"y": lambda i: poly.x(i)}) == poly.x(
        1
    ) + poly.x(2)
    p = (poly.x(1) + poly.a(1)) * (poly.x(2) + poly.a(2))
    assert poly.substitute(p, {"a": poly.ZERO}) == poly.x(1) * poly.x(2)
    q = poly.substitute(
        poly.x(1) + poly.y(2),
        {"x": lambda i: poly.t() * poly.z(i), "y": lambda i: poly.z(i)},
    )
    assert q == poly.t() * poly.z(1) + poly.z(2)


def test_substitute_non_invertible():
    p = poly.Polynomial({((poly.variable("a", 1), -1),): 1})
    with pytest.raises(poly.NonInvertibleSubstitution):
        poly.substitute(p, {"a": lambda j: poly.x(1) + poly.ONE})
    with pytest.raises(poly.NonInvertibleSubstitution):
        poly.substitute(p, {"a": lambda j: poly.const(2)})
    # units are fine
    assert poly.substitute(p, {"a": lambda j: -poly.t()}) == poly.Polynomial(
        {((poly.variable("t"), -1),): -1}
    )


def _cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = poly.ZERO
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in m[1:]]
        term = m[0][c] * _cofactor_det(minor)
        total = total + term if c % 2 == 0 else total - term
    return total


def test_det_examples():
    assert poly.det([[poly.ONE, poly.ZERO], [poly.ZERO, poly.ONE]]) == poly.ONE
    m = [[poly.x(1), poly.y(1)], [poly.x(2), poly.y(2)]]
    assert poly.det(m) == poly.x(1) * poly.y(2) - poly.x(2) * poly.y(1)


def test_det_non_square():
    with pytest.raises(poly.NonSquareMatrix):
        poly.det([])
    with pytest.raises(poly.NonSquareMatrix):
        poly.det([[poly.ONE, poly.ONE]])


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_det_matches_cofactor_expansion(n, data):
    m = [
        [data.draw(polys, label=f"m[{r}][{c}]") for c in range(n)]
        for r in range(n)
    ]
    assert poly.det(m) == _cofactor_det(m)


def test_det_permutation_signs():
    # 3x3 permutation matrices carry the permutation sign
    for perm in itertools.permutations(range(3)):
        m = [
            [poly.ONE if perm[r] == c else poly.ZERO for c in range(3)]
            for r in range(3)
        ]
        inversions = sum(
            1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
        )
        expect = poly.ONE if inversions % 2 == 0 else -poly.ONE
        assert poly.det(m) == expect


def test_parse_errors():
    for bad in ["", "x", "x1 +", "2x1", "x1 ++ x2", "t1", "b2", "x1^"]:
        with pytest.raises(poly.ParseError):
            poly.parse(bad)


def test_canonical_ordering_and_format():
    p = (
        poly.const(2) * poly.x(1) * poly.x(1)
        - poly.const(3) * poly.y(1)
        + poly.alpha(4)
        + poly.const(5)
    )
    assert poly.canonical(p) == "2*x1^2 - 3*y1 + al4 + 5"
    q = poly.var_poly(poly.variable("a", 2), -2) * poly.const(-1)
    assert poly.canonical(q) == "-a2^-2"
    assert poly.parse(poly.canonical(q)) == q


def test_degree_in():
    p = poly.x(1) ** 3 + poly.y(2)
    assert p.degree_in(poly.variable("x", 1)) == 3
    assert p.degree_in(poly.variable("a", 1)) == 0


# -- packed monomials against a tuple-monomial oracle ----------------------
#
# The oracle keeps each monomial as a sorted tuple of (variable, exponent)
# pairs and multiplies by merging dicts: the representation poly used before
# exponent vectors were packed into ints.  Its polynomials are plain dicts.

MAX = poly.MAX_EXPONENT


def _oracle_mono_mul(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        ne = exps.get(v, 0) + e
        if ne:
            exps[v] = ne
        else:
            del exps[v]
    return tuple(sorted(exps.items()))


def _oracle_add(p, q):
    res = dict(p)
    for m, c in q.items():
        res[m] = res.get(m, 0) + c
    return {m: c for m, c in res.items() if c}


def _oracle_mul(p, q):
    res = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _oracle_mono_mul(m1, m2)
            res[m] = res.get(m, 0) + c1 * c2
    return {m: c for m, c in res.items() if c}


def _oracle_substitute(p, rules):
    """``rules`` maps a family to a callable from the index to an oracle poly."""
    out = {}
    for m, c in p.items():
        term = {(): c}
        for var, e in m:
            family = poly.FAMILIES[var[0]]
            if family not in rules:
                factor = {((var, e),): 1}
            else:
                img = rules[family](var[1])
                if e < 0:
                    if len(img) != 1 or set(img.values()) - {1, -1}:
                        raise poly.NonInvertibleSubstitution(poly.var_name(var))
                    img = {tuple((v, -f) for v, f in m): c for m, c in img.items()}
                factor = {(): 1}
                for _ in range(abs(e)):
                    factor = _oracle_mul(factor, img)
            term = _oracle_mul(term, factor)
        out = _oracle_add(out, term)
    return out


def _oracle_canonical(p):
    def key(m):
        return (-sum(e for _, e in m), tuple((v, -e) for v, e in m))

    pieces = []
    for m, c in sorted(p.items(), key=lambda kv: key(kv[0])):
        body = "*".join(
            poly.var_name(v) + (f"^{e}" if e != 1 else "")
            for v, e in sorted(m, key=lambda ve: poly.var_name(ve[0]))
        )
        mag = abs(c)
        text = str(mag) if not m else body if mag == 1 else f"{mag}*{body}"
        pieces.append(("-" if c < 0 else "+", text))
    if not pieces:
        return "0"
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return out + "".join(f" {sign} {text}" for sign, text in pieces[1:])


nonzero_coeffs = coeffs.filter(lambda c: c != 0)
raw_polys = st.dictionaries(monomials, nonzero_coeffs, max_size=5)
ORACLE_RULES = {
    "y": lambda i: {((poly.variable("x", i), 1),): -1},
    "a": lambda j: {((poly.variable("t"), 2),): -1},
    "z": lambda i: {((poly.variable("x", i), 1),): 1, (): 1},
}
# images of one term that substitute folds into the key: a non-unit monomial,
# a unit constant, a variable onto itself, and zero
FOLDED_RULES = {
    "x": lambda i: {((poly.variable("y", i), 1), (poly.variable("t"), -1)): 2},
    "t": lambda _: {(): -1},
    "alpha": lambda j: {((poly.variable("alpha", j), 1),): 1},
    "a": lambda j: {},
}


def _packed_rules(rules):
    return {
        family: (lambda f: lambda i: poly.Polynomial(f(i)))(f)
        for family, f in rules.items()
    }


@given(raw_polys, raw_polys)
def test_packed_ring_ops_match_oracle(p, q):
    P, Q = poly.Polynomial(p), poly.Polynomial(q)
    assert P * Q == poly.Polynomial(_oracle_mul(p, q))
    assert P + Q == poly.Polynomial(_oracle_add(p, q))
    assert poly.canonical(P * Q) == _oracle_canonical(_oracle_mul(p, q))


def _oracle_sum_of_products(pairs):
    out = {}
    for p, q in pairs:
        out = _oracle_add(out, _oracle_mul(p, q))
    return out


@given(st.lists(st.tuples(raw_polys, raw_polys), max_size=4))
def test_sum_of_products_matches_oracle(pairs):
    packed = [(poly.Polynomial(p), poly.Polynomial(q)) for p, q in pairs]
    expect = _oracle_sum_of_products(pairs)
    got = poly.sum_of_products(packed)
    assert got == poly.Polynomial(expect)
    assert poly.canonical(got) == _oracle_canonical(expect)
    # each pair once more with its sign flipped cancels everything
    cancelled = poly.sum_of_products(packed + [(-P, Q) for P, Q in packed])
    assert cancelled == poly.ZERO and not cancelled.terms


def test_sum_of_products_edge_cases():
    assert poly.sum_of_products([]) == poly.ZERO
    x1, y1 = poly.x(1), poly.y(1)
    # (x1 + y1)(x1 - y1) + y1 * y1 - x1 * x1: every term cancels
    pairs = [(x1 + y1, x1 - y1), (y1, y1), (-x1, x1)]
    assert poly.sum_of_products(pairs).terms == {}
    assert poly.sum_of_products([(x1, poly.ZERO), (poly.const(3), y1)]) == poly.const(3) * y1


def _check_substitute(p, rules):
    packed = _packed_rules(rules)
    try:
        expect = _oracle_substitute(p, rules)
    except poly.NonInvertibleSubstitution:
        with pytest.raises(poly.NonInvertibleSubstitution):
            poly.substitute(poly.Polynomial(p), packed)
        return
    assert poly.substitute(poly.Polynomial(p), packed) == poly.Polynomial(expect)


@given(raw_polys)
@settings(max_examples=60)
def test_packed_substitute_matches_oracle(p):
    _check_substitute(p, ORACLE_RULES)


@given(raw_polys)
@settings(max_examples=60)
def test_folded_substitute_matches_oracle(p):
    _check_substitute(p, FOLDED_RULES)


big_exponents = st.integers(min_value=-MAX, max_value=MAX).filter(lambda e: e != 0)
big_monomials = st.dictionaries(st.sampled_from(VARS), big_exponents, max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)
big_raw_polys = st.dictionaries(big_monomials, nonzero_coeffs, max_size=4)


@given(big_raw_polys)
def test_canonical_round_trip_near_field_bound(p):
    P = poly.Polynomial(p)
    text = poly.canonical(P)
    assert text == _oracle_canonical(p)
    assert poly.parse(text) == P


@given(big_raw_polys, big_raw_polys, st.lists(st.tuples(raw_polys, raw_polys), max_size=3))
def test_product_overflow_raises_never_wraps(p, q, small_pairs):
    P, Q = poly.Polynomial(p), poly.Polynomial(q)
    # the big pair sits inside a longer list of small ones
    pairs = [(poly.Polynomial(a), poly.Polynomial(b)) for a, b in small_pairs]
    pairs.insert(len(pairs) // 2, (P, Q))
    try:
        prod = P * Q
    except poly.ExponentOverflow:
        assert P.exp_bound + Q.exp_bound > MAX
        with pytest.raises(poly.ExponentOverflow):
            poly.sum_of_products(pairs)
        return
    expect = _oracle_mul(p, q)
    assert all(abs(e) <= MAX for m in expect for _, e in m)
    assert prod == poly.Polynomial(expect)
    total = _oracle_add(expect, _oracle_sum_of_products(small_pairs))
    assert poly.sum_of_products(pairs) == poly.Polynomial(total)


def test_exponent_overflow_examples():
    x1, y1 = poly.variable("x", 1), poly.variable("y", 1)
    top = poly.var_poly(x1, MAX)
    # x1^MAX * x1 would carry into the next field; x1^MAX * y1 could, by bound.
    for other in (poly.x(1), poly.y(1), top):
        with pytest.raises(poly.ExponentOverflow):
            top * other
    with pytest.raises(poly.ExponentOverflow):
        poly.var_poly(x1, MAX + 1)
    with pytest.raises(poly.ExponentOverflow):
        poly.Polynomial({((x1, MAX), (x1, 1)): 1})
    with pytest.raises(poly.ExponentOverflow):
        poly.parse(f"x1^{MAX}*x1")
    with pytest.raises(poly.ExponentOverflow):
        poly.parse(f"y1^-{MAX + 1}")
    # square-and-multiply must not square once more than it needs
    half = (MAX + 1) // 2
    assert poly.x(1) ** half == poly.var_poly(x1, half)
    assert poly.var_poly(x1, MAX - 1) * poly.x(1) == top
    assert poly.var_poly(x1, -MAX) * poly.const(-2) == poly.Polynomial({((x1, -MAX),): -2})


def test_substitute_overflow_examples():
    x1, y1 = poly.variable("x", 1), poly.variable("y", 1)
    # the bound of a term is the largest |e| it keeps plus |e| * each folded
    # image's bound, so a variable substituted away adds nothing of its own
    k = MAX // 3
    square = {"y": lambda i: poly.x(i) ** 2}
    for e in (k, k + 1, MAX // 2):
        assert poly.substitute(poly.var_poly(y1, e), square) == poly.var_poly(x1, 2 * e)
    with pytest.raises(poly.ExponentOverflow):
        poly.substitute(poly.var_poly(y1, (MAX + 1) // 2), square)
    # a kept field still counts: x1^k * y1^(k+1) gives x1^(3k+2), past MAX
    with pytest.raises(poly.ExponentOverflow):
        poly.substitute(poly.var_poly(x1, k) * poly.var_poly(y1, k + 1), square)
    # a folded exponent past MAX, for a positive and for a negative power
    half = (MAX + 1) // 2
    for e in (half, -half):
        with pytest.raises(poly.ExponentOverflow):
            poly.substitute(poly.var_poly(y1, e), {"y": lambda i: poly.t() * poly.x(i) ** 2})
    # by bound: x1^MAX * t fits, but the bound adds t's 1 to the kept MAX.
    # This pins the bound's over-estimate, not a wrong result: a tighter
    # bound that returned x1^MAX * t would be correct too.
    with pytest.raises(poly.ExponentOverflow):
        poly.substitute(poly.var_poly(x1, MAX) * poly.y(1), {"y": lambda i: poly.t()})
    # a non-monomial image goes through the product path and raises there too
    with pytest.raises(poly.ExponentOverflow):
        poly.substitute(poly.var_poly(x1, MAX) * poly.y(1), {"y": lambda i: poly.t() + poly.ONE})


@given(
    st.lists(st.tuples(st.sampled_from(VARS), exponents), max_size=6),
    nonzero_coeffs,
)
def test_unnormalised_monomial_equals_normalised(pairs, c):
    exps = {}
    for v, e in pairs:
        exps[v] = exps.get(v, 0) + e
    normal = tuple(sorted((v, e) for v, e in exps.items() if e))
    P = poly.Polynomial({tuple(pairs): c})
    assert P == poly.Polynomial({normal: c})
    assert poly.canonical(P) == _oracle_canonical({normal: c})


# -- canonical against the oracle on wide alphabets ----------------------
#
# With indices up to 12 the printed-name order (a11 < a2, x10 < x2) differs
# from index order, and a0, t and al12 are the lowest and highest fields.

WIDE_VARS = (
    [poly.variable("a", 0), poly.variable("t")]
    + [poly.variable(f, i) for f in ("x", "y", "a", "z", "alpha") for i in (1, 2, 9, 10, 11, 12)]
)
wide_exponents = (
    st.sampled_from([-MAX, MAX, -MAX + 1, MAX - 1])
    | st.integers(min_value=-3, max_value=3)
    | st.integers(min_value=-MAX, max_value=MAX)
).filter(lambda e: e != 0)
wide_monomials = st.dictionaries(st.sampled_from(WIDE_VARS), wide_exponents, max_size=5).map(
    lambda d: tuple(sorted(d.items()))
)
wide_raw_polys = st.dictionaries(wide_monomials, nonzero_coeffs, max_size=8)


def _oracle_terms(p):
    """The oracle form of a packed polynomial."""
    return {
        tuple(sorted((poly._slot_var(s), e) for s, e in poly._decode(m))): c
        for m, c in p.terms.items()
    }


@given(wide_raw_polys)
def test_canonical_matches_oracle_on_wide_alphabets(p):
    P = poly.Polynomial(p)
    text = poly.canonical(P)
    assert text == _oracle_canonical(p)
    assert poly.parse(text) == P


def test_canonical_extreme_exponents_in_lowest_and_highest_field():
    a0, al12 = poly.variable("a", 0), poly.variable("alpha", 12)
    for e0, e1 in itertools.product((-MAX, MAX), repeat=2):
        p = {((a0, e0), (al12, e1)): 1, ((a0, e0),): -2, ((al12, e1),): 3, (): 4}
        text = poly.canonical(poly.Polynomial(p))
        assert text == _oracle_canonical(p)
        assert poly.parse(text) == poly.Polynomial(p)


def test_canonical_constant_and_prefix_words():
    assert poly.canonical(poly.const(-7)) == "-7"
    assert poly.canonical(poly.const(3) + poly.t()) == "t + 3"
    # x1 and x1*y3*a11^-1 have degree 1; the shorter word, x1, runs first
    a11_inv = poly.var_poly(poly.variable("a", 11), -1)
    p = poly.x(1) * poly.y(3) * a11_inv + poly.x(1)
    assert poly.canonical(p) == "x1 + a11^-1*x1*y3"
    assert poly.canonical(p) == _oracle_canonical(_oracle_terms(p))
    q = poly.x(10) + poly.x(2) + poly.a(11) * poly.a(2)
    assert poly.canonical(q) == "a11*a2 + x2 + x10"
    assert poly.canonical(q) == _oracle_canonical(_oracle_terms(q))


@pytest.mark.parametrize("mu", harness.partitions_up_to(3, 3), ids=str)
def test_canonical_matches_oracle_on_cor6_sums(mu):
    # the six-vertex partition function and its product side are Laurent in a
    for side in harness._check_cor6(mu, 3):
        assert poly.canonical(side) == _oracle_canonical(_oracle_terms(side))


# -- det row order ---------------------------------------------------------


def test_det_sorts_rows_with_odd_permutation():
    x1, x2, y1, y2, t = poly.x(1), poly.x(2), poly.y(1), poly.y(2), poly.t()
    # row term counts 12, 5, 1: sorting them reverses the rows, an odd permutation
    big = (x1 + y1 + t) ** 2
    m = [
        [big, x1 * y2 + t, (x2 + y1) ** 2 + poly.ONE],
        [x1 + y2, poly.const(2), x2 - t],
        [poly.ZERO, y1, poly.ZERO],
    ]
    counts = [sum(len(e.terms) for e in row) for row in m]
    assert counts == sorted(counts, reverse=True) and len(set(counts)) == 3
    assert poly.det(m) == _cofactor_det(m)
    assert poly.det(m) != poly.ZERO


def test_det_equal_size_rows_and_zero_row():
    x1, x2, y1, y2 = poly.x(1), poly.x(2), poly.y(1), poly.y(2)
    equal = [[x1, y1, x2], [y2, x2, x1], [y1, y2, x1 * x2]]
    assert poly.det(equal) == _cofactor_det(equal)
    zero_row = [[x1 + y1, y2, x2], [poly.ZERO] * 3, [y1, x1 - y2, poly.const(5)]]
    assert poly.det(zero_row) == poly.ZERO == _cofactor_det(zero_row)
