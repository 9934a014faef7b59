"""Exact sparse Laurent polynomials over the integers.

Variables come in six families (x, y, a, t, z, alpha), ordered
x < y < a < t < z < alpha and then by index.  Monomials map variables to
nonzero (possibly negative) integer exponents; polynomials map monomials to
nonzero arbitrary-precision integer coefficients.  Everything is immutable
and there is no floating point anywhere.

A monomial is stored as a packed exponent vector (Monagan & Pearce, CASC
2007): the Python int ``sum(e_v * 2**(W * slot(v)))`` with field width
``W = 16`` and ``slot(v) = 6 * index + family rank``.  The fields are
balanced, so each exponent lies in ``-(2**15 - 1) .. 2**15 - 1`` and every
monomial decodes uniquely; multiplying monomials adds their ints and a
Laurent inverse negates one.  Each polynomial carries ``exp_bound``, an upper
bound on the absolute value of its exponents, and a product whose bounds could
carry into a neighbouring field raises :class:`ExponentOverflow` instead.
``Polynomial(terms)`` takes monomials written as tuples of
``(variable, exponent)`` pairs and packs them.

A polynomial has a canonical text form (see :func:`canonical`) with a parser
(:func:`parse`) such that ``parse(canonical(p)) == p``.
"""

from __future__ import annotations

import functools
import re
import struct
from collections.abc import Callable, Iterable, Mapping
from operator import getitem, itemgetter

FAMILIES = ("x", "y", "a", "t", "z", "alpha")
_FAMILY_RANK = {f: r for r, f in enumerate(FAMILIES)}
_PRINT_NAME = {"alpha": "al"}
_PARSE_NAME = {"al": "alpha"}

_W = 16  # bits per exponent field
_HALF = 1 << (_W - 1)
_MASK = (1 << _W) - 1
MAX_EXPONENT = _HALF - 1
_FIELD_FORMAT = {8: "B", 16: "H", 32: "I", 64: "Q"}[_W]  # struct code of one unsigned field


class NonSquareMatrix(ValueError):
    """Raised when a determinant is requested of a non-square matrix."""


class NonInvertibleSubstitution(ValueError):
    """Raised when a Laurent-negative variable maps to a non-unit image."""


class ParseError(ValueError):
    """Raised on malformed canonical polynomial text."""


class ExponentOverflow(ValueError):
    """Raised when an exponent could leave ``-MAX_EXPONENT .. MAX_EXPONENT``."""


def variable(family: str, index: int | None = None) -> tuple[int, int]:
    """Internal key for a variable: (family rank, index).

    Family ``t`` carries no index; for ``a`` the index may be 0, all other
    families start at 1.
    """
    if family not in _FAMILY_RANK:
        raise ValueError(f"unknown variable family {family!r}")
    if family == "t":
        if index is not None:
            raise ValueError("variable t carries no index")
        return (_FAMILY_RANK["t"], 0)
    if index is None:
        raise ValueError(f"family {family!r} needs an index")
    low = 0 if family == "a" else 1
    if index < low:
        raise ValueError(f"index {index} out of range for family {family!r}")
    return (_FAMILY_RANK[family], index)


def var_name(var: tuple[int, int]) -> str:
    family = FAMILIES[var[0]]
    if family == "t":
        return "t"
    return _PRINT_NAME.get(family, family) + str(var[1])


Monomial = int  # packed exponent vector, see the module docstring

_UNIT: Monomial = 0


def _slot(var: tuple[int, int]) -> int:
    rank, index = var
    if not (0 <= rank < len(FAMILIES) and index >= 0):
        raise ValueError(f"not a variable key: {var!r}")
    return len(FAMILIES) * index + rank


def _check_exponent(e: int) -> None:
    if not -MAX_EXPONENT <= e <= MAX_EXPONENT:
        raise ExponentOverflow(f"exponent {e} outside +-{MAX_EXPONENT}")


def _encode(exps: Mapping[tuple[int, int], int]) -> Monomial:
    """Pack a map variable -> exponent (zero exponents allowed)."""
    m = 0
    for var, e in exps.items():
        _check_exponent(e)
        m += e << (_W * _slot(var))
    return m


def _decode(m: Monomial) -> list[tuple[int, int]]:
    """The (slot, exponent) pairs of a packed monomial, by ascending slot."""
    out = []
    while m:
        shift = (m & -m).bit_length() - 1
        shift -= shift % _W
        e = (((m >> shift) + _HALF) & _MASK) - _HALF
        out.append((shift // _W, e))
        m -= e << shift
    return out


def _slot_var(s: int) -> tuple[int, int]:
    index, rank = divmod(s, len(FAMILIES))
    return (rank, index)


class Polynomial:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("terms", "exp_bound")

    def __init__(self, terms: Mapping[tuple, int] | None = None):
        """``terms`` maps monomials, as tuples of (variable, exponent) pairs in
        any order, to coefficients."""
        clean: dict[Monomial, int] = {}
        bound = 0
        for mono, c in (terms or {}).items():
            exps: dict = {}
            for v, e in mono:
                exps[v] = exps.get(v, 0) + e
            m = _encode(exps)
            clean[m] = clean.get(m, 0) + c
            bound = max(bound, max(map(abs, exps.values()), default=0))
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c})
        object.__setattr__(self, "exp_bound", bound)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        res = dict(self.terms)
        for m, c in other.terms.items():
            nc = res.get(m, 0) + c
            if nc:
                res[m] = nc
            else:
                del res[m]
        return _wrap(res, max(self.exp_bound, other.exp_bound))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return _wrap({m: -c for m, c in self.terms.items()}, self.exp_bound)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return sum_of_products(((self, other),))

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative powers only via substitute()")
        res = ONE
        base = self
        while e:
            if e & 1:
                res = res * base
            e >>= 1
            if e:
                base = base * base
        return res

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({canonical(self)!r})"

    def degree_in(self, var: tuple[int, int]) -> int:
        """Largest absolute exponent of ``var``; 0 when the variable is absent."""
        s = _slot(var)
        return max(
            (abs(e) for m in self.terms for t, e in _decode(m) if t == s), default=0
        )


def _wrap(terms: dict, bound: int) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "exp_bound", bound)
    return p


ZERO = Polynomial()
ONE = _wrap({_UNIT: 1}, 0)


def const(c: int) -> Polynomial:
    return _wrap({_UNIT: c} if c else {}, 0)


@functools.cache
def var_poly(var: tuple[int, int], exponent: int = 1) -> Polynomial:
    """``var ** exponent``, built once per argument pair (polynomials are immutable)."""
    return _wrap({_encode({var: exponent}): 1}, abs(exponent))


def x(i: int) -> Polynomial:
    return var_poly(variable("x", i))


def y(i: int) -> Polynomial:
    return var_poly(variable("y", i))


def a(j: int) -> Polynomial:
    return var_poly(variable("a", j))


def t() -> Polynomial:
    return var_poly(variable("t"))


def z(i: int) -> Polynomial:
    return var_poly(variable("z", i))


def alpha(j: int) -> Polynomial:
    return var_poly(variable("alpha", j))


def product(factors: Iterable[Polynomial]) -> Polynomial:
    res = ONE
    for f in factors:
        if f is not ONE:  # res * ONE would only copy res
            res = res * f
    return res


def poly_sum(terms: Iterable[Polynomial]) -> Polynomial:
    return sum_of_products((p, ONE) for p in terms)


def sum_of_products(pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """The sum of ``p * q`` over the pairs, accumulated into one dict.

    Every product of terms is added straight into the running sum (Monagan &
    Pearce's sum of products), so no intermediate product is built, and zero
    coefficients are filtered once at the end.  A pair whose exponent bounds
    could carry into a neighbouring field raises :class:`ExponentOverflow`.
    """
    res: dict[Monomial, int] = {}
    get = res.get
    bound = 0
    for p, q in pairs:
        b = p.exp_bound + q.exp_bound
        if b > MAX_EXPONENT:
            raise ExponentOverflow(
                f"a product of exponents up to {p.exp_bound} and "
                f"{q.exp_bound} may leave +-{MAX_EXPONENT}"
            )
        if b > bound:
            bound = b
        small, big = p.terms, q.terms
        if len(small) > len(big):
            small, big = big, small
        for m1, c1 in small.items():
            for m2, c2 in big.items():
                m = m1 + m2
                res[m] = get(m, 0) + c1 * c2
    return _wrap({m: c for m, c in res.items() if c}, bound)


# -- substitution -------------------------------------------------------

SubstRules = Mapping[tuple | str, Polynomial | Callable[[int], Polynomial]]


def _image_of(var: tuple[int, int], rules: SubstRules) -> Polynomial | None:
    if var in rules:
        img = rules[var]
        return img(var[1]) if callable(img) else img
    family = FAMILIES[var[0]]
    if family in rules:
        img = rules[family]
        return img(var[1]) if callable(img) else img
    return None


def _check_unit(p: Polynomial, var) -> None:
    """Raise unless ``p`` is a unit (+-1 times a monomial)."""
    if len(p.terms) != 1:
        raise NonInvertibleSubstitution(
            f"{var_name(var)} has a negative exponent but maps to a non-monomial"
        )
    if next(iter(p.terms.values())) not in (1, -1):
        raise NonInvertibleSubstitution(
            f"{var_name(var)} has a negative exponent but maps to a non-unit coefficient"
        )


def substitute(p: Polynomial, rules: SubstRules) -> Polynomial:
    """Apply a substitution map; a ring homomorphism on its domain.

    ``rules`` maps either a concrete variable key (``variable("y", 2)``) or a
    whole family (``"y"``) to a replacement polynomial, or to a callable taking
    the index.  Variables not covered are left alone.  A variable occurring
    with a negative exponent must map to an invertible monomial.

    An image of one term ``c * M`` folds straight into each term it meets:
    ``v**e`` adds ``e * M`` to the packed key and multiplies the coefficient
    by ``c**|e|`` (``c`` is +-1 when ``e < 0``).  Only images of other sizes
    are multiplied in as polynomials.
    """
    images: dict[int, Polynomial | None] = {}
    powers: dict[tuple[int, int], Polynomial] = {}
    pairs = []
    for m, c in p.terms.items():
        kept, largest, added, factors = 0, 0, 0, []
        for s, e in _decode(m):
            if s not in images:
                images[s] = _image_of(_slot_var(s), rules)
            img = images[s]
            if img is None:
                kept += e << (_W * s)
                if e > largest or -e > largest:
                    largest = abs(e)
                continue
            if e < 0:
                _check_unit(img, _slot_var(s))
            if len(img.terms) == 1:
                (mi, ci), = img.terms.items()
                kept += e * mi
                c *= ci ** abs(e)
                added += abs(e) * img.exp_bound
                continue
            factor = powers.get((s, e))
            if factor is None:
                factor = powers[(s, e)] = img ** e
            factors.append(factor)
        bound = largest + added
        if bound > MAX_EXPONENT:
            raise ExponentOverflow(
                f"substituting into a term may give exponents up to {bound}, "
                f"past +-{MAX_EXPONENT}"
            )
        pairs.append((_wrap({kept: c}, bound), product(factors)))
    return sum_of_products(pairs)


# -- determinant --------------------------------------------------------

def det(matrix) -> Polynomial:
    """Exact determinant via dynamic programming over column subsets.

    Avoids polynomial division entirely; intended for the small matrices
    (n <= ~6) arising from the determinant formulas.  The rows are expanded
    in ascending order of their total term count: the largest entries then
    join last, when only ``n`` partial minors are left to multiply them by.
    The determinant of the reordered rows is negated when the reordering is
    an odd permutation (odd inversion count).
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise NonSquareMatrix(f"expected a nonempty square matrix, got {n} rows")
    order = sorted(range(n), key=lambda r: sum(len(e.terms) for e in matrix[r]))
    inversions = sum(order[i] > order[j] for i in range(n) for j in range(i + 1, n))
    matrix = [matrix[r] for r in order]
    # d maps a column bitmask S (|S| = processed rows) to the minor determinant.
    d = {0: ONE}
    for r in range(n):
        # column mask -> the signed (minor, entry) pairs that sum to its minor
        pairs: dict[int, list[tuple[Polynomial, Polynomial]]] = {}
        for mask, val in d.items():
            signed = (val, -val)
            below = 0  # columns in mask smaller than c
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    below += 1
                    continue
                pairs.setdefault(mask | bit, []).append((signed[(r + below) & 1], matrix[r][c]))
        d = {key: sum_of_products(ps) for key, ps in pairs.items()}
    full = d.get((1 << n) - 1, ZERO)
    return -full if inversions & 1 else full


# -- canonical text form ------------------------------------------------

class _Factors(dict):
    """The factor entries of one variable, keyed by biased exponent ``e + _HALF``.

    An entry is ``(text, key, -e)`` with ``key = (position << _W) + _HALF - e``,
    which orders factors by (position in word order, -e) as one int.  The
    biased zero maps to the empty entry, which is false, so ``filter(None, ...)``
    drops the variables a term lacks.
    """

    __slots__ = ("name", "position")

    def __init__(self, var: tuple[int, int], position: int):
        super().__init__({_HALF: ()})
        self.name = var_name(var)
        self.position = position

    def __missing__(self, v: int) -> tuple:
        e = v - _HALF
        text = self.name if e == 1 else f"{self.name}^{e}"
        f = self[v] = (text, (self.position << _W) + _HALF - e, -e)
        return f


_text, _key, _neg_e = itemgetter(0), itemgetter(1), itemgetter(2)


def canonical(p: Polynomial) -> str:
    """Deterministic text encoding; ``parse`` inverts it exactly.

    Terms run by total degree descending, then by variable word ascending
    (a higher power of an earlier variable first, a word before any longer
    word it begins); inside a term the factors run by printed name.

    Every term is decoded by one ``struct`` unpack.  Adding ``bias``, which
    holds ``_HALF`` in every field, turns each balanced field ``e`` into
    ``e + _HALF`` in ``1 .. 2**16 - 1``, so no field borrows from the next
    and the little-endian bytes of ``m + bias`` hold the fields as unsigned
    words.  The format reads only the fields that some term uses and skips
    the others as padding bytes.  One ``itemgetter`` then permutes the used
    fields into printed-name order, so a term's factor texts come out ready
    to join; its word is the sorted list of the factors' int keys.
    """
    terms = p.terms
    if not terms:
        return "0"
    nfields = max(map(abs, terms)).bit_length() // _W + 1
    bias = _HALF * (((1 << (_W * nfields)) - 1) // _MASK)
    used = 0
    for m in terms:
        used |= (m + bias) ^ bias
    used_fields = [bool((used >> (_W * s)) & _MASK) for s in range(nfields)]
    pad = f"{_W // 8}x"
    unpack = struct.Struct("<" + "".join([_FIELD_FORMAT if u else pad for u in used_fields])).unpack
    variables = [_slot_var(s) for s in range(nfields) if used_fields[s]]
    position = {v: pos for pos, v in enumerate(sorted(variables))}
    order = sorted(range(len(variables)), key=lambda i: var_name(variables[i]))
    tables = [_Factors(variables[i], position[variables[i]]) for i in order]
    # itemgetter of one index returns a bare value; one field needs no permuting
    permute = itemgetter(*order) if len(order) > 1 else None
    nbytes = _W // 8 * nfields
    rows = []
    for m, c in terms.items():
        fields = unpack((m + bias).to_bytes(nbytes, "little"))
        if permute is not None:
            fields = permute(fields)
        factors = list(filter(None, map(getitem, tables, fields)))
        body = "*".join(map(_text, factors))
        mag = abs(c)
        if not m:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        # keys are distinct, so the sort never compares past them
        rows.append(((sum(map(_neg_e, factors)), *sorted(map(_key, factors))), c < 0, text))
    rows.sort()
    out = ["-" if rows[0][1] else "", rows[0][2]]
    for _, neg, text in rows[1:]:
        out.append(" - " if neg else " + ")
        out.append(text)
    return "".join(out)


_FACTOR_RE = re.compile(r"^([a-z]+?)(\d+)?(?:\^(-?\d+))?$")


def _parse_factor(tok: str) -> tuple[tuple[int, int], int]:
    m = _FACTOR_RE.match(tok)
    if not m:
        raise ParseError(f"bad factor {tok!r}")
    name, idx, exp = m.groups()
    family = _PARSE_NAME.get(name, name)
    try:
        if family == "t":
            if idx is not None:
                raise ParseError("variable t carries no index")
            var = variable("t")
        else:
            if idx is None:
                raise ParseError(f"missing index in {tok!r}")
            var = variable(family, int(idx))
    except ValueError as e:
        raise ParseError(str(e)) from e
    return var, int(exp) if exp is not None else 1


def parse(text: str) -> Polynomial:
    """Parse the canonical grammar produced by :func:`canonical`."""
    text = text.strip()
    if not text:
        raise ParseError("empty input")
    if text == "0":
        return ZERO
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    chunks = re.split(r" ([+-]) ", text)
    terms = [(sign, chunks[0])]
    for op, chunk in zip(chunks[1::2], chunks[2::2]):
        terms.append((1 if op == "+" else -1, chunk))
    factor_cache: dict[str, tuple[tuple[int, int], int]] = {}
    res: dict[Monomial, int] = {}
    bound = 0
    for sgn, chunk in terms:
        factors = chunk.split("*")
        coeff = sgn
        mono: dict = {}
        start = 0
        if re.fullmatch(r"\d+", factors[0]):
            coeff *= int(factors[0])
            start = 1
        for tok in factors[start:]:
            ve = factor_cache.get(tok)
            if ve is None:
                ve = factor_cache[tok] = _parse_factor(tok)
            var, e = ve
            mono[var] = mono.get(var, 0) + e
        key = _encode(mono)
        res[key] = res.get(key, 0) + coeff
        bound = max(bound, max(map(abs, mono.values()), default=0))
    return _wrap({m: c for m, c in res.items() if c}, bound)
