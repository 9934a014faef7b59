"""Identity verification: specs, reports and the serial suite runner.

This module holds only the identity specs and reports, the parameter domain
(``_resolve``), one check per identity that composes the owning modules, and
the default suite, one table of blocks (``SUITE_BLOCKS``) read by one loop.
Every check computes both sides through the owning modules, and a report
passes when the two sides have the same terms, which is exactly when their
canonical forms are equal, so term order can never produce a false failure;
lhs - rhs is built only to render a failure's diff.  Parameters outside an
identity's domain raise ``BadParams``.
"""

from __future__ import annotations

import itertools
import json
import time

from . import combin, paths, poly, sixvertex, symfun
from .shapes import (
    FrozenValue,
    Partition,
    StrictPartition,
    conjugate,
    is_int,
    shape_for,
)

# The sf cache lives in sfcache.  These two names stay here because
# perfbench/tracing.py's install wraps harness.cache_get and harness.cache_put
# by name; tests/test_scripts.py::test_tracer_hooks_still_wrap runs it.
from .sfcache import cache_get, cache_put  # noqa: F401


class BadParams(ValueError):
    pass


class BadConfig(ValueError):
    pass


class Params(dict):
    """An ``IdentitySpec``'s parameter dict: read-only, hashed by its item set."""

    __slots__ = ()

    def __hash__(self):
        return hash(frozenset(self.items()))

    def _read_only(self, *args, **kwargs):
        raise TypeError("IdentitySpec params are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # copy and pickle pass the items to the constructor
        return Params, (dict(self),)


class IdentitySpec(FrozenValue):
    __slots__ = ("id", "params")  # identity id, Params of parameter name -> value

    def __init__(self, id: str, params: dict | None = None):
        super().__init__(id, Params(params or ()))

    def describe(self) -> str:
        bits = []
        for key in ("mu", "lambda", "n", "m", "p", "q"):
            if key in self.params:
                val = self.params[key]
                if isinstance(val, (Partition, StrictPartition)):
                    val = "(" + val.serialize() + ")"
                bits.append(f"{key}={val}")
        return f"{self.id}[{', '.join(bits)}]"


class IdentityReport(FrozenValue):
    # IdentitySpec, canonical lhs and rhs, lhs == rhs, canonical lhs - rhs, seconds
    __slots__ = ("spec", "lhs", "rhs", "passed", "diff", "elapsed")

    def to_json(self) -> dict:
        params = {}
        for k, v in self.spec.params.items():
            params[k] = v.serialize() if isinstance(v, (Partition, StrictPartition)) else v
        return {
            "id": self.spec.id,
            "params": params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "diff": self.diff,
            "elapsed": self.elapsed,
        }


# -- parameter handling -------------------------------------------------

def _get_int(params: dict, key: str) -> int:
    if key not in params:
        raise BadParams(f"missing parameter {key!r}")
    v = params[key]
    if not is_int(v):
        raise BadParams(f"parameter {key!r} must be an integer, got {v!r}")
    return v


def _get_shape(params: dict, key: str, klass):
    if key not in params:
        raise BadParams(f"missing parameter {key!r}")
    v = params[key]
    if isinstance(v, str):
        try:
            v = klass.parse(v)
        except ValueError as e:
            raise BadParams(str(e)) from e
    if not isinstance(v, klass):
        raise BadParams(f"parameter {key!r} must be a {klass.__name__}, got {v!r}")
    return v


def _resolve(params: dict, names: tuple[str, ...]) -> list:
    """The values of ``names`` read from ``params``, inside the shared domain.

    Every identity needs ``n >= 1``.  ``mu`` has at most ``n`` nonzero parts;
    ``lam`` is the ``lambda`` parameter, of length ``n`` with no zero part, or,
    when there is no ``lambda``, ``mu + delta``; ``m``, ``p`` and ``q`` are
    integers.  Anything else, and any parameter the identity does not read,
    raises ``BadParams``.
    """
    shape_key = "lambda" if "lambda" in params else "mu"
    read = {"n", *(shape_key if key == "lam" else key for key in names)}
    for key in params:
        if key not in read:
            raise BadParams(f"this identity does not read parameter {key!r}")
    n = _get_int(params, "n")
    if n < 1:
        raise BadParams(f"n must be at least 1, got {n}")
    values = {"n": n}
    for key in names:
        if key in ("m", "p", "q"):
            values[key] = _get_int(params, key)
        elif key == "lam" and "lambda" in params:
            lam = _get_shape(params, "lambda", StrictPartition)
            if len(lam.parts) != n or lam.length() != n:
                raise BadParams(
                    f"lambda must have exactly {n} parts, all positive, got {lam.parts}"
                )
            values[key] = lam
        elif key in ("mu", "lam"):
            mu = _get_shape(params, "mu", Partition)
            if mu.length() > n:
                raise BadParams(f"{mu.parts} has more than {n} nonzero parts")
            values[key] = mu if key == "mu" else shape_for(mu, n, "delta")
    return [values[key] for key in names]


# -- the individual identities ------------------------------------------
#
# Each check takes the resolved parameters its _CHECKS entry names and
# returns (lhs, rhs).  It checks only the relations of its own identity.

def _check_theorem1(mu: Partition, n: int, klass: str):
    kind = "factorialBigP" if klass == "P" else "factorialBigQ"
    lhs = symfun.tableau_sum(kind, shape_for(mu, n, "delta"), n)
    rhs = symfun.theorem_rhs(mu, n, klass)
    return lhs, rhs


def _check_lemma1(mu: Partition, n: int):
    lhs = symfun.det_formula("lemma1", mu, n)
    rhs = symfun.tableau_sum("factorialSchur", mu.normalized(), n)
    return lhs, rhs


def _check_lemma2(lam: StrictPartition, n: int):
    lhs = symfun.det_formula("lemma2", lam, n)
    rhs = symfun.tableau_sum("factorialBigP", lam, n)
    return lhs, rhs


def _check_lemma3a(m: int, p: int, n: int):
    if not (m >= 0 and 1 <= p < n):
        raise BadParams(f"need m >= 0 and 1 <= p < n, got m={m}, p={p}, n={n}")
    return _check_lemma3b(m, p, p + 1, n)


def _check_lemma3b(m: int, p: int, q: int, n: int):
    """q_m(A(p, q)) - q_m(A(p+1, q+1)) against (x_p + y_q) q_{m-1}(A(p, q+1)),
    A(k, q) being the alphabet of ``symfun.q_series``; lemma 3(a) is the case
    q = p + 1."""
    if not (m >= 0 and 1 <= p < q <= n):
        raise BadParams(f"need m >= 0 and 1 <= p < q <= n, got m={m}, p={p}, q={q}, n={n}")
    lhs = symfun.q_poly(p, q, n, m) - symfun.q_poly(p + 1, q + 1, n, m)
    rhs = (poly.x(p) + poly.y(q)) * symfun.q_poly(p, q + 1, n, m - 1)
    return lhs, rhs


def _check_lemma4(mu: Partition, n: int):
    # encoded as polynomials: sum of t^(#SW - #NE) over the compass point
    # matrices of shape mu + delta against count * t^|mu|, the lhs being the
    # ice sum of that statistic row by row.  Its coefficients sum to the
    # count, and lhs == count * t^|mu| exactly when every matrix has
    # #SW - #NE = |mu|; combin.enumerate_asm is the oracle of the count.
    tvar = poly.variable("t")
    lhs = sixvertex.ice_sum(
        mu,
        n,
        lambda letters, i: poly.var_poly(tvar, letters.count("SW") - letters.count("NE")),
        "t^(#SW - #NE)",
    )
    rhs = poly.const(sum(lhs.terms.values())) * poly.var_poly(tvar, mu.weight())
    return lhs, rhs


def _check_cor1(mu: Partition, n: int):
    lhs = symfun.tableau_sum("ikedaQ", shape_for(mu, n, "delta"), n)
    rhs = (
        poly.product(poly.const(2) * poly.x(i) for i in range(1, n + 1))
        * symfun.vandermonde(n, lambda i, j: poly.x(i) + poly.x(j))
        * symfun.tableau_sum("factorialSchur", mu.normalized(), n)
    )
    return lhs, rhs


def _check_cor2(mu: Partition, n: int):
    lhs = sixvertex.partition_function(mu, n, "general")
    rhs = symfun.theorem_rhs(mu, n, "P")
    return lhs, rhs


def _check_cor3(mu: Partition, n: int):
    lhs = combin.gt_row_sum(shape_for(mu, n, "delta"), combin.gtp_row_weight, "gtp")
    rhs = symfun.theorem_rhs(mu, n, "P")
    return lhs, rhs


def _check_cor4(mu: Partition, n: int):
    lhs = combin.gt_row_sum(shape_for(mu, n, "rho"), combin.tokuyama_row_weight, "tokuyama")
    rhs = (
        symfun.vandermonde(n, lambda i, j: poly.x(i) + poly.t() * poly.x(j))
        * symfun.tableau_sum("schur", mu.normalized(), n)
    )
    return lhs, rhs


def _check_cor5(mu: Partition, n: int):
    lhs = sixvertex.partition_function(mu, n, "bmn")
    s = symfun.tableau_sum("factorialSchur", mu.normalized(), n)
    s_zalpha = poly.substitute(
        s, {"x": lambda i: poly.z(i), "a": lambda j: poly.alpha(j)}
    )
    rhs = symfun.vandermonde(n, lambda i, j: poly.t() * poly.z(i) + poly.z(j)) * s_zalpha
    return lhs, rhs


def _check_cor6(mu: Partition, n: int):
    lhs = sixvertex.partition_function(mu, n, "lascoux")
    kappa = Partition(mu.padded(n)[i] + (n - 1 - i) for i in range(n))
    kappa_conj = conjugate(kappa)
    factors = [poly.var_poly(poly.variable("x", i), n - i) for i in range(1, n)]
    for j, part in enumerate(kappa_conj.parts, start=1):
        factors.append(poly.var_poly(poly.variable("a", j), -part))
    sign = poly.const(-1 if kappa.weight() % 2 else 1)
    rhs = (
        sign
        * poly.product(factors)
        * symfun.tableau_sum("factorialSchur", mu.normalized(), n)
    )
    return lhs, rhs


def _check_paths_lemma1(mu: Partition, n: int):
    """The ``sst`` lattice-path sum ``paths.row_sweep_sum``, a
    ``combin.row_transfer`` of path-leg weights that builds no family, against
    the lemma 1 determinant; ``paths.nonintersecting_sum`` is its oracle."""
    lhs = paths.row_sweep_sum("sst", mu, n)
    rhs = symfun.det_formula("lemma1", mu, n)
    return lhs, rhs


def _check_paths_lemma2(lam: StrictPartition, n: int):
    """The ``pst`` lattice-path sum, a ``combin.row_transfer`` of path-leg
    weights as in :func:`_check_paths_lemma1`, against the lemma 2 determinant."""
    lhs = paths.row_sweep_sum("pst", lam, n)
    rhs = symfun.det_formula("lemma2", lam, n)
    return lhs, rhs


# identity id -> (check, the parameter names _resolve hands it, in order)
_CHECKS = {
    "theorem1P": (lambda mu, n: _check_theorem1(mu, n, "P"), ("mu", "n")),
    "theorem1Q": (lambda mu, n: _check_theorem1(mu, n, "Q"), ("mu", "n")),
    "lemma1": (_check_lemma1, ("mu", "n")),
    "lemma2": (_check_lemma2, ("lam", "n")),
    "lemma3a": (_check_lemma3a, ("m", "p", "n")),
    "lemma3b": (_check_lemma3b, ("m", "p", "q", "n")),
    "lemma4": (_check_lemma4, ("mu", "n")),
    "cor1_ikeda": (_check_cor1, ("mu", "n")),
    "cor2_asm": (_check_cor2, ("mu", "n")),
    "cor3_gtp": (_check_cor3, ("mu", "n")),
    "cor4_tokuyama": (_check_cor4, ("mu", "n")),
    "cor5_bmn": (_check_cor5, ("mu", "n")),
    "cor6_lascoux": (_check_cor6, ("mu", "n")),
    "pathsLemma1": (_check_paths_lemma1, ("mu", "n")),
    "pathsLemma2": (_check_paths_lemma2, ("lam", "n")),
}

IDENTITY_IDS = tuple(_CHECKS)


def verify_identity(spec: IdentitySpec) -> IdentityReport:
    if not isinstance(spec.id, str) or spec.id not in _CHECKS:
        raise BadParams(f"unknown identity id {spec.id!r}; known: {', '.join(_CHECKS)}")
    start = time.perf_counter()
    check, names = _CHECKS[spec.id]
    lhs, rhs = check(*_resolve(spec.params, names))
    # every constructor drops zero coefficients and a packed monomial decodes
    # uniquely, so equal term maps are exactly equal canonical forms
    passed = lhs == rhs
    lhs_text = poly.canonical(lhs)
    return IdentityReport(
        spec,
        lhs_text,
        lhs_text if passed else poly.canonical(rhs),
        passed,
        "0" if passed else poly.canonical(lhs - rhs),
        time.perf_counter() - start,
    )


# -- suite --------------------------------------------------------------

def partitions_up_to(max_weight: int, max_parts: int):
    """All partitions with weight <= max_weight and at most max_parts parts."""
    out = [
        Partition(parts)
        for k in range(max_parts + 1)
        for parts in itertools.combinations_with_replacement(range(max_weight, 0, -1), k)
        if sum(parts) <= max_weight
    ]
    out.sort(key=lambda p: (p.weight(), p.parts))
    return out


# The default suite as blocks of (identities, ((n, largest |mu|), ...)): each
# identity of a block is checked at each of its n over partitions_up_to(largest
# |mu|, n).  Lemma 3's (m, p, q) specs come after the first block.
SUITE_BLOCKS = (
    (("theorem1P", "theorem1Q", "lemma1", "lemma2"), ((1, 4), (2, 4), (3, 4), (4, 1))),
    (("lemma4", "cor1_ikeda", "cor2_asm", "cor3_gtp", "cor4_tokuyama", "cor5_bmn",
      "cor6_lascoux", "pathsLemma1"), ((1, 3), (2, 3), (3, 3))),
    (("cor1_ikeda",), ((4, 2), (5, 1))),
    (("lemma4",), ((4, 1), (5, 1), (6, 1))),
    (("pathsLemma2",), ((1, 2), (2, 2), (3, 2))),
    (("pathsLemma1", "pathsLemma2"), ((4, 1), (5, 1))),
)


def default_suite() -> list[IdentitySpec]:
    def block_specs(blocks):
        return [
            IdentitySpec(ident, {"mu": mu, "n": n})
            for idents, ranges in blocks
            for ident in idents
            for n, largest in ranges
            for mu in partitions_up_to(largest, n)
        ]

    lemma3 = []
    for n in range(2, 5):
        for p in range(1, n):
            lemma3 += [IdentitySpec("lemma3a", {"m": m, "p": p, "n": n}) for m in range(1, 4)]
            lemma3 += [
                IdentitySpec("lemma3b", {"m": m, "p": p, "q": q, "n": n})
                for q in range(p + 1, n + 1)
                for m in range(1, 4)
            ]
    return block_specs(SUITE_BLOCKS[:1]) + lemma3 + block_specs(SUITE_BLOCKS[1:])


def run_suite(specs=None) -> list[IdentityReport]:
    if specs is None:
        specs = default_suite()
    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, IdentitySpec):
            raise BadConfig(f"suite entries must be IdentitySpec, got {spec!r}")
    return [verify_identity(s) for s in specs]


def load_suite_config(path: str) -> list[IdentitySpec]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise BadConfig(str(e)) from e
    if not isinstance(data, list):
        raise BadConfig("suite config must be a JSON list")
    specs = []
    for entry in data:
        if not isinstance(entry, dict) or "id" not in entry:
            raise BadConfig(f"bad suite entry: {entry!r}")
        for key, value in entry.items():
            # a list or object would leave the spec unhashable
            if isinstance(value, (list, dict)):
                raise BadConfig(
                    f"suite entry {key!r} must be a JSON string or number, got {value!r}"
                )
        params = {k: v for k, v in entry.items() if k != "id"}
        specs.append(IdentitySpec(entry["id"], params))
    return specs
