import copy
import json
import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftok import harness
from ftok.harness import IdentityReport, IdentitySpec
from ftok.shapes import Partition


def test_identity_ids_complete():
    assert len(harness.IDENTITY_IDS) == 15
    assert set(harness._CHECKS) == set(harness.IDENTITY_IDS)


def test_verify_lemma3a_small():
    report = harness.verify_identity(
        IdentitySpec("lemma3a", {"m": 1, "p": 1, "n": 2})
    )
    assert report.passed
    assert report.diff == "0"
    assert report.lhs == report.rhs == "x1 + y2"


def test_verify_cor4_empty_mu():
    report = harness.verify_identity(
        IdentitySpec("cor4_tokuyama", {"mu": Partition(), "n": 2})
    )
    assert report.passed
    assert report.lhs == "t*x2 + x1"


def test_verify_accepts_serialized_mu():
    report = harness.verify_identity(
        IdentitySpec("lemma1", {"mu": "2,1", "n": 2})
    )
    assert report.passed


def test_lemma2_accepts_lambda_or_mu():
    via_lambda = harness.verify_identity(
        IdentitySpec("lemma2", {"lambda": "3,1", "n": 2})
    )
    via_mu = harness.verify_identity(
        IdentitySpec("lemma2", {"mu": Partition((1,)), "n": 2})
    )
    assert via_lambda.passed and via_mu.passed
    assert via_lambda.lhs == via_mu.lhs


def test_bad_params():
    with pytest.raises(harness.BadParams):
        harness.verify_identity(IdentitySpec("nope", {}))
    for ident in ("lemma2", "pathsLemma2"):
        for lam, n in (("2,2", 2), ("3,2,0", 3)):
            with pytest.raises(harness.BadParams):
                harness.verify_identity(IdentitySpec(ident, {"lambda": lam, "n": n}))
        # (3, 2, 0) has two positive parts; its third part is what is wrong
        with pytest.raises(
            harness.BadParams, match=r"exactly 2 parts, all positive, got \(3, 2, 0\)$"
        ):
            harness.verify_identity(IdentitySpec(ident, {"lambda": "3,2,0", "n": 2}))
    with pytest.raises(harness.BadParams):
        harness.verify_identity(IdentitySpec("lemma1", {"n": 2}))
    for n in ("2", True, False):
        with pytest.raises(harness.BadParams):
            harness.verify_identity(IdentitySpec("lemma1", {"mu": "1", "n": n}))
    with pytest.raises(harness.BadParams):
        harness.verify_identity(IdentitySpec("lemma3a", {"m": True, "p": 1, "n": 2}))
    with pytest.raises(
        harness.BadParams, match=r"need m >= 0 and 1 <= p < n, got m=1, p=2, n=2$"
    ):
        harness.verify_identity(IdentitySpec("lemma3a", {"m": 1, "p": 2, "n": 2}))
    with pytest.raises(
        harness.BadParams,
        match=r"need m >= 0 and 1 <= p < q <= n, got m=-1, p=1, q=2, n=2$",
    ):
        harness.verify_identity(IdentitySpec("lemma3b", {"m": -1, "p": 1, "q": 2, "n": 2}))
    with pytest.raises(harness.BadParams):
        # mu longer than n
        harness.verify_identity(
            IdentitySpec("theorem1P", {"mu": Partition((1, 1, 1)), "n": 2})
        )
    # a parameter the identity does not read
    for ident, params, unread in (
        ("theorem1P", {"mu": "1", "lambda": "3,2", "n": 2}, "lambda"),
        ("lemma2", {"mu": "1", "lambda": "3,1", "n": 2}, "mu"),
        ("pathsLemma2", {"mu": "1", "lambda": "3,1", "n": 2}, "mu"),
        ("lemma1", {"mu": "1", "m": 7, "n": 2}, "m"),
        ("theorem1P", {"mu": "1", "n": 2, "lamda": "3,2"}, "lamda"),
    ):
        with pytest.raises(harness.BadParams, match=repr(unread)):
            harness.verify_identity(IdentitySpec(ident, params))


# Shape text that parses, fails to parse, or parses to a shape too long for n;
# parts stay below 4 so that every identity is quick to expand.
shape_texts = st.lists(
    st.sampled_from(["0", "1", "2", "3", "-1", "", " ", "a", "-", "--"]), max_size=4
).map(",".join)
int_params = st.one_of(
    st.integers(-1, 3), st.booleans(), st.sampled_from(["2", 2.0, None])
)
PARAM_KEYS = ("mu", "lambda", "n", "m", "p", "q")


@st.composite
def identity_params(draw, ints=int_params):
    """An identity id and the parameters its check reads, each in the domain
    four times in five and otherwise missing or drawn from ``shape_texts`` or
    ``ints``; then, one time in four, one parameter the check does not read."""
    ident = draw(st.sampled_from(harness.IDENTITY_IDS + ("nope",)))
    names = harness._CHECKS[ident][1] if ident in harness._CHECKS else ("mu", "n")
    keys = ["lambda" if name == "lam" else name for name in names]
    n = draw(st.integers(2 if "p" in keys else 1, 3))
    p = draw(st.integers(1, max(1, n - 1)))
    mu = draw(st.lists(st.integers(0, 3), max_size=n).map(lambda ps: sorted(ps, reverse=True)))
    good = {
        "mu": ",".join(map(str, mu)),
        "lambda": ",".join(map(str, draw(st.sampled_from(list(combinations((3, 2, 1), n)))))),
        "n": n,
        "m": draw(st.integers(0, 3)),
        "p": p,
        "q": draw(st.integers(min(p + 1, n), n)),
    }
    params = {}
    for key in keys:
        if draw(st.integers(0, 4)):
            params[key] = good[key]
        elif draw(st.booleans()):
            params[key] = draw(shape_texts if key in ("mu", "lambda") else ints)
    unread = [key for key in PARAM_KEYS if key not in keys]
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(unread))
        params[key] = good[key]
    return ident, params


@settings(max_examples=150, deadline=None)
@given(identity_params())
def test_verify_identity_passes_or_rejects(ident_params):
    ident, params = ident_params
    try:
        report = harness.verify_identity(IdentitySpec(ident, params))
    except harness.BadParams:
        return
    assert report.passed, report.to_json()


def test_report_json_shape():
    report = harness.verify_identity(
        IdentitySpec("lemma4", {"mu": Partition((1,)), "n": 2})
    )
    blob = report.to_json()
    assert blob["id"] == "lemma4"
    assert blob["params"] == {"mu": "1", "n": 2}
    assert blob["pass"] is True
    assert blob["diff"] == "0"
    assert blob["elapsed"] >= 0
    json.dumps(blob)  # must be serializable as-is


def test_reports_reproducible():
    spec = IdentitySpec("theorem1P", {"mu": Partition((2,)), "n": 2})
    r1 = harness.verify_identity(spec)
    r2 = harness.verify_identity(spec)
    assert (r1.lhs, r1.rhs, r1.diff) == (r2.lhs, r2.rhs, r2.diff)


def test_run_suite_empty_and_in_order():
    assert harness.run_suite([]) == []
    specs = [
        IdentitySpec("lemma1", {"mu": Partition(), "n": 2}),
        IdentitySpec("lemma2", {"mu": Partition((1,)), "n": 2}),
        IdentitySpec("lemma4", {"mu": Partition((1,)), "n": 2}),
    ]
    reports = harness.run_suite(specs)
    assert [r.spec for r in reports] == specs
    assert all(r.passed for r in reports)
    with pytest.raises(harness.BadConfig):
        harness.run_suite(["lemma1"])


def test_spec_params_are_read_only_and_hash_by_their_items():
    mu = Partition((2, 1))
    given_params = {"mu": mu, "n": 3}
    spec = IdentitySpec("theorem1P", given_params)
    swapped = IdentitySpec("theorem1P", {"n": 3, "mu": mu})
    given_params["n"] = 4  # the spec holds its own copy
    assert spec.params == {"mu": mu, "n": 3} and list(spec.params) == ["mu", "n"]
    assert list(swapped.params) == ["n", "mu"]  # to_json keeps the given order
    assert spec == swapped and hash(spec) == hash(swapped)
    assert spec != IdentitySpec("theorem1P", {"mu": mu, "n": 4})
    for change in (
        lambda p: p.__setitem__("n", 4),
        lambda p: p.__delitem__("n"),
        lambda p: p.update(n=4),
        lambda p: p.setdefault("m", 1),
        lambda p: p.pop("n"),
        lambda p: p.popitem(),
        lambda p: p.clear(),
    ):
        with pytest.raises(TypeError, match="read-only"):
            change(spec.params)
    with pytest.raises(TypeError, match="read-only"):
        params = spec.params
        params |= {"n": 4}
    assert spec.params == {"mu": mu, "n": 3}
    for copied in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert copied == spec and list(copied.params) == ["mu", "n"]
        assert type(copied.params) is type(spec.params)
    assert len({spec, swapped, IdentitySpec("theorem1P", {"mu": mu, "n": 3})}) == 1


def test_default_suite_well_formed():
    specs = harness.default_suite()
    assert all(isinstance(s, IdentitySpec) for s in specs)
    ids = {s.id for s in specs}
    assert ids == set(harness.IDENTITY_IDS)
    assert len(set(specs)) == len(specs)  # no spec twice


def test_partitions_up_to():
    got = harness.partitions_up_to(3, 2)
    assert Partition() in got
    assert Partition((2, 1)) in got
    assert Partition((1, 1, 1)) not in got
    assert all(p.weight() <= 3 and len(p.parts) <= 2 for p in got)
    assert len(set(got)) == len(got) == 6


def test_load_suite_config(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"id": "lemma1", "mu": "1", "n": 2}]))
    specs = harness.load_suite_config(str(path))
    assert specs == [IdentitySpec("lemma1", {"mu": "1", "n": 2})]
    # every JSON scalar is kept as it is, and every spec hashes
    path.write_text(json.dumps([{"id": "lemma1", "mu": None, "n": True, "m": 1.5}]))
    assert len(set(harness.load_suite_config(str(path)))) == 1
    path.write_text(json.dumps({"id": "lemma1"}))
    with pytest.raises(harness.BadConfig):
        harness.load_suite_config(str(path))
    path.write_text(json.dumps([{"mu": "1"}]))
    with pytest.raises(harness.BadConfig):
        harness.load_suite_config(str(path))
    with pytest.raises(harness.BadConfig):
        harness.load_suite_config(str(tmp_path / "missing.json"))


@pytest.mark.parametrize(
    "entry,key",
    [
        ({"id": "theorem1P", "mu": [2, 1], "n": 3}, "mu"),
        ({"id": "lemma2", "lambda": {"parts": [3, 1]}, "n": 2}, "lambda"),
        ({"id": "lemma1", "mu": "1", "n": [2]}, "n"),
        ({"id": ["theorem1P"], "mu": "1", "n": 2}, "id"),
    ],
)
def test_load_suite_config_rejects_lists_and_objects(tmp_path, entry, key):
    # such a value would leave the spec unhashable
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(harness.BadConfig, match=f"suite entry '{key}' must be"):
        harness.load_suite_config(str(path))
