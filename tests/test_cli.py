import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftok import cli, combin
from ftok.shapes import StrictPartition
from ftok.tableaux import Tableau
from test_harness import identity_params

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("FTOK_CACHE_DIR", str(tmp_path / "cache"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_count_only(tmp_path, capsys):
    code, out, _ = run(
        capsys, "enumerate", "--kind", "sst", "--shape", "1", "--n", "2", "--count-only"
    )
    assert code == 0
    assert out.strip() == "2"
    code, out, _ = run(
        capsys, "enumerate", "--kind", "asm", "--shape", "3,2,1", "--count-only"
    )
    assert code == 0
    assert out.strip() == "7"
    assert not (tmp_path / "cache").exists()


def test_enumerate_json_stream(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--kind", "shifted", "--shape", "2,1", "--n", "2"
    )
    assert code == 0
    lines = out.strip().split("\n")
    tabs = [Tableau.from_json(json.loads(line)) for line in lines]
    assert len(tabs) == len(set(tabs)) == 2
    code, out, _ = run(
        capsys, "enumerate", "--kind", "shifted", "--shape", "2,1", "--n", "2", "--json"
    )
    assert code == 0
    assert len(json.loads(out)) == 2


def test_enumerate_gtp(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "gtp", "--shape", "2,1")
    assert code == 0
    pats = [combin.GTPattern.from_json(json.loads(line)) for line in out.strip().split("\n")]
    assert len(pats) == 2


def test_sf_output(capsys):
    code, out, _ = run(
        capsys, "sf", "--kind", "factorial-schur", "--shape", "1", "--n", "2"
    )
    assert code == 0
    assert out.strip() == "x1 + x2 + a1 + a2"
    code, out, _ = run(
        capsys, "sf", "--kind", "lemma1-det", "--shape", "1", "--n", "2", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"polynomial": "x1 + x2 + a1 + a2"}
    code, out, _ = run(capsys, "sf", "--kind", "p", "--shape", "2,1", "--n", "2")
    assert code == 0
    assert out.strip() == "x1^2*x2 + x1*x2*y2"


def test_sf_cache_hit_prints_miss_bytes(tmp_path, capsys):
    for extra in ((), ("--json",)):
        argv = ("sf", "--kind", "factorial-q", "--shape", "2,1", "--n", "2") + extra
        miss = run(capsys, *argv)
        assert len(list((tmp_path / "cache").iterdir())) == 1
        assert run(capsys, *argv) == miss
        assert miss[0] == 0 and miss[1]


def test_sf_unwritable_cache_prints_miss(tmp_path, capsys, monkeypatch):
    argv = ("sf", "--kind", "schur", "--shape", "2,1", "--n", "2")
    miss = run(capsys, *argv)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("FTOK_CACHE_DIR", str(blocker))
    assert run(capsys, *argv) == miss
    assert miss[0] == 0 and miss[1]
    assert blocker.read_text() == ""


def test_bijection_chain(tmp_path, capsys):
    src = tmp_path / "t.json"
    src.write_text(
        json.dumps(
            {
                "kind": "shifted",
                "shape": [2, 1],
                "n": 2,
                "rows": [["1", "1"], ["2"]],
            }
        )
    )
    code, out, _ = run(
        capsys, "bijection", "--from", "shifted", "--to", "gtp", "--input", str(src)
    )
    assert code == 0
    g = combin.GTPattern.from_json(json.loads(out))
    assert g == combin.GTPattern([(2,), (2, 1)])

    gtp_file = tmp_path / "g.json"
    gtp_file.write_text(json.dumps(g.to_json()))
    code, out, _ = run(
        capsys, "bijection", "--from", "gtp", "--to", "asm", "--input", str(gtp_file)
    )
    assert code == 0
    a = combin.ASM.from_json(json.loads(out))
    assert a == combin.ASM([[0, 1], [1, 0]], StrictPartition((2, 1)))

    asm_file = tmp_path / "a.json"
    asm_file.write_text(json.dumps(a.to_json()))
    code, out, _ = run(
        capsys, "bijection", "--from", "asm", "--to", "cpm", "--input", str(asm_file)
    )
    assert code == 0
    c = combin.CPM.from_json(json.loads(out))
    assert c.entries[0] == ("SW", "WE")

    code, out, _ = run(
        capsys, "bijection", "--from", "asm", "--to", "sic", "--input", str(asm_file)
    )
    assert code == 0
    assert out.rstrip("\n") == " ^ ^\n>+>+<\n ^ v\n>+<+<\n v v"


def test_zfunc(capsys):
    code, out, _ = run(capsys, "zfunc", "--variant", "bmn", "--mu", "", "--n", "2")
    assert code == 0
    assert out.strip() == "t*z1 + z2"


def test_verify_exit_codes(capsys):
    code, out, _ = run(
        capsys, "verify", "--id", "lemma1", "--mu", "2,1", "--n", "2"
    )
    assert code == 0
    assert out.startswith("PASS lemma1")
    code, out, err = run(
        capsys, "verify", "--id", "lemma2", "--lambda", "2,2", "--n", "2"
    )
    assert code == 2
    assert "error:" in err
    for argv in (
        ("--id", "lemma2", "--lambda", "3,2,0", "--n", "3"),
        ("--id", "pathsLemma2", "--lambda", "3,2,0", "--n", "3"),
        ("--id", "lemma1", "--mu", "0", "--n", "0"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, ""), argv
        assert "error:" in err
    code, out, _ = run(
        capsys, "verify", "--id", "theorem1P", "--mu", "1", "--n", "2", "--json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True and blob["diff"] == "0"


def test_unequal_sides_fail_with_their_difference(capsys, monkeypatch):
    from ftok import harness, poly
    from ftok.harness import IdentitySpec

    lhs = poly.x(1) + poly.x(2)
    rhs = poly.x(1) + poly.const(2) * poly.y(1)
    monkeypatch.setitem(harness._CHECKS, "lemma1", (lambda mu, n: (lhs, rhs), ("mu", "n")))
    report = harness.verify_identity(IdentitySpec("lemma1", {"mu": "1", "n": 2}))
    assert report.passed is False
    assert report.lhs == poly.canonical(lhs)
    assert report.rhs == poly.canonical(rhs)
    assert report.diff == poly.canonical(lhs - rhs) == "x2 - 2*y1"
    code, out, _ = run(capsys, "verify", "--id", "lemma1", "--mu", "1", "--n", "2")
    assert code == 1
    assert out.startswith("FAIL lemma1[mu=1, n=2] (")
    assert out.endswith("s) diff=x2 - 2*y1\n")
    code, out, _ = run(capsys, "verify", "--id", "lemma1", "--mu", "1", "--n", "2", "--json")
    assert code == 1
    blob = json.loads(out)
    assert (blob["pass"], blob["rhs"], blob["diff"]) == (False, "x1 + 2*y1", "x2 - 2*y1")


def test_verify_exponent_past_the_field_exits_2(capsys):
    # lemma4 at mu = (32768) builds t**32768, one past the 16-bit field
    code, out, err = run(capsys, "verify", "--id", "lemma4", "--mu", "32768", "--n", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "exponent 32768 outside +-32767" in err


def test_suite_with_config(tmp_path, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(
        json.dumps(
            [
                {"id": "lemma1", "mu": "1", "n": 2},
                {"id": "lemma4", "mu": "1", "n": 2},
            ]
        )
    )
    code, out, _ = run(capsys, "suite", "--config", str(cfg))
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines[:2])
    assert lines[-1] == "2/2 identities verified"


def test_suite_bad_config(tmp_path, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text("{]")
    code, _, err = run(capsys, "suite", "--config", str(cfg))
    assert code == 2
    assert "error:" in err
    for entry in (
        {"id": "lemma1", "mu": "1", "n": True},
        {"id": ["theorem1P"], "mu": "1", "n": 2},
        {"id": "theorem1P", "mu": "1", "n": 2, "lamda": "3,2"},
    ):
        cfg.write_text(json.dumps([entry]))
        code, out, err = run(capsys, "suite", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "error:" in err


def test_suite_json_reports(tmp_path, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps([{"id": "lemma3a", "m": 1, "p": 1, "n": 2}]))
    code, out, _ = run(capsys, "suite", "--config", str(cfg), "--json")
    assert code == 0
    blob = json.loads(out.strip())
    assert blob["id"] == "lemma3a" and blob["pass"] is True


BAD_CELL_ROWS = {  # cell texts that int() reads, but str(CellEntry) never writes
    "mixed": [[" 1", "0_1"], ["+2"]],
    "space": [[" 1", "1"], ["2"]],
    "underscore": [["1", "0_1"], ["2"]],
    "plus": [["1", "1"], ["+2"]],
    "non-ascii": [["1", "1"], ["\u0662"]],  # ARABIC-INDIC DIGIT TWO
    "newline": [["1", "1\n"], ["2"]],
}


@pytest.mark.parametrize(
    "argv",
    [
        "sf --kind p --shape 2,2 --n 3",
        "enumerate --kind asm --shape 3,3 --count-only",
        "enumerate --kind sst --shape 2,1 --n -1 --count-only",
        "enumerate --kind sst --shape 2,1 --count-only",
        "enumerate --kind asm --shape 3,2,1 --n 7 --count-only",
        "sf --kind lemma2-det --shape 3,2 --n 3",
        "sf --kind lemma2-det --shape 3,2,0 --n 3",
        "sf --kind schur --shape a --n 2",
        "zfunc --variant bmn --mu 3,2,1 --n 2",
        "zfunc --variant nope --mu 1 --n 2",
        "bijection --from shifted --to gtp --input missing.json",
        "bijection --from shifted --to gtp --input no-shape.json",
        "bijection --from gtp --to asm --input list.json",
        "bijection --from gtp --to gtp --input not-strict.json",
        "bijection --from shifted --to gtp --input float-n.json",
        "bijection --from shifted --to gtp --input string-n.json",
        "bijection --from asm --to gtp --input float-part.json",
        "bijection --from asm --to gtp --input bool-entry.json",
        "bijection --from shifted --to gtp --input rule-violated.json",
        "verify --id theorem1P --mu 1 --lambda 3,2 --n 2",
        "verify --id lemma2 --mu 1 --lambda 3,1 --n 2",
        "verify --id lemma1 --mu 1 --m 7 --n 2",
        "verify --id nope --mu 1 --n 2",
    ]
    + [f"bijection --from shifted --to gtp --input cell-{name}.json" for name in BAD_CELL_ROWS],
)
def test_bad_input_exits_2(tmp_path, capsys, monkeypatch, argv):
    (tmp_path / "no-shape.json").write_text('{"kind": "shifted"}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "not-strict.json").write_text('{"rows": [[3], [1, 2]]}')
    shifted = '{"kind": "shifted", "shape": [2, 1], "n": %s, "rows": [["1", "1"], ["2"]]}'
    (tmp_path / "float-n.json").write_text(shifted % "2.9")
    (tmp_path / "string-n.json").write_text(shifted % '"2"')
    (tmp_path / "rule-violated.json").write_text(
        '{"kind": "shifted", "shape": [2, 1], "n": 2, "rows": [["2", "2"], ["2"]]}'
    )
    (tmp_path / "float-part.json").write_text('{"entries": [[1]], "shape": [1.5]}')
    (tmp_path / "bool-entry.json").write_text('{"entries": [[true]], "shape": [1]}')
    for name, rows in BAD_CELL_ROWS.items():
        data = {"kind": "shifted", "shape": [2, 1], "n": 2, "rows": rows}
        (tmp_path / f"cell-{name}.json").write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert not (tmp_path / "cache").exists()


def test_module_entry_bad_input_exits_2():
    result = subprocess.run(
        [sys.executable, "-m", "ftok.cli", "zfunc", "--variant", "bmn", "--mu", "1", "--n", "0"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


_RUN_CLI = """
import sys
from ftok import cli
for argv in sys.argv[1:]:
    assert cli.main(argv.split()) == 0, argv
"""


def _modules_loaded(tmp_path, code, *args, flags=()):
    """The names in sys.modules after ``code`` runs in a fresh interpreter
    (pytest and hypothesis load some of the modules checked here themselves)."""
    result = subprocess.run(
        [sys.executable, *flags, "-c", code + "\nimport sys\nprint(*sys.modules)", *args],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def test_subcommands_import_only_what_they_run(tmp_path):
    light = _modules_loaded(
        tmp_path,
        _RUN_CLI,
        "enumerate --kind sst --shape 2,1 --n 3 --count-only",
        "enumerate --kind gtp --shape 3,1",
        "zfunc --variant bmn --mu 1 --n 2",
    )
    assert {"ftok.tableaux", "ftok.combin", "ftok.sixvertex"} <= light
    assert not light & {"ftok.harness", "ftok.paths", "ftok.symfun", "hashlib", "fractions"}
    det = _modules_loaded(tmp_path, _RUN_CLI, "sf --kind lemma2-det --shape 3,2,1 --n 3")
    assert "ftok.symfun" in det and "ftok.harness" not in det
    harness_only = _modules_loaded(tmp_path, "import ftok.harness")
    assert "ftok.harness" in harness_only
    assert not harness_only & {"hashlib", "fractions"}
    # the value classes generate no code: dataclasses would load inspect and ast
    for loaded in (light, det, harness_only):
        assert not loaded & {"dataclasses", "inspect"}
    # without site (whose .pth files may load typing) nothing ftok runs needs typing
    for code, args in (
        (_RUN_CLI, ("enumerate --kind gtp --shape 3,1", "sf --kind lemma2-det --shape 2,1 --n 2")),
        ("import ftok.cli, ftok.harness", ()),
    ):
        bare = _modules_loaded(tmp_path, code, *args, flags=("-S",))
        assert "ftok.cli" in bare and not bare & {"typing", "dataclasses", "inspect"}


# Shape text that parses, fails to parse, or parses to a shape too long for n;
# parts stay below 4 so that every identity is quick to expand.
shape_texts = st.lists(
    st.sampled_from(["0", "1", "2", "3", "-1", "", " ", "a", "-", "--"]), max_size=4
).map(",".join)


# JSON values for bijection input: small, mostly malformed objects, and the
# valid encodings of one pattern.  Floats, bools and numeric strings stand
# where integers belong.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1, 4)
    | st.floats(-1, 4)
    | st.sampled_from([1.0, 2.9, float("inf"), float("nan")])
    | st.sampled_from(["shifted", "1", "2", "2.0", "2'", "a"])
    | st.sampled_from([" 1", "0_1", "+2", "\u0662", "1\n"]),  # int() reads these
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "shape", "n", "rows", "entries"]), inner),
    max_leaves=12,
)
_G = combin.GTPattern([(2,), (3, 1), (3, 2, 1)])
valid_inputs = st.sampled_from(
    [
        combin.shifted_from_gtp(_G).to_json(),
        _G.to_json(),
        combin.asm_from_gtp(_G).to_json(),
    ]
)


@st.composite
def argvs(draw):
    """An argv and the JSON value of its input file (None: no file)."""
    command = draw(st.sampled_from(["sf", "enumerate", "zfunc", "verify", "bijection"]))
    shape = draw(shape_texts)
    n = draw(st.integers(-1, 3))
    if command == "sf":
        kinds = ["schur", "factorial-schur", "p", "q", "factorial-p", "factorial-q"]
        kind = draw(st.sampled_from(kinds + ["lemma1-det", "lemma2-det"]))
        return ["sf", "--kind", kind, f"--shape={shape}", f"--n={n}"], None
    if command == "enumerate":
        kind = draw(st.sampled_from(["sst", "shifted", "primed-p", "primed-q", "gtp", "asm"]))
        argv = ["enumerate", "--kind", kind, f"--shape={shape}"]
        if draw(st.booleans()):
            argv.append(f"--n={n}")
        return argv + draw(st.sampled_from([[], ["--count-only"], ["--json"]])), None
    if command == "zfunc":
        variant = draw(st.sampled_from(combin.VARIANTS))
        return ["zfunc", "--variant", variant, f"--mu={shape}", f"--n={n}"], None
    if command == "bijection":
        source = draw(st.sampled_from(["shifted", "gtp", "asm"]))
        target = draw(st.sampled_from(["gtp", "asm", "cpm", "sic"]))
        argv = ["bijection", "--from", source, "--to", target, "--input", "in.json"]
        return argv, draw(st.none() | valid_inputs | json_values)
    ident, params = draw(identity_params(ints=st.integers(-1, 3)))
    return ["verify", "--id", ident] + [f"--{key}={val}" for key, val in params.items()], None


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_cli_exits_0_or_2(argv_and_input):
    argv, data = argv_and_input
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "cache")
        if data is not None:
            with open(os.path.join(tmp, "in.json"), "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        if argv[0] == "bijection":
            argv = argv[:-1] + [os.path.join(tmp, argv[-1])]
        with mock.patch.dict(os.environ, {"FTOK_CACHE_DIR": cache}):
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        if code == 2:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("error:"), argv
            assert not os.path.exists(cache), argv
        elif code == 1:
            assert argv[0] == "verify" and out.getvalue().startswith("FAIL"), argv
        else:
            assert code == 0, argv
