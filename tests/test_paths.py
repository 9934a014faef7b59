import pytest
from test_acceptance import _strict_partitions
from test_row_transfer import _id

from ftok import harness, paths, poly, symfun, tableaux
from ftok.paths import LatticePath, PathFamily
from ftok.shapes import MuTooLong, Partition, StrictPartition, shape_for
from ftok.tableaux import Tableau

T_EX = Tableau.from_json(
    {
        "kind": "sst",
        "shape": [3, 2, 2, 1, 0],
        "n": 5,
        "rows": [["1", "2", "4"], ["2", "3"], ["4", "4"], ["5"], []],
    }
)
P_EX = Tableau.from_json(
    {
        "kind": "primedP",
        "shape": [6, 4, 3, 1],
        "n": 4,
        "rows": [["1", "1", "2'", "2", "3'", "4"], ["2", "3'", "3", "3"], ["3", "4'", "4"], ["4"]],
    }
)

# the path families displayed for the two running examples
FIG1 = PathFamily(
    "sst",
    5,
    Partition((3, 2, 2, 1, 0)),
    [
        LatticePath((1, 5), "HVHVVHVV"),
        LatticePath((2, 4), "HVHVVV"),
        LatticePath((3, 3), "VHHVV"),
        LatticePath((4, 2), "VHV"),
        LatticePath((5, 1), "V"),
    ],
)
FIG2 = PathFamily(
    "pst",
    4,
    StrictPartition((6, 4, 3, 1)),
    [
        LatticePath((1, 0), "HHDHDVHV"),
        LatticePath((2, 0), "HDHHVV"),
        LatticePath((3, 0), "HDHV"),
        LatticePath((4, 0), "HV"),
    ],
)


def test_single_cellless_path():
    t = Tableau("sst", Partition((0,)), 1, {})
    fam = paths.tableau_to_paths(t)
    assert fam.paths == (LatticePath((1, 1), "V"),)
    assert paths.paths_weight(fam) == poly.ONE
    assert paths.paths_to_tableau(fam) == t


def test_fig1_family():
    assert paths.tableau_to_paths(T_EX) == FIG1
    assert paths.paths_to_tableau(FIG1) == T_EX
    assert paths.paths_weight(FIG1) == tableaux.weight(T_EX)


def test_fig2_family():
    assert paths.tableau_to_paths(P_EX) == FIG2
    assert paths.paths_to_tableau(FIG2) == P_EX
    assert paths.paths_weight(FIG2) == tableaux.weight(P_EX)


def test_malformed_families():
    with pytest.raises(paths.MalformedFamily):
        paths.validate_family(
            PathFamily("sst", 1, Partition((0,)), [LatticePath((1, 1), "H")])
        )
    with pytest.raises(paths.MalformedFamily):
        paths.validate_family(
            PathFamily("sst", 1, Partition((1,)), [LatticePath((2, 1), "HV")])
        )
    with pytest.raises(paths.MalformedFamily):
        paths.validate_family(
            PathFamily("pst", 1, StrictPartition((1,)), [LatticePath((1, 0), "VH")])
        )
    with pytest.raises(paths.MalformedFamily, match="unknown step 'X'"):
        LatticePath((1, 1), "XV").points()
    with pytest.raises(paths.MalformedFamily, match="unknown family kind 'gtp'"):
        PathFamily("gtp", 1, Partition((0,)), [LatticePath((1, 1), "V")])
    with pytest.raises(paths.MalformedFamily, match="unknown family kind 'gtp'"):
        paths.row_sweep_sum("gtp", Partition((0,)), 1)
    rejected = [
        # a step letter outside H, V, D
        (PathFamily("sst", 1, Partition((0,)), [LatticePath((1, 1), "XV")]), "step"),
        # D steps on paths that reach their end points
        (
            PathFamily(
                "sst",
                2,
                Partition((1, 0)),
                [LatticePath((1, 2), "DV"), LatticePath((2, 1), "V")],
            ),
            "sst paths admit no D steps",
        ),
        (
            PathFamily(
                "pst",
                2,
                StrictPartition((2, 1)),
                [LatticePath((1, 0), "DHV"), LatticePath((2, 0), "HV")],
            ),
            "pst paths start with an H step",
        ),
        (
            PathFamily("pst", 2, StrictPartition((1,)), [LatticePath((1, 0), "HV")]),
            "pst shape length must equal n",
        ),
        (
            PathFamily("sst", 2, Partition((1, 0)), [LatticePath((1, 2), "HVV")]),
            "expected 2 paths, got 1",
        ),
        (
            PathFamily("sst", 1, Partition((1,)), [LatticePath((1, 1), "VHV")]),
            r"path 1 ends at \(3, 2\), want \(2, 2\)",
        ),
    ]
    for fam, message in rejected:
        with pytest.raises(paths.MalformedFamily, match=message):
            paths.validate_family(fam)
    bad = PathFamily(
        "sst",
        2,
        Partition((1, 1)),
        [LatticePath((1, 2), "VHV"), LatticePath((2, 1), "HV")],
    )
    with pytest.raises(paths.IntersectingPaths):
        paths.validate_family(bad)


def test_pst_tableau_shorter_than_n():
    short = Tableau.from_json({"kind": "primedP", "shape": [1], "n": 2, "rows": [["1"]]})
    with pytest.raises(paths.MalformedFamily, match="pst shape length must equal n"):
        paths.tableau_to_paths(short)


@pytest.mark.parametrize(
    "lam,n", [(StrictPartition((5, 3, 1)), 4), (StrictPartition((3, 2, 1)), 2)]
)
def test_pst_sum_rejects_shape_length_other_than_n(lam, n):
    # a shape shorter than n once ran past its parts with an IndexError
    with pytest.raises(paths.MalformedFamily, match="pst shape length must equal n"):
        paths.nonintersecting_sum("pst", lam, n)
    with pytest.raises(paths.MalformedFamily, match="pst shape length must equal n"):
        paths.row_sweep_sum("pst", lam, n)


@pytest.mark.parametrize(
    "kind,shape,n",
    [("sst", Partition((1,)), 0)]
    + [("pst", StrictPartition(parts), n) for parts, n in [((1, 0), 2), ((2, 0), 2), ((3, 2, 0), 3), ((4, 1, 0), 3)]],
    ids=_id,
)
def test_path_sums_reject_shapes_outside_their_domain(kind, shape, n):
    # these once summed to 1 and 0, unlike the tableau sums they encode: an sst
    # shape must fit n rows, and a pst path takes at least one H step, so a 0
    # part has no path
    if kind == "sst":
        error, message = MuTooLong, "more than 0 nonzero parts"
    else:
        error, message = paths.MalformedFamily, "pst shape parts must be positive"
    with pytest.raises(error, match=message):
        paths.row_sweep_sum(kind, shape, n)
    with pytest.raises(error, match=message):
        paths.nonintersecting_sum(kind, shape, n)


def test_pst_tableau_with_a_zero_part_has_no_paths():
    t = Tableau.from_json({"kind": "primedP", "shape": [2, 0], "n": 2, "rows": [["1", "1"], []]})
    assert tableaux.validate(t) is None
    with pytest.raises(paths.MalformedFamily, match=r"parts must be positive, got \(2, 0\)"):
        paths.tableau_to_paths(t)


def test_rejects_invalid_tableau():
    bad = Tableau.from_json({"kind": "sst", "shape": [1, 1], "n": 2, "rows": [["1"], ["1"]]})
    with pytest.raises(tableaux.InvalidTableau, match=r"rule T2 violated at \(2, 1\)"):
        paths.tableau_to_paths(bad)


def test_rejects_wrong_kind():
    with pytest.raises(tableaux.InvalidTableau):
        paths.tableau_to_paths(
            Tableau.from_json(
                {"kind": "shifted", "shape": [1], "n": 1, "rows": [["1"]]}
            )
        )


@pytest.mark.parametrize(
    "shape,n",
    [(Partition((2, 1)), 2), (Partition((3, 1)), 3), (Partition((2, 2, 1)), 3)],
)
def test_sst_round_trip_and_weight(shape, n):
    for t in tableaux.enumerate_tableaux("sst", shape, n):
        fam = paths.tableau_to_paths(t)
        assert paths.paths_to_tableau(fam) == t
        assert paths.paths_weight(fam) == tableaux.weight(t)


@pytest.mark.parametrize(
    "lam,n", [(StrictPartition((2, 1)), 2), (StrictPartition((3, 2, 1)), 3)]
)
def test_pst_round_trip_and_weight(lam, n):
    for t in tableaux.enumerate_tableaux("primedP", lam, n):
        fam = paths.tableau_to_paths(t)
        assert paths.paths_to_tableau(fam) == t
        assert paths.paths_weight(fam) == tableaux.weight(t)


@pytest.mark.parametrize(
    "shape,n", [(Partition((1,)), 2), (Partition((2, 1)), 2), (Partition((2, 1)), 3)]
)
def test_sst_lgv_sum_matches_determinant(shape, n):
    assert paths.nonintersecting_sum("sst", shape, n) == symfun.det_formula(
        "lemma1", shape, n
    )


@pytest.mark.parametrize(
    "lam,n", [(StrictPartition((1,)), 1), (StrictPartition((2, 1)), 2), (StrictPartition((3, 2, 1)), 3)]
)
def test_pst_lgv_sum_matches_determinant(lam, n):
    assert paths.nonintersecting_sum("pst", lam, n) == symfun.det_formula(
        "lemma2", lam, n
    )


def test_lgv_sum_matches_family_by_family_weights():
    # the row transfer against the sum over the families: the ranges of
    # test_criterion_04_lattice_paths, then n = 4 with |mu| <= 2, and two sst
    # shapes at n = 5
    cases = []
    for n in (1, 2, 3):
        cases += [("sst", mu, n) for mu in harness.partitions_up_to(8, n)]
        cases += [("pst", lam, n) for lam in _strict_partitions(8, n)]
    for mu in harness.partitions_up_to(2, 4):
        cases += [("sst", mu, 4), ("pst", shape_for(mu, 4, "delta"), 4)]
    cases += [("sst", Partition((3, 2, 1)), 5), ("sst", Partition((2, 2)), 5)]
    for kind, shape, n in cases:
        want = paths.nonintersecting_sum(kind, shape, n)
        assert paths.row_sweep_sum(kind, shape, n) == want, (kind, shape, n)


def test_row_sweep_matches_families_at_n5():
    lam = StrictPartition((5, 4, 3, 2, 1))
    assert paths.row_sweep_sum("pst", lam, 5) == paths.nonintersecting_sum("pst", lam, 5)
