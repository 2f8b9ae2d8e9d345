import numpy as np
import pytest

from hpppt import (FormatError, Instance, MetricViolationError,
                   UnsupportedFormatError, expected_cost_direct,
                   generate_random, load_instance, parse_hpt, parse_tsplib,
                   read_tour, save_instance, write_hpt)
from hpppt.generate import assign_probabilities

TRI = Instance([[0, 1, 4], [1, 0, 2], [4, 2, 0]], [0.2, 0.5, 0.3], 0, "tri")


def test_roundtrip_euclidean_uses_coords():
    inst = assign_probabilities(generate_random(9, seed=4), seed=5)
    text = write_hpt(inst)
    assert "COORDS" in text
    assert "MATRIX" not in text
    back = parse_hpt(text)
    assert np.array_equal(back.cost, inst.cost)
    assert np.array_equal(back.prob, inst.prob)
    assert np.array_equal(back.coords, inst.coords)
    assert back.start == inst.start
    assert back.name == inst.name
    assert back.seed == inst.seed


def test_roundtrip_matrix_form():
    text = write_hpt(TRI)
    assert "MATRIX FULL" in text
    back = parse_hpt(text)
    assert np.array_equal(back.cost, TRI.cost)
    assert np.array_equal(back.prob, TRI.prob)
    assert back.coords is None
    assert back.seed is None


def test_comments_and_prob_continuation():
    text = """\
# generated by hand
NAME demo
N 3
START 0

PROB 0.2 0.5
  0.3   # trailing comment
MATRIX FULL
0 1 4
1 0 2
4 2 0
"""
    inst = parse_hpt(text)
    assert inst.prob.tolist() == [0.2, 0.5, 0.3]
    assert expected_cost_direct(inst, (0, 1, 2)) == pytest.approx(1.6)


def test_parse_errors_name_the_line():
    with pytest.raises(FormatError, match="line 3"):
        parse_hpt("NAME x\nN 2\nSTART zero\n")
    with pytest.raises(FormatError, match="PROB before N"):
        parse_hpt("PROB 0.1 0.2\n")
    with pytest.raises(FormatError, match="unknown record"):
        parse_hpt("N 2\nSTART 0\nWEIGHT 3\n")
    with pytest.raises(FormatError, match="missing PROB"):
        parse_hpt("N 1\nSTART 0\nMATRIX FULL\n0\n")
    with pytest.raises(FormatError, match="expected 3 probabilities"):
        parse_hpt("N 3\nSTART 0\nPROB 0.1 0.2\nMATRIX FULL\n" + "0 " * 9)


HEAD = ["NAME tri", "N 3", "START 0", "SEED 5", "PROB 0.2 0.5 0.3"]
COORDS = ["COORDS", "0 0", "3 0", "3 4"]
MATRIX = ["MATRIX FULL", "0 3 5", "3 0 4", "5 4 0"]
ONE_SECTION = "a second COORDS or MATRIX record, after line 6"


@pytest.mark.parametrize("lines, error", [
    # COORDS and MATRIX both: the second section would be dropped
    (HEAD + COORDS + MATRIX, f"line 10: {ONE_SECTION}"),
    (HEAD + MATRIX + COORDS, f"line 10: {ONE_SECTION}"),
    (HEAD + COORDS + COORDS, f"line 10: {ONE_SECTION}"),
    # a second record would override the first
    (HEAD[:2] + ["N 4"] + HEAD[2:] + COORDS,
     "line 3: a second N record, after line 2"),
    (HEAD + COORDS + ["NAME other"],
     "line 10: a second NAME record, after line 1"),
    (HEAD + COORDS + ["START 1"],
     "line 10: a second START record, after line 3"),
    (HEAD + COORDS + ["SEED 5"],
     "line 10: a second SEED record, after line 4"),
    (HEAD + COORDS + ["PROB 0.1 0.1 0.1"],
     "line 10: a second PROB record, after line 5"),
    # tokens past a record's value would be ignored
    (["NAME my inst"] + HEAD[1:] + COORDS,
     "line 1: unexpected 'inst' after NAME my"),
    (HEAD[:1] + ["N 3 7"] + HEAD[2:] + COORDS,
     "line 2: unexpected '7' after N 3"),
    (HEAD[:2] + ["START 0 1"] + HEAD[3:] + COORDS,
     "line 3: unexpected '1' after START 0"),
    (HEAD[:3] + ["SEED 5 6 7"] + HEAD[4:] + COORDS,
     "line 4: unexpected '6 7' after SEED 5"),
    (HEAD + ["COORDS 3"] + COORDS[1:],
     "line 6: unexpected '3' after COORDS"),
    (HEAD + ["MATRIX FULL 3"] + MATRIX[1:],
     "line 6: unexpected '3' after MATRIX FULL"),
], ids=["coords-matrix", "matrix-coords", "coords-coords", "N", "NAME",
        "START", "SEED", "PROB", "NAME-tokens", "N-tokens", "START-tokens",
        "SEED-tokens", "COORDS-tokens", "MATRIX-tokens"])
def test_records_that_take_no_effect_are_rejected(lines, error):
    with pytest.raises(FormatError, match=f"^{error}"):
        parse_hpt("\n".join(lines) + "\n")


def test_save_and_load(tmp_path):
    inst = assign_probabilities(generate_random(6, seed=7), seed=8)
    path = tmp_path / "six.hpt"
    save_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.cost, inst.cost)
    assert np.array_equal(back.prob, inst.prob)


def test_load_rejects_triangle_violation(tmp_path):
    path = tmp_path / "bad.hpt"
    path.write_text(write_hpt(TRI))
    with pytest.raises(MetricViolationError):
        load_instance(path)
    fixed = load_instance(path, metric_closure=True)
    assert fixed.cost[0, 2] == pytest.approx(3.0)
    assert fixed.cost[1, 2] == pytest.approx(2.0)


def test_non_metric_tsplib_error_names_the_repair(tmp_path):
    path = tmp_path / "tri.tsp"
    path.write_text("NAME : tri\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
                    "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n"
                    "0 1 4\n1 0 2\n4 2 0\nEOF\n")
    with pytest.raises(MetricViolationError) as err:
        load_instance(path)
    msg = str(err.value)
    assert str(path) in msg
    assert "metric_closure=True" in msg
    assert "--metric-closure" in msg
    assert load_instance(path, metric_closure=True).cost[0, 2] == 3.0


EUC_TSP = """\
NAME : right345
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 0
3 3 4
EOF
"""


def test_tsplib_euc2d(tmp_path):
    inst = parse_tsplib(EUC_TSP)
    assert inst.n == 3
    assert inst.name == "right345"
    assert inst.cost[0, 1] == 3.0
    assert inst.cost[1, 2] == 4.0
    assert inst.cost[0, 2] == 5.0
    assert inst.prob.tolist() == [0.0, 0.0, 0.0]
    assert inst.start == 0
    path = tmp_path / "right.tsp"
    path.write_text(EUC_TSP)
    assert np.array_equal(load_instance(path).cost, inst.cost)


def test_tsplib_euc2d_rounds_to_nearest_int():
    text = EUC_TSP.replace("3 3 4", "3 1 1")
    inst = parse_tsplib(text)
    # hypot(1,1) = 1.414..., nint gives 1
    assert inst.cost[0, 2] == 1.0


def test_tsplib_euc2d_rounding_that_breaks_the_triangle_is_rejected(tmp_path):
    # 1.4 and 1.2 round to 1 each, but 2.6 rounds to 3: the instance keeps
    # its coords, and its costs are not their Euclidean distances
    path = tmp_path / "line.tsp"
    path.write_text(EUC_TSP.replace("2 3 0", "2 1.4 0")
                    .replace("3 3 4", "3 2.6 0"))
    assert parse_tsplib(path.read_text()).coords is not None
    with pytest.raises(MetricViolationError, match="violated by up to 1;"):
        load_instance(path)
    assert load_instance(path, metric_closure=True).cost[0, 2] == 2.0


def test_tsplib_euc2d_zero_rounded_distance_names_both_nodes():
    # nodes 2 (3, 0) and 3 (3.3, 0.2) are 0.36 apart
    text = EUC_TSP.replace("3 3 4", "3 3.3 0.2")
    with pytest.raises(FormatError,
                       match="nodes 2 and 3 .*rounds to 0 under EUC_2D"):
        parse_tsplib(text)


def test_tsplib_lower_diag_row():
    text = """\
NAME: line4
TYPE: TSP
DIMENSION: 4
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: LOWER_DIAG_ROW
EDGE_WEIGHT_SECTION
0
1 0
3 2 0
6 5 3 0
EOF
"""
    inst = parse_tsplib(text)
    want = np.array([[0, 1, 3, 6], [1, 0, 2, 5], [3, 2, 0, 3], [6, 5, 3, 0]],
                    dtype=float)
    assert np.array_equal(inst.cost, want)


def test_tsplib_full_matrix():
    text = """\
NAME: full3
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 1 2
1 0 1
2 1 0
EOF
"""
    inst = parse_tsplib(text)
    assert inst.cost[0, 2] == 2.0
    assert inst.cost[2, 1] == 1.0


def test_tsplib_unsupported_names_keyword():
    geo = EUC_TSP.replace("EUC_2D", "GEO")
    with pytest.raises(UnsupportedFormatError, match="GEO"):
        parse_tsplib(geo)
    upper = """\
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: UPPER_ROW
EDGE_WEIGHT_SECTION
1 2 1
EOF
"""
    with pytest.raises(UnsupportedFormatError, match="UPPER_ROW"):
        parse_tsplib(upper)


def test_tsplib_weight_count_checked():
    text = """\
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 1 2 1 0 1
EOF
"""
    with pytest.raises(FormatError, match="expected 9 weights"):
        parse_tsplib(text)


def test_extension_sniffing(tmp_path):
    path = tmp_path / "mystery.txt"
    path.write_text(EUC_TSP)
    inst = load_instance(path)
    assert inst.cost[0, 2] == 5.0


def test_read_tour(tmp_path):
    good = tmp_path / "good.tour"
    good.write_text("0 2 1\n")
    inst = Instance([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0.1, 0.2, 0.3], 0)
    assert read_tour(good, inst) == (0, 2, 1)

    bad = tmp_path / "bad.tour"
    bad.write_text("0 1\n")
    with pytest.raises(FormatError, match="solution path"):
        read_tour(bad, inst)

    junk = tmp_path / "junk.tour"
    junk.write_text("0 one 2\n")
    with pytest.raises(FormatError, match="tour entry"):
        read_tour(junk, inst)
