"""Round-trips, the exact-number policy, and parse validation."""

import json
from fractions import Fraction

import pytest

from toricmmp.errors import InvalidInputError
from toricmmp.fan import fans_equal, make_fan
from toricmmp.jsonio import (
    dumps,
    fan_from_json,
    fan_to_json,
    group_from_json,
    group_to_json,
    int_from_json,
    int_to_json,
    pair_from_json,
    pair_to_json,
    rational_from_json,
    rational_to_json,
    to_jsonable,
)
from toricmmp.lattice import LatticeBasis
from toricmmp.mckay import make_group, mckay_pipeline, quotient_pair

F = Fraction


def test_rational_strings():
    assert rational_to_json(F(3, 2)) == "3/2"
    assert rational_to_json(F(-1, 3)) == "-1/3"
    assert rational_to_json(F(4)) == 4
    assert rational_from_json("3/2") == F(3, 2)
    assert rational_from_json("-7") == -7
    assert rational_from_json(5) == 5
    assert rational_from_json("6/4") == F(3, 2)


def test_rational_rejects_floats_and_junk():
    for bad in [0.5, True, "1/0", "a/b", "1.5", [1, 2]]:
        with pytest.raises(InvalidInputError):
            rational_from_json(bad)


def test_int_policy_threshold():
    assert int_to_json(2 ** 53 - 1) == 2 ** 53 - 1
    assert int_to_json(2 ** 53) == str(2 ** 53)
    assert int_to_json(-(2 ** 53)) == str(-(2 ** 53))
    assert int_from_json(str(2 ** 60)) == 2 ** 60
    assert int_from_json("-12") == -12
    with pytest.raises(InvalidInputError):
        int_from_json(1.0)
    with pytest.raises(InvalidInputError):
        int_from_json(True)


def test_fan_roundtrip_canonicalizes_cone_order():
    fan = make_fan(
        [(1, 0), (-1, 3), (0, 1)], [(2, 1), (0, 2)], validate="full"
    )
    d = fan_to_json(fan)
    assert d["cones"] == [[0, 2], [1, 2]]
    back = fan_from_json(json.loads(json.dumps(d)))
    assert fans_equal(back, fan)


def test_big_ray_coordinates_survive():
    big = 2 ** 60 + 1
    fan = make_fan([(1, 0), (big, 1)], [(0, 1)], validate="full")
    d = json.loads(json.dumps(fan_to_json(fan)))
    assert d["rays"][1][0] == str(big)
    assert fan_from_json(d).rays[1] == (big, 1)


def test_pair_roundtrip_with_lattice():
    X = quotient_pair(make_group(2, [(6, (3, 2))]))
    d = json.loads(json.dumps(pair_to_json(X)))
    assert d["coeffs"] == ["1/2", "2/3"]
    assert d["lattice"] == [["1/2", 0], [0, "1/3"]]
    back = pair_from_json(d)
    assert back.coeffs == X.coeffs
    assert back.lattice == X.lattice
    assert fans_equal(back.fan, X.fan)


def test_pair_roundtrip_standard_lattice_omitted():
    fan = make_fan([(1, 0), (0, 1)], [(0, 1)], validate="full")
    from toricmmp.pairs import make_pair

    pair = make_pair(fan, [0, F(1, 2)])
    d = pair_to_json(pair)
    assert "lattice" not in d
    back = pair_from_json(d)
    assert back.coeffs == (0, F(1, 2))


def test_group_roundtrip():
    G = make_group(3, [(6, (1, 2, 3)), (2, (1, 1, 0))])
    d = json.loads(json.dumps(group_to_json(G)))
    assert group_from_json(d) == G


def test_parse_rejects_unknown_and_missing_keys():
    fan = make_fan([(1, 0), (0, 1)], [(0, 1)], validate="full")
    d = fan_to_json(fan)
    with pytest.raises(InvalidInputError, match="unexpected"):
        fan_from_json({**d, "extra": 1})
    with pytest.raises(InvalidInputError, match="missing"):
        fan_from_json({"dim": 2, "rays": d["rays"]})
    with pytest.raises(InvalidInputError):
        pair_from_json({**d, "coeffs": ["1/2", 0], "volume": 3})


def test_parse_validates_fan_content():
    with pytest.raises(InvalidInputError):
        fan_from_json({"dim": 2, "rays": [[1, 0], [2, 0]], "cones": [[0, 1]]})
    with pytest.raises(InvalidInputError):
        fan_from_json({"dim": 2, "rays": [[1, 0, 0]], "cones": [[0]]})
    with pytest.raises(InvalidInputError):
        pair_from_json(
            {"dim": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]], "coeffs": [0.5, 0]}
        )


def test_report_serializes_and_is_deterministic():
    rep = mckay_pipeline(make_group(2, [(6, (3, 2))]))
    text = dumps(rep)
    assert text == dumps(rep)
    data = json.loads(text)
    assert data["order"] == 6
    assert data["sl"] is False
    assert [e["kind"] for e in data["ledger"]] == [
        "extraction", "coefficient_drop", "coefficient_drop", "divisorial",
    ]
    assert data["ledger"][0]["psi_value"] == "5/6"
    assert data["quotient"]["coeffs"] == ["1/2", "2/3"]


def test_int_past_the_digit_limit_is_not_an_integer():
    # int() refuses more than sys.get_int_max_str_digits() digits
    with pytest.raises(InvalidInputError, match="not an integer"):
        int_from_json("1" * 5000)


@pytest.mark.parametrize("text", ["\u0663", "\uff11\uff12", "-\u0663", "1\u0663"])
def test_int_takes_only_ascii_digits(text):
    # str.isdecimal and int() both accept any Unicode decimal digit
    with pytest.raises(InvalidInputError, match="not an integer"):
        int_from_json(text)


@pytest.mark.parametrize("text", ["3/\uff14", "\u0663/4", "\u0663"])
def test_rational_takes_only_ascii_digits(text):
    with pytest.raises(InvalidInputError, match="not a rational"):
        rational_from_json(text)


def test_group_file_with_a_non_ascii_order_is_refused():
    with pytest.raises(InvalidInputError, match="not an integer"):
        group_from_json({"n": 3, "gens": [{"r": "\u0667", "weights": [1, 2, 4]}]})
    assert group_from_json({"n": 3, "gens": [{"r": "7", "weights": [1, 2, 4]}]}) == make_group(
        3, [(7, (1, 2, 4))])


def test_parse_rejects_a_non_object():
    for decode in (fan_from_json, pair_from_json, group_from_json):
        with pytest.raises(InvalidInputError, match="expected a JSON object"):
            decode([1, 2])


def test_to_jsonable_writes_a_lattice_as_its_rows():
    assert to_jsonable(LatticeBasis.from_rows([(F(1, 2), 0), (0, 1)])) == [["1/2", 0], [0, 1]]


def test_to_jsonable_rejects_floats():
    with pytest.raises(InvalidInputError):
        to_jsonable({"x": 1.25})
