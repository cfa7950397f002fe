"""The exactness gate at every entry point: one valid call per callable that
toricmmp exports and, for each numeric argument, that call with a bool, a
float and a str in that argument's place, each of which raises
InvalidInputError with the row's message.

True == 1 and 1.0 == 1, yet dumps would write them as true and 1.0; 0.1 is
3602879701896397/2^55; and Fraction parses "0.5".  A gate that let any of
them through would compute with it.  Record types and exceptions are
exempt: their numbers come from the package's own constructors.  GroupData
is not: it is the constructor, under make_group's name too, so a group
built by hand is checked like a group file.  An export
with neither a row nor an exemption fails the coverage test, so a new entry
point cannot skip the gate."""

from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

import toricmmp as T
from toricmmp.errors import InvalidInputError
from toricmmp.fan import locate

F = Fraction
ORTHANT2 = T.make_fan([(1, 0), (0, 1)], [(0, 1)])
BLOWUP2 = T.make_fan([(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
SQUARE = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
ATIYAH_X = T.make_fan(SQUARE, [(0, 1, 2), (0, 2, 3)])
ATIYAH_Y = T.make_fan(SQUARE, [(0, 1, 3), (1, 2, 3)])
PX, PY = (T.make_pair(fan, (0, 0, 0, 0)) for fan in (ATIYAH_X, ATIYAH_Y))
PAIR = T.make_pair(BLOWUP2, (0, F(1, 2), F(1, 3)))
REL = T.wall_relation(ATIYAH_X, T.walls(ATIYAH_X)[0])
GROUP = T.make_group(2, [(3, (1, 2))])
STD2 = T.LatticeBasis.standard(2)
HEIGHTS = "heights must be exact rationals, not bool or float"
POINT = "point coordinates must be exact rationals, not bool or float"
JSON_INT = "expected an integer, got|not an integer"

# record types and exceptions: values the package builds, not entry points
EXEMPT = (
    "BudgetExceededError", "EngineInvariantError", "InvalidInputError",
    "NonProjectiveError", "NotKEquivalentError", "ToricMmpError",
    "ExtractionStep", "Fan", "FlopStep", "LedgerEntry", "McKayReport",
    "MmpStep", "ToricPair", "Wall", "WallRelation",
)


class Row(NamedTuple):
    name: str                  # the export, or Class.method
    call: Callable             # call(x): the entry point with x in one numeric place
    valid: object = None       # the exact number the valid call puts there; None: no number
    message: str | None = None  # the gate's message, a regex
    expect: object = None      # call(valid)'s result, when not None
    arg: str = ""              # which numeric argument, when a callable has several rows


ROWS = [
    # lattice
    Row("LatticeBasis", lambda x: T.LatticeBasis(((x, 0), (0, 1))), F(1, 2),
        "basis entries must be exact rationals"),
    Row("LatticeBasis.standard", T.LatticeBasis.standard, 2,
        "lattice dimension must be an integer", STD2),
    Row("LatticeBasis.from_rows", lambda x: T.LatticeBasis.from_rows([(x, 0), (0, 1)]), F(1, 2),
        "basis entries must be exact rationals", T.LatticeBasis(((F(1, 2), 0), (0, 1)))),
    Row("box_points", lambda x: T.box_points([(1, x), (0, 2)], STD2), 1,
        "coordinates must be exact rationals"),
    Row("cone_multiplicity", lambda x: T.cone_multiplicity([(x, 0), (0, 1)], STD2), 2,
        "coordinates must be exact rationals", 2),
    Row("hermite_normal_form", lambda x: T.hermite_normal_form([[x, 0], [0, 2]]), 1,
        "matrix entries must be integers"),
    Row("smith_normal_form", lambda x: T.smith_normal_form([[x, 0], [0, 2]]), 1,
        "matrix entries must be integers"),
    Row("primitive", lambda x: T.primitive((x, 1)), F(1, 2),
        "vector coordinates must be exact rationals", (1, 2)),
    # fan
    Row("make_fan", lambda x: T.make_fan([(1, 0), (0, x)], [(0, 1)]), 1,
        "ray coordinates must be integers", ORTHANT2, "-rays"),
    Row("make_fan", lambda x: T.make_fan([(1, 0), (0, 1)], [(0, x)]), 1,
        "cone ray indices must be integers", ORTHANT2, "-cones"),
    Row("star_subdivision", lambda x: T.fans_equal(T.star_subdivision(ORTHANT2, (x, 1)), BLOWUP2),
        1, "vector coordinates must be exact rationals", True),
    Row("in_support", lambda x: T.in_support(ORTHANT2, (x, 1)), F(1, 10), POINT, True),
    Row("locate", lambda x: locate(ORTHANT2, (x, 1)), F(1, 10), POINT, (0, (F(1, 10), 1))),
    Row("walls", lambda _: T.walls(ATIYAH_X)),
    Row("fans_equal", lambda _: T.fans_equal(ATIYAH_X, ATIYAH_X), expect=True),
    # circuits
    Row("defect", lambda x: T.defect(REL, (x, 0, 0, 0)), F(1, 2), HEIGHTS, F(-1, 2)),
    Row("classify", lambda _: T.classify(REL)),
    Row("wall_relation", lambda _: T.wall_relation(ATIYAH_X, T.walls(ATIYAH_X)[0]), expect=REL),
    # pairs
    Row("make_pair", lambda x: T.make_pair(ORTHANT2, (x, 0)), F(1, 2),
        "boundary coefficients must be exact rationals, not bool or float"),
    Row("pl_eval", lambda x: T.pl_eval(ORTHANT2, (x, 1), (1, 0)), F(1, 2), HEIGHTS, F(1, 2),
        "-heights"),
    Row("pl_eval", lambda x: T.pl_eval(ORTHANT2, (1, 1), (x, 0)), F(1, 10), POINT, F(1, 10),
        "-point"),
    Row("is_nef", lambda x: T.is_nef(BLOWUP2, (x, 1, 1)), F(1, 2), HEIGHTS, True),
    Row("psi_heights", lambda _: T.psi_heights(PAIR), expect=(1, F(1, 2), F(2, 3))),
    Row("is_terminal", lambda _: T.is_terminal(PAIR)),
    Row("is_canonical", lambda _: T.is_canonical(PAIR)),
    Row("min_discrepancy_witness", lambda _: T.min_discrepancy_witness(PAIR)),
    Row("k_equivalent", lambda _: T.k_equivalent(PX, PY), expect=True),
    Row("k_compare", lambda _: T.k_compare(PX, PY), expect="equal"),
    # mmp
    Row("regular_triangulation",
        lambda x: T.regular_triangulation(SQUARE[:2] + [(1, x, 1), SQUARE[3]], [0, 0, 1, 0]), 1,
        "rays must be integer vectors of equal length", arg="-rays"),
    Row("regular_triangulation", lambda x: T.regular_triangulation(SQUARE, [0, 0, x, 0]), 1,
        "heights must be exact rationals", arg="-heights"),
    Row("ample_heights", lambda _: T.ample_heights(ATIYAH_X)),
    Row("bistellar_flip", lambda _: T.bistellar_flip(ATIYAH_X, T.walls(ATIYAH_X)[0])),
    Row("divisorial_contract", lambda _: T.divisorial_contract(BLOWUP2, T.walls(BLOWUP2)[0])),
    Row("flop_decompose", lambda _: T.flop_decompose(PX, PY)),
    Row("relative_mmp", lambda _: T.relative_mmp(T.make_pair(BLOWUP2, (0, 0, 0)))),
    Row("terminalize", lambda _: T.terminalize(PAIR)),
    # mckay
    Row("make_group", lambda x: T.make_group(x, [(3, (1, 2))]), 2,
        "group dimension must be a positive integer", GROUP, "-n"),
    Row("make_group", lambda x: T.make_group(2, [(x, (1, 2))]), 3,
        "generator order must be a positive integer", GROUP, "-r"),
    Row("make_group", lambda x: T.make_group(2, [(3, [1, x])]), 2,  # a list of weights is taken
        "generator weights must be integers", GROUP, "-weights"),
    Row("GroupData", lambda x: T.GroupData(x, ((3, (1, 2)),)), 2,
        "group dimension must be a positive integer", GROUP, "-n"),
    Row("GroupData", lambda x: T.GroupData(2, ((x, (1, 2)),)), 3,
        "generator order must be a positive integer", GROUP, "-r"),
    Row("GroupData", lambda x: T.GroupData(2, ((3, (1, x)),)), 2,
        "generator weights must be integers", GROUP, "-weights"),
    Row("case_a_components", lambda x: T.case_a_components(x, 2), 5,
        r"need integers 1 <= s1 <= r1", (1, 3, 4), "-r1"),
    Row("case_a_components", lambda x: T.case_a_components(5, x), 2,
        r"need integers 1 <= s1 <= r1", (1, 3, 4), "-s1"),
    Row("hj_resolution", lambda x: T.hj_resolution(x, 3)[1], 7, "need integer parameters",
        (-3, -2, -2), "-r"),
    Row("hj_resolution", lambda x: T.hj_resolution(7, x)[1], 3, "need integer parameters",
        (-3, -2, -2), "-a"),
    Row("boundary_divisor_pair", lambda x: T.boundary_divisor_pair(T.quotient_pair(GROUP), x), 1,
        "ray index must be an integer"),
    Row("group_lattice", lambda _: T.group_lattice(GROUP)),
    Row("group_order", lambda _: T.group_order(GROUP), expect=3),
    Row("is_sl", lambda _: T.is_sl(GROUP), expect=True),
    Row("quotient_pair", lambda _: T.quotient_pair(GROUP)),
    Row("stack_rank", lambda _: T.stack_rank(T.quotient_pair(GROUP)), expect=3),
    Row("mckay_pipeline", lambda _: T.mckay_pipeline(GROUP).rank_resolution, expect=3),
    # jsonio: the decoders take "p/q" and decimal strings by design, not "1.0"
    Row("fan_from_json", lambda x: T.fan_from_json(
        {"dim": 2, "rays": [[1, 0], [0, x]], "cones": [[0, 1]]}), 1, JSON_INT, ORTHANT2),
    Row("pair_from_json", lambda x: T.pair_from_json(
        {"dim": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]], "coeffs": [x, 0]}), 0,
        "rationals must be integers or 'p/q' strings|not a rational"),
    Row("group_from_json", lambda x: T.group_from_json(
        {"n": 2, "gens": [{"r": 3, "weights": [1, x]}]}), 2, JSON_INT, GROUP),
    Row("fan_to_json", lambda _: T.fan_to_json(ORTHANT2)),
    Row("pair_to_json", lambda _: T.pair_to_json(PAIR)),
    Row("group_to_json", lambda _: T.group_to_json(GROUP)),
    Row("to_jsonable", lambda _: T.to_jsonable(F(1, 2)), expect="1/2"),
    Row("dumps", lambda _: T.dumps(GROUP)),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.name + row.arg for row in ROWS])
def test_every_numeric_argument_is_gated(row):
    got = row.call(row.valid)
    if row.expect is not None:
        assert got == row.expect
    if row.message is None:
        return
    for bad in (bool(row.valid), float(row.valid), str(float(row.valid))):
        with pytest.raises(InvalidInputError, match=row.message):
            row.call(bad)


@pytest.mark.parametrize("n, gens, message", [
    (3, ((0, (1, 2, 2)),), "generator order must be a positive integer"),  # was ZeroDivisionError
    (3, ((-5, (1, 2, 2)),), "generator order must be a positive integer"),  # was taken as 5
    (2, ((3, (1.0, 2)),), "generator weights must be integers"),  # was TypeError
    (2, ((3.0, (1, 2)),), "generator order must be a positive integer"),  # was TypeError
    (2, ((3, (True, 2)),), "generator weights must be integers"),  # was computed
])
def test_a_group_built_by_hand_is_checked(n, gens, message):
    # every group path reads a GroupData, and its constructor is make_group's
    # check, so no pipeline sees a group that make_group would refuse, nor
    # one that _replace made from a checked group
    with pytest.raises(InvalidInputError, match=message):
        T.mckay_pipeline(T.GroupData(n, gens))
    with pytest.raises(InvalidInputError, match=message):
        T.make_group(n, [(5, [0] * n)])._replace(gens=gens)


def test_every_export_has_a_row_or_an_exemption():
    exports = {name for name, obj in vars(T).items()
               if callable(obj) and not name.startswith("_") and not isinstance(obj, type(T))}
    rows = {row.name for row in ROWS}
    assert sorted(exports - rows - set(EXEMPT)) == []
    assert rows & set(EXEMPT) == set()
    for name in EXEMPT:  # an exemption is a record type or an exception
        obj = getattr(T, name)
        assert issubclass(obj, Exception) or hasattr(obj, "_fields") or \
            hasattr(obj, "__dataclass_fields__"), name
