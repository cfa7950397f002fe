"""The exactness and shape gates at every entry point: one valid call per
callable that toricmmp exports and, for each numeric argument, that call
with a bool, a float and a str in that argument's place, each of which
raises InvalidInputError with the row's message; and for each sequence
argument, seven hostile shapes in its place (see SLOTS).

True == 1 and 1.0 == 1, yet dumps would write them as true and 1.0; 0.1 is
3602879701896397/2^55; and Fraction parses "0.5".  A gate that let any of
them through would compute with it.  Record types and exceptions are
exempt: their numbers come from the package's own constructors.  GroupData
is not: it is the constructor, under make_group's name too, so a group
built by hand is checked like a group file.  An export
with neither a row nor an exemption fails the coverage test, so a new entry
point cannot skip the gate."""

import inspect
import re
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
        "ray coordinates must be integers", arg="-rays"),
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


# ---------------------------------------------------------------- shapes
#
# The same gates decide what a sequence of the right length is.  Each
# sequence argument (slot) of an entry point gets seven hostile shapes in
# place of its valid value: None, a scalar, empty, one item too few, one
# too many, one level too shallow (its first item: a flat vector where rows
# are expected) and one too deep (each item wrapped: rows where a vector is
# expected).  Each raises InvalidInputError with one of the slot's
# messages, never a bare TypeError, IndexError or ValueError, but for the
# shapes in the slot's takes, valid inputs of another value (an empty
# generator list is the trivial group), which must return.


class Slot(NamedTuple):
    name: str                  # the export, or Class.method
    arg: str                   # the parameter that takes the sequence
    call: Callable             # call(x): the entry point with x in that place
    valid: tuple               # the sequence the valid call puts there
    message: str               # the slot's messages, a regex
    takes: tuple = ()          # shapes that are valid input of another value


SHAPES = ("None", "scalar", "empty", "short", "long", "shallow", "deep")
BASIS = "basis entries must be exact rationals"
COORDS = "coordinates must be exact rationals|dimension mismatch|not in lattice|dependent rays"
MATRIX = "matrix entries must be integers|empty matrix|ragged matrix"
FAN_RAYS = ("ray coordinates must be integers|fan needs at least one ray|dimension must be >= 1|"
            "rays of mixed dimension|not primitive|zero ray|duplicate rays")
GENS = ("generators must be .order, weights. pairs|generator order must be a positive integer|"
        "generator weights must be integers|one weight per coordinate required")
ONE_HEIGHT = "|one height per ray required"
PRIMITIVE = "vector coordinates must be exact rationals|zero vector"

SLOTS = [
    # lattice
    Slot("LatticeBasis", "rows", T.LatticeBasis, ((F(1, 2), 0), (0, 1)),
         BASIS + "|basis matrix must be square|lattice dimension must be >= 1"),
    Slot("LatticeBasis.from_rows", "rows", T.LatticeBasis.from_rows, ((F(1, 2), 0), (0, 1)),
         BASIS + "|no generators given|generators of mixed dimension|full-rank lattice", ("long",)),
    Slot("box_points", "rays", lambda x: T.box_points(x, STD2), ((1, 1), (0, 2)),
         COORDS + "|box_points needs dim-many rays"),
    Slot("cone_multiplicity", "rays", lambda x: T.cone_multiplicity(x, STD2), ((1, 1), (0, 2)),
         COORDS + "|cone_multiplicity needs dim-many rays"),
    Slot("hermite_normal_form", "M", T.hermite_normal_form, ((1, 0), (0, 2)),
         MATRIX + "|rank-deficient", ("short",)),
    Slot("smith_normal_form", "M", T.smith_normal_form, ((1, 0), (0, 2)), MATRIX,
         ("short", "long")),
    Slot("primitive", "v", T.primitive, (F(1, 2), 1), PRIMITIVE, ("short", "long")),
    # fan
    Slot("make_fan", "rays", lambda x: T.make_fan(x, [(0, 1)]), ((1, 0), (0, 1)),
         FAN_RAYS + "|cone ray index out of range"),
    Slot("make_fan", "max_cones", lambda x: T.make_fan([(1, 0), (0, 1)], x), ((0, 1),),
         "cone ray indices must be integers|maximal cones must have dim distinct rays|"
         "cone ray index out of range|at least one maximal cone|duplicate maximal cones"),
    Slot("star_subdivision", "w", lambda x: T.fans_equal(T.star_subdivision(ORTHANT2, x), BLOWUP2),
         (1, 1), PRIMITIVE + "|vector dimension mismatch"),
    Slot("in_support", "p", lambda x: T.in_support(ORTHANT2, x), (F(1, 10), 1),
         POINT + "|point dimension mismatch"),
    Slot("locate", "p", lambda x: locate(ORTHANT2, x), (F(1, 10), 1),
         POINT + "|point dimension mismatch|outside the fan support"),
    # circuits: heights past the relation's rays are another fan's, and are ignored
    Slot("defect", "heights", lambda x: T.defect(REL, x), (F(1, 2), 0, 0, 0),
         HEIGHTS + "|too few heights for the relation's rays", ("long",)),
    # pairs
    Slot("make_pair", "coeffs", lambda x: T.make_pair(ORTHANT2, x), (F(1, 2), 0),
         "boundary coefficients must be exact rationals|one boundary coefficient per ray required"),
    Slot("pl_eval", "heights", lambda x: T.pl_eval(ORTHANT2, x, (1, 0)), (F(1, 2), 1),
         HEIGHTS + ONE_HEIGHT),
    Slot("pl_eval", "point", lambda x: T.pl_eval(ORTHANT2, (1, 1), x), (F(1, 10), 0),
         POINT + "|point dimension mismatch"),
    Slot("is_nef", "heights", lambda x: T.is_nef(BLOWUP2, x), (F(1, 2), 1, 1),
         HEIGHTS + ONE_HEIGHT),
    # mmp: the rays are make_fan's, so its messages
    Slot("regular_triangulation", "rays", lambda x: T.regular_triangulation(x, [0, 0, 1, 0]),
         tuple(SQUARE), FAN_RAYS + ONE_HEIGHT),
    Slot("regular_triangulation", "heights", lambda x: T.regular_triangulation(SQUARE, x),
         (0, 0, 1, 0), HEIGHTS + ONE_HEIGHT),
    # mckay: any number of generators makes a group
    Slot("make_group", "gens", lambda x: T.make_group(2, x), ((3, (1, 2)),), GENS,
         ("empty", "short", "long")),
    Slot("GroupData", "gens", lambda x: T.GroupData(2, x), ((3, (1, 2)),), GENS,
         ("empty", "short", "long")),
]


def _shaped(slot, shape):
    v = slot.valid
    return {"None": None, "scalar": 1, "empty": (), "short": v[:-1], "long": v + v[-1:],
            "shallow": v[0], "deep": tuple((x,) for x in v)}[shape]


@pytest.mark.parametrize("slot, shape", [(s, shape) for s in SLOTS for shape in SHAPES],
                         ids=[f"{s.name}-{s.arg}-{shape}" for s in SLOTS for shape in SHAPES])
def test_every_sequence_argument_is_shape_gated(slot, shape):
    slot.call(slot.valid)
    try:
        got = slot.call(_shaped(slot, shape))
    except InvalidInputError as e:
        assert shape not in slot.takes and re.search(slot.message, str(e)), str(e)
    else:
        assert shape in slot.takes, got


# parameters that take no sequence: a record, a scalar, a JSON object
# (whose lists jsonio reads through its own list check), or any value
NOT_A_SEQUENCE = {
    "fan", "wall", "relation", "pair", "pair_x", "pair_y", "f1", "f2", "G", "lattice",
    "n", "r", "a", "r1", "s1", "ray_index", "validate", "d", "obj",
}


def test_every_sequence_argument_has_a_slot():
    slots = {(s.name, s.arg) for s in SLOTS}
    missing = []
    for name, obj in vars(T).items():
        if callable(obj) and not name.startswith("_") and not isinstance(obj, type(T)) \
                and name not in EXEMPT:
            missing += [(name, arg) for arg in inspect.signature(obj).parameters
                        if arg not in NOT_A_SEQUENCE and (name, arg) not in slots]
    assert missing == []
    assert all(arg not in NOT_A_SEQUENCE for _, arg in slots)
