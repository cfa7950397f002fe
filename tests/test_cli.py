"""End-to-end command tests: files in, lines or canonical JSON out."""

import copy
import json
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from corpus import STAR_P3

from toricmmp.cli import main
from toricmmp.fan import make_fan
from toricmmp.jsonio import dumps, fan_to_json, group_to_json, pair_to_json
from toricmmp.lattice import MAX_MULTIPLICITY
from toricmmp.mckay import MAX_CASE_A_ORDER, MAX_HJ_CHAIN, make_group, quotient_pair
from toricmmp.mmp import MAX_EXTRACTION_BOX_POINTS, MAX_LP_SIZE, regular_triangulation
from toricmmp.pairs import MAX_CELL_SUBSETS, make_pair


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def orthant_pair_file(tmp_path):
    fan = make_fan([(1, 0), (0, 1)], [(0, 1)])
    return write(tmp_path / "orthant.json", pair_to_json(make_pair(fan, [0, 0])))


@pytest.fixture
def sixth_group_file(tmp_path):
    return write(tmp_path / "g6.json", group_to_json(make_group(2, [(6, (3, 2))])))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_text(capsys, orthant_pair_file):
    code, out, _ = run(capsys, "check", orthant_pair_file)
    assert code == 0
    assert out.splitlines() == [
        "valid: true",
        "complete: false",
        "terminal: true",
        "canonical: true",
        "nef: true",
    ]


def test_check_json(capsys, tmp_path):
    fan = make_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
    path = write(tmp_path / "p2.json", fan_to_json(fan))  # bare fan: coeffs 0
    code, out, _ = run(capsys, "check", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "valid": True, "complete": True, "terminal": True,
        "canonical": True, "nef": True,
    }


def test_check_rejects_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", str(path))
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 1 and "error:" in err


def test_terminalize_text_and_json(capsys, tmp_path):
    X = quotient_pair(make_group(2, [(3, (1, 1))]))
    path = write(tmp_path / "x.json", pair_to_json(X))
    code, out, _ = run(capsys, "terminalize", path)
    assert code == 0
    assert out.splitlines() == [
        "extract [0, 1] at log discrepancy 2/3",
        "terminal model: 3 rays, 2 cones",
    ]
    code, out, _ = run(capsys, "terminalize", path, "--json")
    data = json.loads(out)
    assert len(data["steps"]) == 1
    assert data["steps"][0]["psi_value"] == "2/3"
    assert len(data["pair"]["rays"]) == 3


def test_mmp_contracts_interior_ray(capsys, tmp_path):
    fan = make_fan([(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
    path = write(tmp_path / "bl.json", pair_to_json(make_pair(fan, [0, 0, 0])))
    code, out, _ = run(capsys, "mmp", path)
    assert code == 0
    assert out.splitlines() == [
        "contract ray [1, 1]",
        "minimal model: 2 rays, 1 cones",
    ]
    # no step cap and no base is an option: the engine loops bound their
    # own steps, and the base is the fan's support cone
    for option in (["--max-steps", "0"], ["--base", "orthant"]):
        with pytest.raises(SystemExit) as exc:
            main(["mmp", path, *option])
        assert exc.value.code == 1


def test_mmp_contracts_the_centre_of_a_square(capsys, tmp_path):
    # the centre ray's star is four cones around it: one link contraction
    rays = [(0, 0, 1), (2, 0, 1), (2, 2, 1), (0, 2, 1), (1, 1, 1)]
    fan = make_fan(rays, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)])
    pair = make_pair(fan, [0, 0, 0, 0, Fraction(1, 2)])
    path = write(tmp_path / "square.json", pair_to_json(pair))
    code, out, _ = run(capsys, "mmp", path)
    assert code == 0
    assert out.splitlines() == [
        "contract ray [1, 1, 1]",
        "minimal model: 4 rays, 2 cones",
    ]


def test_mmp_flip_line(capsys, tmp_path):
    rays = [(0, 0, 1), (1, 0, 1), (3, 3, 2), (0, 1, 1)]
    fan = make_fan(rays, [(0, 1, 2), (0, 2, 3)])
    path = write(tmp_path / "flip.json", pair_to_json(make_pair(fan, [0] * 4)))
    code, out, _ = run(capsys, "mmp", path)
    assert code == 0
    assert out.splitlines() == [
        "flip at wall [0, 0, 1] [3, 3, 2]",
        "minimal model: 4 rays, 2 cones",
    ]


def test_non_object_pair_file_exits_one(capsys, tmp_path):
    path = write(tmp_path / "list.json", [[1, 0], [0, 1]])
    code, _, err = run(capsys, "check", path)
    assert code == 1 and err == f"error: {path}: expected a JSON object\n"


def test_mckay_batch_on_a_file_exits_one(capsys, sixth_group_file):
    code, _, err = run(capsys, "mckay", "--batch", sixth_group_file)
    assert code == 1 and err == f"error: {sixth_group_file} is not a directory\n"


def test_mckay_single(capsys, sixth_group_file):
    code, out, _ = run(capsys, "mckay", sixth_group_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order: 6"
    assert lines[1] == "sl: false"
    assert lines[2] == "rank: 6 -> 1"
    assert lines[3].startswith("extraction ray [1, 1] psi 5/6 rank 6 -> 5")
    assert lines[-1] == "telescope: 6 = 1 + 5"


def test_mckay_json_deterministic(capsys, sixth_group_file):
    code, out1, _ = run(capsys, "mckay", sixth_group_file, "--json")
    code2, out2, _ = run(capsys, "mckay", sixth_group_file, "--json")
    assert code == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert [e["kind"] for e in data["ledger"]] == [
        "extraction", "coefficient_drop", "coefficient_drop", "divisorial",
    ]


def test_mckay_batch(capsys, tmp_path):
    d = tmp_path / "groups"
    d.mkdir()
    write(d / "a.json", group_to_json(make_group(2, [(3, (1, 1))])))
    write(d / "b.json", group_to_json(make_group(2, [(2, (0, 1))])))
    code, out, _ = run(capsys, "mckay", "--batch", str(d))
    assert code == 0
    assert out.splitlines()[0] == "== a.json"
    assert "== b.json" in out
    # a broken file is reported per entry and flips the exit code
    (d / "c.json").write_text(json.dumps({"n": 2, "gens": [{"r": 0, "weights": [1, 1]}]}))
    code, out, _ = run(capsys, "mckay", "--batch", str(d))
    assert code == 1
    assert "== c.json" in out and "error:" in out


PAIR = {"dim": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]], "coeffs": [0, 0]}


@pytest.mark.parametrize("command, payload", [
    ("check", {"dim": 2, "rays": 5, "cones": []}),
    ("rank", {"dim": 2, "rays": 5, "cones": []}),
    ("terminalize", {"dim": 2, "rays": 5, "cones": []}),
    ("check", {**PAIR, "rays": {"0": [1, 0]}}),
    ("check", {**PAIR, "cones": 5}),
    ("check", {**PAIR, "coeffs": 5}),
    ("rank", {**PAIR, "lattice": 5}),
    ("rank", {**PAIR, "lattice": [5, 6]}),
    ("mckay", {"n": 2, "gens": 5}),
    ("rank", {"n": 2, "gens": 5}),
])
def test_non_list_fields_exit_one(capsys, tmp_path, command, payload):
    path = write(tmp_path / "in.json", payload)
    code, _, err = run(capsys, command, path)
    assert code == 1 and err.startswith("error:")


def test_mckay_batch_non_list_gens(capsys, tmp_path):
    d = tmp_path / "groups"
    d.mkdir()
    write(d / "bad.json", {"n": 2, "gens": 5})
    code, out, _ = run(capsys, "mckay", "--batch", str(d))
    assert code == 1 and "error: expected a list of generators" in out


def test_mckay_needs_exactly_one_input(capsys, sixth_group_file):
    code, _, err = run(capsys, "mckay")
    assert code == 1
    code, _, err = run(capsys, "mckay", sixth_group_file, "--batch", "x")
    assert code == 1


def test_flop_decompose_atiyah(capsys, tmp_path):
    rays = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    fx = make_fan(rays, [(0, 1, 2), (0, 2, 3)])
    fy = make_fan(rays, [(0, 1, 3), (1, 2, 3)])
    px = write(tmp_path / "x.json", pair_to_json(make_pair(fx, [0] * 4)))
    py = write(tmp_path / "y.json", pair_to_json(make_pair(fy, [0] * 4)))
    code, out, _ = run(capsys, "flop-decompose", px, py)
    assert code == 0
    assert out.splitlines()[-1] == "flops: 1"
    code, out, _ = run(capsys, "flop-decompose", px, py, "--json")
    data = json.loads(out)
    assert len(data["steps"]) == 1
    assert sorted(data["steps"][0]["coeffs"]) == [-1, -1, 1, 1]


def test_flop_decompose_fan_off_height_one(capsys, tmp_path):
    path = write(tmp_path / "p3.json", pair_to_json(make_pair(STAR_P3, [0] * 9)))
    code, out, err = run(capsys, "flop-decompose", path, path)
    assert (code, out.splitlines()[-1], err) == (0, "flops: 0", "")


def test_flop_decompose_rejects_non_equivalent(capsys, tmp_path):
    fx = make_fan([(1, 0), (0, 1)], [(0, 1)])
    fy = make_fan([(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
    px = write(tmp_path / "x.json", pair_to_json(make_pair(fx, [0, 0])))
    py = write(tmp_path / "y.json", pair_to_json(make_pair(fy, [0, 0, 0])))
    code, _, err = run(capsys, "flop-decompose", px, py)
    assert code == 1 and "error:" in err


def test_hj_lines(capsys):
    code, out, _ = run(capsys, "hj", "3", "1")
    assert code == 0 and out == "chain: -3\n"
    code, out, _ = run(capsys, "hj", "7", "3")
    assert out == "chain: -3 -2 -2\n"
    code, out, _ = run(capsys, "hj", "5", "2", "--json")
    assert json.loads(out)["chain"] == [-3, -2]
    code, _, err = run(capsys, "hj", "4", "2")
    assert code == 1 and "error:" in err


def test_hj_chain_limit_exits_one_at_once(capsys, monkeypatch):
    # (1/r)(1, r - 1) has r - 1 curves: far past the limit, the command
    # names the limit and builds no fan
    def no_fan(*_):
        raise AssertionError("a fan was built")

    monkeypatch.setattr("toricmmp.mckay.make_fan", no_fan)
    code, out, err = run(capsys, "hj", "2000001", "2000000")
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"limit of {MAX_HJ_CHAIN} curves" in err
    assert "Traceback" not in err


QUADRANT_RAYS = [[1, 0], [0, 1], [-1, 0], [0, -1]]


# supports that are neither complete nor a convex cone
@pytest.mark.parametrize("fan", [
    {"dim": 2, "rays": QUADRANT_RAYS, "cones": [[0, 1], [2, 3]]},
    {"dim": 2, "rays": QUADRANT_RAYS, "cones": [[0, 1], [1, 2], [2, 3]]},
    {"dim": 2, "rays": [[1, 0], [0, 1], [2, 1], [1, 2]], "cones": [[0, 1], [2, 3]]},
    {"dim": 4,
     "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, -1, 0],
              [0, 0, 0, -1]],
     "cones": [[0, 1, 2, 3], [0, 1, 4, 5]]},
], ids=["two-quadrants", "L-shape", "nested", "pinched-four-fold"])
def test_hostile_support_exits_one(capsys, tmp_path, fan):
    path = write(tmp_path / "fan.json", fan)
    for command in ("check", "terminalize", "mmp", "rank"):
        code, out, err = run(capsys, command, path)
        assert code == 1 and out == "", command
        assert err == "error: fan support is neither complete nor a convex cone\n"


def test_rank_command(capsys, tmp_path, sixth_group_file):
    code, out, _ = run(capsys, "rank", sixth_group_file)
    assert code == 0 and out == "rank: 6\n"
    X = quotient_pair(make_group(2, [(6, (3, 2))]))
    path = write(tmp_path / "pair.json", pair_to_json(X))
    code, out, _ = run(capsys, "rank", path)
    assert code == 0 and out == "rank: 6\n"


def test_case_a_command(capsys):
    code, out, _ = run(capsys, "case-a", "5", "2")
    assert code == 0
    assert out.splitlines() == ["components: 1 3 4", "count: 3"]
    code, out, _ = run(capsys, "case-a", "4", "4", "--json")
    assert json.loads(out) == {"components": [], "count": 0}
    code, _, err = run(capsys, "case-a", "3", "5")
    assert code == 1


def test_case_a_limit_exits_one_at_once(capsys, tmp_path):
    # 49 bytes of JSON for a quasi-reflection of order 10^7, whose
    # coefficient drop would list 10^7 - 1 residues
    path = tmp_path / "reflection.json"
    path.write_text('{"n":3,"gens":[{"r":10000000,"weights":[1,0,0]}]}')
    assert path.stat().st_size == 49
    for argv in (("case-a", "10000000", "1"), ("mckay", str(path))):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == "" and err.startswith("error:")
        assert f"limit of {MAX_CASE_A_ORDER}" in err and err.count("\n") == 1


def test_extraction_limit_exits_one_at_once(capsys, tmp_path):
    # 52 bytes of JSON whose terminalization would enumerate about 10^6 box
    # points per step, and a group of order 99,991 whose quotient cone fits
    # the limit but whose first extraction's cones do not; without the
    # limit the first ran for more than 100 s, the second 27.6 s
    def hang(signum, frame):
        raise TimeoutError("the extraction limit did not stop the run")

    previous = signal.signal(signal.SIGALRM, hang)
    try:
        # a cone past MAX_MULTIPLICITY keeps that limit's message
        for r, limit in ((999983, f"limit of {MAX_EXTRACTION_BOX_POINTS}"),
                         (99991, f"limit of {MAX_EXTRACTION_BOX_POINTS}"),
                         (1000003, f"box-point limit {MAX_MULTIPLICITY}")):
            path = tmp_path / f"g{r}.json"
            path.write_text(f'{{"n":3,"gens":[{{"r":{r},"weights":[1,2,{r - 3}]}}]}}')
            signal.alarm(10)
            start = time.perf_counter()
            code, out, err = run(capsys, "mckay", str(path))
            elapsed = time.perf_counter() - start
            signal.alarm(0)
            assert code == 1 and out == "" and err.startswith("error:")
            assert limit in err and err.count("\n") == 1
            assert elapsed < 2, (r, elapsed)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (tmp_path / "g999983.json").stat().st_size == 52


def test_engine_invariant_exit_code(capsys, sixth_group_file, monkeypatch):
    from toricmmp.errors import EngineInvariantError
    import toricmmp.cli as cli

    def boom(_):
        raise EngineInvariantError("fabricated")

    monkeypatch.setattr(cli, "mckay_pipeline", boom)
    code, _, err = run(capsys, "mckay", sixth_group_file)
    assert code == 2 and "internal error" in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hj", "3"])
    assert exc.value.code == 1


def test_output_matches_library_dumps(capsys, sixth_group_file):
    from toricmmp.mckay import mckay_pipeline

    code, out, _ = run(capsys, "mckay", sixth_group_file, "--json")
    assert out == dumps(mckay_pipeline(make_group(2, [(6, (3, 2))]))) + "\n"


def test_huge_multiplicity_exits_one_before_enumerating(capsys, tmp_path, monkeypatch):
    # 70 bytes of JSON for a cone of multiplicity 10^9
    path = write(tmp_path / "huge.json", {
        "dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 10 ** 9]],
        "cones": [[0, 1, 2]],
    })

    def no_enumeration(*_):
        raise AssertionError("box-point enumeration started")

    # the numerator enumeration of _box_numerators, which only it calls
    monkeypatch.setattr("toricmmp.lattice._span_mod", no_enumeration)
    for command in ("check", "terminalize"):
        code, out, err = run(capsys, command, path)
        assert code == 1 and out == "" and err.startswith("error:")
        assert "1000000000" in err and "Traceback" not in err


def test_huge_group_dimension_exits_one_at_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "wide.json"
    path.write_text('{"n": 100000, "gens": []}')
    assert path.stat().st_size == 25

    def no_lattice(*_):
        raise AssertionError("the group lattice was built")

    monkeypatch.setattr("toricmmp.mckay._hermite_lower", no_lattice)
    for command in ("rank", "mckay"):
        code, out, err = run(capsys, command, str(path))
        assert code == 1 and out == "" and err.startswith("error:")
        assert "100000" in err and "Traceback" not in err


def test_cell_walk_limit_exits_one_at_once(capsys, tmp_path, monkeypatch):
    # the height-one circuit w - sum v_k + (n - 2) v_0 = 0 in dimension 10,
    # both sides, with coefficient 1/2 on v_0: the sweep fails on the
    # nonzero event defect, and the cell walk over one cone pair would need
    # C(19, 9) = 92,378 facet subsets
    n = 10
    rays = [[0] * (n - 1) + [1]]
    rays += [[int(i == k) for i in range(n - 1)] + [1] for k in range(n - 1)]
    rays.append([1] * n)
    coeffs = ["1/2"] + [0] * n

    def side(drop):
        cones = [[i for i in range(n + 1) if i != j] for j in drop]
        return {"dim": n, "rays": rays, "cones": cones, "coeffs": coeffs}

    x = write(tmp_path / "x.json", side([0, n]))
    y = write(tmp_path / "y.json", side(range(1, n)))

    def no_walk(_):
        raise AssertionError("the cell walk enumerated facet subsets")

    monkeypatch.setattr("toricmmp.pairs.cofactor_kernel", no_walk)
    code, out, err = run(capsys, "flop-decompose", x, y)
    assert code == 1 and out == "" and err.startswith("error:")
    assert "92378" in err and str(MAX_CELL_SUBSETS) in err
    assert "Traceback" not in err


def test_ample_heights_lp_limit_exits_one_at_once(capsys, tmp_path, monkeypatch):
    # two regular triangulations of the 8 x 8 grid at height one:
    # K-equivalent, but the ample heights LP of X has 133 walls x 66
    # columns, past MAX_LP_SIZE, so no LP is solved.  The refusal is final,
    # with no K-equivalence check after it, whether psi is linear or, with
    # coefficient 1/2 on the two right-hand grid columns, bends
    rays = [(x, y, 1) for x in range(8) for y in range(8)]
    fans = [regular_triangulation(rays, [a * x * x + y * y + Fraction(x * y % 7, 97)
                                         for x, y, _ in rays]) for a in (1, 2)]

    def no_lp(*_):
        raise AssertionError("the LP was solved")

    def no_check(*_):
        raise AssertionError("k_equivalent was asked")

    monkeypatch.setattr("toricmmp.mmp.lp_maximize", no_lp)
    monkeypatch.setattr("toricmmp.mmp.k_equivalent", no_check)
    for boundary in ("zero", "bending"):
        coeffs = [Fraction(1, 2) if boundary == "bending" and x >= 6 else 0 for x, _, _ in rays]
        files = [write(tmp_path / f"{boundary}-{name}.json", pair_to_json(make_pair(fan, coeffs)))
                 for name, fan in zip("xy", fans)]
        start = time.perf_counter()
        code, out, err = run(capsys, "flop-decompose", *files)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == "" and err.startswith("error:")
        assert f"MAX_LP_SIZE = {MAX_LP_SIZE}" in err and "133 walls x 66 columns" in err
        assert "Traceback" not in err


FUZZ_SEEDS = [
    ("check", {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
               "cones": [[0, 1], [1, 2], [0, 2]]}),
    ("terminalize", {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [-3, -1, 5]],
                     "cones": [[0, 1, 2]], "coeffs": [0, "1/2", 0],
                     "lattice": [[1, 0, 0], [0, 1, 0], ["3/5", "1/5", "1/5"]]}),
    ("rank", {"dim": 2, "rays": [[1, 0], [1, 3]], "cones": [[0, 1]],
              "coeffs": ["1/3", 0]}),
    ("mckay", {"n": 3, "gens": [{"r": 5, "weights": [1, 2, 2]}]}),
    ("rank", {"n": 2, "gens": [{"r": 6, "weights": [3, 2]},
                               {"r": 2, "weights": [1, 1]}]}),
]
KEYS = ["dim", "rays", "cones", "coeffs", "lattice", "n", "gens", "r", "weights"]
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.just(0.5),
    st.sampled_from(["1/2", "-2/3", "1/0", "x", "", " 7 ", "\u00b2", "3" * 5000]),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)),
    max_leaves=8,
)


def _slots(doc):
    """Every (container, key) slot inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        yield doc, k
        if isinstance(v, (dict, list)):
            yield from _slots(v)


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_mutated_inputs_exit_zero_or_one(capsys, tmp_path, data):
    command, doc = data.draw(st.sampled_from(FUZZ_SEEDS))
    command = data.draw(
        st.sampled_from([command, "check", "rank", "terminalize", "mckay"]))
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        box, key = data.draw(st.sampled_from(list(_slots(doc))))
        edit = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if edit == "replace":
            box[key] = data.draw(VALUES)
        elif edit == "delete":
            del box[key]
        elif isinstance(box, list):
            box.append(copy.deepcopy(box[key]))
        else:
            box[data.draw(st.sampled_from(KEYS))] = copy.deepcopy(box[key])
        if not doc:
            break
    path = write(tmp_path / "in.json", doc)
    code, _, err = run(capsys, command, path)
    assert code in (0, 1) and "Traceback" not in err
