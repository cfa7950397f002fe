"""JSON encoding of fans, pairs, groups, and step records.

All numbers are exact: rationals travel as "p/q" strings (integers may
drop the denominator) and integers whose magnitude reaches 2**53 are
emitted as decimal strings so round-trips through double-precision JSON
readers cannot corrupt them.  Parsing validates fully and never accepts
floats.  Output is canonical: cones are sorted, keys are sorted, and the
same value always serializes to the same bytes.
"""

import json
from fractions import Fraction

from .errors import InvalidInputError, _exact_ints
from .fan import Fan, make_fan
from .lattice import LatticeBasis
from .mckay import GroupData, make_group
from .pairs import ToricPair, make_pair

_SAFE = 2 ** 53


def int_to_json(x):
    return x if -_SAFE < x < _SAFE else str(x)


def int_from_json(v):
    if not isinstance(v, str):
        return _exact_ints((v,), f"expected an integer, got {type(v).__name__}")[0]
    s = v.strip()
    body = s[1:] if s[:1] in "+-" else s
    if body.isdecimal() and body.isascii():  # int() takes any Unicode digit
        try:
            return int(s)
        except ValueError:  # more digits than int() converts
            pass
    raise InvalidInputError(f"not an integer: {v!r}")


def rational_to_json(x):
    x = Fraction(x)
    if x.denominator == 1:
        return int_to_json(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_from_json(v):
    if not isinstance(v, str):
        return Fraction(_exact_ints((v,), "rationals must be integers or 'p/q' strings")[0])
    num, sep, den = v.partition("/")
    try:
        return Fraction(int_from_json(num), int_from_json(den) if sep else 1)
    except (InvalidInputError, ZeroDivisionError):
        raise InvalidInputError(f"not a rational: {v!r}") from None


def _require_keys(d, required, optional=()):
    if not isinstance(d, dict):
        raise InvalidInputError("expected a JSON object")
    missing = set(required) - set(d)
    extra = set(d) - set(required) - set(optional)
    if missing or extra:
        raise InvalidInputError(
            f"bad keys: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )


def _list(v, what):
    if not isinstance(v, (list, tuple)):
        raise InvalidInputError(f"expected a list of {what}")
    return v


def _int_vector(v):
    return tuple(int_from_json(x) for x in _list(v, "integers"))


def fan_to_json(fan):
    return {
        "dim": fan.dim,
        "rays": [[int_to_json(x) for x in r] for r in fan.rays],
        "cones": sorted(sorted(c) for c in fan.max_cones),
    }


def fan_from_json(d, validate="full"):
    _require_keys(d, ("dim", "rays", "cones"))
    dim = int_from_json(d["dim"])
    rays = [_int_vector(r) for r in _list(d["rays"], "rays")]
    if any(len(r) != dim for r in rays):
        raise InvalidInputError("ray length does not match dim")
    cones = [_int_vector(c) for c in _list(d["cones"], "cones")]
    return make_fan(rays, cones, validate=validate)


def pair_to_json(pair):
    out = fan_to_json(pair.fan)
    out["coeffs"] = [rational_to_json(c) for c in pair.coeffs]
    if pair.lattice != LatticeBasis.standard(pair.fan.dim):
        out["lattice"] = [
            [rational_to_json(x) for x in row] for row in pair.lattice.rows
        ]
    return out


def pair_from_json(d, validate="full"):
    _require_keys(d, ("dim", "rays", "cones", "coeffs"), optional=("lattice",))
    fan = fan_from_json(
        {k: d[k] for k in ("dim", "rays", "cones")}, validate=validate
    )
    coeffs = [rational_from_json(c) for c in _list(d["coeffs"], "coefficients")]
    lattice = None
    if "lattice" in d:
        rows = [
            [rational_from_json(x) for x in _list(row, "rationals")]
            for row in _list(d["lattice"], "lattice rows")
        ]
        lattice = LatticeBasis.from_rows(rows)
    return make_pair(fan, coeffs, lattice)


def group_to_json(G):
    return {
        "n": G.n,
        "gens": [
            {"r": int_to_json(r), "weights": [int_to_json(w) for w in ws]}
            for r, ws in G.gens
        ],
    }


def group_from_json(d):
    _require_keys(d, ("n", "gens"))
    gens = []
    for g in _list(d["gens"], "generators"):
        _require_keys(g, ("r", "weights"))
        gens.append((int_from_json(g["r"]), _int_vector(g["weights"])))
    return make_group(int_from_json(d["n"]), gens)


def to_jsonable(obj):
    """Recursive conversion to plain JSON types under the exact-number
    policy; understands the package record types."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return int_to_json(obj)
    if isinstance(obj, Fraction):
        return rational_to_json(obj)
    if isinstance(obj, Fan):
        return fan_to_json(obj)
    if isinstance(obj, ToricPair):
        return pair_to_json(obj)
    if isinstance(obj, GroupData):
        return group_to_json(obj)
    if isinstance(obj, LatticeBasis):
        return [[rational_to_json(x) for x in row] for row in obj.rows]
    if hasattr(obj, "_asdict") and hasattr(obj, "_fields"):
        return {k: to_jsonable(v) for k, v in obj._asdict().items()}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise InvalidInputError(f"cannot serialize {type(obj).__name__}")


def dumps(obj):
    """Canonical bytes-stable JSON text."""
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True)
