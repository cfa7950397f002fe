"""Command line interface.

Subcommands operate on JSON files (fans, pairs, groups) and print either
human-readable lines or, with --json, canonical JSON.  Exit codes: 0 on
success, 1 for rejected input of any kind, 2 for a violated internal
invariant.
"""

import argparse
import json
import sys
from pathlib import Path

from .errors import EngineInvariantError, InvalidInputError
from .jsonio import dumps, group_from_json, pair_from_json
from .mckay import case_a_components, hj_resolution, mckay_pipeline, quotient_pair, stack_rank
from .mmp import flop_decompose, relative_mmp, terminalize
from .pairs import is_canonical, is_nef, is_terminal, psi_heights


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise InvalidInputError(f"cannot read {path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise InvalidInputError(f"{path} is not valid JSON: {e}") from None


def _load_pair(path):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    if "gens" in data:
        raise InvalidInputError(f"{path}: got a group file, expected a fan or pair")
    if "coeffs" not in data:
        rays = data.get("rays")  # a non-list is rejected by pair_from_json
        data = {**data, "coeffs": [0] * len(rays) if isinstance(rays, list) else []}
    return pair_from_json(data)


def _load_group(path):
    data = _load_json(path)
    if not isinstance(data, dict) or "gens" not in data:
        raise InvalidInputError(f"{path}: expected a group file")
    return group_from_json(data)


def _vec(v):
    return "[" + ", ".join(str(x) for x in v) + "]"


def _emit(args, payload, lines):
    if args.json:
        print(dumps(payload))
    else:
        for line in lines:
            print(line)
    return 0


# ------------------------------------------------------------- commands


def _cmd_check(args):
    pair = _load_pair(args.pair)
    flags = {
        "valid": True,
        "complete": pair.fan.support_kind == "complete",
        "terminal": is_terminal(pair),
        "canonical": is_canonical(pair),
        "nef": is_nef(pair.fan, psi_heights(pair)),
    }
    lines = [f"{k}: {json.dumps(v)}" for k, v in flags.items()]
    return _emit(args, flags, lines)


def _cmd_terminalize(args):
    pair = _load_pair(args.pair)
    out, steps = terminalize(pair)
    lines = [
        f"extract {_vec(s.ray)} at log discrepancy {s.psi_value}" for s in steps
    ]
    lines.append(
        f"terminal model: {len(out.fan.rays)} rays, {len(out.fan.max_cones)} cones"
    )
    return _emit(args, {"pair": out, "steps": steps}, lines)


def _cmd_mmp(args):
    pair = _load_pair(args.pair)
    out, steps = relative_mmp(pair)
    lines = []
    for s in steps:
        if s.kind == "divisorial":
            lines.append(f"contract ray {_vec(s.removed_ray)}")
        else:
            lines.append("flip at wall " + " ".join(_vec(v) for v in s.wall))
    lines.append(
        f"minimal model: {len(out.fan.rays)} rays, {len(out.fan.max_cones)} cones"
    )
    return _emit(args, {"pair": out, "steps": steps}, lines)


def _report_lines(rep):
    lines = [
        f"order: {rep.order}",
        f"sl: {json.dumps(rep.sl)}",
        f"rank: {rep.rank_quotient} -> {rep.rank_resolution}",
    ]
    for e in rep.ledger:
        line = f"{e.kind} ray {_vec(e.ray)}"
        if e.psi_value is not None:
            line += f" psi {e.psi_value}"
        line += f" rank {e.rank_before} -> {e.rank_after} center {_vec(e.center)}"
        if e.components is not None:
            line += f" components {_vec(e.components)}"
        lines.append(line)
    spent = sum(e.rank_before - e.rank_after for e in rep.ledger)
    lines.append(f"telescope: {rep.order} = {rep.rank_resolution} + {spent}")
    return lines


def _cmd_mckay(args):
    if args.batch is None:
        rep = mckay_pipeline(_load_group(args.group))
        return _emit(args, rep, _report_lines(rep))
    root = Path(args.batch)
    if not root.is_dir():
        raise InvalidInputError(f"{root} is not a directory")
    results = {}
    failed = False
    for path in sorted(root.glob("*.json")):
        try:
            results[path.name] = mckay_pipeline(_load_group(path))
        except InvalidInputError as e:
            results[path.name] = {"error": str(e)}
            failed = True
    lines = []
    for name, res in results.items():
        lines.append(f"== {name}")
        if isinstance(res, dict):
            lines.append(f"error: {res['error']}")
        else:
            lines.extend(_report_lines(res))
    _emit(args, results, lines)
    return 1 if failed else 0


def _cmd_flop_decompose(args):
    px = _load_pair(args.x)
    py = _load_pair(args.y)
    steps = flop_decompose(px, py)
    lines = [
        "flop circuit " + " ".join(_vec(v) for v in s.circuit)
        + f" at time {s.event_time}"
        for s in steps
    ]
    lines.append(f"flops: {len(steps)}")
    return _emit(args, {"steps": steps}, lines)


def _cmd_hj(args):
    fan, chain = hj_resolution(args.r, args.a)
    lines = ["chain: " + " ".join(str(b) for b in chain)]
    return _emit(args, {"chain": chain, "fan": fan}, lines)


def _cmd_rank(args):
    data = _load_json(args.input)
    if isinstance(data, dict) and "gens" in data:
        pair = quotient_pair(group_from_json(data))
    else:
        pair = _load_pair(args.input)
    rank = stack_rank(pair)
    return _emit(args, {"rank": rank}, [f"rank: {rank}"])


def _cmd_case_a(args):
    comps = case_a_components(args.r1, args.s1)
    lines = [
        "components: " + " ".join(str(c) for c in comps),
        f"count: {len(comps)}",
    ]
    return _emit(args, {"components": comps, "count": len(comps)}, lines)


# --------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    # usage mistakes are invalid input, not engine bugs: exit 1, never 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parser():
    p = _Parser(
        prog="toricmmp",
        description="Exact birational toolkit for simplicial toric pairs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true", help="emit canonical JSON")
        sp.set_defaults(func=func)
        return sp

    sp = add("check", _cmd_check, "validate a pair and report its flags")
    sp.add_argument("pair", help="pair or fan JSON file")

    sp = add("terminalize", _cmd_terminalize, "extract all low-discrepancy valuations")
    sp.add_argument("pair")

    sp = add("mmp", _cmd_mmp, "run the relative minimal model program over the support cone")
    sp.add_argument("pair")

    sp = add("mckay", _cmd_mckay, "quotient pipeline with its rank ledger")
    sp.add_argument("group", nargs="?", default=None, help="group JSON file")
    sp.add_argument("--batch", default=None, metavar="DIR",
                    help="process every *.json in a directory")

    sp = add("flop-decompose", _cmd_flop_decompose,
             "decompose a K-equivalence into flops")
    sp.add_argument("x", help="source pair JSON file")
    sp.add_argument("y", help="target pair JSON file")

    sp = add("hj", _cmd_hj, "continued-fraction resolution of (1/r)(1,a)")
    sp.add_argument("r", type=int)
    sp.add_argument("a", type=int)

    sp = add("rank", _cmd_rank, "stack rank of a pair or group quotient")
    sp.add_argument("input", help="pair or group JSON file")

    sp = add("case-a", _cmd_case_a, "surviving residues of the floor sieve")
    sp.add_argument("r1", type=int)
    sp.add_argument("s1", type=int)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "mckay" and (args.group is None) == (args.batch is None):
        print("error: mckay needs a group file or --batch, not both", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except InvalidInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except EngineInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
