"""Command-line interface.

Subcommands: complete, cycle, frieze, dyck, triangulate, enumerate, verify.
JSON on stdout by default; ASCII rendering is opt-in for friezes.  Exit
codes: 0 success, 1 invalid input, 2 a theorem-backed property failed.
Output is deterministic for identical invocations.

Every command bounds the work its input can demand: ``enumerate`` and
``verify`` by the rank cap, commands that read a vector or quiddity by
``MAX_VECTOR_ENTRIES``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks as checks_mod
from .diamond import complete_diamond, cycle_heads, minimal_cycle
from .dyck import parse_path, to_lambda, to_v_vector, vector_to_path
from .errors import InputError, InvariantViolation, format_int, int_in
from .frieze import from_quiddity, frieze_of_vector, render_ascii, to_json_dict
from .enumeration import enumerate_all
from .triangulation import path_to_triangulation, vector_to_triangulation

DEFAULT_MAX_N = 10
# Output and work grow with the cube of the length (N^2 entries of up to
# N digits).  At 400 entries the slowest command, the ASCII frieze of the
# zigzag triangulation's vector, takes 0.7-0.85 s from process start to
# exit and prints 55 MB (2-vCPU Intel Xeon, Python 3.11.7).
MAX_VECTOR_ENTRIES = 400


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route that to exit 1 instead
    def error(self, message):
        raise InputError(message)


def _parse_vector(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    what = f"number of entries (cap of {MAX_VECTOR_ENTRIES})"
    int_in(len(parts), what, 1, MAX_VECTOR_ENTRIES)
    try:
        return tuple(int(part) for part in parts)
    except ValueError as exc:
        shown = format_int(text)
        raise InputError(f"not a comma-separated integer vector: {shown}") from exc


def _format_vector(v) -> str:
    return ",".join(str(x) for x in v)


def _check_cap(args) -> None:
    n, cap = args.n, args.max_n
    if n > cap:
        raise InputError(
            f"n={n} exceeds the enumeration cap {cap}; raise it with --max-n"
        )


def _diamond_dict(d) -> dict:
    return {"col1": list(d.col1), "col2": list(d.col2)}


def cmd_complete(args) -> int:
    d = complete_diamond(_parse_vector(args.vector))
    print(json.dumps(_diamond_dict(d)))
    return 0


def cmd_cycle(args) -> int:
    cycle = minimal_cycle(complete_diamond(_parse_vector(args.vector)))
    out = {
        "n": cycle.n,
        "p": cycle.p,
        "heads": list(cycle_heads(cycle)),
        "diamonds": [_diamond_dict(d) for d in cycle.diamonds],
    }
    print(json.dumps(out))
    return 0


def cmd_frieze(args) -> int:
    if args.vector is not None:
        fp = frieze_of_vector(_parse_vector(args.vector))
    else:
        fp = from_quiddity(_parse_vector(args.quiddity))
    if args.render == "ascii":
        print(render_ascii(fp, repetitions=2))
    else:
        print(json.dumps(to_json_dict(fp)))
    return 0


def cmd_dyck(args) -> int:
    if args.word is not None:
        path = parse_path(args.word)
    else:
        path = vector_to_path(_parse_vector(args.vector))
    if args.to == "path":
        print(path.word)
    elif args.to == "v":
        print(_format_vector(to_v_vector(path)))
    else:
        print(_format_vector(to_lambda(path)))
    return 0


def cmd_triangulate(args) -> int:
    if args.word is not None:
        t = path_to_triangulation(parse_path(args.word))
    else:
        t = vector_to_triangulation(_parse_vector(args.vector))
    print(t.to_text())
    return 0


def cmd_enumerate(args) -> int:
    _check_cap(args)
    vectors = enumerate_all(args.n)
    if args.format == "text":
        for v in vectors:
            print(_format_vector(v))
    else:
        print(json.dumps([list(v) for v in vectors]))
    return 0


def cmd_verify(args) -> int:
    _check_cap(args)
    results = checks_mod.run_checks(args.n)
    print(
        json.dumps(
            {
                "n": args.n,
                "checks": [{"name": r.name, "pass": r.passed} for r in results],
            }
        )
    )
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(f"check failed: {r.name} {r.detail}".rstrip(), file=sys.stderr)
    return 2 if failed else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="dyckfrieze", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="complete a diamond from its first column")
    p.add_argument("--vector", required=True, help='first column, e.g. "2,3,4,1"')
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("cycle", help="minimal coupling cycle of a vector")
    p.add_argument("--vector", required=True)
    p.set_defaults(func=cmd_cycle)

    p = sub.add_parser("frieze", help="build a frieze from a vector or quiddity")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--vector")
    src.add_argument("--quiddity", help='quiddity row, e.g. "2,3,1,2,3,1"')
    p.add_argument("--render", choices=["json", "ascii"], default="json")
    p.set_defaults(func=cmd_frieze)

    p = sub.add_parser("dyck", help="convert between paths and encodings")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--vector")
    src.add_argument("--word", help='Dyck word, e.g. "UUDUDD"')
    p.add_argument("--to", choices=["path", "v", "lambda"], default="path")
    p.set_defaults(func=cmd_dyck)

    p = sub.add_parser("triangulate", help="triangulation of a word or vector")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--vector")
    src.add_argument("--word")
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("enumerate", help="all diamond vectors of a rank")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="size cap")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run the rank-n invariant suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="size cap")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
