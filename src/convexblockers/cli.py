"""Command-line interface.

Subcommands: enumerate, blockers formula, blockers exact, verify, witness,
render. All machine output is canonical JSON (sorted keys, compact
separators) or the plain edge-set text format, written to stdout or --out;
progress and timing go to stderr so repeated runs stay byte-identical.

Exit codes: 0 success, 1 usage error, 2 domain error (also out of memory or
too deep a recursion), 3 verification failure, 4 solver gave up (node limit).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import asdict
from typing import Iterable, Sequence

from .enumeration import enumerate_shp, enumerate_spm
from .formula import _spec_of, enumerate_formula_family, parse_blocker_spec, realize
from .geometry import Context, Edge, SimplePath, format_edge_set, is_simple_hamiltonian_path, parse_edge_set
from .hitting import SolverConfig, min_hitting_sets
from .render import render_svg
from .verification import canonical_json, family_system, verify_theorems
from .witnesses import build_p0, build_p1, build_prop1_path, prop1_special_edges

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY_FAIL = 3
EXIT_INCOMPLETE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _open_out(out_path: str | None):
    """The --out file opened for writing, or stdout when there is none.

    The long-running commands open it before their first enumeration or
    solve, so a path that cannot be written fails at once, not at the end.
    """
    return open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout)


def _emit(lines: Iterable[str], out) -> None:
    out.writelines(line + "\n" for line in lines)


def _need(args: argparse.Namespace, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise _UsageError(f"missing required option --{name.replace('_', '-')}")
    return value


def build_parser(defaults: dict | None = None) -> _Parser:
    """Construct the argument parser.

    `defaults` (from --config) must reach every subparser, not just the root:
    subcommands parse into a fresh namespace whose action defaults would
    otherwise win over root-level set_defaults.
    """
    parser = _Parser(prog="convexblockers", description=__doc__)
    parser.add_argument("--config", help="JSON file of default option values (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = []

    def leaf(subparsers, name: str, handler, help: str) -> _Parser:
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--m", type=int)
        leaves.append(p)
        return p

    p = leaf(sub, "enumerate", _cmd_enumerate, "list simple perfect matchings or Hamiltonian paths")
    p.add_argument("--family", choices=["spm", "shp"])
    p.add_argument("--count-only", action="store_true")

    blockers = sub.add_parser("blockers", help="blocker families")
    bsub = blockers.add_subparsers(dest="blockers_command", required=True)

    p = leaf(bsub, "formula", _cmd_blockers_formula, "the explicit caterpillar family")
    p.add_argument("--spec", help="single member as 'r:t:e1,e2,...'")

    p = leaf(bsub, "exact", _cmd_blockers_exact, "all minimum blockers by exact search")
    p.add_argument("--family", choices=["spm", "shp"])
    p.add_argument("--node-limit", type=int, default=SolverConfig().node_limit)

    p = leaf(sub, "verify", _cmd_verify, "full certification for a range of m")
    p.add_argument("--to", type=int)
    p.add_argument("--node-limit", type=int, default=SolverConfig().node_limit)

    p = leaf(sub, "witness", _cmd_witness, "explicit avoidance paths")
    p.add_argument("kind", choices=list(_WITNESSES))
    for name in dict.fromkeys(n for _, names in _WITNESSES.values() for n in names):
        p.add_argument("--" + name.replace("_", "-"), type=int)

    p = leaf(sub, "render", _cmd_render, "draw layers to SVG")
    p.add_argument("--layer", action="append", help="edge set layer 'a-b,c-d[:style]'", default=None)
    p.add_argument("--path", action="append", help="path layer 'v0,v1,...[:style]'", default=None)
    p.add_argument("--background", help="draw all edges first in this style")
    p.add_argument("--labels", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--angles", action="store_true", help="annotate edge directions")

    for q in leaves:
        q.add_argument("--out")
    if defaults:
        _check_config(defaults, leaves)
        for q in [parser, *leaves]:
            q.set_defaults(**defaults)
    return parser


def _config_value_ok(action: argparse.Action, value) -> bool:
    """Could parsing the option's own flag have produced this value?"""
    if action.nargs == 0:  # --x and --x/--no-x switches
        return isinstance(value, bool)
    if isinstance(action, argparse._AppendAction):
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    want = action.type or str
    if not isinstance(value, want) or isinstance(value, bool):
        return False
    return action.choices is None or value in action.choices


def _check_config(defaults: dict, leaves: list[argparse.ArgumentParser]) -> None:
    """Reject config keys no subcommand defines and values of the wrong type."""
    actions: dict[str, list[argparse.Action]] = {}
    for q in leaves:
        for action in q._actions:
            if action.dest != "help":
                actions.setdefault(action.dest, []).append(action)
    for key, value in defaults.items():
        if key not in actions:
            raise _UsageError(f"config key {key!r} is not an option of any subcommand (keys use underscores)")
        if not all(_config_value_ok(action, value) for action in actions[key]):
            raise _UsageError(f"config key {key!r} has a value its option does not accept: {value!r}")


def _cmd_enumerate(args: argparse.Namespace) -> int:
    ctx = Context(_need(args, "m"))
    family = _need(args, "family")
    with _open_out(args.out) as out:
        items = enumerate_spm(ctx) if family == "spm" else enumerate_shp(ctx)
        if args.count_only:
            _emit([str(sum(1 for _ in items))], out)
            return EXIT_OK
        # An Edge is a tuple, so JSON writes it as [a, b].
        if family == "spm":
            rows = ({"kind": "spm", "edges": sorted(s)} for s in items)
        else:
            rows = ({"kind": "shp", "vertices": p.vertices, "edges": sorted(p.edges())} for p in items)
        _emit((canonical_json({"m": ctx.m, **row}) for row in rows), out)
    return EXIT_OK


def _cmd_blockers_formula(args: argparse.Namespace) -> int:
    ctx = Context(_need(args, "m"))
    if args.spec is not None:
        lines = [format_edge_set(realize(parse_blocker_spec(args.spec), ctx))]
    else:
        lines = (
            canonical_json({"m": ctx.m, "spec": asdict(_spec_of(s, ctx)), "edges": sorted(s)})
            for s in enumerate_formula_family(ctx)
        )
    with _open_out(args.out) as out:
        _emit(lines, out)
    return EXIT_OK


def _cmd_blockers_exact(args: argparse.Namespace) -> int:
    ctx = Context(_need(args, "m"))
    family = _need(args, "family")
    config = SolverConfig(node_limit=args.node_limit)
    with _open_out(args.out) as out:
        res = min_hitting_sets(family_system(family, ctx), config)
        _emit([canonical_json(asdict(res))], out)
    return EXIT_INCOMPLETE if res.status == "incomplete" else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    m_from = _need(args, "m")
    m_to = args.to if args.to is not None else m_from
    if m_to < m_from:
        raise _UsageError(f"--to {m_to} is smaller than --m {m_from}")
    config = SolverConfig(node_limit=args.node_limit)
    statuses = set()
    with _open_out(args.out) as out:
        for m in range(m_from, m_to + 1):
            started = time.perf_counter()
            report = verify_theorems(m, config)
            elapsed = time.perf_counter() - started
            print(f"m={m}: status={report.status} ({elapsed:.2f}s)", file=sys.stderr)
            _emit([canonical_json(report.to_json_dict())], out)
            out.flush()  # a sweep that stops early keeps the reports it finished
            statuses.add(report.status)
    if "fail" in statuses:
        return EXIT_VERIFY_FAIL
    return EXIT_INCOMPLETE if "inconclusive" in statuses else EXIT_OK


# witness and render build work that grows with m before they write a
# byte: a witness path lists all 2m vertices, a figure draws them, and
# render --background draws all m(2m - 1) edges too. So each refuses an m
# whose path or figure would hold more than this many of those vertices and
# edges, decided by m and --background alone before anything is built; the
# edges of --layer and --path are bounded by their own text.
_MAX_DRAWN = 1 << 16
_MAX_DRAWN_M = _MAX_DRAWN // 2
_MAX_BACKGROUND_M = max(m for m in range(2, 256) if 2 * m + m * (2 * m - 1) <= _MAX_DRAWN)


def _check_drawn(what: str, m: int, background: bool = False) -> None:
    if background:
        what, items, largest = f"{what} with --background", "vertices and edges", _MAX_BACKGROUND_M
    else:
        items, largest = "vertices", _MAX_DRAWN_M
    if m > largest:
        raise ValueError(f"{what} at m={m} holds more than {_MAX_DRAWN} {items}, the most built at once (m <= {largest})")


# Each witness kind: its builder and the options, besides --m, that are its
# keyword arguments, in the order they are asked for. The witness parser has
# one integer option per name, in order of first use.
_WITNESSES = {
    "prop1": (build_prop1_path, ("k", "i")),
    "p0": (build_p0, ("j", "s", "t")),
    "p1": (build_p1, ("j", "alpha", "alpha_prime", "beta", "beta_prime")),
}


def _cmd_witness(args: argparse.Namespace) -> int:
    ctx = Context(_need(args, "m"))
    _check_drawn("a witness path", ctx.m)
    build, names = _WITNESSES[args.kind]
    params = {"m": ctx.m, **{name: _need(args, name) for name in names}}
    path = build(**params)
    contains = []
    if args.kind == "prop1":
        f, g, h = prop1_special_edges(ctx.m, params["k"])
        avoids, contains = [f, g], [h]
    elif args.kind == "p0":
        avoids = [Edge(params["s"], params["t"])]
    else:
        avoids = [Edge(params["alpha"], params["beta"]), Edge(params["alpha_prime"], params["beta_prime"])]
    edge_set = path.edge_set()
    checks = {
        "is_shp": is_simple_hamiltonian_path(path, ctx),
        "avoids": [str(e) for e in avoids if e not in edge_set],
        "contains": [str(e) for e in contains if e in edge_set],
    }
    ok = checks["is_shp"] and len(checks["avoids"]) == len(avoids) and len(checks["contains"]) == len(contains)
    payload = {"kind": args.kind, "params": params, "vertices": list(path.vertices), "checks": checks}
    with _open_out(args.out) as out:
        _emit([canonical_json(payload)], out)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _split_style(text: str) -> tuple[str, str]:
    if ":" in text:
        body, style = text.rsplit(":", 1)
        return body, style
    return text, "solid"


def _cmd_render(args: argparse.Namespace) -> int:
    ctx = Context(_need(args, "m"))
    _check_drawn("a figure", ctx.m, args.background is not None)
    layers: list[tuple[Sequence[Edge], str]] = []
    if args.background is not None:
        layers.append((ctx.all_edges, args.background))
    for text in args.layer or []:
        body, style = _split_style(text)
        layers.append((sorted(parse_edge_set(body)), style))
    for text in args.path or []:
        body, style = _split_style(text)
        try:
            vertices = tuple(int(v) for v in body.split(","))
        except ValueError:
            raise ValueError(f"bad path text {body!r}, expected integer vertices 'v1,v2,...'") from None
        layers.append((SimplePath(tuple(map(ctx.check_vertex, vertices))).edges(), style))
    if not layers:
        raise _UsageError("nothing to draw: give --layer, --path or --background")
    svg = render_svg(ctx.m, layers, show_labels=args.labels, highlight_angles=args.angles)
    with _open_out(args.out) as out:
        out.write(svg)
    return EXIT_OK


def _dispatch(argv: Sequence[str]) -> int:
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(list(argv))
    defaults = None
    if known.config:
        with open(known.config, encoding="utf-8") as fh:
            try:
                defaults = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValueError(f"config file {known.config}: {exc}") from None
        if not isinstance(defaults, dict):
            raise ValueError(f"config file {known.config} must hold a JSON object")
    parser = build_parser(defaults)
    args = parser.parse_args(list(argv))
    return args.handler(args)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _dispatch(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, RecursionError, OSError) as exc:  # M nests one generator per chord
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (None, 0) else EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
