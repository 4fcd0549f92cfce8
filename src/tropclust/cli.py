"""Command line interface.

Subcommands cover the chart combinatorics (``triangulations``, ``mutate``),
product expansion (``support``), and the polytope pipeline (``minkowski``,
``check-stasheff``, ``lattice-points``, ``vertices``, ``export-chart``,
``verify-mthm``).  All input and output is exact; outputs are byte-stable
across runs.

Exit codes: 0 success, 1 malformed input or arguments, 2 a mathematical
precondition failed (including an unbounded polytope or a reported
mismatch), 3 expansion budget exceeded or out of memory.
"""
from __future__ import annotations

import argparse
import sys

from . import jsonio
from .atlas import mutate_seed
from .basis import DEFAULT_BUDGET, product_expand
from .errors import BudgetExceeded, InputFormatError, TropclustError
from .laminations import chart_coords, tropical_coordinate
from .polygon import Segment, Triangulation, diagonals as polygon_diagonals
from .polygon import triangulations as all_triangulations
from .polytopes import (
    is_nondegenerate,
    is_stasheff,
    lattice_points,
    minkowski_spec,
    vertex,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MATH = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _chart_text(tri: Triangulation) -> str:
    return ",".join(f"{d.i}-{d.j}" for d in tri.sorted_diagonals())


def _parse_chart(text: str, n_gon: int) -> Triangulation:
    segments = []
    for part in text.split(","):
        bits = part.strip().split("-")
        if len(bits) != 2:
            raise InputFormatError(f"bad chart entry {part!r}; expected like 1-3")
        try:
            segments.append(Segment(int(bits[0]), int(bits[1])))
        except ValueError as exc:
            raise InputFormatError(f"bad chart entry {part!r}: {exc}") from exc
    tri = Triangulation(n_gon, frozenset(segments))
    tri.require_complete()
    return tri


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputFormatError(f"cannot write {out_path}: {exc}") from exc


def _number_text(x) -> str:
    return str(jsonio.number_to_json(x))


# -- subcommands ----------------------------------------------------------


def _cmd_triangulations(args) -> int:
    lines = [
        _chart_text(t) for t in all_triangulations(args.n + 3)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_support(args) -> int:
    points = jsonio.points_from_json(jsonio.load_path(args.infile))
    expansion = product_expand(points, budget=args.budget)
    if args.coeffs:
        doc = jsonio.expansion_to_json(expansion)
    else:
        doc = jsonio.points_to_json(expansion.support())
    _emit(jsonio.dumps(doc), args.out)
    return EXIT_OK


def _cmd_minkowski(args) -> int:
    points = jsonio.points_from_json(jsonio.load_path(args.infile))
    spec = minkowski_spec(points)
    _emit(jsonio.dumps(jsonio.spec_to_json(spec)), args.out)
    return EXIT_OK


def _cmd_check_stasheff(args) -> int:
    spec = jsonio.spec_from_json(jsonio.load_path(args.infile))
    lines = [f"stasheff: {'true' if is_stasheff(spec) else 'false'}"]
    if args.strict:
        lines.append(
            f"nondegenerate: {'true' if is_nondegenerate(spec) else 'false'}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_lattice_points(args) -> int:
    spec = jsonio.spec_from_json(jsonio.load_path(args.infile))
    chart = _parse_chart(args.chart, spec.n_gon) if args.chart else None
    points = lattice_points(spec, chart)
    _emit(jsonio.dumps(jsonio.points_to_json(points)), args.out)
    return EXIT_OK


def _cmd_vertices(args) -> int:
    spec = jsonio.spec_from_json(jsonio.load_path(args.infile))
    doc = {
        "format": jsonio.FORMAT,
        "vertices": [
            jsonio.coords_to_json(vertex(spec, t))
            for t in all_triangulations(spec.n_gon)
        ],
    }
    _emit(jsonio.dumps(doc), args.out)
    return EXIT_OK


def _cmd_export_chart(args) -> int:
    spec = jsonio.spec_from_json(jsonio.load_path(args.infile))
    chart = _parse_chart(args.chart, spec.n_gon)
    if args.format != "csv":
        raise InputFormatError(f"unsupported export format {args.format!r}")
    points = lattice_points(spec, chart)
    charts = all_triangulations(spec.n_gon)
    header = [f"a_{d.i}_{d.j}" for d in chart.sorted_diagonals()] + ["vertex"]
    rows = [",".join(header)]
    for p in points:
        coords = chart_coords(p, chart)
        # p is the vertex of chart t when its coordinates meet the bounds on t
        tight = {
            d for d in polygon_diagonals(spec.n_gon)
            if tropical_coordinate(p, d) == spec.value(d)
        }
        flag = "true" if any(t.diagonals <= tight for t in charts) else "false"
        rows.append(
            ",".join([_number_text(v) for v in coords.vector()] + [flag])
        )
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def _cmd_verify_mthm(args) -> int:
    points = jsonio.points_from_json(jsonio.load_path(args.infile))
    expansion = product_expand(points, budget=args.budget)
    support_graphs = {l.graph for l in expansion.support()}
    spec = minkowski_spec(points)
    lattice = lattice_points(spec)
    lattice_graphs = {l.graph for l in lattice}
    if support_graphs == lattice_graphs:
        _emit(f"support = lattice points, {len(lattice)} elements\n", args.out)
        return EXIT_OK
    only_support = len(support_graphs - lattice_graphs)
    only_lattice = len(lattice_graphs - support_graphs)
    _emit(
        "support != lattice points: "
        f"{only_support} only in support, {only_lattice} only in lattice\n",
        args.out,
    )
    return EXIT_MATH


def _cmd_mutate(args) -> int:
    seed = jsonio.seed_from_json(jsonio.load_path(args.seed))
    try:
        word = [int(part) for part in args.word.split(",") if part.strip()]
    except ValueError as exc:
        raise InputFormatError(f"bad mutation word {args.word!r}: {exc}") from exc
    for k in word:
        if not 1 <= k <= len(seed.labels):
            raise InputFormatError(
                f"direction {k} out of range 1..{len(seed.labels)}"
            )
        seed = mutate_seed(seed, seed.labels[k - 1])
    _emit(jsonio.dumps(jsonio.seed_to_json(seed)), args.out)
    return EXIT_OK


# -- wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tropclust", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write output here instead of stdout")
        return p

    p = add("triangulations", _cmd_triangulations,
            "list every complete triangulation chart")
    p.add_argument("--n", type=_nonnegative_int, required=True,
                   help="rank; the polygon has n+3 vertices")

    p = add("support", _cmd_support,
            "expand a product of basis functions")
    p.add_argument("--in", dest="infile", required=True, help="points JSON file")
    p.add_argument("--coeffs", action="store_true",
                   help="include multiplicities, not just the support")
    p.add_argument("--budget", type=_nonnegative_int, default=DEFAULT_BUDGET,
                   help="cap on expansion steps")

    p = add("minkowski", _cmd_minkowski,
            "bounds of the Minkowski sum of the points' polytopes")
    p.add_argument("--in", dest="infile", required=True, help="points JSON file")

    p = add("check-stasheff", _cmd_check_stasheff,
            "test the quadruple criterion for a polytope spec")
    p.add_argument("--in", dest="infile", required=True, help="spec JSON file")
    p.add_argument("--strict", action="store_true",
                   help="also test strict inequalities")

    p = add("lattice-points", _cmd_lattice_points,
            "enumerate the integral points of a polytope")
    p.add_argument("--in", dest="infile", required=True, help="spec JSON file")
    p.add_argument("--chart", help="chart like 1-3,1-4 (default: the fan)")

    p = add("vertices", _cmd_vertices,
            "the spec restricted to every complete triangulation")
    p.add_argument("--in", dest="infile", required=True, help="spec JSON file")

    p = add("export-chart", _cmd_export_chart,
            "CSV of lattice points in one chart with a vertex flag")
    p.add_argument("--in", dest="infile", required=True, help="spec JSON file")
    p.add_argument("--chart", required=True, help="chart like 1-3,1-4")
    p.add_argument("--format", default="csv", help="output format (csv)")

    p = add("verify-mthm", _cmd_verify_mthm,
            "check support of a product against the Minkowski lattice points")
    p.add_argument("--in", dest="infile", required=True, help="points JSON file")
    p.add_argument("--budget", type=_nonnegative_int, default=DEFAULT_BUDGET,
                   help="cap on expansion steps")

    p = add("mutate", _cmd_mutate, "mutate a seed along a word")
    p.add_argument("--seed", required=True, help="seed JSON file")
    p.add_argument("--word", required=True,
                   help="comma separated 1-based direction positions")

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except TropclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
