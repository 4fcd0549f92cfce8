"""Command line interface.

Subcommands cover the chart combinatorics (``triangulations``, ``mutate``),
product expansion (``support``), and the polytope pipeline (``minkowski``,
``check-stasheff``, ``lattice-points``, ``vertices``, ``export-chart``,
``verify-mthm``).  All input and output is exact; outputs are byte-stable
across runs.

Exit codes: 0 success, 1 malformed input or arguments (including a
``--chart`` that names no triangulation, and a polygon of more than
``jsonio.MAX_N_GON`` = 40 vertices, named in a document or through
``--n``), 2 a mathematical precondition failed (including a reported
mismatch), 3 expansion budget exceeded or out of memory.  A polytope
scanned by ``lattice-points`` is always bounded.

``lattice-points``, ``support`` and ``export-chart`` write from the lattice
scan's coordinate vectors and the split tree's sorted leaves, turned into
weight tuples in one batch, as ``verify-mthm`` reads them: no lamination
object is built per point.

Each subcommand and its options are declared once, in ``_COMMANDS``.
``main`` reads a canonical argv (exact command and option names, each
option at most once, no value starting with ``-``) straight from that
table.  Help, usage errors, abbreviations, ``--opt=value`` and every other
form go to the argparse tree that ``build_parser`` builds from the same
table; argparse alone prints usage, help and errors.
"""
from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence
from functools import lru_cache
from typing import NamedTuple

from . import jsonio
from .atlas import mutate_seed
from .basis import DEFAULT_BUDGET, _sorted_leaves
from .errors import BudgetExceeded, InputFormatError, TropclustError
from .polygon import Segment, Triangulation, _chart_text, fan_triangulation
from .polygon import triangulations as all_triangulations
from .polytopes import (
    _compile_and_scan,
    _scan_chart,
    is_nondegenerate,
    is_stasheff,
    minkowski_spec,
    vertex,
    vertex_flags,
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


def _rank(text: str) -> int:
    value = _nonnegative_int(text)
    if value + 3 > jsonio.MAX_N_GON:
        raise argparse.ArgumentTypeError(
            f"the polygon has at most {jsonio.MAX_N_GON} vertices, so n <= "
            f"{jsonio.MAX_N_GON - 3}; got {value}"
        )
    return value


def _parse_chart(text: str, n_gon: int) -> Triangulation:
    """A chart from text like ``1-3,1-4``; blank text has no diagonals,
    the triangle's only chart."""
    segments = []
    for part in text.split(",") if text.strip() else ():
        bits = part.strip().split("-")
        if len(bits) != 2:
            raise InputFormatError(f"bad chart entry {part!r}; expected like 1-3")
        try:
            segments.append(Segment(int(bits[0]), int(bits[1])))
        except ValueError as exc:
            raise InputFormatError(f"bad chart entry {part!r}: {exc}") from exc
    try:
        return Triangulation(n_gon, frozenset(segments))
    except TropclustError as exc:
        raise InputFormatError(f"bad chart {text!r}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputFormatError(f"cannot write {out_path}: {exc}") from exc


# -- subcommands ----------------------------------------------------------


def _cmd_triangulations(args) -> int:
    lines = [
        _chart_text(t) for t in all_triangulations(args.n + 3)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_support(args) -> int:
    points = jsonio.points_from_json(jsonio.load_path(args.infile))
    # each leaf of the split tree is an integral lamination
    leaves = _sorted_leaves(points, args.budget)
    weights = [v for _, v, _ in leaves]
    coeffs = [count for _, _, count in leaves] if args.coeffs else None
    _emit(jsonio.laminations_text(points[0].n_gon, weights, coeffs), args.out)
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
    chart = (
        fan_triangulation(spec.n_gon) if args.chart is None
        else _parse_chart(args.chart, spec.n_gon)
    )
    compiled, vectors = _scan_chart(spec, chart)
    # every scanned point is integral, and so is its lamination
    _emit(jsonio.laminations_text(spec.n_gon, compiled.weights(vectors)), args.out)
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
    compiled, vectors = _scan_chart(spec, chart)
    flags = vertex_flags(spec, compiled.weights(vectors))
    header = [f"a_{d.i}_{d.j}" for d in chart.sorted_diagonals()] + ["vertex"]
    rows = [",".join(header)]
    for vector, flag in zip(vectors, flags):
        rows.append(",".join([*map(str, vector), "true" if flag else "false"]))
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def _cmd_verify_mthm(args) -> int:
    points = jsonio.points_from_json(jsonio.load_path(args.infile))
    leaves = _sorted_leaves(points, args.budget)
    spec = minkowski_spec(points)
    # compare fan coordinates: the support's as the halved cut masses that
    # sort the leaves, the lattice's as scanned, so no lattice point
    # becomes a lamination; an integral lamination's cut masses are even
    fan = fan_triangulation(spec.n_gon)
    support = {tuple(x // 2 for x in key) for key, _, _ in leaves}
    lattice = set(_compile_and_scan(spec, fan)[1])
    if support == lattice:
        _emit(f"support = lattice points, {len(lattice)} elements\n", args.out)
        return EXIT_OK
    only_support = len(support - lattice)
    only_lattice = len(lattice - support)
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


class _Option(NamedTuple):
    """One option of a subcommand: a value option reads the next token
    through ``type`` (None keeps the text); a flag stores True."""

    flag: str
    dest: str
    value: bool
    help: str
    type: Callable[[str], object] | None = None
    required: bool = False
    default: object = None


class _Command(NamedTuple):
    name: str
    func: Callable[[argparse.Namespace], int]
    help: str
    options: tuple[_Option, ...]


_OUT = _Option("--out", "out", True, "write output here instead of stdout")
_BUDGET = _Option("--budget", "budget", True, "cap on expansion steps",
                  type=_nonnegative_int, default=DEFAULT_BUDGET)


def _infile(help_text: str) -> _Option:
    return _Option("--in", "infile", True, help_text, required=True)


# The one declaration of the subcommands, in help order; each command's
# options in usage order.
_COMMANDS = (
    _Command("triangulations", _cmd_triangulations,
             "list every complete triangulation chart", (
                 _OUT,
                 _Option("--n", "n", True, "rank; the polygon has n+3 vertices",
                         type=_rank, required=True),
             )),
    _Command("support", _cmd_support, "expand a product of basis functions", (
        _OUT,
        _infile("points JSON file"),
        _Option("--coeffs", "coeffs", False,
                "include multiplicities, not just the support", default=False),
        _BUDGET,
    )),
    _Command("minkowski", _cmd_minkowski,
             "bounds of the Minkowski sum of the points' polytopes",
             (_OUT, _infile("points JSON file"))),
    _Command("check-stasheff", _cmd_check_stasheff,
             "test the quadruple criterion for a polytope spec", (
                 _OUT,
                 _infile("spec JSON file"),
                 _Option("--strict", "strict", False, "also test strict inequalities",
                         default=False),
             )),
    _Command("lattice-points", _cmd_lattice_points,
             "enumerate the integral points of a polytope", (
                 _OUT,
                 _infile("spec JSON file"),
                 _Option("--chart", "chart", True, "chart like 1-3,1-4 (default: the fan)"),
             )),
    _Command("vertices", _cmd_vertices,
             "the spec restricted to every complete triangulation",
             (_OUT, _infile("spec JSON file"))),
    _Command("export-chart", _cmd_export_chart,
             "CSV of lattice points in one chart with a vertex flag", (
                 _OUT,
                 _infile("spec JSON file"),
                 _Option("--chart", "chart", True, "chart like 1-3,1-4", required=True),
                 _Option("--format", "format", True, "output format (csv)", default="csv"),
             )),
    _Command("verify-mthm", _cmd_verify_mthm,
             "check support of a product against the Minkowski lattice points",
             (_OUT, _infile("points JSON file"), _BUDGET)),
    _Command("mutate", _cmd_mutate, "mutate a seed along a word", (
        _OUT,
        _Option("--seed", "seed", True, "seed JSON file", required=True),
        _Option("--word", "word", True, "comma separated 1-based direction positions",
                required=True),
    )),
)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of ``_COMMANDS``: the only code that prints usage,
    help or errors."""
    parser = _Parser(prog="tropclust", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        p.set_defaults(func=command.func)
        for o in command.options:
            kind = {"type": o.type} if o.value else {"action": "store_true"}
            p.add_argument(o.flag, dest=o.dest, required=o.required, default=o.default,
                           help=o.help, **kind)
    return parser


def _read_canonical(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser()`` gives for a canonical argv, or None.

    Canonical: an exact command name, then exact option strings of that
    command, each at most once, every value option followed by one token
    that does not start with ``-``, every required option given and every
    typed value converted.  Anything else (help, abbreviations,
    ``--opt=value``, repeats, extra tokens, bad values) is left to
    argparse.  Never prints and never exits.
    """
    name = argv[0] if argv else None
    command = next((c for c in _COMMANDS if c.name == name), None)
    if command is None:
        return None
    given = {}
    i, end = 1, len(argv)
    while i < end:
        option = next((o for o in command.options if o.flag == argv[i]), None)
        if option is None or option.dest in given:
            return None
        if not option.value:
            given[option.dest] = True
            i += 1
            continue
        if i + 1 == end or argv[i + 1].startswith("-"):
            return None
        text = argv[i + 1]
        try:
            given[option.dest] = text if option.type is None else option.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        i += 2
    if any(o.required and o.dest not in given for o in command.options):
        return None
    # argparse's order: the command, each option's dest, then set_defaults
    args = argparse.Namespace(command=command.name)
    for o in command.options:
        setattr(args, o.dest, given.get(o.dest, o.default))
    args.func = command.func
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_canonical(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
