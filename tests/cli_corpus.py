"""A seeded corpus of command lines and the digests of what they print: the
behaviour contract of the CLI, checked by ``test_cli``.

``records(directory)`` writes the corpus's input documents into
``directory`` and runs every command there, in-process through
``cli.main``, with file names relative to it.  Each record is one line:
the exit code, the SHA-256 of the command's output (its stdout, or the
file that ``--out`` names), the SHA-256 of its stderr, and the argv.

The commands cover every subcommand and option on 5- to 10-gons:
Minkowski, lowered, rational, non-Stasheff, empty and integrally empty
specs in the fan and in a seeded chart; products with and without
multiplicities, and under budgets that run out; bad charts, unreadable
JSON, overlong output numbers, the malformed lamination and spec
documents of ``fault_docs``, and, last, files whose bytes test the reader
itself (``RAW_READS``: a BOM, CRLF and lone CR newlines, a CR in a string,
an empty file) and a directory.
Help and usage errors, which argparse prints, are pinned by
``golden/cli_usage.txt`` instead.

``golden/cli_corpus.txt`` holds the records.  A change meant to alter
output regenerates it with

    PYTHONPATH=src python tests/cli_corpus.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shlex
import tempfile
from fractions import Fraction
from pathlib import Path

from chart_oracle import atlas_seed
from fault_docs import GRAPH_FAULTS, SPEC_FAULTS
from tropclust.atlas import type_a_seed
from tropclust.cli import main
from tropclust.jsonio import dumps, points_to_json, seed_to_json, spec_to_json
from tropclust.laminations import TropicalCoords, lamination_from_coords
from tropclust.polygon import Segment, _chart_text, diagonals, fan_triangulation, triangulations
from tropclust.polytopes import StasheffSpec, minkowski_spec

GOLDEN = Path(__file__).parent / "golden" / "cli_corpus.txt"
OUT = "out.txt"
# charts that name no triangulation, or that do not parse
BAD_CHARTS = ["1-3", "", "1-3,2-4", "1-x", "1-3-5", "0-2", "1-3,1-3"]
# documents that no reader takes, each under its own name
UNREADABLE = {
    "truncated.json": b'{"format": 1, "points": [',
    "not-utf8.json": b'{"format": 1, "points": "\xff\xfe"}',
    "float.json": b'{"format": 1, "points": [{"format": 1, "n_gon": 5, '
                  b'"weights": [[1, 3, 0.5]], "domain": "int"}]}',
    "format-true.json": b'{"format": true, "n_gon": 5, "c": []}',
    "no-format.json": b'{"n_gon": 5, "c": [], "points": []}',
    "list.json": b"[1, 2, 3]",
    "huge-polygon.json": b'{"format": 1, "n_gon": 1000000, "c": [], '
                         b'"points": [{"format": 1, "n_gon": 1000000, "weights": []}]}',
}
# documents for the byte reader: a CR or CRLF moves a message's line and
# char offsets
RAW_READS = {
    "bom.json": b'\xef\xbb\xbf{"format": 1, "points": []}',
    "crlf.json": b'{\r\n  "format": 1,\r\n  "points": [}\r\n',
    "lone-cr.json": b'{"format": 1,\r"points":\r[{"format": 1, "n_gon": 5, "weights":\r'
                    b'[[2, 3, -1], [2, 5, 1], [3, 4, 1], [4, 5, -1]]}]}',
    "lone-cr-bad.json": b'{"format": 1,\r"points":\r\r[1,]}',
    "cr-in-string.json": b'{"format": 1,\r\n"points": "a\rb"}',
    "empty.json": b"",
}


def _point(n_gon, values):
    fan = fan_triangulation(n_gon)
    return lamination_from_coords(TropicalCoords.of(fan, dict(zip(fan.sorted_diagonals(), values))))


def _specs(n_gon, product, rng) -> dict:
    """Bounds per kind of spec, around the Minkowski spec of ``product``."""
    spec = minkowski_spec(product)
    low = rng.choice(diagonals(n_gon))
    # the forms +-a_last alone leave 1/3 <= a_last <= 2/3 in the fan chart
    thin = {Segment(1, n_gon - 1): Fraction(2, 3), Segment(2, n_gon): Fraction(-1, 3),
            Segment(n_gon - 2, n_gon): Fraction(-1, 3)}
    return {
        "minkowski": dict(spec.c),
        "lowered": {d: v - 1 for d, v in spec.c},
        "lowered-once": {d: v - (d == low) for d, v in spec.c},
        "rational": {d: v * Fraction(2, 3) + Fraction(1, 2) for d, v in spec.c},
        "random": {d: rng.randint(-1, 2) for d in diagonals(n_gon)},
        "ones": {d: 1 for d in diagonals(n_gon)},
        "empty": {d: -1 for d in diagonals(n_gon)},
        "integrally-empty": {d: thin.get(d, 2) for d in diagonals(n_gon)},
    }


def _argvs(directory: Path) -> list:
    """Write the input documents into ``directory`` and return the argvs."""
    rng = random.Random(3807)
    argvs = []

    def save(name, doc, encode=dumps) -> str:
        (directory / name).write_text(encode(doc))
        return name

    def reads(name) -> list:
        """Every command that reads a document, on ``name``."""
        commands = ("support", "minkowski", "verify-mthm", "check-stasheff", "lattice-points",
                    "vertices")
        return [[c, "--in", name] for c in commands] + [["mutate", "--seed", name, "--word", "1"]]

    for name, raw in UNREADABLE.items():
        (directory / name).write_bytes(raw)
    for name in [*UNREADABLE, "nowhere.json"]:
        argvs += reads(name)
    for n in range(6):
        argvs.append(["triangulations", "--n", str(n)])
    argvs += [["triangulations", "--out", OUT, "--n", "3"],
              ["triangulations", "--n", "2", "--out", "no-such-dir/out.txt"]]

    # two seeded products per polygon, each with its specs and a chart
    for n_gon, copy in itertools.product(range(5, 11), range(2)):
        tag = f"{n_gon}-{copy}"
        chart = _chart_text(rng.choice(triangulations(n_gon)))
        factors = 3 if n_gon < 9 else 2
        product = [_point(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)])
                   for _ in range(factors)]
        kinds = {
            "product": product,
            "single": product[:1],
            "half": [product[0] * Fraction(1, 2), *product[1:]],
        }
        for kind, points in kinds.items():
            name = save(f"{kind}-{tag}.json", points_to_json(points))
            argvs += [
                ["support", "--in", name],
                ["support", "--coeffs", "--in", name],
                ["minkowski", "--in", name],
                ["verify-mthm", "--in", name],
            ]
        name = f"product-{tag}.json"
        argvs += [
            ["support", "--in", name, "--budget", str(rng.randint(0, 4))],
            ["support", "--coeffs", "--in", name, "--budget", "2"],
            ["verify-mthm", "--in", name, "--budget", "1"],
            ["verify-mthm", "--in", name, "--budget", "100000", "--out", OUT],
            ["support", "--out", OUT, "--in", name, "--coeffs"],
            ["minkowski", f"--in={name}", "--out", OUT],
        ]
        for kind, bounds in _specs(n_gon, product, rng).items():
            name = save(f"{kind}-spec-{tag}.json", spec_to_json(StasheffSpec.of(n_gon, bounds)))
            argvs += [
                ["check-stasheff", "--in", name],
                ["check-stasheff", "--strict", "--in", name],
                ["lattice-points", "--in", name],
                ["lattice-points", "--in", name, "--chart", chart],
                ["export-chart", "--in", name, "--chart", chart],
            ]
        name = f"minkowski-spec-{tag}.json"
        argvs += [
            ["vertices", "--in", name],
            ["vertices", "--in", name, "--out", OUT],
            ["lattice-points", "--out", OUT, "--in", name, "--chart", chart],
            ["export-chart", "--in", name, "--chart", chart, "--format", "csv", "--out", OUT],
            ["export-chart", "--in", name, "--chart", chart, "--format", "tsv"],
            ["check-stasheff", "--in", name, "--str"],
            ["lattice-points", "--in", name, f"--chart={_chart_text(fan_triangulation(n_gon))}"],
        ]
        for text in BAD_CHARTS if copy == 0 else ():
            argvs += [
                ["lattice-points", "--in", name, "--chart", text],
                ["export-chart", "--in", name, "--chart", text],
            ]

    for n_gon in range(5, 8):
        for seed in (type_a_seed(n_gon - 3), atlas_seed(rng.choice(triangulations(n_gon)))):
            name = save(f"seed-{n_gon}-{len(seed.labels)}.json", seed_to_json(seed))
            size = len(seed.labels)
            for length in range(5):
                word = ",".join(str(rng.randint(1, size)) for _ in range(length))
                argvs.append(["mutate", "--seed", name, "--word", word])
            for word in ("0", str(size + 1), "1,x", "1,,2"):
                argvs.append(["mutate", "--word", word, "--seed", name])
            argvs.append(["mutate", "--seed", name, "--word", "1,2", "--out", OUT])

    # sums of points at the most digits an int may print have one more
    nines = 10**4300 - 1
    for k, coords in enumerate([[(nines, nines)] * 2,
                                [(Fraction(nines, 2), 0), (Fraction(nines, 4), 0)]]):
        name = save(f"overlong-{k}.json", points_to_json([_point(5, c) for c in coords]))
        argvs += [["minkowski", "--in", name], ["support", "--in", name],
                  ["support", "--coeffs", "--in", name]]
    for k, (n_gon, weights, _, _) in enumerate(GRAPH_FAULTS):
        lamination = {"format": 1, "n_gon": n_gon, "weights": weights}
        name = save(f"graph-fault-{k}.json", {"format": 1, "points": [lamination]}, json.dumps)
        argvs.append([("support", "minkowski", "verify-mthm")[k % 3], "--in", name])
    for k, (n_gon, c, _, _) in enumerate(SPEC_FAULTS):
        name = save(f"spec-fault-{k}.json", {"format": 1, "n_gon": n_gon, "c": c}, json.dumps)
        argvs.append([("check-stasheff", "lattice-points", "vertices")[k % 3], "--in", name])
    for name, raw in RAW_READS.items():
        (directory / name).write_bytes(raw)
    (directory / "a-directory").mkdir()
    for name in [*RAW_READS, "a-directory"]:
        argvs += reads(name)
    return argvs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list, directory: Path) -> tuple:
    """Exit code, output and stderr of one in-process command run in
    ``directory``; the output is what ``--out`` wrote, if anything."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    target = directory / OUT
    text = out.getvalue()
    if target.exists():
        text += target.read_text(encoding="utf-8")
        target.unlink()
    return code, text, err.getvalue()


def records(directory: Path) -> list:
    """One record line per corpus command, in corpus order."""
    lines = []
    for argv in _argvs(directory):
        code, out, err = run(argv, directory)
        lines.append(f"{code} {_digest(out)} {_digest(err)} {shlex.join(argv)}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text("\n".join(records(Path(tmp))) + "\n", encoding="utf-8")
