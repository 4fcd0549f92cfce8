"""End-to-end command-line checks, run in-process via main()."""

import json
import random
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cli_corpus import GOLDEN, records
from graphs import graph_from_weights, walked_cut
from tropclust import cli
from tropclust.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_MATH, EXIT_OK, main
from tropclust.jsonio import (
    MAX_N_GON,
    dumps,
    expansion_to_json,
    lamination_to_json,
    points_from_json,
    points_to_json,
    seed_to_json,
    spec_to_json,
)
from tropclust.atlas import type_a_seed
from tropclust.basis import _sorted_leaves, product_expand
from tropclust.laminations import (
    TropicalCoords,
    lamination_from_coords,
)
from tropclust.polygon import Triangulation, diagonals, fan_triangulation, triangulations
from tropclust.polytopes import StasheffSpec, lattice_points, minkowski_spec, vertex
from tropclust.weighted_graphs import _tables


def pt(n_gon, vec):
    fan = fan_triangulation(n_gon)
    return lamination_from_coords(
        TropicalCoords.of(fan, dict(zip(fan.sorted_diagonals(), vec)))
    )


@pytest.fixture()
def files(tmp_path):
    points = [pt(5, (-1, 0)), pt(5, (1, 1))]
    points_path = tmp_path / "points.json"
    points_path.write_text(dumps(points_to_json(points)))

    ones = StasheffSpec.of(5, {d: 1 for d in diagonals(5)})
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps(spec_to_json(ones)))

    bad_spec = StasheffSpec.of(
        5, {(1, 3): -1, (1, 4): 0, (2, 4): 0, (2, 5): 0, (3, 5): 0}
    )
    bad_spec_path = tmp_path / "badspec.json"
    bad_spec_path.write_text(dumps(spec_to_json(bad_spec)))

    seed_path = tmp_path / "seed.json"
    seed_path.write_text(dumps(seed_to_json(type_a_seed(2))))

    float_path = tmp_path / "float.json"
    float_path.write_text('{"format": 1, "points": [{"format": 1, "n_gon": 5, "weights": [[1, 3, 0.5]], "domain": "int"}]}')

    return tmp_path


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_triangulations_listing(capsys):
    code, out = run(["triangulations", "--n", "2"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert "1-3,1-4" in lines


def test_support_plain_and_coeffs(files, capsys, tmp_path):
    code, out = run(["support", "--in", str(files / "points.json")], capsys)
    assert code == EXIT_OK
    points = points_from_json(json.loads(out))
    assert len(points) == 2

    code, out = run(
        ["support", "--in", str(files / "points.json"), "--coeffs"], capsys
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert all(entry["coeff"] == 1 for entry in doc["terms"])


def test_rat_tagged_integral_points_read_as_integral(tmp_path, capsys):
    """A points document may tag an integral lamination "rat": its domain
    is read off the weights, so every command treats it as the "int" copy.
    A fractional weight under "int" and an unknown domain stay refused."""
    units = points_to_json([pt(5, (-1, 0)), pt(5, (1, 1))])
    plain = tmp_path / "plain.json"
    plain.write_text(dumps(units))
    tagged = json.loads(dumps(units))
    tagged["points"][0]["domain"] = "rat"
    path = tmp_path / "tagged.json"
    path.write_text(json.dumps(tagged))
    for command in (["support"], ["support", "--coeffs"], ["verify-mthm"], ["minkowski"]):
        want = run(command + ["--in", str(plain)], capsys)
        assert want[0] == EXIT_OK
        assert run(command + ["--in", str(path)], capsys) == want
    half = json.loads(dumps(points_to_json([pt(5, (1, 1)) * Fraction(1, 2)])))
    assert half["points"][0]["domain"] == "rat"
    half["points"][0]["domain"] = "int"
    path.write_text(json.dumps(half))
    assert run(["support", "--in", str(path)], capsys) == (EXIT_MATH, "")
    tagged["points"][0]["domain"] = "real"
    path.write_text(json.dumps(tagged))
    assert run(["support", "--in", str(path)], capsys) == (EXIT_INPUT, "")


def test_support_budget_exhaustion(files, capsys, tmp_path):
    # two crossing heptagon curves need one split, which budget 0 forbids
    from tropclust.laminations import Lamination
    from tropclust.polygon import Segment

    def curve(pairs):
        return Lamination(
            graph_from_weights(7, {Segment(i, j): w for (i, j), w in pairs.items()})
        )

    fresh = [
        curve({(1, 4): 1, (1, 2): -1, (2, 3): 1, (3, 4): -1}),
        curve({(2, 6): 1, (6, 7): -1, (1, 7): 1, (1, 2): -1}),
    ]
    path = tmp_path / "fresh.json"
    path.write_text(dumps(points_to_json(fresh)))
    code, out = run(["support", "--in", str(path), "--budget", "0"], capsys)
    assert code == EXIT_BUDGET


def test_out_of_memory_exits_with_budget_code(files, capsys, monkeypatch):
    def exhausted(points, budget):
        raise MemoryError

    monkeypatch.setattr(cli, "_sorted_leaves", exhausted)
    code = main(["support", "--in", str(files / "points.json")])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err == "out of memory\n"


def test_main_twice_in_one_process_keeps_flags_apart(files, capsys, tmp_path):
    points = str(files / "points.json")
    code, with_coeffs = run(["support", "--in", points, "--coeffs"], capsys)
    assert code == EXIT_OK
    assert "terms" in json.loads(with_coeffs)
    code, plain = run(["support", "--in", points], capsys)
    assert code == EXIT_OK
    assert "terms" not in json.loads(plain)
    assert len(points_from_json(json.loads(plain))) == 2
    target = tmp_path / "listing.txt"
    code, out = run(["triangulations", "--n", "2", "--out", str(target)], capsys)
    assert (code, out) == (EXIT_OK, "")
    code, out = run(["triangulations", "--n", "1"], capsys)
    assert code == EXIT_OK
    assert out == "1-3\n2-4\n"


def test_minkowski_and_lattice_points(files, capsys):
    code, out = run(["minkowski", "--in", str(files / "points.json")], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n_gon"] == 5

    code, out = run(["lattice-points", "--in", str(files / "spec.json")], capsys)
    assert code == EXIT_OK
    assert len(points_from_json(json.loads(out))) == 6

    code, out = run(
        [
            "lattice-points",
            "--in",
            str(files / "spec.json"),
            "--chart",
            "2-4,2-5",
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert len(points_from_json(json.loads(out))) == 6


def test_lattice_points_nonagon(tmp_path, capsys):
    points = [pt(9, (1, -1, 0, 0, -1, -1)), pt(9, (-1, 1, 1, 0, 1, 0))]
    points_path = tmp_path / "points9.json"
    points_path.write_text(dumps(points_to_json(points)))
    code, out = run(["minkowski", "--in", str(points_path)], capsys)
    assert code == EXIT_OK
    spec_path = tmp_path / "spec9.json"
    spec_path.write_text(out)
    code, out = run(["lattice-points", "--in", str(spec_path)], capsys)
    assert code == EXIT_OK
    lattice = points_from_json(json.loads(out))
    assert len(lattice) == 33
    assert set(lattice) == set(product_expand(points).support())


def test_check_stasheff(files, capsys):
    code, out = run(["check-stasheff", "--in", str(files / "spec.json")], capsys)
    assert code == EXIT_OK
    assert out == "stasheff: true\n"

    code, out = run(
        ["check-stasheff", "--in", str(files / "spec.json"), "--strict"], capsys
    )
    assert out == "stasheff: true\nnondegenerate: true\n"

    code, out = run(
        ["check-stasheff", "--in", str(files / "badspec.json")], capsys
    )
    assert code == EXIT_OK
    assert out == "stasheff: false\n"


def test_vertices(files, capsys):
    code, out = run(["vertices", "--in", str(files / "spec.json")], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["vertices"]) == 5


def test_export_chart_csv(files, capsys):
    code, out = run(
        [
            "export-chart",
            "--in",
            str(files / "spec.json"),
            "--chart",
            "1-3,1-4",
        ],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "a_1_3,a_1_4,vertex"
    assert len(lines) == 7  # header + six points
    assert sum(1 for l in lines[1:] if l.endswith(",true")) == 5

    code, _ = run(
        [
            "export-chart",
            "--in",
            str(files / "spec.json"),
            "--chart",
            "1-3,1-4",
            "--format",
            "xml",
        ],
        capsys,
    )
    assert code == EXIT_INPUT


@pytest.mark.parametrize("command", ["lattice-points", "export-chart"])
@pytest.mark.parametrize(
    "chart", ["1-1,1-4", "1-9,1-4", "1-2,1-4", "1-3,2-4", "1-3", "1-3,1-3", ""]
)
def test_chart_naming_no_triangulation_is_an_input_error(files, capsys, command, chart):
    code = main([command, "--in", str(files / "spec.json"), "--chart", chart])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.err.startswith("input error: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["lattice-points", "export-chart"])
def test_blank_chart_is_the_triangles_chart(tmp_path, capsys, command):
    """``--chart ""`` names no diagonals, the triangle's only chart; a
    larger polygon refuses it (see the test above)."""
    path = tmp_path / "triangle.json"
    path.write_text(dumps(spec_to_json(StasheffSpec.of(3, {}))))
    code, out = run([command, "--in", str(path), "--chart", ""], capsys)
    assert code == EXIT_OK
    if command == "export-chart":
        assert out == "vertex\ntrue\n"
    else:
        assert json.loads(out)["points"] == [
            {"domain": "int", "format": 1, "n_gon": 3, "weights": []}
        ]


def test_export_chart_vertex_flags_match_vertex_laminations(tmp_path, capsys):
    points = [pt(6, (1, -1, 0)), pt(6, (-1, 1, 1)), pt(6, (0, 1, -1))]
    spec = minkowski_spec(points)
    path = tmp_path / "spec6.json"
    path.write_text(dumps(spec_to_json(spec)))
    chart = Triangulation.of(6, [(2, 4), (2, 5), (2, 6)])
    code, out = run(
        ["export-chart", "--in", str(path), "--chart", "2-4,2-5,2-6"], capsys
    )
    assert code == EXIT_OK
    flags = [line.rsplit(",", 1)[1] for line in out.strip().splitlines()[1:]]
    corners = {
        lamination_from_coords(vertex(spec, t)).graph for t in triangulations(6)
    }
    expected = [
        "true" if lam.graph in corners else "false"
        for lam in lattice_points(spec, chart)
    ]
    assert flags == expected
    assert "true" in flags and "false" in flags


def test_verify_mthm(files, capsys):
    code, out = run(["verify-mthm", "--in", str(files / "points.json")], capsys)
    assert code == EXIT_OK
    assert "support = lattice points" in out


def test_verify_mthm_on_an_11_gon(tmp_path, capsys):
    """Four 11-gon factors with seeded fan coordinates in [-2, 2]: 6786
    support elements, each a lattice point of the Minkowski sum."""
    rng = random.Random(2)
    points = [pt(11, [rng.randint(-2, 2) for _ in range(8)]) for _ in range(4)]
    path = tmp_path / "points.json"
    path.write_text(dumps(points_to_json(points)))
    code, out = run(["verify-mthm", "--in", str(path)], capsys)
    assert (code, out) == (EXIT_OK, "support = lattice points, 6786 elements\n")


def test_verify_mthm_reports_a_mismatch(files, capsys, monkeypatch):
    def drop_one_leaf(points, budget):
        return _sorted_leaves(points, budget)[1:]

    monkeypatch.setattr(cli, "_sorted_leaves", drop_one_leaf)
    code, out = run(["verify-mthm", "--in", str(files / "points.json")], capsys)
    assert code == EXIT_MATH
    assert out == "support != lattice points: 0 only in support, 1 only in lattice\n"


def test_mutate(files, capsys):
    code, out = run(
        ["mutate", "--seed", str(files / "seed.json"), "--word", "1,2,1"], capsys
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["labels"] == [1, 2]

    code, _ = run(
        ["mutate", "--seed", str(files / "seed.json"), "--word", "1,7"], capsys
    )
    assert code == EXIT_INPUT

    code, _ = run(
        ["mutate", "--seed", str(files / "seed.json"), "--word", "1,x"], capsys
    )
    assert code == EXIT_INPUT


def test_exit_code_input_errors(files, capsys):
    code, _ = run(["support", "--in", str(files / "nowhere.json")], capsys)
    assert code == EXIT_INPUT
    code, _ = run(["support", "--in", str(files / "float.json")], capsys)
    assert code == EXIT_INPUT
    with pytest.raises(SystemExit) as info:
        main(["support"])  # missing required --in
    assert info.value.code == EXIT_INPUT
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == EXIT_INPUT
    capsys.readouterr()
    target = files / "missing-dir" / "x.txt"
    assert main(["triangulations", "--n", "2", "--out", str(target)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: cannot write {target}")
    points = str(files / "points.json")
    for argv in (
        ["triangulations", "--n", "-1"],
        ["support", "--in", points, "--budget", "-5"],
        ["verify-mthm", "--in", points, "--budget", "-5"],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("usage: tropclust")
        assert "must be nonnegative" in err


@pytest.mark.parametrize(
    "raw",
    [b'{"format": 1, "points": "\xff\xfe"}', b"[" * 100000],
    ids=["not-utf8", "nested-100000"],
)
def test_unreadable_json_is_an_input_error(tmp_path, capsys, raw):
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    assert main(["support", "--in", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: invalid JSON in {path}: ")


def test_exit_code_math_error(files, capsys):
    # a lamination whose graph is fine but coordinates are fractional
    frac = pt(5, (1, 1)) * __import__("fractions").Fraction(1, 2)
    path = files / "frac.json"
    path.write_text(dumps(points_to_json([frac])))
    code, _ = run(["support", "--in", str(path)], capsys)
    assert code == EXIT_MATH


def test_out_flag_writes_file(files, capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out = run(
        ["lattice-points", "--in", str(files / "spec.json"), "--out", str(target)],
        capsys,
    )
    assert code == EXIT_OK
    assert out == ""
    assert len(points_from_json(json.loads(target.read_text()))) == 6


def test_output_is_byte_deterministic(files, capsys):
    _, first = run(["support", "--in", str(files / "points.json")], capsys)
    _, second = run(["support", "--in", str(files / "points.json")], capsys)
    assert first == second
    _, third = run(["vertices", "--in", str(files / "spec.json")], capsys)
    _, fourth = run(["vertices", "--in", str(files / "spec.json")], capsys)
    assert third == fourth


@pytest.mark.parametrize("n_gon", range(6, 11))
def test_document_output_matches_the_reference_route(tmp_path, capsys, n_gon):
    """``support``, ``support --coeffs`` and ``lattice-points`` (fan and a
    seeded chart) print what ``dumps`` gives over the library's documents."""
    rng = random.Random(900 + n_gon)
    points = [pt(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)]) for _ in range(2)]
    points_path = tmp_path / "points.json"
    points_path.write_text(dumps(points_to_json(points)))
    expansion = product_expand(points)
    assert run(["support", "--in", str(points_path)], capsys) == (
        EXIT_OK, dumps(points_to_json(expansion.support()))
    )
    assert run(["support", "--in", str(points_path), "--coeffs"], capsys) == (
        EXIT_OK, dumps(expansion_to_json(expansion))
    )
    spec = minkowski_spec(points)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps(spec_to_json(spec)))
    chart = rng.choice(triangulations(n_gon))
    chart_text = ",".join(f"{d.i}-{d.j}" for d in chart.sorted_diagonals())
    for flags, tri in (([], None), (["--chart", chart_text], chart)):
        assert run(["lattice-points", "--in", str(spec_path)] + flags, capsys) == (
            EXIT_OK, dumps(points_to_json(lattice_points(spec, tri)))
        )


# Python refuses to convert ints longer than 4300 digits to or from text.
TOO_LONG = "1" * 5000


@pytest.mark.parametrize(
    "weight", [TOO_LONG, f'"{TOO_LONG}/3"'], ids=["json-int", "fraction-string"]
)
def test_overlong_input_numbers_are_input_errors(tmp_path, capsys, weight):
    path = tmp_path / "in.json"
    path.write_text(
        '{"format": 1, "points": [{"format": 1, "n_gon": 5, "domain": "rat", '
        f'"weights": [[1, 3, {weight}]]}}]}}'
    )
    assert main(["support", "--in", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")


NINES = 10**4300 - 1  # the most digits an int can have and still print


@pytest.mark.parametrize(
    "command, coords, message",
    [
        # the sum's 4301-digit integer bound fails in the JSON encoder
        (["minkowski"], [(NINES, NINES)] * 2, "cannot write output: "),
        # the sum 3 * NINES / 4 has a 4301-digit numerator
        (["minkowski"], [(Fraction(NINES, 2), 0), (Fraction(NINES, 4), 0)],
         "cannot write number: "),
        # the product's one leaf has 4301-digit weights; a product of
        # fractional points is refused before anything is written
        (["support"], [(NINES, NINES)] * 2, "cannot write output: "),
        (["support", "--coeffs"], [(NINES, NINES)] * 2, "cannot write output: "),
    ],
    ids=["int", "fraction", "support-int", "support-coeffs-int"],
)
def test_overlong_output_numbers_are_input_errors(tmp_path, capsys, command, coords, message):
    path = tmp_path / "points.json"
    path.write_text(dumps(points_to_json([pt(5, c) for c in coords])))
    assert main(command + ["--in", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: " + message)


def test_format_true_is_an_input_error(tmp_path, capsys):
    """``True == 1`` in Python; a ``"format": true`` spec or points
    document is refused with exit 1 instead of being run."""
    spec = spec_to_json(StasheffSpec.of(5, {d: 1 for d in diagonals(5)}))
    points = points_to_json([pt(5, (1, 0))])
    for command, doc in (
        ("lattice-points", {**spec, "format": True}),
        ("support", {**points, "format": True}),
        ("support", {**points, "points": [{**points["points"][0], "format": True}]}),
    ):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--in", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("missing or unsupported format\n")


def test_polygons_past_the_bound_are_input_errors(tmp_path, capsys):
    """A document naming a polygon of more than ``MAX_N_GON`` vertices,
    or a ``--n`` past ``MAX_N_GON - 3``, exits 1 before any per-N table is
    built; the bound itself is accepted."""
    before = _tables.cache_info().misses
    path = tmp_path / "doc.json"
    for command, doc in (
        ("support", {"format": 1, "points": [{"format": 1, "n_gon": 10**6, "weights": []}]}),
        ("verify-mthm", {"format": 1, "points": [{"format": 1, "n_gon": MAX_N_GON + 1, "weights": []}]}),
        ("lattice-points", {"format": 1, "n_gon": 10**6, "c": []}),
    ):
        path.write_text(json.dumps(doc))
        assert main([command, "--in", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'n_gon' must be at most {MAX_N_GON}, got " in captured.err
    with pytest.raises(SystemExit) as info:
        main(["triangulations", "--n", str(MAX_N_GON - 2)])
    assert info.value.code == EXIT_INPUT
    assert f"n <= {MAX_N_GON - 3}" in capsys.readouterr().err
    assert _tables.cache_info().misses == before
    assert cli._rank(str(MAX_N_GON - 3)) == MAX_N_GON - 3


def _export_reference(spec, chart) -> str:
    """The ``export-chart`` CSV by the per-point route: chart coordinates
    from each lattice point's walked cut masses, and the vertex flag from a
    scan of every chart against the point's tight set."""
    charts = triangulations(spec.n_gon)
    lines = [",".join([f"a_{d.i}_{d.j}" for d in chart.sorted_diagonals()] + ["vertex"])]
    for p in lattice_points(spec, chart):
        masses = {d: walked_cut(p.graph, *d) for d in diagonals(spec.n_gon)}
        tight = {d for d, m in masses.items() if m == 2 * spec.as_dict()[d]}
        flag = any(t.diagonals <= tight for t in charts)
        values = [str(Fraction(masses[d], 2)) for d in chart.sorted_diagonals()]
        lines.append(",".join(values + ["true" if flag else "false"]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_gon", range(5, 10))
def test_commands_write_what_the_reference_route_gives(tmp_path, capsys, n_gon):
    """On a seeded product of three laminations: ``support`` and ``support
    --coeffs`` print ``dumps`` over the product's documents;
    ``lattice-points`` (fan and a seeded chart) prints ``dumps`` over
    ``lattice_points`` for the Minkowski spec, a rational spec and an empty
    one; ``export-chart`` prints the per-point reference CSV."""
    rng = random.Random(2400 + n_gon)
    points = [pt(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)]) for _ in range(3)]
    points_path = tmp_path / "points.json"
    points_path.write_text(dumps(points_to_json(points)))
    expansion = product_expand(points)
    assert run(["support", "--in", str(points_path)], capsys) == (
        EXIT_OK, dumps(points_to_json(expansion.support()))
    )
    assert run(["support", "--coeffs", "--in", str(points_path)], capsys) == (
        EXIT_OK, dumps(expansion_to_json(expansion))
    )
    spec = minkowski_spec(points)
    specs = [
        spec,
        StasheffSpec.of(n_gon, {d: c * Fraction(2, 3) + Fraction(1, 2) for d, c in spec.c}),
        StasheffSpec.of(n_gon, {d: -1 for d in diagonals(n_gon)}),
    ]
    chart = rng.choice(triangulations(n_gon))
    chart_text = ",".join(f"{d.i}-{d.j}" for d in chart.sorted_diagonals())
    spec_path = tmp_path / "spec.json"
    for s in specs:
        spec_path.write_text(dumps(spec_to_json(s)))
        for flags, tri in (([], None), (["--chart", chart_text], chart)):
            assert run(["lattice-points", "--in", str(spec_path)] + flags, capsys) == (
                EXIT_OK, dumps(points_to_json(lattice_points(s, tri)))
            )
        assert run(["export-chart", "--in", str(spec_path), "--chart", chart_text], capsys) == (
            EXIT_OK, _export_reference(s, chart)
        )
    assert lattice_points(specs[2]) == []


# Usage and help text as argparse prints it, recorded with Python 3.11's
# argparse at COLUMNS=80: every subcommand's help and one of each kind of
# usage error.
USAGE_ARGVS = [
    ["-h"],
    *([name, "-h"] for name in (
        "triangulations", "support", "minkowski", "check-stasheff", "lattice-points",
        "vertices", "export-chart", "verify-mthm", "mutate",
    )),
    [],
    ["support"],
    ["mutate", "--seed", "s.json"],
    ["export-chart", "--in", "s.json"],
    ["support", "--in", "p.json", "--bogus"],
    ["lattice-points", "--in", "s.json", "extra"],
    ["no-such-command"],
    ["support", "--in"],
    ["support", "--in", "p.json", "--budget", "-5"],
    ["verify-mthm", "--in", "p.json", "--budget", "x"],
    ["verify-mthm", "--in=p.json", "--bu=-5"],
    ["triangulations", "--n", "-1"],
    ["triangulations", "--n", str(MAX_N_GON - 2)],
    ["triangulations", "--n", "x"],
]


def _usage_transcript(capsys) -> str:
    parts = []
    for argv in USAGE_ARGVS:
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        parts.append(
            f"$ {shlex.join(['tropclust', *argv])}\nexit {info.value.code}\n"
            f"--- stdout\n{captured.out}--- stderr\n{captured.err}"
        )
    return "".join(parts)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="recorded with Python 3.11's argparse")
def test_help_and_usage_errors_match_the_golden_transcript(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = Path(__file__).parent / "golden" / "cli_usage.txt"
    assert _usage_transcript(capsys) == golden.read_text(encoding="utf-8")


# Values for the argv generator: per dest, ones that convert, and for every
# value option some that do not or that argparse reads differently.
GOOD_VALUES = {
    "out": ["o.txt"], "infile": ["p.json"], "n": ["0", "2", str(MAX_N_GON - 3)],
    "budget": ["0", "100"], "chart": ["1-3,1-4", ""], "format": ["csv", "tsv"],
    "seed": ["s.json"], "word": ["1,2"],
}
ODD_VALUES = ["-5", "", "--", "a b", "x", "-h", str(MAX_N_GON - 2), "7", "--in", "-"]
ODD_TOKENS = ["-h", "--help", "--bogus", "-x", "extra", "--", "support", "--in"]


def _random_argv(rng) -> list:
    """A seeded argv around one subcommand: mostly canonical, with
    abbreviations, ``--opt=value``, repeats, odd values, help, unknown and
    extra tokens, missing required options and bad command names mixed in."""
    command = rng.choice(cli._COMMANDS)
    name = command.name
    if rng.random() < 0.04:
        name = rng.choice(["no-such-command", "", "-h", "verify", command.name.upper()])
    argv = [name]
    options = list(command.options)
    rng.shuffle(options)
    for option in options:
        if rng.random() < (0.04 if option.required else 0.4):
            continue
        for _ in range(2 if rng.random() < 0.05 else 1):
            flag = option.flag
            if rng.random() < 0.08 and len(flag) > 3:
                flag = flag[:rng.randint(3, len(flag) - 1)]
            if not option.value:
                argv.append(flag + "=x" if rng.random() < 0.04 else flag)
                continue
            pool = GOOD_VALUES[option.dest] if rng.random() < 0.85 else ODD_VALUES
            value = rng.choice(pool)
            argv += [f"{flag}={value}"] if rng.random() < 0.06 else [flag, value]
    if rng.random() < 0.1:
        argv.insert(rng.randint(1, len(argv)), rng.choice(ODD_TOKENS))
    return argv


def _argparse_result(parser, argv, capsys):
    try:
        return vars(parser.parse_args(argv))
    except SystemExit:
        return None
    finally:
        capsys.readouterr()


def test_table_reader_agrees_with_argparse(capsys):
    """On 3000 seeded argvs over every subcommand the table reader returns
    None wherever argparse exits, and otherwise None or argparse's exact
    namespace, in argparse's attribute order."""
    rng = random.Random(31)
    parser = cli.build_parser()
    counts = {"read": 0, "left to argparse": 0, "argparse exits": 0}
    commands = set()
    for _ in range(3000):
        argv = _random_argv(rng)
        got = cli._read_canonical(argv)
        want = _argparse_result(parser, argv, capsys)
        if want is None:
            assert got is None, argv
            counts["argparse exits"] += 1
        elif got is None:
            counts["left to argparse"] += 1
        else:
            assert list(vars(got).items()) == list(want.items()), argv
            counts["read"] += 1
            commands.add(got.command)
    assert commands == {c.name for c in cli._COMMANDS}
    assert min(counts.values()) > 300, counts


def test_table_reader_reads_every_benchmark_argv(capsys):
    """Every argv shape that perfbench times is read from the table, to
    argparse's namespace."""
    parser = cli.build_parser()
    for argv in (
        ["verify-mthm", "--in", "in.json", "--out", "out.json"],
        ["lattice-points", "--in", "in.json", "--out", "out.json"],
        ["lattice-points", "--in", "in.json", "--out", "out.json", "--chart", "1-3,1-4"],
        ["support", "--coeffs", "--in", "in.json", "--out", "out.json"],
    ):
        got = cli._read_canonical(argv)
        assert got is not None, argv
        assert list(vars(got).items()) == list(_argparse_result(parser, argv, capsys).items())


def test_console_script_reads_sys_argv(files, capsys, monkeypatch):
    """``main()`` with no argv, as the console script calls it, reads
    ``sys.argv``: a canonical argv through the table reader alone, an
    ``--opt=value`` one through argparse, with the same output and code."""
    points = str(files / "points.json")
    want = run(["verify-mthm", "--in", points], capsys)
    assert want[0] == EXIT_OK
    monkeypatch.setattr(sys, "argv", ["tropclust", "verify-mthm", f"--in={points}"])
    assert run(None, capsys) == want

    def no_argparse():
        raise AssertionError("a canonical argv reached argparse")

    monkeypatch.setattr(cli, "build_parser", no_argparse)
    monkeypatch.setattr(sys, "argv", ["tropclust", "verify-mthm", "--in", points])
    assert run(None, capsys) == want


def test_cli_corpus_matches_the_golden_digests(tmp_path):
    """Every command of the seeded corpus (``cli_corpus``) exits with its
    recorded code and prints an output and a stderr of its recorded
    digests, and the corpus reaches every exit code."""
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = records(tmp_path)
    changed = [line for line, recorded in zip(got, want) if line != recorded]
    assert len(got) == len(want) and not changed, changed[:5]
    codes = {EXIT_OK, EXIT_INPUT, EXIT_MATH, EXIT_BUDGET}
    assert {line.split()[0] for line in got} == {str(code) for code in codes}
