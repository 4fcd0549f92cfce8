"""End-to-end command-line checks, run in-process via main()."""

import json

import pytest

from tropclust import cli
from tropclust.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_MATH, EXIT_OK, main
from tropclust.jsonio import (
    dumps,
    lamination_to_json,
    points_from_json,
    points_to_json,
    seed_to_json,
    spec_to_json,
)
from tropclust.atlas import type_a_seed
from tropclust.basis import support
from tropclust.laminations import TropicalCoords, lamination_from_coords
from tropclust.polygon import Triangulation, diagonals, fan_triangulation, triangulations
from tropclust.polytopes import StasheffSpec, lattice_points, minkowski_spec, vertex


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


def test_support_budget_exhaustion(files, capsys, tmp_path):
    # two crossing heptagon curves need one split, which budget 0 forbids
    from tropclust.laminations import Lamination
    from tropclust.weighted_graphs import WeightedGraph
    from tropclust.polygon import Segment

    def curve(pairs):
        return Lamination(
            WeightedGraph.from_weights(7, {Segment(i, j): w for (i, j), w in pairs.items()})
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

    monkeypatch.setattr(cli, "product_expand", exhausted)
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
    assert set(lattice) == set(support(points))


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
