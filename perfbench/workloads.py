"""The four workloads: inputs made from a seed, one timed operation, the
check of its output, and the same operation traced layer by layer.

Every process of a run works through its own stream of instances: a fixed
number of rounds, each holding one instance of every class of the workload
(shuffled inside the round), so runs with different seeds and on machines
of different speed time the same mix.  ``round_s`` is what one round takes
on the reference machine (2-core x86-64, Python 3.11, the seed code): a
process runs the number of rounds that fills its share of ``--seconds``
there.  An instance is a function of (workload, seed, stream, index) only.
No instance is timed twice in one process: generated products are drawn
without repeating a summed graph, and ``group`` names what a recorded
instance shares with others, so a process skips an instance whose group it
has already timed (a catalog entry, or a pentagon pair at another
multiplicity, which lies in the first one's split tree).
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
from collections import Counter

from common import fan_point

# Pentagon unit curves by fan coordinates: consecutive curves share a
# vertex, curves two steps apart cross once, so u_i * u_{i+2} = u_{i+1} + 1.
PENTAGON_UNITS = {1: (-1, 0), 2: (0, 1), 3: (1, 1), 4: (1, 0), 5: (0, -1)}

# Output points per lattice_points call whose chart_coords and
# lamination_from_coords calls the traced run times.
ROUNDTRIP_SAMPLE = 8


def _rounds(cells, seed_text, rounds):
    """(round, cell) pairs: ``cells`` once per round, shuffled in each."""
    out = []
    for r in range(rounds):
        order = list(cells)
        random.Random(f"{seed_text}/round/{r}").shuffle(order)
        out.extend((r, cell) for cell in order)
    return out


def _vec(rng, n_gon, box):
    return tuple(rng.randint(-box, box) for _ in range(n_gon - 3))


def _points_text(lams) -> str:
    from tropclust import jsonio

    return jsonio.dumps(jsonio.points_to_json(lams))


class _Points:
    """Memo of generated laminations, so making inputs stays cheap."""

    def __init__(self):
        self._memo = {}

    def __call__(self, n_gon, vec):
        key = (n_gon, tuple(vec))
        if key not in self._memo:
            self._memo[key] = fan_point(n_gon, vec)
        return self._memo[key]


class _Catalog:
    """Seed-chosen draws from one catalog class, stratified by work: each
    run of ``BANDS`` draws takes one entry from every work band, so the cost
    mix does not depend on the seed."""

    BANDS = 4

    def __init__(self, entries, work, seed_text):
        ranked = sorted(range(len(entries)), key=lambda j: (entries[j][work], j))
        self.bands = [ranked[len(ranked) * b // self.BANDS:len(ranked) * (b + 1) // self.BANDS]
                      for b in range(self.BANDS)]
        self.rng = random.Random(seed_text)
        for band in self.bands:
            self.rng.shuffle(band)
        self.entries = entries
        self.used = 0
        self.order = []

    def next(self):
        rnd, slot = divmod(self.used, self.BANDS)
        if slot == 0:
            self.order = self.rng.sample(range(self.BANDS), self.BANDS)
        band = self.bands[self.order[slot]]
        pos = band[rnd % len(band)]
        self.used += 1
        return pos, self.entries[pos]


def _multiplicities(vecs):
    return sorted(Counter(vecs).values(), reverse=True)


def _entry(index, rnd, text, n_gon, multiplicities, chart="fan", group=None, expect=None,
           argv=()):
    """One manifest entry of round ``rnd``; ``text`` is the input file's
    content, and each distinct factor lamination appears
    ``multiplicities[j]`` times."""
    return {
        "index": index,
        "round": rnd,
        "file": f"in-{index:05d}.json",
        "text": text,
        "n_gon": n_gon,
        "factors": len(multiplicities),
        "multiplicities": multiplicities,
        "chart": chart,
        "group": group,
        "expect": expect or {},
        "argv": list(argv),
    }


# -- shared traced steps -------------------------------------------------------


def _load_points(path, tr):
    from tropclust import jsonio

    with tr.span("jsonio.load"):
        return jsonio.points_from_json(jsonio.load_path(path))


def _dump(doc_fn, out_path, tr):
    from tropclust import jsonio

    with tr.span("jsonio.dump"):
        text = jsonio.dumps(doc_fn())
    tr.counts["jsonio.bytes_out"] += len(text.encode())
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _traced_lattice(spec, chart, tr):
    """lattice_points, with the bounds steps it repeats internally timed on
    their own first and the per-point round trip timed on a sample."""
    from tropclust import laminations, polytopes
    from tropclust.polygon import fan_triangulation

    chart_or_fan = chart or fan_triangulation(spec.n_gon)
    inequalities = getattr(polytopes, "chart_inequalities", None)
    bounds_fn = getattr(polytopes, "coordinate_bounds", None)
    if inequalities is not None:
        with tr.span("polytopes.chart_inequalities"):
            ineqs = inequalities(spec, chart_or_fan)
        tr.counts["polytopes.rows"] += len(ineqs)
        if bounds_fn is not None:
            with tr.span("polytopes.coordinate_bounds"):
                bounds = bounds_fn(ineqs, spec.n_gon - 3)
            if bounds:
                tr.counts["polytopes.box_volume"] += math.prod(
                    max(0, math.floor(hi) - math.ceil(lo) + 1) for lo, hi in bounds
                )
    with tr.span("polytopes.lattice_points"):
        points = polytopes.lattice_points(spec, chart)
    tr.counts["polytopes.points_found"] += len(points)
    step = max(1, len(points) // ROUNDTRIP_SAMPLE)
    for lam in points[::step][:ROUNDTRIP_SAMPLE]:
        with tr.span("laminations.chart_coords"):
            coords = laminations.chart_coords(lam, chart_or_fan)
        with tr.span("laminations.lamination_from_coords"):
            laminations.lamination_from_coords(coords)
        tr.counts["laminations.sampled"] += 1
    return points


def _parse_chart(text: str, n_gon: int):
    """A chart given in the CLI's ``--chart`` syntax, e.g. ``1-3,1-4``."""
    from tropclust.polygon import Triangulation

    pairs = [tuple(int(v) for v in part.split("-")) for part in text.split(",")]
    return Triangulation.of(n_gon, pairs)


def _cli(argv) -> int:
    from tropclust import cli

    return cli.main(argv)


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# -- the workloads -----------------------------------------------------------


class MthmBatch:
    """verify-mthm on many small products, the researcher's main loop."""

    name = "mthm-batch"
    round_s = 0.38
    min_rounds = 1
    # (n_gon, factor count).  A single pentagon lamination is left out: the
    # box holds only 25, too few for a process to time each once.  Costs
    # cluster by cell (about 7, 14, 16, 24 and 70-100 ms for the 5-gons,
    # (6, 1), (6, 2), (6, 3) and the 7-gons), and with each cell once the
    # median fell in the gap between (6, 2) and (6, 3), moving by a tenth
    # from seed to seed; (6, 2) three times a round puts it in the middle of
    # the (6, 2) cluster.
    cells = [(5, 2), (5, 3), (6, 1), (6, 2), (6, 2), (6, 2), (6, 3), (7, 1), (7, 2), (7, 3)]
    # Products whose summed graph has a larger crossing measure are redrawn:
    # above it the 7-gon latency tail grows past a second and no longer
    # repeats from seed to seed.
    max_crossing = 24
    # A cell's products are a systematic sample by crossing measure (which
    # sets a 7-gon product's cost) of POOL times as many random draws, so
    # every stream holds the cost mix of random draws without its sampling
    # spread: the 7-gon tail then repeats from seed to seed.
    pool = 4
    # Draws in a row without a new product before a cell's pool is taken as
    # it stands.
    max_redraws = 500
    _line = re.compile(r"support = lattice points, \d+ elements\n")

    def _picks(self, cell, base, wanted, point, seen):
        """``wanted`` products of one (n_gon, factor count) cell, in a
        seed-chosen order; fewer when the cell runs out of summed graphs."""
        from tropclust.basis import crossing_measure, product_graph

        n_gon, k = cell
        rng = random.Random(f"{base}/{n_gon}/{k}")
        pool, misses = [], 0
        while len(pool) < wanted * self.pool and misses < self.max_redraws:
            vecs = [_vec(rng, n_gon, 2) for _ in range(k)]
            lams = [point(n_gon, v) for v in vecs]
            graph = product_graph(lams)
            measure = crossing_measure(graph)
            if graph in seen or measure > self.max_crossing:
                misses += 1
                continue
            misses = 0
            seen.add(graph)
            pool.append((measure, len(pool), vecs, lams))
        pool.sort(key=lambda item: item[:2])
        wanted = min(wanted, len(pool))
        step = len(pool) / wanted if wanted else 0
        offset = rng.random()
        picks = [pool[int((j + offset) * step)] for j in range(wanted)]
        rng.shuffle(picks)
        return [(vecs, lams) for _, _, vecs, lams in picks]

    def generate(self, seed, stream, rounds, catalog):
        base = f"{self.name}/{seed}/{stream}"
        point = _Points()
        seen = set()
        per_round = Counter(self.cells)
        picks = {cell: self._picks(cell, base, rounds * count, point, seen)
                 for cell, count in per_round.items()}
        # A cell that ran out of products ends the stream on a whole round.
        rounds = min(len(picks[cell]) // count for cell, count in per_round.items())
        out = []
        for i, (rnd, (n_gon, k)) in enumerate(_rounds(self.cells, base, rounds)):
            vecs, lams = picks[(n_gon, k)].pop()
            out.append(_entry(i, rnd, _points_text(lams), n_gon, _multiplicities(vecs)))
        return out

    def run(self, inst, in_path, out_path):
        return _cli(["verify-mthm", "--in", in_path, "--out", out_path])

    def traced(self, inst, in_path, out_path, tr):
        from tropclust.basis import product_expand
        from tropclust.polytopes import minkowski_spec

        points = _load_points(in_path, tr)
        with tr.span("basis.product_expand"):
            expansion = product_expand(points)
        tr.counts["basis.expansion_terms"] += len(expansion)
        with tr.span("polytopes.minkowski_spec"):
            spec = minkowski_spec(points)
        lattice = _traced_lattice(spec, None, tr)
        support = {lam.graph for lam in expansion.support()}
        same = support == {lam.graph for lam in lattice}
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(f"support = lattice points, {len(lattice)} elements\n" if same
                     else "support != lattice points\n")
        return 0 if same else 2

    def check(self, inst, in_path, out_path, result):
        if result != 0:
            return f"exit code {result}"
        if not self._line.fullmatch(_read(out_path)):
            return "output is not the equal-sets line"
        return None


class LatticeCensus:
    """lattice-points on recorded Stasheff specs, fan and non-fan charts."""

    name = "lattice-census"
    round_s = 3.3
    min_rounds = 1
    # (n_gon, in a non-fan chart).  One n = 8 spec, where Fourier-Motzkin
    # takes about a second, per twelve smaller scan-bound specs: few enough
    # that the tail latency stays among the smaller ones at any seed.
    cells = [(n, other) for n in (5, 6, 7) for other in (False, True)] * 2 + [(8, False)]

    def generate(self, seed, stream, rounds, catalog):
        from tropclust import jsonio
        from tropclust.polytopes import minkowski_spec

        base = f"{self.name}/{seed}/{stream}"
        point = _Points()
        by_n = {}
        for e in catalog["lattice"]:
            by_n.setdefault(e["n_gon"], []).append(e)
        picks = {n: _Catalog(es, "points", f"{base}/catalog/{n}") for n, es in by_n.items()}
        out = []
        for i, (rnd, (n_gon, other_chart)) in enumerate(_rounds(self.cells, base, rounds)):
            pos, e = picks[n_gon].next()
            lams = [point(n_gon, f) * e["scale"] for f in e["factors"]]
            text = jsonio.dumps(jsonio.spec_to_json(minkowski_spec(lams)))
            chart, argv = "fan", []
            if other_chart:
                chart = random.Random(f"{base}/{i}").choice(e["charts"])
                argv = ["--chart", chart]
            out.append(_entry(i, rnd, text, n_gon,
                              [e["scale"]] * len(e["factors"]), chart, f"lattice-{n_gon}-{pos}",
                              {"points": e["points"]}, argv))
        return out

    def run(self, inst, in_path, out_path):
        return _cli(["lattice-points", "--in", in_path, "--out", out_path] + inst["argv"])

    def traced(self, inst, in_path, out_path, tr):
        from tropclust import jsonio, polygon

        with tr.span("jsonio.load"):
            spec = jsonio.spec_from_json(jsonio.load_path(in_path))
        if tr.first(("triangulations", spec.n_gon)):
            # Not called by lattice-points itself: the cold cost a caller
            # pays to list the charts it may pass.
            with tr.span("polygon.triangulations"):
                polygon.triangulations(spec.n_gon)
        chart = None if inst["chart"] == "fan" else _parse_chart(inst["chart"], spec.n_gon)
        points = _traced_lattice(spec, chart, tr)
        _dump(lambda: jsonio.points_to_json(points), out_path, tr)
        return 0

    def check(self, inst, in_path, out_path, result):
        from tropclust import jsonio
        from tropclust.polytopes import contains

        if result != 0:
            return f"exit code {result}"
        spec = jsonio.spec_from_json(jsonio.load_path(in_path))
        points = jsonio.points_from_json(jsonio.load_path(out_path))
        if len(points) != inst["expect"]["points"]:
            return f"{len(points)} points, record says {inst['expect']['points']}"
        if len({p.graph for p in points}) != len(points):
            return "repeated points"
        if not all(contains(spec, p) for p in points):
            return "a point outside the polytope"
        return None


class ExpandDeep:
    """support --coeffs on high-multiplicity products that share little."""

    name = "expand-deep"
    # Every stream holds the five pentagon pairs u_a * u_{a+2}, each at a
    # multiplicity from its own band (44-47, 56-59, ..., 92-95), and every
    # recorded hexagon and heptagon product, in a seed-chosen order.  The
    # products' costs spread over a factor of twenty and the tail sits among
    # the dearest of them, so a seed-chosen subset moved the tail by a fifth
    # from seed to seed; a second round would repeat instances in one
    # process, so there is one round whatever ``--seconds`` asks for.
    round_s = 9.0
    min_rounds = 1

    def generate(self, seed, stream, rounds, catalog):
        rng = random.Random(f"{self.name}/{seed}/{stream}")
        ks = [44 + 12 * band + rng.randint(0, 3) for band in range(5)]
        rng.shuffle(ks)
        point = _Points()
        items = []
        for a, k in zip(range(1, 6), ks):
            b = (a + 1) % 5 + 1
            lams = [point(5, PENTAGON_UNITS[u]) * k for u in (a, b)]
            items.append((_points_text(lams), 5, [k, k], f"pentagon-{a}", {"pentagon": [a, k]}))
        seen = Counter()
        for e in catalog["products"]:
            n_gon, pos = e["n_gon"], seen[e["n_gon"]]
            seen[n_gon] += 1
            vecs = [tuple(f) for f in e["factors"]]
            items.append((_points_text([point(n_gon, v) for v in vecs]), n_gon,
                          _multiplicities(vecs), f"product-{n_gon}-{pos}",
                          {"digest": e["digest"]}))
        rng.shuffle(items)
        return [_entry(i, 0, text, n_gon, multiplicities, "fan", group, expect)
                for i, (text, n_gon, multiplicities, group, expect) in enumerate(items)]

    def run(self, inst, in_path, out_path):
        return _cli(["support", "--coeffs", "--in", in_path, "--out", out_path])

    def traced(self, inst, in_path, out_path, tr):
        from tropclust import jsonio
        from tropclust.basis import product_expand

        points = _load_points(in_path, tr)
        with tr.span("basis.product_expand"):
            expansion = product_expand(points)
        tr.counts["basis.expansion_terms"] += len(expansion)
        _dump(lambda: jsonio.expansion_to_json(expansion), out_path, tr)
        return 0

    def check(self, inst, in_path, out_path, result):
        if result != 0:
            return f"exit code {result}"
        if "pentagon" in inst["expect"]:
            return _check_pentagon(*inst["expect"]["pentagon"], out_path)
        digest = hashlib.sha256(_read(out_path).encode()).hexdigest()
        if digest != inst["expect"]["digest"]:
            return "output differs from the recorded digest"
        return None


def _check_pentagon(a, k, out_path):
    """k*u_a times k*u_{a+2} is (1 + u_{a+1})^k: its terms are j*u_{a+1},
    each with the coefficient the closed form gives for its sector."""
    from tropclust import jsonio
    from tropclust.basis import a2_coefficient
    from tropclust.laminations import chart_coords
    from tropclust.polygon import fan_triangulation

    fan = fan_triangulation(5)
    got = {
        chart_coords(lam, fan).vector(): coeff
        for lam, coeff in jsonio.expansion_from_json(jsonio.load_path(out_path))
    }
    d = [0] * 5
    d[a - 1] = d[(a + 1) % 5] = k
    m = a % 5 + 1
    unit = PENTAGON_UNITS[m]
    want = {(0, 0): a2_coefficient(d, 1, 0, 0)}
    for j in range(1, 2 * k + 1):
        c = a2_coefficient(d, m, j, 0)
        if c:
            want[(j * unit[0], j * unit[1])] = c
    return None if got == want else "terms differ from the pentagon closed form"


class AtlasPositivity:
    """verify_positive_basis on hexagon and heptagon laminations."""

    name = "atlas-positivity"
    # Every stream is the same set, each in its own seed-chosen order: every
    # hexagon lamination of the fan box [-2, 2] and every recorded heptagon
    # lamination.  Heptagon costs spread over a factor of seven, so a
    # seed-chosen subset would move the tail from seed to seed; a second
    # round would repeat instances in one process, so there is one round
    # whatever ``--seconds`` asks for.
    round_s = 5.2
    min_rounds = 1

    def generate(self, seed, stream, rounds, catalog):
        base = f"{self.name}/{seed}/{stream}"
        laminations = [(6, vec) for vec in itertools.product(range(-2, 3), repeat=3)]
        laminations += [(7, tuple(e["coords"])) for e in catalog["positivity"]]
        random.Random(f"{base}/order").shuffle(laminations)
        point = _Points()
        return [_entry(i, 0, _points_text([point(n_gon, vec)]), n_gon, [1], "all",
                       f"positivity-{n_gon}-{vec}")
                for i, (n_gon, vec) in enumerate(laminations)]

    def run(self, inst, in_path, out_path):
        from tropclust import jsonio
        from tropclust.basis import verify_positive_basis

        (lam,) = jsonio.points_from_json(jsonio.load_path(in_path))
        return verify_positive_basis(lam)

    def traced(self, inst, in_path, out_path, tr):
        from tropclust.atlas import expand_in_x_chart, mutation_words
        from tropclust.basis import basis_laurent

        (lam,) = _load_points(in_path, tr)
        with tr.span("basis.basis_laurent"):
            f = basis_laurent(lam)
        with tr.span("atlas.mutation_words"):
            words = mutation_words(lam.n_gon - 3)
        for word in words.values():
            with tr.span("atlas.expand_in_x_chart"):
                g = expand_in_x_chart(f, word)
            tr.counts["atlas.charts"] += 1
            tr.counts["laurent.chart_terms"] += len(g.terms)
            with tr.span("laurent.is_positive"):
                positive = g.is_positive()
            if not positive:
                return False
        return True

    def check(self, inst, in_path, out_path, result):
        return None if result is True else f"verify_positive_basis returned {result!r}"


WORKLOADS = {w.name: w for w in (MthmBatch(), LatticeCensus(), ExpandDeep(), AtlasPositivity())}
