"""The three benchmark workloads: seeded inputs, the calls each problem
makes, and the pinned answers each result is checked against.

Inputs come from the benchmark's own ``random.Random``, never from the
package's samplers, so a change to those cannot shift a workload.  Every
reference answer is either hard-coded here (closed-form degree vectors,
hypersurface tables, hand-derived degrees of small maps), read from the
stored CLI goldens, or counted by brute force in this file.  None is taken
from the code under test.

A problem is a ``solve`` (library calls only; this is what is timed) and a
``check`` that raises ``WrongAnswer`` on any mismatch.  Library modules are
called through their module attributes so a tracer installed after set-up
sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CHAR = 32003

# Later gain claims must also hold on this seed; it is not used while tuning.
HELD_OUT_SEED = 104729


class WrongAnswer(Exception):
    """A result differs from its pinned reference: the run is aborted."""


class RequestFailed(Exception):
    """A CLI request exited 1 with a library error; counted as a failure."""

    def __init__(self, error_class: str, message: str):
        super().__init__(f"{error_class}: {message}")
        self.error_class = error_class


@dataclass
class Problem:
    id: str
    solve: Callable[[], object]
    check: Callable[[object], None]


def expect(label: str, got, want) -> None:
    if got != want:
        raise WrongAnswer(f"{label}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# pfaffian_maps: submaximal Pfaffians of generic 5x5 alternating matrices of
# linear forms.  Such a map satisfies G_{d+1}, and its degree vector is the
# Gorenstein height-3 closed form with n = 4, D = 1, delta = 2.

PFAFFIAN_DEGREES = {
    4: (3, 4, 2, 1),  # P^3 -> P^4
    5: (1, 3, 4, 2, 1),  # P^4 -> P^4
}
PFAFFIAN_SOURCE_VARS = (4, 4, 5)


def _alternating_matrix(rng: random.Random, nvars: int):
    from mixedmult import maps, rings

    ring = rings.RingSpec(CHAR, (tuple(f"x{i}" for i in range(nvars)),))
    zero = rings.Polynomial.zero(ring)
    rows = [[zero] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            terms = []
            for k in range(nvars):
                exps = tuple(int(v == k) for v in range(nvars))
                terms.append((exps, rng.randrange(1, CHAR)))
            h = rings.Polynomial(ring, terms)
            rows[i][j] = h
            rows[j][i] = -h
    matrix = maps.PresentationMatrix(
        entries=tuple(tuple(r) for r in rows), kind="alternating"
    )
    return ring, matrix


def pfaffian_maps(seed: int, root: Path, scratch: Path) -> list[Problem]:
    from mixedmult import maps

    rng = random.Random(f"pfaffian_maps/{seed}")
    problems = []
    for k, nvars in enumerate(PFAFFIAN_SOURCE_VARS):
        ring, matrix = _alternating_matrix(rng, nvars)

        def solve(ring=ring, matrix=matrix, nvars=nvars):
            forms = maps.submaximal_pfaffians(matrix)
            spec = maps.RationalMapSpec(ring, tuple(forms))
            g_ok = maps.check_G_condition(spec, matrix, nvars)
            return g_ok, maps.projective_degrees(spec, "elimination").degrees

        def check(value, nvars=nvars):
            g_ok, degrees = value
            expect("G_{d+1} condition", g_ok, True)
            expect("projective degrees", degrees, PFAFFIAN_DEGREES[nvars])

        problems.append(Problem(f"pfaffian-P{nvars - 1}-{k}", solve, check))
    return problems


# ---------------------------------------------------------------------------
# cli_saturation: requests through mixedmult.cli.run, stdout captured.

# The golden invocations of the CLI tests; argv paths are relative to tests/.
GOLDEN_CASES = (
    ("hilbert_diag", ["hilbert", "--input", "golden/inputs/diag.json"]),
    ("mixed_mult_nbar", ["mixed-mult", "--input", "golden/inputs/nbar.json"]),
    (
        "multidegree_diag",
        ["multidegree", "--input", "golden/inputs/diag.json", "--type", "1,0"],
    ),
    (
        "slice_diag",
        ["slice", "--input", "golden/inputs/diag.json", "--type", "1,0", "--trials", "5"],
    ),
    (
        "projdeg_cremona",
        ["projdeg", "--input", "golden/inputs/cremona.json", "--method", "both"],
    ),
    ("formula_ht3", ["formula", "--ht3", "--d", "3", "--n", "4", "--D", "1", "--delta", "2"]),
    (
        "satfiber_cremona",
        ["satfiber", "--input", "golden/inputs/cremona_map.json", "--q-max", "6"],
    ),
    ("check_g_cremona", ["check-g", "--input", "golden/inputs/cremona.json", "--s", "3"]),
)

# Small maps with hand-derived projective degrees (d_0, ..., d_d).  Conics
# through one point of P^2 give a degree-3 surface in P^4.
SMALL_MAPS = {
    "cremona": (("x0", "x1", "x2"), ("x1*x2", "x0*x2", "x0*x1"), (1, 2, 1)),
    "conic": (("x0", "x1"), ("x0^2", "x0*x1", "x1^2"), (2, 1)),
    "twisted_cubic": (
        ("x0", "x1"),
        ("x0^3", "x0^2*x1", "x0*x1^2", "x1^3"),
        (3, 1),
    ),
    "identity": (("x0", "x1"), ("x0", "x1"), (1, 1)),
    "conics_through_point": (
        ("x0", "x1", "x2"),
        ("x0^2", "x0*x1", "x1^2", "x0*x2", "x1*x2"),
        (3, 2, 1),
    ),
}
PROJDEG_SLICING_MAPS = ("cremona", "conic", "twisted_cubic", "identity")
SATFIBER_MAPS = ("conic", "twisted_cubic", "identity", "conics_through_point")

# Graph ideals (2x2 minors for the rational normal curves, the linear-type
# symmetric ideal for Cremona) and Segre diagonals, with their multidegree
# tables {type: value} and the types sliced.
GRAPH_IDEALS = {
    "graph_cremona": (
        (("x0", "x1", "x2"), ("y0", "y1", "y2")),
        ("x0*y0 - x1*y1", "x1*y1 - x2*y2"),
        {(0, 2): 1, (1, 1): 2, (2, 0): 1},
        ((1, 1),),
    ),
    "graph_conic": (
        (("x0", "x1"), ("y0", "y1", "y2")),
        ("x0*y1 - x1*y0", "x0*y2 - x1*y1", "y0*y2 - y1^2"),
        {(0, 1): 2, (1, 0): 1},
        ((0, 1),),
    ),
    "graph_twisted_cubic": (
        (("x0", "x1"), ("y0", "y1", "y2", "y3")),
        (
            "x0*y1 - x1*y0",
            "x0*y2 - x1*y1",
            "x0*y3 - x1*y2",
            "y0*y2 - y1^2",
            "y0*y3 - y1*y2",
            "y1*y3 - y2^2",
        ),
        {(0, 1): 3, (1, 0): 1},
        ((0, 1),),
    ),
    "segre_p1xp1": (
        (("x0", "x1"), ("y0", "y1")),
        ("x0*y1 - x1*y0",),
        {(0, 1): 1, (1, 0): 1},
        ((1, 0),),
    ),
    "segre_p2xp2": (
        (("x0", "x1", "x2"), ("y0", "y1", "y2")),
        ("x0*y1 - x1*y0", "x0*y2 - x2*y0", "x1*y2 - x2*y1"),
        {(0, 2): 1, (1, 1): 1, (2, 0): 1},
        ((1, 1),),
    ),
}
SLICING_TRIALS = 3


def _table(entries) -> dict:
    return {tuple(e["type"]): e["value"] for e in entries}


def _run_cli(argv: list[str]):
    from mixedmult import cli  # looked up per call, so a tracer sees cli.run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(argv)
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if rc == 1 and report and report.get("error"):
        err = report["error"]
        raise RequestFailed(err["type"], err["message"])
    return rc, report


def _clean(rc: int, report) -> dict:
    """The report of a request that must succeed with every check passing."""
    expect("exit code", rc, 0)
    expect("failed checks", report.get("failed_checks"), None)
    report.pop("timing", None)
    return report["result"]


def cli_saturation(seed: int, root: Path, scratch: Path) -> list[Problem]:
    import mixedmult.cli  # noqa: F401  (its import belongs to set-up)

    rng = random.Random(f"cli_saturation/{seed}")
    tests_dir = root / "tests"
    # The golden argv paths are relative to tests/, and the report digests
    # them as written; generated inputs use absolute paths.
    os.chdir(tests_dir)
    inputs = scratch / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    problems = []

    for name, argv in GOLDEN_CASES:
        golden = json.loads((tests_dir / "golden" / f"{name}.json").read_text())

        def check(value, golden=golden, name=name):
            rc, report = value
            expect(f"{name} exit code", rc, 0)
            report.pop("timing", None)
            if report != golden:
                raise WrongAnswer(f"{name}: report differs from tests/golden/{name}.json")

        problems.append(Problem(f"golden-{name}", lambda a=argv: _run_cli(a), check))

    def write_input(name: str, data: dict) -> str:
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True) + "\n")
        return str(path)

    map_paths = {
        name: write_input(name, {"characteristic": CHAR, "vars": list(xs), "map": list(fs)})
        for name, (xs, fs, _) in SMALL_MAPS.items()
    }
    for name in PROJDEG_SLICING_MAPS:
        want = list(SMALL_MAPS[name][2])
        argv = [
            "projdeg", "--input", map_paths[name], "--method", "slicing",
            "--seed", str(rng.randrange(10**6)), "--trials", str(SLICING_TRIALS),
        ]

        def check(value, want=want):
            result = _clean(*value)
            expect("elimination degrees", result["degrees"], want)
            expect("slicing degrees", result["degrees_slicing"], want)

        problems.append(Problem(f"projdeg-slicing-{name}", lambda a=argv: _run_cli(a), check))

    for name in SATFIBER_MAPS:
        xs, _, degrees = SMALL_MAPS[name]
        argv = ["satfiber", "--input", map_paths[name], "--q-max", str(len(xs) + 1)]

        def check(value, d0=degrees[0]):
            result = _clean(*value)
            expect("stabilized", result["stabilized"], True)
            expect("inferred d_0", result["inferred_e"], d0)
            expect("elimination d_0", result["d0_elimination"], d0)

        problems.append(Problem(f"satfiber-{name}", lambda a=argv: _run_cli(a), check))

    for name, (blocks, ideal, table, types) in GRAPH_IDEALS.items():
        path = write_input(
            name,
            {
                "characteristic": CHAR,
                "blocks": [{"vars": list(b)} for b in blocks],
                "ideal": list(ideal),
            },
        )

        def check_mm(value, table=table):
            result = _clean(*value)
            expect("polynomial table", _table(result["polynomial_table"]["entries"]), table)
            expect("series table", _table(result["series_table"]["entries"]), table)
            expect("coarsened multiplicity", result["coarsened_multiplicity"], sum(table.values()))

        argv = ["mixed-mult", "--input", path]
        problems.append(Problem(f"mixed-mult-{name}", lambda a=argv: _run_cli(a), check_mm))
        for n in types:
            argv = [
                "slice", "--input", path, "--type", ",".join(map(str, n)),
                "--seed", str(rng.randrange(10**6)), "--trials", str(SLICING_TRIALS),
            ]

            def check_slice(value, want=table[n]):
                result = _clean(*value)
                expect("algebraic multidegree", result["algebraic_multidegree"], want)
                expect("sliced point count", result["point_count"], want)

            label = "".join(map(str, n))
            problems.append(
                Problem(f"slice-{name}-{label}", lambda a=argv: _run_cli(a), check_slice)
            )
    return problems


# ---------------------------------------------------------------------------
# hilbert_series: random monomial ideals plus a hypersurface ladder.

HILBERT_BLOCKS = tuple(itertools.permutations((2, 3, 4))) + ((3, 3, 3),)
HILBERT_IDEALS = 30
# Seeded ideals: many small ones, so their total cost varies little with the
# seed.  Each has 12 generators, random monomials of degree 6.
HILBERT_GENERATORS = 12
HILBERT_DEGREE = 6
# Two fixed ideals, each heavier than any seeded one, so the slowest problem
# (max_problem_s) does not depend on the seed and a fixed share of the pass
# damps the seed-to-seed spread of solve_s.  Their 26 generators each have
# 2 or 3 variables to powers 1 to 3, which keeps the Groebner step a small
# share of the K-polynomial work.
ANCHORS = (
    ("hilbert_series/anchor/1", (3, 4, 4)),
    ("hilbert_series/anchor/4", (4, 4, 4)),
)
ANCHOR_GENERATORS = 26
# Small degrees where graded pieces are counted; the validity threshold is
# avoided on purpose, since enumerating there can take minutes.
PIECE_DEGREES = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2))
# Rungs (a, b) of x0*y0 + x1*y1 + x2*y2 in P^a x P^b.  The last rung has 17
# variables, past the package's 16-variable dimension guard.
LADDER = ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5), (6, 5),
          (6, 6), (7, 6), (7, 7), (8, 7))


def _seeded_monomial(rng: random.Random, nvars: int) -> tuple[int, ...]:
    exps = [0] * nvars
    for _ in range(HILBERT_DEGREE):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def _anchor_monomial(rng: random.Random, nvars: int) -> tuple[int, ...]:
    exps = [0] * nvars
    for v in rng.sample(range(nvars), rng.randint(2, 3)):
        exps[v] = rng.randint(1, 3)
    return tuple(exps)


def _monomial_ideal(rng: random.Random, sizes, count: int, monomial):
    from mixedmult import groebner, rings

    names = tuple(
        tuple(f"{b}{i}" for i in range(size)) for b, size in zip("xyz", sizes)
    )
    ring = rings.RingSpec(CHAR, names)
    gens: set[tuple[int, ...]] = set()
    while len(gens) < count:
        gens.add(monomial(rng, sum(sizes)))
    exps = sorted(gens)
    polys = tuple(rings.Polynomial(ring, ((e, 1),)) for e in exps)
    return groebner.Ideal(ring, polys), exps


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _block_monomials(degree: int, size: int):
    for cut in itertools.combinations(range(degree + size - 1), size - 1):
        bounds = (-1,) + cut + (degree + size - 1,)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(size))


def brute_piece(exps, sizes, nu) -> int:
    """Standard monomials of multidegree nu, counted one by one."""
    count = 0
    for parts in itertools.product(*(_block_monomials(d, s) for d, s in zip(nu, sizes))):
        m = tuple(itertools.chain.from_iterable(parts))
        if not any(_divides(g, m) for g in exps):
            count += 1
    return count


def brute_dimension(exps, nvars: int) -> int:
    """Largest set of variables containing the support of no generator."""
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in exps]
    for size in range(nvars, -1, -1):
        for free in itertools.combinations(range(nvars), size):
            free = frozenset(free)
            if not any(s <= free for s in supports):
                return size
    return -1


def hilbert_series(seed: int, root: Path, scratch: Path) -> list[Problem]:
    from mixedmult import groebner, hilbert, rings

    rng = random.Random(f"hilbert_series/{seed}")
    ideals = [
        (f"monomial-{k:02d}", HILBERT_BLOCKS[k % len(HILBERT_BLOCKS)],
         _monomial_ideal(rng, HILBERT_BLOCKS[k % len(HILBERT_BLOCKS)],
                         HILBERT_GENERATORS, _seeded_monomial))
        for k in range(HILBERT_IDEALS)
    ]
    ideals += [
        (f"anchor-{k}", sizes,
         _monomial_ideal(random.Random(label), sizes, ANCHOR_GENERATORS, _anchor_monomial))
        for k, (label, sizes) in enumerate(ANCHORS)
    ]
    problems = []
    for name, sizes, (J, exps) in ideals:

        def solve(J=J):
            default = hilbert.k_polynomial(J, "default")
            antipodal = hilbert.k_polynomial(J, "antipodal")
            table = hilbert.mixed_mult_series(J)
            dim = hilbert.quotient_dimension(J)
            coarse = hilbert.coarsened_multiplicity(J)
            poly = hilbert.hilbert_polynomial(J)
            base = poly.validity_threshold
            above = [
                (poly.evaluate_int(nu), hilbert.series_coefficient(default, nu))
                for nu in (base, tuple(t + 1 for t in base))
            ]
            pieces = [
                (nu, hilbert.graded_piece_dim(J, nu), hilbert.series_coefficient(default, nu))
                for nu in PIECE_DEGREES
            ]
            return default, antipodal, table, dim, coarse, above, pieces

        def check(value, exps=exps, sizes=sizes):
            default, antipodal, table, dim, coarse, above, pieces = value
            expect("pivot rules agree", antipodal.numerator, default.numerator)
            expect("quotient dimension", dim, brute_dimension(exps, sum(sizes)))
            expect("table dimension", table.dimension, dim)
            expect("coarsened multiplicity", coarse, table.total())
            for poly_value, series_value in above:
                expect("Hilbert polynomial above threshold", poly_value, series_value)
            for nu, piece, series_value in pieces:
                count = brute_piece(exps, sizes, nu)
                expect(f"graded piece at {nu}", piece, count)
                expect(f"series coefficient at {nu}", series_value, count)

        problems.append(Problem(f"{name}-{''.join(map(str, sizes))}", solve, check))

    for a, b in LADDER:
        ring = rings.RingSpec(
            CHAR,
            (tuple(f"x{i}" for i in range(a + 1)), tuple(f"y{i}" for i in range(b + 1))),
        )
        J = groebner.Ideal(ring, (rings.parse_polynomial("x0*y0 + x1*y1 + x2*y2", ring),))

        def solve(J=J):
            return (
                hilbert.k_polynomial(J),
                hilbert.mixed_mult_series(J),
                hilbert.coarsened_multiplicity(J),
            )

        def check(value, a=a, b=b):
            rep, table, coarse = value
            expect("K-polynomial", rep.numerator.as_dict(), {(0, 0): 1, (1, 1): -1})
            expect("table", table.entries, {(a, b - 1): 1, (a - 1, b): 1})
            expect("table dimension", table.dimension, a + b + 1)
            expect("coarsened multiplicity", coarse, 2)

        problems.append(Problem(f"hypersurface-P{a}xP{b}", solve, check))
    return problems


WORKLOADS = {
    "pfaffian_maps": pfaffian_maps,
    "cli_saturation": cli_saturation,
    "hilbert_series": hilbert_series,
}
