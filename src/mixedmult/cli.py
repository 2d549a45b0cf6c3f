"""JSON-in JSON-out command line front end.

Exit codes: 0 success, 1 mathematical failure (precondition violations,
exceeded budgets, failed checks without --allow-failed-checks) with a
well-formed JSON report on stdout, 2 usage or input-parse errors with a
diagnostic on stderr.  Reports are deterministic for fixed argv and input
bytes except for the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .errors import (
    EnumerationGuardError,
    ExponentOverflow,
    InvariantViolation,
    NotMultihomogeneousError,
    PairBudgetExceeded,
    ParseError,
    PresentationMismatch,
    SamplingExhausted,
)
from .groebner import Ideal, set_pair_budget
from .hilbert import (
    coarsened_multiplicity,
    graded_piece_dim,
    hilbert_polynomial,
    k_polynomial,
    mixed_mult_series,
    quotient_dimension,
)
from .maps import (
    PresentationMatrix,
    RationalMapSpec,
    _eliminated_degrees,
    _sliced_degrees,
    check_G_condition,
    formula_gorenstein_ht3,
    formula_perfect_ht2,
    ideal_height,
    projective_degrees,
    rees_ideal,
    satfiber_d0_check,
)
from .multigraded import compare_routes, multidegree, slice_degree
from .rings import RingSpec, parse_polynomial

SCHEMA_VERSION = "1"
INT_SAFE = 2**53

MATH_ERRORS = (
    NotMultihomogeneousError,
    PairBudgetExceeded,
    EnumerationGuardError,
    SamplingExhausted,
    PresentationMismatch,
    InvariantViolation,
    ExponentOverflow,
    ValueError,
)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Input loading


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise UsageError(f"{where}: missing key {key!r}")
    v = data[key]
    if kind is not None and not isinstance(v, kind):
        raise UsageError(f"{where}: key {key!r} has the wrong type")
    return v


def _ring(p: int, blocks) -> RingSpec:
    """The input's ring; a malformed one is a usage error."""
    try:
        return RingSpec(p, blocks)
    except ValueError as e:
        raise UsageError(f"input: {e}") from e


def load_ring_ideal(data: dict) -> Ideal:
    p = _require(data, "characteristic", int, "input")
    blocks_raw = _require(data, "blocks", list, "input")
    blocks = []
    for b in blocks_raw:
        if not isinstance(b, dict):
            raise UsageError("input: each block must be an object")
        vs = _require(b, "vars", list, "block")
        if not all(isinstance(v, str) for v in vs):
            raise UsageError("block: vars must be strings")
        blocks.append(tuple(vs))
    ring = _ring(p, blocks)
    exprs = _require(data, "ideal", list, "input")
    gens = tuple(parse_polynomial(str(e), ring) for e in exprs)
    shift = data.get("shift")
    if shift is not None:
        if not isinstance(shift, list) or not all(
            isinstance(s, int) for s in shift
        ):
            raise UsageError("input: shift must be a list of integers")
        if len(shift) != ring.r:
            raise UsageError("input: shift length must equal the number of blocks")
        shift = tuple(shift)
    return Ideal(ring, gens, shift=shift)


def load_map(data: dict) -> tuple[RationalMapSpec, PresentationMatrix | None]:
    p = _require(data, "characteristic", int, "input")
    vs = _require(data, "vars", list, "input")
    if not all(isinstance(v, str) for v in vs):
        raise UsageError("input: vars must be strings")
    exprs = _require(data, "map", list, "input")
    ring = _ring(p, (vs,))
    F = RationalMapSpec(ring, tuple(parse_polynomial(str(e), ring) for e in exprs))
    matrix = None
    if "matrix" in data:
        m = data["matrix"]
        if not isinstance(m, dict):
            raise UsageError("input: matrix must be an object")
        kind = _require(m, "kind", str, "matrix")
        if kind not in ("hilbert-burch", "alternating"):
            raise UsageError(f"matrix: unknown kind {kind!r}")
        rows_raw = _require(m, "entries", list, "matrix")
        rows = tuple(
            tuple(parse_polynomial(str(e), ring) for e in row)
            for row in rows_raw
        )
        matrix = PresentationMatrix(entries=rows, kind=kind)
    return F, matrix


def _parse_int_vector(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated integer list")


# ---------------------------------------------------------------------------
# Serialization


def _stringify_big(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > INT_SAFE else value
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {k: _stringify_big(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify_big(v) for v in value]
    return str(value)


def _table_json(table) -> dict:
    return {
        "dimension": table.dimension,
        "route": table.route,
        "entries": [
            {"type": list(n), "value": v}
            for n, v in sorted(table.entries.items())
        ],
    }


def _series_json(rep) -> dict:
    return {
        "numerator": [
            [str(c), list(e)] for e, c in sorted(rep.numerator.terms)
        ],
        "denominator_exponents": list(rep.denominator_exponents),
        "shift": list(rep.shift) if rep.shift is not None else None,
    }


def _polynomial_json(rep) -> dict:
    return {
        "coefficients": [
            [list(e), str(c)] for e, c in sorted(rep.coefficients.items())
        ],
        "validity_threshold": list(rep.validity_threshold),
    }


# ---------------------------------------------------------------------------
# Subcommand handlers: each takes (loaded input, args) and returns
# (result, checks)


def _cmd_hilbert(J: Ideal, args):
    rep = k_polynomial(J)
    poly = hilbert_polynomial(J)
    dim = quotient_dimension(J)
    grid_ok = True
    details = []
    base = tuple(max(t, 0) for t in poly.validity_threshold)
    for corner in range(2):
        nu = tuple(b + corner for b in base)
        expected = graded_piece_dim(J, nu)
        got = poly.evaluate_int(nu)
        details.append({"at": list(nu), "piece": expected, "polynomial": got})
        if expected != got:
            grid_ok = False
    result = {
        "series": _series_json(rep),
        "polynomial": _polynomial_json(poly),
        "dimension": dim,
    }
    checks = [
        {
            "name": "polynomial_matches_pieces",
            "passed": grid_ok,
            "details": details,
        }
    ]
    return result, checks


def _cmd_mixed_mult(J: Ideal, args):
    stable = mixed_mult_series(J)
    ptable, mismatch = compare_routes(J)
    coarse = coarsened_multiplicity(J)
    coarse_ok = coarse == stable.total()
    result = {
        "series_table": _table_json(stable),
        "polynomial_table": _table_json(ptable),
        "coarsened_multiplicity": coarse,
    }
    checks = [
        {
            "name": "route_agreement",
            "passed": mismatch is None,
            "details": {
                "polynomial_entries": _table_json(ptable)["entries"],
            },
        },
        {
            "name": "coarsening_identity",
            "passed": coarse_ok,
            "details": {
                "coarsened": coarse,
                "series_sum": stable.total(),
            },
        },
    ]
    return result, checks


def _cmd_multidegree(J: Ideal, args):
    if args.type is None:
        raise UsageError("multidegree requires --type")
    n = _parse_int_vector(args.type, "--type")
    if len(n) != J.ring.r:
        raise ValueError("type vector length mismatch")
    ptable, mismatch = compare_routes(J)
    result = {"type": list(n), "value": ptable.value(n)}
    checks = [
        {
            "name": "route_agreement",
            "passed": mismatch is None,
            "details": mismatch or "series and polynomial routes agreed",
        }
    ]
    return result, checks


def _cmd_projdeg(loaded, args):
    F, matrix = loaded
    method = args.method
    if method not in ("both", "elimination", "slicing", "formula"):
        raise UsageError(f"unknown method {method!r}")
    result: dict = {"delta": F.delta, "source_dim": F.d}
    checks = []
    elim = None
    if method in ("both", "elimination", "slicing"):
        # one Rees ideal serves both routes of --method slicing
        rees = rees_ideal(F)
        elim = _eliminated_degrees(rees, F.d)
        result["degrees"] = list(elim.degrees)
        result["method"] = "elimination"
        base_height = ideal_height(Ideal(F.source_ring, F.generators))
        d = F.d
        trailing_ok = all(
            elim.degrees[i] == F.delta ** (d - i)
            for i in range(max(0, d - base_height + 1), d + 1)
        )
        checks.append(
            {
                "name": "trailing_degrees",
                "passed": trailing_ok,
                "details": {
                    "base_ideal_height": base_height,
                    "delta": F.delta,
                },
            }
        )
    if method == "slicing":
        sliced = _sliced_degrees(rees, F.d, args.seed, args.trials)
        result["degrees_slicing"] = list(sliced.degrees)
        result["method"] = "slicing"
        checks.append(
            {
                "name": "slicing_matches_elimination",
                "passed": sliced.degrees == elim.degrees,
                "details": {
                    "elimination": list(elim.degrees),
                    "slicing": list(sliced.degrees),
                },
            }
        )
    if matrix is not None and method in ("both", "formula"):
        g_ok = check_G_condition(F, matrix, F.d + 1)
        checks.append(
            {
                "name": "g_condition",
                "passed": g_ok,
                "details": {"s": F.d + 1},
            }
        )
        formula = projective_degrees(F, "formula", matrix=matrix)
        result["degrees_formula"] = list(formula.degrees)
        if method == "formula":
            result["degrees"] = list(formula.degrees)
            result["method"] = "formula"
        if elim is not None:
            checks.append(
                {
                    "name": "formula_agreement",
                    "passed": formula.degrees == elim.degrees,
                    "details": {
                        "elimination": list(elim.degrees),
                        "formula": list(formula.degrees),
                    },
                }
            )
    elif method == "formula":
        raise UsageError("--method formula requires a matrix in the input")
    return result, checks


def _cmd_formula(_, args):
    if args.ht2 == args.ht3:
        raise UsageError("formula requires exactly one of --ht2 / --ht3")
    if args.d is None:
        raise UsageError("formula requires --d")
    if args.ht2:
        if args.mu is None:
            raise UsageError("--ht2 requires --mu")
        mu = _parse_int_vector(args.mu, "--mu")
        formula, params = formula_perfect_ht2, (args.d, mu)
        result = {"kind": "perfect-ht2", "d": args.d, "mu": list(mu)}
    else:
        if args.n is None or args.D is None or args.delta is None:
            raise UsageError("--ht3 requires --n, --D and --delta")
        formula, params = formula_gorenstein_ht3, (args.d, args.n, args.D, args.delta)
        result = {
            "kind": "gorenstein-ht3",
            "d": args.d,
            "n": args.n,
            "D": args.D,
            "delta": args.delta,
        }
    # formula reads no input, so every value the formulas reject is a flag's
    try:
        vec = formula(*params)
    except ValueError as e:
        raise UsageError(f"formula: {e}") from e
    result["degrees"] = list(vec.degrees)
    return result, []


def _cmd_satfiber(loaded, args):
    F, _ = loaded
    q_max = args.q_max if args.q_max is not None else F.d + 2
    if q_max < F.d + 2:
        raise UsageError(f"--q-max must be at least d + 2 = {F.d + 2}")
    chk = satfiber_d0_check(F, q_max)
    result = {
        "q_max": q_max,
        "dims": list(chk.table.dims),
        "difference_profile": [list(v) for v in chk.table.difference_profile],
        "stabilized": chk.stabilized,
        "inferred_e": chk.inferred_e,
        "d0_elimination": chk.d0_elimination,
        "agree": chk.agree,
    }
    checks = [
        {
            "name": "d0_agreement",
            "passed": (not chk.stabilized) or chk.agree,
            "details": {
                "stabilized": chk.stabilized,
                "inferred_e": chk.inferred_e,
                "d0_elimination": chk.d0_elimination,
            },
        }
    ]
    return result, checks


def _cmd_check_g(loaded, args):
    F, matrix = loaded
    if matrix is None:
        raise UsageError("check-g requires a matrix in the input")
    s = args.s if args.s is not None else F.d + 1
    ok = check_G_condition(F, matrix, s)
    result = {"s": s, "g_condition": ok}
    checks = [
        {
            "name": "g_condition",
            "passed": ok,
            "details": {"s": s},
        }
    ]
    return result, checks


def _cmd_slice(J: Ideal, args):
    if args.type is None:
        raise UsageError("slice requires --type")
    n = _parse_int_vector(args.type, "--type")
    report = slice_degree(J, n, seed=args.seed, trials=args.trials)
    algebraic = multidegree(J, n)
    matching = sum(
        1
        for o in report.trial_outcomes
        if o.verified and o.point_count == algebraic
    )
    result = dict(report.as_dict())
    result["algebraic_multidegree"] = algebraic
    checks = [
        {
            "name": "slicing_matches_multidegree",
            "passed": matching >= max(1, report.trials - 1),
            "details": {
                "algebraic": algebraic,
                "matching_trials": matching,
                "trials": report.trials,
            },
        }
    ]
    return result, checks


# ---------------------------------------------------------------------------
# Dispatch

# name -> (help, input loader or None, handler)
COMMANDS = {
    "hilbert": ("series numerator and polynomial", load_ring_ideal, _cmd_hilbert),
    "mixed-mult": ("both multiplicity tables", load_ring_ideal, _cmd_mixed_mult),
    "multidegree": ("multidegree of one type", load_ring_ideal, _cmd_multidegree),
    "projdeg": ("projective degrees of a map", load_map, _cmd_projdeg),
    "formula": ("closed-form degree vectors", None, _cmd_formula),
    "satfiber": ("saturated fiber dimension probe", load_map, _cmd_satfiber),
    "check-g": ("Fitting-height G condition", load_map, _cmd_check_g),
    "slice": ("randomized slicing point counts", load_ring_ideal, _cmd_slice),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mm",
        description=(
            "Exact multigraded Hilbert series, mixed multiplicities, "
            "multidegrees and projective degrees over finite prime fields."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sps = {}
    for name, (help_text, load, _) in COMMANDS.items():
        sp = sps[name] = sub.add_parser(name, help=help_text)
        if load is not None:
            sp.add_argument("--input", required=True, help="JSON input path")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--trials", type=int, default=10)
        sp.add_argument("--pair-budget", type=int, default=None)
        sp.add_argument("--allow-failed-checks", action="store_true")
        sp.add_argument("--pretty", action="store_true")
    for name in ("multidegree", "slice"):
        sps[name].add_argument("--type", help="comma-separated type vector")
    sps["projdeg"].add_argument(
        "--method", default="both", help="both | elimination | slicing | formula"
    )
    sp = sps["formula"]
    sp.add_argument("--ht2", action="store_true")
    sp.add_argument("--ht3", action="store_true")
    sp.add_argument("--d", type=int)
    sp.add_argument("--mu", help="comma-separated column degrees")
    sp.add_argument("--n", type=int)
    sp.add_argument("--D", type=int)
    sp.add_argument("--delta", type=int)
    sps["satfiber"].add_argument("--q-max", type=int, default=None)
    sps["check-g"].add_argument("--s", type=int, default=None)
    return parser


_PARSER = _build_parser()


def _digest(input_bytes: bytes | None, args: argparse.Namespace) -> str:
    h = hashlib.sha256()
    if input_bytes is not None:
        h.update(input_bytes)
    h.update(b"\x00")
    skip = {"pretty", "allow_failed_checks"}
    parts = [
        f"{k}={v}"
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    ]
    h.update("|".join(parts).encode())
    return h.hexdigest()


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    input_bytes = None
    started = time.monotonic()
    previous_budget = None
    try:
        _, load, handler = COMMANDS[args.command]
        data = None
        if load is not None:
            try:
                with open(args.input, "rb") as fh:
                    input_bytes = fh.read()
            except OSError as e:
                raise UsageError(f"cannot read {args.input}: {e}") from e
            try:
                data = json.loads(input_bytes)
            except json.JSONDecodeError as e:
                raise UsageError(f"malformed JSON in {args.input}: {e}") from e
            if not isinstance(data, dict):
                raise UsageError("input must be a JSON object")
        # checked before any command runs, so a bad count is a usage error
        # for every command, not a math failure inside the first slicing trial
        # or Groebner basis, nor a vacuous G condition
        for flag, value in (
            ("--trials", args.trials),
            ("--pair-budget", args.pair_budget),
            ("--s", getattr(args, "s", None)),
        ):
            if value is not None and value < 1:
                raise UsageError(f"{flag} must be positive")
        previous_budget = set_pair_budget(args.pair_budget)

        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs_digest": _digest(input_bytes, args),
        }
        try:
            result, checks = handler(load(data) if load else None, args)
        except (ParseError, UsageError):
            raise
        except MATH_ERRORS as e:
            report["result"] = None
            report["checks"] = []
            report["error"] = {
                "type": type(e).__name__,
                "message": str(e),
            }
            stats = getattr(e, "stats", None)
            if stats:
                report["error"]["stats"] = _stringify_big(stats)
            _emit(report, started, args.pretty)
            return 1

        report["result"] = _stringify_big(result)
        report["checks"] = _stringify_big(checks)
        failed = [c["name"] for c in checks if not c["passed"]]
        if failed:
            report["failed_checks"] = failed
        _emit(report, started, args.pretty)
        if failed and not args.allow_failed_checks:
            return 1
        return 0
    except ParseError as e:
        print(f"mm: input parse error: {e}", file=sys.stderr)
        return 2
    except UsageError as e:
        print(f"mm: {e}", file=sys.stderr)
        return 2
    finally:
        if previous_budget is not None:
            set_pair_budget(previous_budget)


def _emit(report: dict, started: float, pretty: bool) -> None:
    report["timing"] = {"seconds": round(time.monotonic() - started, 6)}
    if pretty:
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    print(text)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
