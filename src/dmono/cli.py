"""Command line front end: learn, decompose, measure, generate, verify.

Run records are single JSON lines so experiment tables aggregate with
standard tooling.  Exit codes: 0 ok, 1 input error or failed verification,
2 degree too small, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from .boolfn import (
    ComposedTarget,
    DenseFunction,
    MonotoneDNF,
    XorHypothesis,
    nested_disjoint_violation,
    strict_decompose,
)
from .consistent import DenseState, consistent
from .errors import (
    DegreeTooSmallError,
    DmonoError,
    InconsistentSampleError,
    SizeCapExceededError,
)
from .families import (
    chain_witness_check,
    prefix_levels,
    random_composed,
    random_dimension,
    takimoto_blocks,
    takimoto_dimension,
    takimoto_family,
    tightness_dimension,
    tightness_family,
)
from .fileio import dumps_function, function_to_doc, load_function, load_lattice
from .lattice import DEFAULT_MAX_N, CubeLattice, Lattice
from .learner import EquivalenceOracle, MembershipOracle, counterexample_bound, learn


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1); 2 is reserved for degree-too-small
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_flags(parser: argparse.ArgumentParser, seed=False, trace=False, out=True) -> None:
    """``--max-n`` on every subcommand; the other flags where the command reads them."""
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="randomness seed")
    if trace:
        parser.add_argument("--trace", action="store_true", help="include per-counterexample trace")
    parser.add_argument(
        "--max-n",
        type=int,
        default=DEFAULT_MAX_N,
        help="refuse exhaustive work beyond this cube size (default %(default)s)",
    )
    if out:
        parser.add_argument("--out", type=Path, default=None, help="output path")


def _int_list(text: str) -> list[int]:
    try:  # argparse makes the error a usage error naming the flag
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None


def _check_cap(lattice: Lattice, max_n: int) -> None:
    """Refuse (exit 3) a lattice of more than 2^max_n elements.

    A cube is checked by its dimension and never reads its size, so one
    too large to work on is refused before anything of its size exists.
    """
    if isinstance(lattice, CubeLattice):
        # 2^n in decimal can pass the interpreter's digit limit for int-to-str
        fits, count = lattice.n <= max_n, f"2^{lattice.n}"
    else:
        # size <= 2^max_n for every size >= 1, and no cap builds 2^max_n
        fits, count = (lattice.size - 1).bit_length() <= max_n, lattice.size
    if fits:
        return
    raise SizeCapExceededError(
        f"{lattice.describe()} has {count} elements; exhaustive work is "
        f"capped at 2^{max_n} (raise with --max-n)"
    )


def _check_degree(lattice: Lattice, d: int) -> None:
    """Refuse (exit 1) a ``-d`` outside 1..sigma+1.

    A chain descends from the top by at most sigma covers, so it has at
    most sigma+1 elements, and a function flips at most once per element.
    """
    limit = lattice.sigma() + 1
    if not 1 <= d <= limit:
        raise DmonoError(f"-d {d} is outside 1..{limit} (sigma + 1) for {lattice.describe()}")


def _load_lattice_spec(spec: str, max_n: int) -> Lattice:
    """The lattice of a ``cube:N`` spec or a lattice file, within the cap."""
    if spec.startswith("cube:"):
        try:
            lattice = CubeLattice(int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise DmonoError(f"bad cube spec {spec!r}: {exc}") from None
    else:
        lattice = load_lattice(spec)
    _check_cap(lattice, max_n)
    return lattice


def _emit(record: dict | int, args) -> None:
    # an int (sigma) is written as its JSON number, i.e. its decimal digits
    line = json.dumps(record, separators=(",", ":"))
    if args.out is not None:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    else:
        print(line)


def _padded_levels(h: DenseFunction, d: int) -> XorHypothesis:
    """h's strict decomposition, with empty levels appended up to d.

    A record written at degree d shows d levels, whatever h's own degree.
    """
    lat = h.lattice
    levels = strict_decompose(h).levels
    return XorHypothesis(lat, levels + (MonotoneDNF.from_mask(lat, 0),) * (d - len(levels)))


def cmd_learn(args) -> int:
    target, _meta = load_function(args.target)
    lat = target.lattice
    _check_cap(lat, args.max_n)
    _check_degree(lat, args.d)
    effective_d = args.d
    if isinstance(target, ComposedTarget) and target.outer_at_origin:
        effective_d = args.d + 1
    eq = EquivalenceOracle(target)
    mq = MembershipOracle.for_function(eq.table)
    started = time.perf_counter()
    hypothesis, stats = learn(effective_d, lat, mq, eq)
    wall = time.perf_counter() - started
    record = {
        "command": "learn",
        "target": str(args.target),
        "lattice": lat.describe(),
        "elements": lat.size,
        "d": args.d,
        "effective_d": effective_d,
        "seed": args.seed,
        "eq_used": stats.eq_used,
        "counterexamples": stats.counterexamples,
        "mq_used": stats.mq_used,
        "eq_bound": stats.eq_bound,
        "mq_bound": stats.mq_bound,
        "sigma": stats.sigma,
        "max_descent_inspections": stats.max_descent_inspections,
        "x0": lat.element_names(stats.x0),
        "x1": lat.element_names(stats.x1),
        "hypothesis": function_to_doc(_padded_levels(hypothesis, effective_d)),
        "wall_ms": round(wall * 1000, 3),
        "rebuild_ms": round(stats.rebuild_seconds * 1000, 3),
    }
    if args.trace:
        trace = stats.trace
        starts = lat.element_names([r.counterexample for r in trace])
        settled = lat.element_names([r.element for r in trace])
        record["trace"] = [
            {
                "counterexample": start,
                "settled": end,
                "label": r.value,
                "steps": r.steps,
                "inspections": r.inspections,
            }
            for r, start, end in zip(trace, starts, settled)
        ]
    _emit(record, args)
    return 0


def cmd_consistent(args) -> int:
    lat = _load_lattice_spec(args.lattice, args.max_n)
    _check_degree(lat, args.d)
    x0 = frozenset(lat.parse_element(nm) for nm in args.x0 or [])
    x1 = frozenset(lat.parse_element(nm) for nm in args.x1 or [])
    hypothesis = _padded_levels(consistent(args.d, DenseState(lat, x0, x1)), args.d)
    record = {
        "command": "consistent",
        "lattice": lat.describe(),
        "d": args.d,
        "x0": sorted(lat.element_names(x0)),
        "x1": sorted(lat.element_names(x1)),
        "level_sizes": [lv.size for lv in hypothesis.levels],
        "hypothesis": function_to_doc(hypothesis),
    }
    _emit(record, args)
    return 0


def cmd_decompose(args) -> int:
    target, _meta = load_function(args.target)
    lat = target.lattice
    _check_cap(lat, args.max_n)
    started = time.perf_counter()
    table = target.dense()
    xor = strict_decompose(table)
    wall = time.perf_counter() - started
    record = {
        "command": "decompose",
        "target": str(args.target),
        "lattice": lat.describe(),
        "degree": len(xor.levels),
        "level_sizes": [lv.size for lv in xor.levels],
        "size_xor_m": xor.size,
        "roundtrip_ok": xor.dense().mask == table.mask,
        "levels": [lat.element_names(lv.minimals) for lv in xor.levels],
        "wall_ms": round(wall * 1000, 3),
    }
    _emit(record, args)
    return 0


def cmd_degree(args) -> int:
    target, _meta = load_function(args.target)
    _check_cap(target.lattice, args.max_n)
    xor = strict_decompose(target)
    record = {
        "command": "degree",
        "target": str(args.target),
        "lattice": target.lattice.describe(),
        "degree": len(xor.levels),
        "size_xor_m": xor.size,
    }
    _emit(record, args)
    return 0


def cmd_sigma(args) -> int:
    _emit(_load_lattice_spec(args.lattice, args.max_n).sigma(), args)
    return 0


def cmd_family(args) -> int:
    if args.family != "random" and args.t is None:
        raise DmonoError(f"{args.family} needs -t")
    if args.family == "tightness":
        _check_cap(CubeLattice(tightness_dimension(args.d, args.t)), args.max_n)
        target = tightness_family(args.d, args.t)
        meta = {"family": "tightness", "d": args.d, "t": args.t}
    elif args.family == "takimoto":
        _check_cap(CubeLattice(takimoto_dimension(args.d, args.t)), args.max_n)
        target = takimoto_family(args.d, args.t)
        meta = {"family": "takimoto", "d": args.d, "t": args.t}
    else:
        if args.sizes is None or args.n is None:
            raise DmonoError("random needs --sizes and -n")
        sizes = args.sizes
        _check_cap(CubeLattice(random_dimension(args.d, sizes, args.n)), args.max_n)
        if args.d > args.max_n:
            raise SizeCapExceededError(
                f"-d {args.d} needs an outer table of 2^{args.d} entries; exhaustive "
                f"work is capped at 2^{args.max_n} (raise with --max-n)"
            )
        target = random_composed(args.d, sizes, args.n, args.seed)
        meta = {"family": "random", "d": args.d, "sizes": sizes, "n": args.n, "seed": args.seed}
    doc_text = dumps_function(target, meta)
    if args.out is not None:
        Path(args.out).write_text(doc_text)
        print(
            json.dumps(
                {"command": "family", "written": str(args.out), **meta},
                separators=(",", ":"),
            )
        )
    else:
        sys.stdout.write(doc_text)
    return 0


def _tightness_mismatch(lattice: Lattice, meta: dict) -> str | None:
    """Why a tightness meta cannot describe its target; checked before any prefix level."""
    for key in ("d", "t"):
        value = meta.get(key)
        if type(value) is not int or value < 1:
            return f"meta {key} is {json.dumps(value)}, not a positive int"
    n = tightness_dimension(meta["d"], meta["t"])
    if not (isinstance(lattice, CubeLattice) and lattice.n == n):
        return f"target lies on {lattice.describe()}, not cube:{n}"
    return None


def _verify_checks(target, meta, against) -> list[tuple[str, bool, str]]:
    """The checks of one target; ``against`` is None or (path, table) of the other file."""
    checks: list[tuple[str, bool, str]] = []
    table = target.dense()
    xor = strict_decompose(table)
    checks.append(("decompose-roundtrip", xor.dense().mask == table.mask, ""))
    violation = nested_disjoint_violation(xor)
    checks.append(("levels-strict", violation is None, violation or ""))
    if isinstance(target, ComposedTarget):
        limit = target.d + (1 if target.outer_at_origin else 0)
        checks.append(
            (
                "degree-bound",
                len(xor.levels) <= limit,
                f"degree {len(xor.levels)} exceeds {limit}",
            )
        )
        if not target.outer_at_origin:
            bound = counterexample_bound(target)
            s, d = target.size, target.d
            ok = xor.size <= bound and (xor.size + 1) * d**d <= (s + d) ** d
            checks.append(
                ("sms-bound", ok, f"size {xor.size} exceeds product bound {bound}")
            )
    if isinstance(target, XorHypothesis) and nested_disjoint_violation(target) is None:
        given = list(target.levels)
        while given and given[-1].size == 0:
            given.pop()
        checks.append(
            (
                "strict-recovery",
                list(xor.levels) == given,
                "decomposition differs from the given levels",
            )
        )
    family = meta.get("family")
    if family == "tightness":
        mismatch = _tightness_mismatch(target.lattice, meta)
        if mismatch is None:
            d, t = meta["d"], meta["t"]
            expected = (t + 1) ** d - 1
            size_ok, size_detail = xor.size == expected, f"{xor.size} != {expected}"
            levels_ok = list(xor.levels) == list(prefix_levels(d, t).levels)
            levels_detail = "decomposition differs from the expected prefix levels"
        else:
            size_ok = levels_ok = False
            size_detail = levels_detail = mismatch
        checks.append(("tightness-size", size_ok, size_detail))
        checks.append(("tightness-levels", levels_ok, levels_detail))
    elif family == "takimoto":
        try:
            if not isinstance(target, ComposedTarget):
                raise ValueError("target is not composed")
            blocks = takimoto_blocks(target)
        except ValueError as exc:
            size_ok = witnesses_ok = False
            size_detail = witnesses_detail = str(exc)
        else:
            count = math.prod(len(blk) for blk in blocks)
            size_ok, size_detail = xor.size >= count, f"{xor.size} < {count}"
            witnesses_ok = chain_witness_check(target, xor)
            witnesses_detail = "a chain witness missed its level"
        checks.append(("separation-size", size_ok, size_detail))
        checks.append(("chain-witnesses", witnesses_ok, witnesses_detail))
    if against is not None:
        other_path, other_table = against
        checks.append(("pointwise-equal", other_table == table, f"differs from {other_path}"))
    return checks


def cmd_verify(args) -> int:
    paths: list[Path] = []
    for raw in args.paths:
        p = Path(raw)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.json")))
        else:
            paths.append(p)
    if not paths:
        raise DmonoError("nothing to verify")
    against = None
    if args.against is not None:
        other, _ = load_function(args.against)
        _check_cap(other.lattice, args.max_n)
        against = (args.against, other.dense())
    all_ok = True
    for path in paths:
        try:
            target, meta = load_function(path)
        except DmonoError as exc:
            # what main reports with exit 1; the other files still run
            print(f"dmono: {exc}", file=sys.stderr)
            all_ok = False
            continue
        _check_cap(target.lattice, args.max_n)
        for name, ok, detail in _verify_checks(target, meta, against):
            all_ok &= ok
            suffix = "" if ok or not detail else f" ({detail})"
            print(f"{'PASS' if ok else 'FAIL'} {path} {name}{suffix}")
    return 0 if all_ok else 1


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process; parsing leaves no state on it."""
    parser = _Parser(prog="dmono", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("learn", help="exactly learn a target from a file")
    p.add_argument("target", type=Path)
    p.add_argument("-d", type=int, required=True, help="monotonicity degree to learn at")
    _add_flags(p, seed=True, trace=True)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("consistent", help="build a hypothesis fitting labeled points")
    p.add_argument("--lattice", required=True, help="cube:N or a lattice file")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--x0", action="append", metavar="ELEM", help="negative point (repeatable)")
    p.add_argument("--x1", action="append", metavar="ELEM", help="positive point (repeatable)")
    _add_flags(p)
    p.set_defaults(func=cmd_consistent)

    p = sub.add_parser("decompose", help="strict monotone decomposition of a target")
    p.add_argument("target", type=Path)
    _add_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("degree", help="monotonicity degree of a target")
    p.add_argument("target", type=Path)
    _add_flags(p)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("sigma", help="maximal predecessor sum of a lattice")
    p.add_argument("lattice", help="cube:N or a lattice file")
    _add_flags(p)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("family", help="generate a structured or random target")
    p.add_argument("family", choices=["tightness", "takimoto", "random"])
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-t", type=int, default=None, help="block width (tightness/takimoto)")
    p.add_argument("-n", type=int, default=None, help="cube dimension (random)")
    p.add_argument("--sizes", type=_int_list, help="comma list of inner sizes (random)")
    _add_flags(p, seed=True)
    p.set_defaults(func=cmd_family, seed=0)

    p = sub.add_parser("verify", help="re-run the property and bound suite on targets")
    p.add_argument("paths", nargs="+", help="target files or directories")
    p.add_argument("--against", type=Path, default=None, help="compare pointwise to this target")
    _add_flags(p, out=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 1
    try:
        if args.max_n < 0:
            raise DmonoError(f"--max-n {args.max_n} is negative")
        return args.func(args)
    except SizeCapExceededError as exc:
        print(f"dmono: {exc}", file=sys.stderr)
        return 3
    except DegreeTooSmallError as exc:
        print(f"dmono: {exc}", file=sys.stderr)
        # exc.degree is the effective degree, one above -d for a lifted target
        print(f"dmono: retry with -d {args.d + 1}", file=sys.stderr)
        return 2
    except InconsistentSampleError as exc:
        print(f"dmono: {exc}", file=sys.stderr)
        return 2
    except (DmonoError, OSError, ValueError) as exc:
        print(f"dmono: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
