"""Command line front end: learn, decompose, measure, generate, verify.

Run records are single JSON lines so experiment tables aggregate with
standard tooling.  Exit codes: 0 ok, 1 input error or failed verification,
2 degree too small, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from pathlib import Path

from .boolfn import (
    ComposedTarget,
    XorHypothesis,
    nested_disjoint_violation,
    strict_decompose,
)
from .consistent import LabeledSample, consistent
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
from .fileio import function_to_doc, load_function
from .lattice import CubeLattice, Lattice, load_lattice
from .learner import EquivalenceOracle, MembershipOracle, counterexample_bound, learn

DEFAULT_MAX_N = 22


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
        default=None,
        help=f"refuse exhaustive work beyond this cube size (default {DEFAULT_MAX_N}, "
        "env DMONO_MAX_N)",
    )
    if out:
        parser.add_argument("--out", type=Path, default=None, help="output path")


def _resolved_max_n(args) -> int:
    if args.max_n is not None:
        return args.max_n
    env = os.environ.get("DMONO_MAX_N")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DmonoError(f"DMONO_MAX_N={env!r} is not an integer") from None
    return DEFAULT_MAX_N


def _check_cap(lattice: Lattice, max_n: int) -> None:
    """Refuse (exit 3) a lattice of more than 2^max_n elements.

    A cube is checked by its dimension and never reads its size, so one
    too large to work on is refused before anything of its size exists.
    """
    cap = 1 << max_n  # raises ValueError (exit 1) on a negative max_n
    if isinstance(lattice, CubeLattice):
        # 2^n in decimal can pass the interpreter's digit limit for int-to-str
        fits, count = lattice.n <= max_n, f"2^{lattice.n}"
    else:
        fits, count = lattice.size <= cap, lattice.size
    if fits:
        return
    raise SizeCapExceededError(
        f"{lattice.describe()} has {count} elements; exhaustive work is "
        f"capped at 2^{max_n} (raise with --max-n or DMONO_MAX_N)"
    )


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


def _names(lattice: Lattice, elems) -> list[str]:
    return [lattice.element_name(a) for a in elems]


def cmd_learn(args) -> int:
    target, _meta = load_function(args.target)
    lat = target.lattice
    _check_cap(lat, args.max_n)
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
        "x0": _names(lat, stats.x0),
        "x1": _names(lat, stats.x1),
        "hypothesis": function_to_doc(hypothesis),
        "wall_ms": round(wall * 1000, 3),
        "rebuild_ms": round(stats.rebuild_seconds * 1000, 3),
    }
    if args.trace:
        record["trace"] = [
            {
                "counterexample": lat.element_name(entry["counterexample"]),
                "settled": lat.element_name(entry["settled"]),
                "label": entry["label"],
                "steps": entry["steps"],
                "inspections": entry["inspections"],
            }
            for entry in stats.trace
        ]
    _emit(record, args)
    return 0


def cmd_consistent(args) -> int:
    lat = _load_lattice_spec(args.lattice, args.max_n)
    x0 = frozenset(lat.parse_element(nm) for nm in args.x0 or [])
    x1 = frozenset(lat.parse_element(nm) for nm in args.x1 or [])
    hypothesis = consistent(args.d, LabeledSample(lat, x0, x1))
    record = {
        "command": "consistent",
        "lattice": lat.describe(),
        "d": args.d,
        "x0": sorted(_names(lat, x0)),
        "x1": sorted(_names(lat, x1)),
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
    xor = strict_decompose(target)
    wall = time.perf_counter() - started
    record = {
        "command": "decompose",
        "target": str(args.target),
        "lattice": lat.describe(),
        "degree": len(xor.levels),
        "level_sizes": [lv.size for lv in xor.levels],
        "size_xor_m": xor.size,
        "roundtrip_ok": xor.dense().mask == target.dense().mask,
        "levels": [_names(lat, lv.minimals) for lv in xor.levels],
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
        target = takimoto_family(args.d, args.t, uneven=args.uneven)
        meta = {"family": "takimoto", "d": args.d, "t": args.t}
        if args.uneven:
            meta["uneven"] = True
    else:
        if args.sizes is None or args.n is None:
            raise DmonoError("random needs --sizes and -n")
        sizes = [int(tok) for tok in args.sizes.split(",")]
        _check_cap(CubeLattice(random_dimension(args.d, sizes, args.n)), args.max_n)
        target = random_composed(args.d, sizes, args.n, args.seed)
        meta = {"family": "random", "d": args.d, "sizes": sizes, "n": args.n, "seed": args.seed}
    doc_text = json.dumps(function_to_doc(target, meta), indent=2) + "\n"
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


def _verify_checks(target, meta, against) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    xor = strict_decompose(target)
    checks.append(
        ("decompose-roundtrip", xor.dense().mask == target.dense().mask, "")
    )
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
        d, t = meta["d"], meta["t"]
        expected = (t + 1) ** d - 1
        checks.append(
            ("tightness-size", xor.size == expected, f"{xor.size} != {expected}")
        )
        checks.append(
            (
                "tightness-levels",
                list(xor.levels) == list(prefix_levels(d, t).levels),
                "decomposition differs from the expected prefix levels",
            )
        )
    elif family == "takimoto":
        blocks = takimoto_blocks(target)
        count = 1
        for blk in blocks:
            count *= len(blk)
        checks.append(
            ("separation-size", xor.size >= count, f"{xor.size} < {count}")
        )
        witnesses_ok = all(
            chain_witness_check(target, picks, levels=xor)
            for picks in itertools.product(*(range(len(blk)) for blk in blocks))
        )
        checks.append(("chain-witnesses", witnesses_ok, "a chain witness missed its level"))
    if against is not None:
        other, _ = load_function(against)
        same = (
            other.lattice == target.lattice
            and other.dense().mask == target.dense().mask
        )
        checks.append(("pointwise-equal", same, f"differs from {against}"))
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
    all_ok = True
    for path in paths:
        target, meta = load_function(path)
        _check_cap(target.lattice, args.max_n)
        for name, ok, detail in _verify_checks(target, meta, args.against):
            all_ok &= ok
            suffix = "" if ok or not detail else f" ({detail})"
            print(f"{'PASS' if ok else 'FAIL'} {path} {name}{suffix}")
    return 0 if all_ok else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="dmono", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("learn", parents=[], help="exactly learn a target from a file")
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
    p.add_argument("--sizes", default=None, help="comma list of inner sizes (random)")
    p.add_argument("--uneven", action="store_true", help="decreasing block widths (takimoto)")
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
        args.max_n = _resolved_max_n(args)
        return args.func(args)
    except SizeCapExceededError as exc:
        print(f"dmono: {exc}", file=sys.stderr)
        return 3
    except DegreeTooSmallError as exc:
        print(f"dmono: {exc}", file=sys.stderr)
        print(f"dmono: retry with -d {exc.degree + 1}", file=sys.stderr)
        return 2
    except InconsistentSampleError as exc:
        print(f"dmono: {exc}", file=sys.stderr)
        return 2
    except (DmonoError, OSError, ValueError) as exc:
        print(f"dmono: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
