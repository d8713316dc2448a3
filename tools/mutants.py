"""Mutation check: each mutant of ``src/dmono`` must fail the tests named for it.

A mutant is one exact text replacement in a file under ``src/dmono/``,
with the reason it is a fault and the test files expected to kill it.
An unmutated copy of ``src/`` and ``tests/`` must first pass every named
test file.  Then each mutant runs in a fresh temporary copy: the
replacement is applied (its old text must occur exactly once), and
``python -m pytest -q -x -p no:cacheprovider <tests>`` runs with
``PYTHONPATH`` on the copy.  A mutant is killed when pytest fails.

Run from anywhere with the stdlib and pytest:

    python tools/mutants.py

Exits 0 when every mutant is killed, 1 when one survives, and 2 when the
check itself cannot run (a replacement that does not apply, an unmutated
copy failing its tests, or ``dmono`` imported from outside the copy).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/dmono
    old: str
    new: str
    reason: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "one-point-parity",
        "consistent.py",
        "rank = held + (label - held) % 2",
        "rank = held + label",
        "the one-point rank rule ignores the parity of the held count",
        ("tests/test_consistent.py",),
    ),
    Mutant(
        "one-point-fallback",
        "consistent.py",
        "if points & fresh:",
        "if False:",
        "the one-point join never falls back to the full rounds",
        ("tests/test_consistent.py",),
    ),
    Mutant(
        "fallback-drops-label",
        "consistent.py",
        "s1 = points & self.table | label << q",
        "s1 = points & self.table",
        "the full-rounds fallback labels the new point 0 whatever its label",
        ("tests/test_consistent.py",),
    ),
    Mutant(
        "negatives-xor-table",
        "consistent.py",
        "mask_elements(self.points & ~self.table)",
        "mask_elements(self.points ^ self.table)",
        "x0 reads the points XOR the table, which holds the table's ones off the sample",
        ("tests/test_consistent.py",),
    ),
    Mutant(
        "descent-positive-only",
        "learner.py",
        "if vb != hb:",
        "if vb != hb and vb:",
        "the descent moves only to positive disagreements",
        ("tests/test_learner.py",),
    ),
    Mutant(
        "cube-point-closure",
        "lattice.py",
        "return up << a",
        "return up",
        "the cube's shift-doubling single-point closure forgets its shift",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "explicit-first-cover",
        "lattice.py",
        "any(up >> b & 1 for b in preds[a])",
        "any(up >> b & 1 for b in preds[a][:1])",
        "explicit up_and_minimal tests only the first lower cover",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "explicit-transitive-cover",
        "lattice.py",
        "mask_elements(full & ~above) if len(s) > 1 else s",
        "sorted(set(s))",
        "explicit validation keeps a transitive cover line as a cover",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "explicit-join-no-bottom",
        "lattice.py",
        "for group in (roots, *up_covers):",
        "for group in up_covers:",
        "the join sweep skips the implicit bottom's group of upper covers",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "explicit-sigma-steps",
        "lattice.py",
        "best[a] = len(p) + max(",
        "best[a] = 1 + max(",
        "sigma adds 1 per step instead of the number of lower covers",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "explicit-self-cover",
        "lattice.py",
        "if lo == hi:",
        "if False:",
        "explicit validation accepts a cover of an element by itself",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "parse-unknown-name",
        "lattice.py",
        "if lo not in names or hi not in names:",
        "if False:",
        "the lattice-file parser drops its line-numbered unknown-name check",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "built-once-shared",
        "boolfn.py",
        'table = self.__dict__.get("_dense")\n'
        "        if table is None:\n"
        '            table = self.__dict__["_dense"] = build(self)',
        'table = getattr(dense, "_dense", None)\n'
        "        if table is None:\n"
        "            table = dense._dense = build(self)",
        "_built_once caches on the function, so instances share a stale table",
        ("tests/test_boolfn.py",),
    ),
    Mutant(
        "mask-bit",
        "lattice.py",
        "return 1 if mask & (1 << i) else 0",
        "return 1 if mask & (2 << i) else 0",
        "mask_bit's AND branch reads bit i + 1",
        ("tests/test_lattice.py", "tests/test_learner.py"),
    ),
    Mutant(
        "cube-fused-last-pass",
        "lattice.py",
        "above |= step",
        "above = step",
        "the cube's fused up_and_minimal keeps only the last pass's points above the mask",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "cube-preds-low-first",
        "lattice.py",
        "rest ^= (bit := 1 << rest.bit_length() - 1)",
        "rest ^= (bit := rest & -rest)",
        "the cube's immediate predecessors come out in descending order",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "cube-point-one-clear",
        "lattice.py",
        "out |= clear[j]",
        "out = clear[j]",
        "the cube's clear-mask point closure keeps only its last coordinate's mask",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "cube-sweep-unfiltered",
        "lattice.py",
        "mask |= (mask & zeros) << (1 << j)",
        "mask |= mask << (1 << j)",
        "the cube's closure sweep also shifts points whose coordinate is already 1",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "teacher-highest",
        "learner.py",
        "return (diff ^ (diff - 1)).bit_length() - 1",
        "return diff.bit_length() - 1",
        "the equivalence oracle answers the highest disagreeing id, not the lowest",
        ("tests/test_learner.py",),
    ),
    Mutant(
        "composed-normal-form-or",
        "boolfn.py",
        "anf ^= (anf & zeros) << (1 << i)",
        "anf |= (anf & zeros) << (1 << i)",
        "composed dense() ORs outer's table up the d-cube instead of taking its normal form",
        ("tests/test_boolfn.py",),
    ),
    Mutant(
        "decompose-files-reach",
        "boolfn.py",
        "yield up, low",
        "yield up, up",
        "the rounds file a round's closure as its minimal elements",
        ("tests/test_boolfn.py",),
    ),
    Mutant(
        "rounds-positives-outside",
        "boolfn.py",
        "        s1 ^= points & up\n",
        "        s1 ^= points & ~up\n",
        "the rounds take the next positives outside the closure, not inside it",
        ("tests/test_boolfn.py", "tests/test_consistent.py"),
    ),
    Mutant(
        "explicit-id-bits-of-size",
        "lattice.py",
        "(n - 1).bit_length()",
        "n.bit_length()",
        "an explicit lattice states the bit length of its size, not of its largest id",
        ("tests/test_cli.py", "tests/test_fileio.py"),
    ),
    Mutant(
        "cube-size-text-decimal",
        "lattice.py",
        'f"2^{n}"',
        "str(1 << n)",
        "a cube prints its size in decimal, which past the digit limit cannot print",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "from-bits-length-bits",
        "boolfn.py",
        "(k - 1).bit_length() != lattice.id_bits",
        "k.bit_length() != lattice.id_bits",
        "from_bits compares the payload length's bit length, not its last index's",
        ("tests/test_boolfn.py", "tests/test_fileio.py"),
    ),
    Mutant(
        "parity-no-complement",
        "families.py",
        "table |= (table ^ ((1 << w) - 1)) << w",
        "table |= table << w",
        "the parity table's upper half copies its lower half instead of complementing it",
        ("tests/test_families.py",),
    ),
    Mutant(
        "prefix-levels-upward",
        "families.py",
        "for k in range(i + 1, 0, -1):",
        "for k in range(1, i + 2):",
        "prefix_levels walks k upward, so a block joins a row it has already joined",
        ("tests/test_families.py",),
    ),
    Mutant(
        "cube-names-unpadded",
        "lattice.py",
        'spec = f"0{self.n}b"',
        'spec = "b"',
        "cube element names drop their zero padding",
        ("tests/test_fileio.py",),
    ),
    Mutant(
        "witness-overlap",
        "families.py",
        "if heads & lv.mask != heads:",
        "if not heads & lv.mask:",
        "the chain witnesses test an overlap with a level instead of inclusion in it",
        ("tests/test_families.py",),
    ),
    Mutant(
        "witness-missing-level",
        "families.py",
        "    if len(levels.levels) < len(blocks):\n        return False\n",
        "",
        "the chain witnesses pass when blocks outnumber the levels",
        ("tests/test_families.py",),
    ),
    Mutant(
        "antichain-sweep-inverted",
        "boolfn.py",
        "return lattice.up_and_minimal(mask)[1] == mask",
        "return lattice.up_and_minimal(mask)[1] != mask",
        "the antichain sweep accepts exactly the sets that are not antichains",
        ("tests/test_boolfn.py",),
    ),
    Mutant(
        "decompose-roundtrip-true",
        "cli.py",
        '"roundtrip_ok": xor.dense().mask == table.mask,',
        '"roundtrip_ok": True,',
        "decompose's roundtrip_ok reads true whatever the levels XOR to",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "verify-roundtrip-one-level-short",
        "cli.py",
        'checks.append(("decompose-roundtrip", xor.dense().mask == table.mask, ""))',
        'checks.append(("decompose-roundtrip", '
        'XorHypothesis(xor.lattice, xor.levels[:-1]).dense().mask == table.mask, ""))',
        "verify's decompose-roundtrip check XORs one level too few",
        ("tests/test_cli.py",),
    ),
)


class CheckError(RuntimeError):
    """The mutation check cannot give a verdict."""


def copy_tree(root: Path) -> Path:
    """Copy the checkout's ``src/`` and ``tests/`` under ``root``; return the copy's src."""
    for part in ("src", "tests"):
        shutil.copytree(
            CHECKOUT / part, root / part, ignore=shutil.ignore_patterns("__pycache__")
        )
    return root / "src"


def apply(src: Path, mutant: Mutant) -> None:
    path = src / "dmono" / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise CheckError(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def environment(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # the copy's dmono must be the one imported, not an installed one
    found = subprocess.run(
        [sys.executable, "-c", "import dmono; print(dmono.__file__)"],
        cwd=src.parent, env=env, capture_output=True, text=True,
    )
    where = Path(found.stdout.strip()).resolve().parent if found.returncode == 0 else None
    if where != (src / "dmono").resolve():
        raise CheckError(f"dmono imported from {found.stdout.strip() or found.stderr}, not from {src}")
    return env


def passes(src: Path, env: dict[str, str], tests: tuple[str, ...]) -> bool:
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=src.parent, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode == 0


def killed(mutant: Mutant | None, tests: tuple[str, ...]) -> bool:
    """Run ``tests`` on a fresh copy carrying ``mutant`` (None: unmutated); True if they fail."""
    with tempfile.TemporaryDirectory(prefix="dmono-mutant-") as tmp:
        src = copy_tree(Path(tmp))
        if mutant is not None:
            apply(src, mutant)
        return not passes(src, environment(src), tests)


def main() -> int:
    survivors = 0
    try:
        tests = tuple(sorted({t for m in MUTANTS for t in m.tests}))
        if killed(None, tests):
            raise CheckError(f"the unmutated copy fails {' '.join(tests)}")
        for mutant in MUTANTS:
            started = time.perf_counter()
            dead = killed(mutant, mutant.tests)
            survivors += not dead
            verdict = "killed  " if dead else "SURVIVED"
            print(f"{verdict} {mutant.name} ({time.perf_counter() - started:.1f} s): {mutant.reason}", flush=True)
    except CheckError as exc:
        print(f"error    {exc}", file=sys.stderr)
        return 2
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
