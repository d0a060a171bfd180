"""Mutation corpus: faults in the package that a named tier-1 selection must catch.

Each row of MUTANTS is a fault written as a text edit: a file of
src/covertower, a snippet that occurs in it exactly once, the snippet's
replacement and the pytest selection that must catch it.  A mutant is applied
to a temporary copy of src/, and its selection runs with -x and PYTHONPATH
set to that copy only.  It counts as caught only when pytest exits 1 (tests
failed): a pass, a collection error or an empty selection is a survivor.  A
snippet that does not occur exactly once also fails, so the corpus keeps up
with the code.

    python tests/mutants.py

runs every mutant, prints one line each and exits 1 unless all are caught.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "covertower"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/covertower
    snippet: str
    replacement: str
    selection: tuple[str, ...]  # pytest arguments, relative to the repository root


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "recount-crossing-test",
        "cheeger.py",
        "in_a[g.ends[:, 0]] != in_a[g.ends[:, 1]]",
        "in_a[g.ends[:, 0]] == in_a[g.ends[:, 1]]",
        ("tests/test_cheeger.py",),
    ),
    Mutant(
        # The tie classes no longer order the vertices: each row is swept in
        # vertex-id order, whatever its values.
        "sweep-order-ignores-values",
        "cheeger.py",
        "key = tie_class * n + by_value",
        "key = by_value",
        ("tests/test_cheeger.py::TestVectorizedSweep",),
    ),
    Mutant(
        "orbit-check-or",
        "covers.py",
        "lift[:, 1:] ^ sheet",
        "lift[:, 1:] | sheet",
        ("tests/test_covers.py",),
    ),
    Mutant(
        # Sheet-0 lifts are projected one bit too far.
        "projection-shift",
        "covers.py",
        "g.ends[::sheets] >> r != base.ends",
        "g.ends[::sheets] >> r + 1 != base.ends",
        ("tests/test_covers.py::TestVerifyRegularCover",),
    ),
    Mutant(
        # A cotree edge's lift at a sheet with its bit set stays on that sheet.
        "cover-flip-or",
        "covers.py",
        "np.bitwise_xor(ends[:, :, 0], flip[:, None],",
        "np.bitwise_or(ends[:, :, 0], flip[:, None],",
        ("tests/test_covers.py",),
    ),
    Mutant(
        # A loop's lift at a sheet with its bit set is written (a, a ^ flip),
        # head below tail, so those rows are not canonical.
        "cover-loop-rows-unsorted",
        "covers.py",
        "loop_flip = flip * (tail == head)",
        "loop_flip = flip * 0",
        ("tests/test_covers.py",),
    ),
    Mutant(
        # Every character flips the sign of cotree edge 0 only: the blocks
        # are no longer the deck group's.
        "block-signs",
        "spectrum.py",
        "sign[:, np.asarray(cotree, dtype=np.int64)] = 1 - 2 * flipped",
        "sign[:, np.asarray(cotree, dtype=np.int64)] = 1 - 2 * flipped[:, :1]",
        ("tests/test_spectrum.py::TestCharacterBlocks",),
    ),
    Mutant(
        # The zero run holds exact zeros only: every rounding residue is an eigenvalue.
        "lambda1-zero-tolerance",
        "spectrum.py",
        "tol = zero_tolerance(eigenvalues)",
        "tol = 0.0",
        ("tests/test_spectrum.py::TestFastPathsAgainstTheirPredecessors",),
    ),
    Mutant(
        # The sweep basis spans the eigenspace of 2 * lambda1, which is empty
        # or another eigenvalue's.
        "sweep-eigenspace-off-lambda1",
        "spectrum.py",
        "np.abs(block_w - lambda1)",
        "np.abs(block_w - 2 * lambda1)",
        ("tests/test_spectrum.py::TestFiedlerBasis",),
    ),
    Mutant(
        # The zero run stops before the entries equal to +tol.
        "zero-run-right-end-left",
        "spectrum.py",
        'np.searchsorted(eigenvalues, tol, side="right")',
        'np.searchsorted(eigenvalues, tol, side="left")',
        ("tests/test_spectrum.py::TestFastPathsAgainstTheirPredecessors",),
    ),
    Mutant(
        "count-texts-shift",
        "tower.py",
        "context.power(2, shift)",
        "context.power(2, shift - 1)",
        ("tests/test_tower.py::TestCountTexts",),
    ),
    Mutant(
        # The recount checks the claimed ratio only, not the crossing count.
        "witness-ratio-only",
        "cheeger.py",
        "(crossing, ratio) != (claim.crossing_edges, claim.ratio)",
        "ratio != claim.ratio",
        (
            "tests/test_cheeger.py::TestVerifyWitness"
            "::test_rejects_a_wrong_crossing_count_with_the_right_ratio",
        ),
    ),
    Mutant(
        # Among the tied minima, the search keeps the largest key.
        "tie-scan-largest-key",
        "cheeger.py",
        "i = int(np.argmin(keys))",
        "i = int(np.argmax(keys))",
        ("tests/test_cheeger.py::TestExactCheeger",),
    ),
    Mutant(
        # The whole vertex set, whose ratio is 0 / 0, stays a candidate.
        "whole-set-candidate",
        "cheeger.py",
        "scaled[-1, -1] = _NOT_A_CUT",
        "pass",
        ("tests/test_cheeger.py::TestExactCheeger",),
    ),
    Mutant(
        # The lexicographic key drops the prefix rank: ties are broken wrongly.
        "lex-key-no-prefix-rank",
        "cheeger.py",
        " + np.bitwise_count(masks)",
        "",
        ("tests/test_cheeger.py::TestExactCheeger",),
    ),
    Mutant(
        # The table's integer type is sized for -W, not -2W, so it can overflow.
        "table-holds-only-w",
        "cheeger.py",
        "np.min_scalar_type(-2 * (",
        "np.min_scalar_type(-1 * (",
        ("tests/test_cheeger.py::TestTableDtype",),
    ),
    Mutant(
        "lemma-claims-double-side",
        "cheeger.py",
        "cover.graph, in_a, cover.sheets, half, UPPER_BOUND",
        "cover.graph, in_a, cover.sheets, 2 * half, UPPER_BOUND",
        ("tests/test_cheeger.py::TestLemmaCut",),
    ),
    Mutant(
        # A cover of exactly the cap's size is refused, by z2_cover and by the
        # homology step before its walk.
        "cover-count-at-the-cap",
        "covers.py",
        "num_vertices << rank > vertex_cap",
        "num_vertices << rank >= vertex_cap",
        ("tests/test_cli.py::TestCoverCommand",),
    ),
    Mutant(
        # The homology step builds and checks a cover but never reads the check.
        "step-ignores-failures",
        "tower.py",
        "if failures:",
        "if False:",
        (
            "tests/test_cli.py::TestCoverVerification"
            "::test_irregular_tower_level_exit_2_without_artifact",
        ),
    ),
)


def snippet_count(mutant: Mutant) -> int:
    return (PACKAGE / mutant.file).read_text(encoding="utf-8").count(mutant.snippet)


def run(mutant: Mutant) -> str:
    """'caught', or why the mutant was not: a snippet mismatch or pytest's exit code."""
    count = snippet_count(mutant)
    if count != 1:
        return f"snippet occurs {count} times"
    with tempfile.TemporaryDirectory(prefix="covertower-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "covertower" / mutant.file
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        result = subprocess.run(
            [*argv, *mutant.selection],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    return "caught" if result.returncode == 1 else f"survived (pytest exit {result.returncode})"


def main() -> int:
    missed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        status = run(mutant)
        missed += status != "caught"
        print(f"{status:<28} {time.perf_counter() - start:5.1f} s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
