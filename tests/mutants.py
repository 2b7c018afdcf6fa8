"""A kept mutation check of the certifying code.

Each entry of ``MUTANTS`` names a file of ``src/towerkit``, a text that
occurs exactly once in it, the text that replaces it, and the test files
(or tests in them, as pytest ids) that must fail on the mutated copy.  An
entry with an ``equivalent`` reason must survive instead: its mutant
behaves like the code, for that reason.  ``tests/test_source.py`` checks
that every old text still occurs exactly once, so a refactor that moves
the code fails tier-1 rather than silently dropping its mutant.

Run from the repository root, with the standard library and pytest only:

    python tests/mutants.py

For each entry it copies ``src/`` and ``tests/`` into a temporary
directory, makes the one replacement and runs the named test files there
with ``pytest -x``.  It prints each outcome and its time, and exits 1 when
a mutant that should be killed survives or an equivalent one is killed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str                       # under src/towerkit
    old: str                        # occurs exactly once in the file
    new: str
    tests: Tuple[str, ...]          # pytest ids under tests/
    equivalent: Optional[str] = None    # why it must survive


MUTANTS = [
    # Verdict: strict and non-strict comparisons swapped
    Mutant("lemma_engine.py",
           "holds = operator.lt if self.strict else operator.le",
           "holds = operator.le if self.strict else operator.lt",
           ("test_lemma_engine.py",)),
    # CdfVerdict: a count equal to its bound fails
    Mutant("tower.py", "n * bd > bn * t[:, None]",
           "n * bd >= bn * t[:, None]", ("test_tower.py",)),
    # _check_monotone_growth: a unit that stays the same is a decrease
    Mutant("tower.py", ">= wo.units * np.int64(r)",
           "> wo.units * np.int64(r)", ("test_tower.py",)),
    # a build stage's change mass may reach delta
    Mutant("tower.py", "change < d", "change <= d", ("test_tower.py",)),
    # GammaTable.eps interpolates one k late between anchors
    Mutant("lemma_engine.py", "(k - k0) / (k1 - k0)",
           "(k - k0 - 1) / (k1 - k0)", ("test_lemma_engine.py",)),
    # _tile's rescale guard lets units*f*h reach exactly 2^62
    Mutant("lemma_engine.py", "* f * h >= _INT64_SAFE",
           "* f * h > _INT64_SAFE", ("test_lemma_engine.py",)),
    # _transport: the target breakpoints of every row start at 0
    Mutant("distributions.py", " + per_entry(offs[:-1], atoms)", "",
           ("test_distributions.py::TestRowwiseTransport::"
            "test_one_transport_call_per_record",)),
    # count_below: a threshold equal to a value counts that value
    Mutant("distributions.py", "cut -= cut * bottom == top", "pass",
           ("test_distributions.py",)),
    # transport_distances: every record reads the first rows' norms
    Mutant("distributions.py", "norms[i:j]", "norms[:j - i]",
           ("test_distributions.py::TestRowwiseTransport::"
            "test_one_transport_call_per_record",)),
    # occupation_counts: a window ending on bump c does not cross it
    Mutant("skyscraper.py", "hit = ends >= c * s", "hit = ends > c * s",
           ("test_skyscraper.py::TestBumpKernel::"
            "test_run_tables_on_hostile_shapes",)),
    # occupation_counts: a window stuck before bump c + 1 may end on it
    Mutant("skyscraper.py", "last = (c + 1) * s - 1", "last = (c + 1) * s",
           ("test_skyscraper.py::TestBumpKernel::"
            "test_run_tables_on_hostile_shapes",)),
    # occupation_counts: no cut at the first row whose every entry hits
    # bump c, so those rows repeat the row before, where some do not
    Mutant("skyscraper.py", "c * s - lo,", "c * s - hi,",
           ("test_skyscraper.py::TestBumpKernel::"
            "test_run_tables_on_hostile_shapes",)),
    # occupation_sweep: the tail bound C*P(Y >= x) read as C*P(Y > x)
    Mutant("skyscraper.py", "(1 - y.cdf_below(x))", "(1 - y.cdf(x))",
           ("test_skyscraper.py::TestOccupation::"
            "test_witness_is_the_first_failing_x",)),
    # the doubling verdict without abs
    Mutant("tower.py", "np.abs(bf[len(top):] / bf[:len(top)] - 2)",
           "(bf[len(top):] / bf[:len(top)] - 2)", ("test_tower.py",),
           equivalent="gamma is nondecreasing, so b(2k)/b(k) >= 2 and the "
                      "gap is never below -doubling_tol"),
]


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns(
                            "__pycache__", ".hypothesis", ".pytest_cache"))


def pytest_env(tree: Path) -> dict:
    """The environment that imports towerkit from ``tree``'s copy."""
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def killed(m: Mutant) -> bool:
    """Whether the named tests fail on a copy with the mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / "src" / "towerkit" / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            raise SystemExit(f"{m.file}: {m.old!r} does not occur once")
        path.write_text(text.replace(m.old, m.new))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *(f"tests/{t}" for t in m.tests)],
            cwd=tree, env=pytest_env(tree), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        return run.returncode != 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        where = subprocess.run(
            [sys.executable, "-c",
             "import towerkit; print(towerkit.__file__)"],
            cwd=tree, env=pytest_env(tree), capture_output=True, text=True,
            check=True).stdout.strip()
        if not Path(where).resolve().is_relative_to(tree.resolve()):
            raise SystemExit(f"the copy imports towerkit from {where}")
    bad = 0
    for m in MUTANTS:
        start = time.monotonic()
        dead = killed(m)
        wrong = dead == (m.equivalent is not None)
        bad += wrong
        state = "killed" if dead else "survived"
        note = f" (equivalent: {m.equivalent})" if m.equivalent else ""
        print(f"{'FAIL ' if wrong else ''}{state} in "
              f"{time.monotonic() - start:.1f} s: {m.file}: {m.old!r} -> "
              f"{m.new!r}{note}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
