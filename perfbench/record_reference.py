"""Record the expected outputs of each workload into ``reference/``.

    python3 perfbench/record_reference.py [workload ...]

Runs each preset's pipeline once, untraced, and stores every step's exit
code and every output file, parsed, as ``reference/<workload>.json``.  The
references in the repository were recorded at commit 30d673f; record again
only when a change is meant to alter the outputs, and say why.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from run import BENCH, WORK, WORKLOADS, read_outputs, run_worker


def record(workload: str) -> None:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        _, result = run_worker(workload, work / "rep", perf_counter() + 900)
        ref = {
            "steps": {s["step"]: s["code"] for s in result["steps"]},
            "files": read_outputs(work / "rep" / "out"),
        }
    finally:
        shutil.rmtree(work)
    path = BENCH / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"{workload}: steps {ref['steps']}, {len(ref['files'])} files")


if __name__ == "__main__":
    for w in sys.argv[1:] or WORKLOADS:
        record(w)
