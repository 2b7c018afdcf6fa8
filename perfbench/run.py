"""The towerkit benchmark: time each CLI step of a preset and check outputs.

    for w in pareto1 example1; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 54 --trace 0
    done

Run from the root of a source checkout.  Each workload is a stock preset
run through ``split`` -> ``build`` -> ``verify`` -> ``skyscraper`` as
``towerkit all`` does, each time in a fresh single-threaded Python process
(``worker.py``) importing ``towerkit`` from ``src/``.  The presets take no
random input, so ``--seed`` is only recorded.  ``twopoint`` can be run
too, but is not in ``BENCHMARK.json``: on a shared 2-vCPU machine whose
speed swings by a third over tens of seconds, its 0.1 s ``skyscraper`` step
spread more than the bound allows between runs.

With ``--trace 0`` the run starts a few set-up-only processes, then repeats
the pipeline while the next one is expected to end within half a pipeline
of ``--seconds``, and reports the median of each
end-to-end metric in ``BENCHMARK.json``.  With ``--trace 1`` it spends half
of the time on untraced pipelines and the rest on pipelines whose towerkit
functions are wrapped by ``spans.Tracer``, and reports every per-layer
metric in ``BENCHMARK.json``.

Every pipeline writes to a fresh temporary ``--out`` under
``.perfbench_work/`` and is compared with ``reference/<workload>.json``,
recorded at commit 30d673f by ``record_reference.py``: exit codes and every
output file must match, floats to within 1e-12.  A step that exits with
another code or whose files differ counts as failed.  The last line of
standard output is one JSON object with ``correct``, ``attempted`` (the CLI
steps of every pipeline run), ``failed`` and ``metrics``.

``trajectory.json`` keeps the numbers measured at each commit, oldest first.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("pareto1", "example1", "twopoint")
SETUP_SAMPLES = 9
# A run must end within 180 s: no pipeline starts that would likely end
# after RUN_LIMIT_S, and any worker still running at DEADLINE_S is killed.
RUN_LIMIT_S = 150.0
DEADLINE_S = 170.0
FLOAT_TOL = 1e-12


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def step_of(fname: str) -> str:
    """The CLI step that writes an output file."""
    if fname == "split.json":
        return "split"
    if fname == "tower.json":
        return "build"
    if fname == "verify_report.json" or fname.startswith("skdist_"):
        return "verify"
    return "skyscraper"


def read_outputs(out: Path) -> dict:
    files = {}
    for p in sorted(out.iterdir()):
        if p.suffix == ".json":
            files[p.name] = json.loads(p.read_text())
        else:
            with open(p, newline="") as fh:
                files[p.name] = list(csv.reader(fh))
    return files


def _cell_equal(a: str, b: str) -> bool:
    if a == b:
        return True
    if not any(c in a + b for c in ".eE"):
        return False
    try:
        return abs(float(a) - float(b)) <= FLOAT_TOL
    except ValueError:
        return False


def same(ref, got) -> bool:
    """Exact equality, except that floats may differ by FLOAT_TOL."""
    if isinstance(ref, float) and isinstance(got, float):
        return ref == got or abs(ref - got) <= FLOAT_TOL
    if type(ref) is not type(got):
        return False
    if isinstance(ref, dict):
        return ref.keys() == got.keys() and all(
            same(ref[k], got[k]) for k in ref)
    if isinstance(ref, list):
        return len(ref) == len(got) and all(
            same(a, b) for a, b in zip(ref, got))
    if isinstance(ref, str):
        return _cell_equal(ref, got)
    return ref == got


def failed_steps(ref: dict, result: dict | None, out: Path) -> list:
    """Steps of the reference whose exit code or output files differ."""
    codes = {} if result is None else {
        s["step"]: s["code"] for s in result["steps"]}
    files = read_outputs(out) if out.is_dir() else {}
    failed = []
    for step, code in ref["steps"].items():
        want = {n: v for n, v in ref["files"].items() if step_of(n) == step}
        got = {n: v for n, v in files.items() if step_of(n) == step}
        if codes.get(step) != code or not same(want, got):
            failed.append(step)
    return failed


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_worker(workload: str, rep_dir: Path, deadline: float, *,
               setup_only: bool = False, trace: bool = False):
    """Start one worker process; return (set-up seconds, result).

    The result is None for a set-up-only worker and for a pipeline whose
    process crashed after set-up; its steps then count as failed.
    """
    rep_dir.mkdir(parents=True)
    out, result_path = rep_dir / "out", rep_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC),
           "--preset", workload, "--out", str(out),
           "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with open(rep_dir / "stderr.log", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(0.0, deadline - perf_counter()))
            line = proc.stdout.readline() if ready else b""
            setup_s = perf_counter() - t0
            code = proc.wait(timeout=max(0.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: worker ran past the time limit")
        finally:
            _kill(proc)
            proc.stdout.close()
    if line.strip() != b"ready" or code != 0:
        tail = (rep_dir / "stderr.log").read_text()[-2000:]
        if line.strip() != b"ready" or setup_only:
            raise BenchError(f"{workload}: set-up failed, exit {code}:\n{tail}")
        print(f"{workload}: pipeline crashed, exit {code}:\n{tail}",
              file=sys.stderr)
        return setup_s, None
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(result_path.read_text())


def pipeline_s(result: dict) -> float:
    """Wall time of the steps of ``towerkit all``, without set-up."""
    first = {}
    for st in result["steps"]:
        first.setdefault(st["step"], st["s"])
    return sum(first.values())


def e2e_metrics(results: list, setups: list) -> dict:
    """Medians over a run's pipelines; a step pools its warm repeats."""
    runs = {}
    for r in results:
        for st in r["steps"]:
            runs.setdefault(st["step"], []).append(st["s"])
    s = {step: statistics.median(v) for step, v in runs.items()}
    return {
        "pipeline_s": statistics.median(pipeline_s(r) for r in results),
        "build_s": s.get("split", 0.0) + s["build"],
        "verify_s": s["verify"],
        "skyscraper_s": s["skyscraper"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "setup_s": statistics.median(setups),
    }


FIELDS = ("calls", "s", "self_s", "errors", "elements", "rejected",
          "k_values")


def layer_value(name: str, fns: dict) -> float:
    """One per-layer metric, ``<layer>.<function>.<field>``, of one trace."""
    key, field = name.rsplit(".", 1)
    if field not in FIELDS and not field.startswith("under_"):
        raise BenchError(f"unknown per-layer field in {name!r}")
    if key == "tower.build":
        # every tower builder, build_rational_tower and its siblings
        rows = [r for f, r in fns.items() if f.startswith("tower.build_")]
        if field.startswith("under_"):
            cmd = "cli.cmd_" + field[len("under_"):-len("_s")]
            return sum(r["under"].get(cmd, 0.0) for r in rows)
        return sum(r[field] for r in rows)
    row = fns.get(key)
    if row is None:
        # a function that no longer exists, or never ran, did no work
        return 0
    return row.get(field, 0)


def trace_consistent(result: dict) -> bool:
    """Self times under each cli.cmd_* span add up to its inclusive time."""
    fns = result["functions"]
    for cmd, self_sum in result["self_by_command"].items():
        total = fns[cmd]["s"]
        if abs(self_sum - total) > 0.05 * total:
            return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    ref_path = BENCH / "reference" / f"{args.workload}.json"
    for need in (SRC / "towerkit" / "cli.py", spec_path, ref_path):
        if not need.is_file():
            raise BenchError(f"missing {need.relative_to(ROOT)}: run from a "
                             "towerkit source checkout")
    spec = json.loads(spec_path.read_text())
    ref = json.loads(ref_path.read_text())
    # the build: byte-compile the sources so no timed run compiles them
    if not compileall.compile_dir(str(SRC), quiet=1):
        raise BenchError("byte-compiling src/ failed")
    print(f"{args.workload}: seed {args.seed} (recorded only), "
          f"{args.seconds:g} s, trace {args.trace}", file=sys.stderr)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        start = perf_counter()
        deadline = start + DEADLINE_S
        n = 0

        def worker(**kw):
            nonlocal n
            n += 1
            return run_worker(args.workload, work / str(n), deadline, **kw)

        setups = [worker(setup_only=True)[0]
                  for _ in range(0 if args.trace else SETUP_SAMPLES)]
        plain, traced = [], []
        attempted = failed = 0
        consistent = True
        while True:
            # a traced run spends its first half on untraced pipelines
            trace = bool(args.trace and plain and
                         perf_counter() - start >= args.seconds / 2)
            t0 = perf_counter()
            setup_s, result = worker(trace=trace)
            dt = perf_counter() - t0
            setups.append(setup_s)
            bad = failed_steps(ref, result, work / str(n) / "out")
            attempted += len(ref["steps"])
            failed += len(bad)
            if bad:
                print(f"{args.workload}: steps differ from the reference: "
                      f"{bad}", file=sys.stderr)
            shutil.rmtree(work / str(n))
            if result is not None:
                (traced if trace else plain).append(result)
                if trace:
                    consistent &= trace_consistent(result)
            # stop when the next pipeline, as long as this one, would end
            # more than half a pipeline past --seconds
            elapsed = perf_counter() - start
            if elapsed + dt > RUN_LIMIT_S or (
                    elapsed + dt / 2 > args.seconds
                    and (traced or not args.trace)):
                break
        if not plain or (args.trace and not traced):
            raise BenchError(f"{args.workload}: no pipeline completed")

        metrics = {}
        if args.trace:
            fns = [r["functions"] for r in traced]
            overhead = (statistics.median(pipeline_s(r) for r in traced)
                        - statistics.median(pipeline_s(r) for r in plain))
            for m in spec["per_layer"]:
                if m["name"] == "trace.overhead_s":
                    v = overhead
                else:
                    values = [layer_value(m["name"], f) for f in fns]
                    v = statistics.median_low(values) \
                        if m["unit"] == "count" else statistics.median(values)
                metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        else:
            e2e = e2e_metrics(plain, setups)
            for m in spec["end_to_end"]:
                metrics[m["name"]] = {"value": e2e[m["name"]],
                                      "unit": m["unit"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced "
          f"pipelines, {len(setups)} set-ups", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and consistent,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
