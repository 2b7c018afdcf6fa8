"""One benchmark process: set up, run the CLI steps of a preset, report.

Run as ``python3 perfbench/worker.py --src SRC --preset P --out DIR
--result FILE [--setup-only] [--trace]``.  The process imports
``towerkit.cli`` from SRC and parses the preset's config, then prints
``ready`` so the parent can time set-up.  It then runs ``towerkit all`` for
the preset through ``cli.main`` with output in DIR, and writes each step's
time and exit code, its own peak RSS and, with ``--trace``, the per-function
spans to FILE, which lies outside DIR.

Untraced, a step after ``build`` that took under REPEAT_BELOW_S is then run
again in the same process, warm as it was inside ``all``, until the repeats
fill REPEAT_BELOW_S: one sample of a step that short is mostly noise.
``split`` and ``build`` are never repeated, because first-use costs such as
lazy imports land in them.
"""

import argparse
import json
import os
import resource
import sys
from time import perf_counter

REPEAT_BELOW_S = 1.0
MAX_REPEATS = 9
REPEATABLE = ("verify", "skyscraper")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--preset", required=True)
    ap.add_argument("--out")
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import towerkit.cli as cli
    src_pkg = os.path.join(os.path.realpath(args.src), "towerkit")
    if os.path.dirname(os.path.realpath(cli.__file__)) != src_pkg:
        sys.exit(f"towerkit imported from {cli.__file__}, not {src_pkg}")
    cfg = cli.load_config(None, args.preset, None, None, None)
    print("ready", flush=True)
    if args.setup_only:
        return

    steps = []
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    for name in ("split", "build", "verify", "skyscraper"):
        fn = getattr(cli, f"cmd_{name}")

        def timed(cfg, out, _fn=fn, _name=name):
            t0 = perf_counter()
            code = None
            try:
                code = _fn(cfg, out)
                return code
            finally:
                steps.append({"step": _name, "s": perf_counter() - t0,
                              "code": code})
        setattr(cli, f"cmd_{name}", timed)

    code = cli.main(["all", "--preset", args.preset, "--out", args.out])
    if code == cli.EXIT_OK and tracer is None:
        for first in [st for st in steps if st["step"] in REPEATABLE]:
            n = min(MAX_REPEATS, int(REPEAT_BELOW_S / first["s"]))
            for _ in range(n):
                getattr(cli, f"cmd_{first['step']}")(cfg, args.out)
    result = {
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        result["functions"] = tracer.summary()
        result["self_by_command"] = tracer.self_time_by_command()
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
