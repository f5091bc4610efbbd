"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Details of the run go to
``perfbench/results/<workload>-seed<n>-trace<t>.json`` (and the spans of a
traced run to ``...-spans.jsonl``).  Exits 2 without a result when the
engine's sources are not there.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def process_age():
    """Seconds since this process started (from /proc), or 0 if unknown."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime", encoding="ascii") as handle:
            uptime = float(handle.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


AGE_AT_T0 = process_age()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END_UNITS = {"setup_s": "s", "cold_pass_s": "s", "pass_s": "s",
                    "peak_rss_mib": "MiB"}


def main(argv=None):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    from harness import measure
    from tracer import PER_LAYER, Tracer

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    ops = WORKLOADS[args.workload](ROOT, tracer, out_dir)
    random.Random(args.seed).shuffle(ops)
    setup_s = AGE_AT_T0 + time.perf_counter() - T0

    in_process = args.workload != "cli"
    if tracer is not None and in_process:
        tracer.install()
    run = measure(ops, args.seconds, tracer)
    if tracer is not None:
        tracer.restore()
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024

    stats = run.pop("stats")
    if args.trace:
        metrics = {name: {"value": run["per_layer"][name],
                          "unit": "count" if name.endswith("_calls") else "s"}
                   for name in PER_LAYER}
    else:
        values = {"setup_s": setup_s, "cold_pass_s": run["cold_pass_s"],
                  "pass_s": run["pass_s"], "peak_rss_mib": peak_rss_mib}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = dict(vars(args), operations=[op.name for op in ops],
                   setup_s=setup_s, peak_rss_mib=peak_rss_mib,
                   errors=stats.errors, wrong=stats.wrong, **run)
    (out_dir / f"{stem}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if tracer is not None:
        with open(out_dir / f"{stem}-spans.jsonl", "w",
                  encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")

    for line in stats.errors + stats.wrong:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": not stats.wrong,
                      "attempted": stats.attempted,
                      "failed": stats.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "wildcycle" / "__init__.py").is_file():
        print(f"perfbench: no engine sources at {ROOT / 'src' / 'wildcycle'}; "
              "run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
