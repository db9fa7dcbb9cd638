"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout, checks what the program
delivered, and prints a provenance record and then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end
metric with ``--trace 0``, every per-layer metric (and the layer budget
as text) with ``--trace 1``.  Exits 2 without a result when the
benchmark itself cannot run, e.g. outside a full checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import signal
import sys

import common
import report

WORKLOADS = {
    "bulk-local": "bulk",
    "bulk-engine": "bulk",
    "serve-local": "serving",
    "serve-engine": "serving",
}


def _terminate(signum, frame):
    # Unwind through the ``finally`` blocks that stop every server and
    # child process group this run started.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="sizes the fixed work of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    jiffies = common.host_cpu_jiffies()
    try:
        common.require_program()
        common.use_program_sources()
        module = importlib.import_module(WORKLOADS[args.workload])
        res = module.run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2

    units = report.PER_LAYER if args.trace else report.END_TO_END
    values = {name: float(res["metrics"][name]) for name in units}
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        print(f"perfbench: error: non-finite metrics {bad}", file=sys.stderr)
        return 2
    correct = bool(res["correct"])
    errors = list(res["errors"])
    if args.trace:
        err = report.budget_error(values)
        if err > report.BUDGET_TOLERANCE:
            correct = False
            errors.append(f"layer budget off by {err:.2e} of the op time")
        print(res["text"])
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": common.provenance(args.seed),
        "samples": res["samples"],
        "work": res["work"],
        "errors": errors,
        # Other tenants' load moves every timing here; a run with much
        # steal is worth reading with that in mind.
        "host_steal_share": common.steal_share(
            jiffies, common.host_cpu_jiffies()
        ),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
