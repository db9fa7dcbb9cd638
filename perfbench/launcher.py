"""Server process of the serve workloads: ``repro serve`` itself.

Runs the program's own ``repro serve`` entry point in this process, so
the server gets exactly the ``ServeConfig`` that command builds from its
defaults (port 0, i.e. ephemeral, printed on stderr).  SIGTERM drains
it.  With ``--trace-out`` the span wrappers go in and the program's
metrics registry is switched on before the server starts, and both are
written to that file once it has stopped.  Nothing of the benchmark's is
imported before the server runs untraced, so ``setup_s`` times the
program's own start alone.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--engine-shards", type=int, default=0)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)

    tracer = registry = None
    if args.trace_out:
        from repro.obs import metrics

        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        registry = metrics.enable()

    from repro.cli import main as repro_main

    rc = repro_main([
        "serve", "--port", "0", "--seed", str(args.seed),
        "--engine-shards", str(args.engine_shards),
    ])
    if tracer is not None:
        import pathlib

        import common

        common.dump_json(
            pathlib.Path(args.trace_out),
            {"spans": tracer.dump(), "registry": registry.snapshot()},
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
