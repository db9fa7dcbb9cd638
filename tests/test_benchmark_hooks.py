"""The benchmark's tracer still attaches to the program it measures.

``perfbench/tracer.py`` wraps program entry points by name -- for
example ``SessionStream.fill_local``, ``BatchingExecutor._execute`` and
``protocol.values_payload``.  Renaming one of them breaks every traced
benchmark run, so this test installs the tracer on the program and
removes it again.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_tracer_installs_on_every_hook_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        patched = list(tracer._undo)
        assert patched
        for owner, attr, orig in patched:
            assert getattr(owner, attr) is not orig, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig, (owner, attr)
