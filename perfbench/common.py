"""Shared plumbing: checkout paths, child processes, /proc, provenance.

The processes under test import this module only after their first
delivered result, so its own imports never count towards ``setup_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

#: The benchmark's own directory and the checkout root that holds it.
BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Scratch space for hand-offs between the benchmark's processes.  It
#: lives inside the checkout and is ignored by git.
WORK_DIR = ROOT / ".perfbench"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing program, broken child)."""


def require_program() -> None:
    """Fail unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources under {SRC}: run from a full checkout"
        )


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    parts = [str(SRC), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def use_program_sources() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir(workload: str, seed: int) -> pathlib.Path:
    """A fresh hand-off directory for one benchmark run."""
    path = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def clear_work_dir(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK_DIR.rmdir()  # only once no other run is using it


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

def spawn(argv: List[str], **kwargs) -> subprocess.Popen:
    """Start a child in its own process group, rooted at the checkout.

    The group lets :func:`stop_group` find and end everything the child
    started (engine workers, the shared-memory resource tracker), even
    if the child itself dies first.
    """
    return subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), start_new_session=True, **kwargs
    )


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


@contextlib.contextmanager
def deadline(proc: subprocess.Popen, seconds: float):
    """Kill ``proc``'s process group if the block outlives ``seconds``."""
    timer = threading.Timer(seconds, _kill_group, args=(proc.pid,))
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            out.append(int(entry))
    return out


def stop_group(proc: subprocess.Popen, grace_s: float = 5.0) -> None:
    """Wait for ``proc`` and every process of its group to end.

    Stragglers get ``grace_s`` to exit on their own (the resource
    tracker leaves once its parent is gone), then are killed.
    """
    if proc.poll() is None:
        _kill_group(proc.pid)
    proc.wait()
    give_up = time.monotonic() + grace_s
    while group_members(proc.pid):
        if time.monotonic() > give_up:
            _kill_group(proc.pid)
            if time.monotonic() > give_up + grace_s:
                raise BenchError(f"process group {proc.pid} will not exit")
        time.sleep(0.02)


# ----------------------------------------------------------------------
# /proc readings (Linux)
# ----------------------------------------------------------------------

def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_status_kb(pid: int, key: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` such as VmHWM or VmRSS."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise BenchError(f"/proc/{pid}/status has no {key}")


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (children, grandchildren, ...)."""
    out: List[int] = []
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except FileNotFoundError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def tree_cpu_s(pid: int) -> Dict[int, float]:
    """CPU seconds of ``pid`` and each live descendant, by pid."""
    out = {}
    for p in [pid] + descendants(pid):
        try:
            out[p] = proc_cpu_s(p)
        except FileNotFoundError:
            pass
    return out


def tree_hwm_kb(pid: int) -> int:
    """Peak RSS (VmHWM) summed over ``pid`` and its live descendants."""
    total = 0
    for p in [pid] + descendants(pid):
        try:
            total += proc_status_kb(p, "VmHWM")
        except FileNotFoundError:
            pass
    return total


def host_cpu_jiffies() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (user .. steal)."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:9]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of the host's CPU time taken by the hypervisor in between."""
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def cpu_delta(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU spent between two :func:`tree_cpu_s` readings.

    A process born in between counts from zero; one that died in between
    is lost, which the benchmark avoids by reading before any shutdown.
    """
    return sum(after[p] - before.get(p, 0.0) for p in after)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def _git_sha() -> Optional[str]:
    """HEAD of the checkout, or ``None`` when it is not a git work tree
    of its own (an exported checkout inside another repository)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2:
        return None
    if pathlib.Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> dict:
    """Where and on what a result was measured.

    Reuses the repository's own ``benchmarks/common.host_env`` for the
    backend, core count and BLAS width, so both harnesses describe a
    host the same way.
    """
    use_program_sources()
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    import numpy

    from benchmarks.common import host_env

    env = host_env()
    return {
        "git_sha": _git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": env["backend"],
        "blas_threads": env["blas_threads"],
        "seed": seed,
    }


def dump_json(path: pathlib.Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc))
    tmp.replace(path)
