"""Shared plumbing of the benchmark: paths, child processes, statistics,
process-tree and /dev/shm bookkeeping, host description.

Everything here is standard library only, so the benchmark's own process
(which is also the service workload's load generator) never imports the
program under test.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs")
#: Scratch space of a run (caches, checkpoints, server logs); removed at
#: the end of every run.
WORK_ROOT = os.path.join(HERE, ".work")
#: Per-run detail reports (host, percentiles, layer shares).
OUT_DIR = os.path.join(HERE, "out")

#: BLAS/OpenMP thread pins for every process the benchmark starts: on a
#: small shared host an over-subscribed BLAS pool is a noise source, and
#: the setting is recorded with the results.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Child processes are killed after this many seconds; a run must finish
#: within 180 s in total.
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """A run that cannot produce a result (missing program, dead child,
    leaked process or shared-memory segment)."""


def repo_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env(work: str) -> Dict[str, str]:
    """Environment of every program process: the source tree on the
    path, caches and temp files inside the run's scratch directory."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = os.path.join(work, "default-cache")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def prime_bytecode(env: Dict[str, str]) -> None:
    """Compile the program's modules before any set-up clock starts, so
    ``setup_s`` is the same whether ``__pycache__`` existed or not.  In
    a read-only tree this fails quietly and every process compiles in
    memory instead, which is just as repeatable."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "repro")],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )


def run_child(args: Dict, env: Dict[str, str], timeout: float) -> Dict:
    """Run ``child.py`` with ``args``; returns the JSON object it prints
    as its last stdout line.  The child is always reaped."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(args)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {args.get('role')} timed out") from None
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child {args.get('role')} exited with {proc.returncode}"
        )
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``percentile`` % of the sample at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, percentile: float) -> int:
    """Samples strictly above the nearest-rank ``percentile``."""
    return count - max(1, math.ceil(percentile / 100.0 * count))


def latency_summary(
    latencies_s: Sequence[float], tail_percentile: float
) -> Dict:
    """p50 and the workload's fixed tail percentile, with sample counts."""
    n = len(latencies_s)
    return {
        "n": n,
        "latency_p50_ms": median(latencies_s) * 1e3,
        "latency_tail_ms": nearest_rank(latencies_s, tail_percentile) * 1e3,
        "tail_percentile": tail_percentile,
        "tail_beyond": beyond(n, tail_percentile),
    }


# ---------------------------------------------------------------------------
# processes and shared memory
# ---------------------------------------------------------------------------
def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # comm may contain spaces; fields resume after the last ')'
    return text[text.rfind(")") + 2 :].split()


def process_identity(pid: int) -> Optional[str]:
    """``pid:starttime`` — survives pid reuse checks."""
    fields = _stat_fields(pid)
    return f"{pid}:{fields[19]}" if fields else None


def descendants(root: int) -> List[int]:
    """Every live process below ``root`` (breadth-first, via /proc)."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields:
            parents.setdefault(int(fields[1]), []).append(int(entry))
    found: List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in parents.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def alive(identities: Iterable[str]) -> List[str]:
    """The identities (``pid:starttime``) that still name a live,
    non-zombie process."""
    out = []
    for identity in identities:
        pid = int(identity.split(":", 1)[0])
        fields = _stat_fields(pid)
        if fields and fields[0] != "Z" and f"{pid}:{fields[19]}" == identity:
            out.append(identity)
    return out


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the per-process RSS high-water marks (VmHWM)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def wait_gone(identities: Iterable[str], timeout: float) -> List[str]:
    deadline = time.monotonic() + timeout
    left = alive(identities)
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = alive(left)
    return left


# ---------------------------------------------------------------------------
# host description
# ---------------------------------------------------------------------------
def host_info(load_threads: int, connections: int) -> Dict:
    info = {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "load_threads": load_threads,
        "load_connections": connections,
    }
    try:
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json, numpy; c = numpy.show_config(mode='dicts');"
                "b = c.get('Build Dependencies', {}).get('blas', {});"
                "print(json.dumps([numpy.__version__, b.get('name'),"
                " b.get('version')]))",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        ).stdout
        numpy_version, blas, blas_version = json.loads(out)
        info.update(numpy=numpy_version, blas=f"{blas} {blas_version}")
    except Exception:  # numpy missing or too old to report its BLAS
        info.update(numpy=None, blas=None)
    return info


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs
    right now, recorded beside the results (shared hosts drift)."""
    times = []
    for _ in range(7):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        times.append(time.perf_counter() - started)
    return median(times) * 1e3


def fresh_work_dir(tag: str) -> str:
    """The run's scratch directory, emptied first.  Its name is the same
    in every run: path strings land in the program's heap, and the
    campaign process's peak RSS flips between 76 and 85 MB with the
    allocation history (glibc's dynamic mmap threshold), even with the
    length of this path."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = os.path.join(WORK_ROOT, tag)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
