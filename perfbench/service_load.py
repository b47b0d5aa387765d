"""The ``service-damage`` workload: a real ``serve`` process tree under
closed-loop single-fault ``/damage`` load.

Standard library only: this process is the load generator and must not
share a heap (or CPU time) with the program under test.  Every server
gets a fresh cache directory and is stopped and reaped before the next
one starts; a process or ``/dev/shm`` segment it leaves behind fails the
run.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT,
    BenchError,
    descendants,
    peak_rss_mb,
    process_identity,
    wait_gone,
)

CONNECTIONS = 2
READY_TIMEOUT_S = 60.0
_URL = re.compile(r"url=http://([0-9.]+):(\d+)")


class Server:
    """One ``python -m repro.cli serve`` process tree with its defaults
    (2 workers, async front-end, 5 ms coalescing window)."""

    def __init__(self, work: str, env: Dict[str, str], tag: str, trace: bool):
        self.cache_dir = os.path.join(work, f"cache-{tag}")
        self.log_path = os.path.join(work, f"serve-{tag}.log")
        cmd = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--cache-dir",
            self.cache_dir,
        ]
        if trace:
            cmd.append("--trace")
        self._log = open(self.log_path, "w")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.tree: List[str] = []

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                match = _URL.search(handle.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError(f"server did not start; see {self.log_path}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def call(self, method: str, path: str, payload=None) -> Tuple[int, object]:
        conn = self.connect()
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            conn.request(
                method, path, body, {"Content-Type": "application/json"}
            )
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        kind = resp.getheader("Content-Type", "")
        return resp.status, (
            json.loads(data) if kind.startswith("application/json") else data.decode()
        )

    def snapshot_tree(self) -> float:
        """Remember every process of the tree; returns its peak RSS."""
        pids = [self.proc.pid] + descendants(self.proc.pid)
        self.tree = [i for i in map(process_identity, pids) if i]
        return peak_rss_mb(pids)

    def stop(self) -> List[str]:
        """SIGTERM, reap, and return the identities of tree processes
        still alive afterwards (each one a leak)."""
        if not self.tree:
            self.snapshot_tree()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=40)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()
        leaked = wait_gone(self.tree, timeout=10.0)
        for identity in leaked:
            try:
                os.kill(int(identity.split(":")[0]), signal.SIGKILL)
            except OSError:
                pass
        wait_gone(leaked, timeout=5.0)
        return leaked


class Universe:
    """Pre-encoded single-fault request bodies and expected answers."""

    def __init__(self, refs: Dict, fingerprint: str):
        self.bodies = [
            json.dumps({"fingerprint": fingerprint, "faults": [fault]}).encode()
            for fault in refs["faults"]
        ]
        self.expected = refs["damages"]

    def __len__(self) -> int:
        return len(self.bodies)


def start_and_verify(
    work: str, env: Dict[str, str], tag: str, refs: Dict, trace: bool
) -> Tuple[Server, Universe, float]:
    """Spawn a server, upload the design, get the first correct answer.
    Returns (server, request universe, set-up seconds)."""
    server = Server(work, env, tag, trace)
    try:
        server.wait_ready()
        status, entry = server.call(
            "POST", "/networks", {"design": refs["design"]}
        )
        if status != 201:
            raise BenchError(f"upload failed: {status} {entry}")
        universe = Universe(refs, entry["fingerprint"])
        conn = server.connect()
        ok, _ = request(conn, universe, 0, None)
        conn.close()
        setup_s = time.perf_counter() - server.spawned
        if not ok:
            raise BenchError("first /damage answer is wrong")
    except BaseException:
        server.stop()
        raise
    return server, universe, setup_s


def request(
    conn: http.client.HTTPConnection,
    universe: Universe,
    index: int,
    trace_id: Optional[str],
) -> Tuple[bool, float]:
    """One /damage round trip: (correct, latency seconds)."""
    headers = {"Content-Type": "application/json"}
    if trace_id:
        headers["X-Trace-Id"] = trace_id
    started = time.perf_counter()
    conn.request("POST", "/damage", universe.bodies[index], headers)
    resp = conn.getresponse()
    data = resp.read()
    latency = time.perf_counter() - started
    if resp.status != 200:
        return False, latency
    return json.loads(data).get("damages") == [universe.expected[index]], latency


def closed_loop(
    server: Server,
    universe: Universe,
    seed: int,
    seconds: float,
    trace_prefix: Optional[str] = None,
) -> Dict:
    """``CONNECTIONS`` keep-alive clients, each sending its next request
    when the previous answer arrives, for ``seconds``."""
    results: List[List[Tuple[bool, float, Optional[str], float]]] = [
        [] for _ in range(CONNECTIONS)
    ]
    start = threading.Barrier(CONNECTIONS + 1)
    clock: Dict[str, float] = {}

    def client(slot: int) -> None:
        rng = random.Random(seed * 1000 + slot)
        conn = server.connect()
        out = results[slot]
        start.wait()
        deadline = clock["start"] + seconds
        count = 0
        while time.perf_counter() < deadline:
            index = rng.randrange(len(universe))
            trace_id = (
                f"{trace_prefix}-{slot}-{count}" if trace_prefix else None
            )
            count += 1
            try:
                ok, latency = request(conn, universe, index, trace_id)
            except (OSError, http.client.HTTPException, ValueError):
                ok, latency = False, float("nan")
                conn.close()
                conn = server.connect()
            out.append((ok, latency, trace_id, time.perf_counter()))
        conn.close()

    threads = [
        threading.Thread(target=client, args=(slot,), daemon=True)
        for slot in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    clock["start"] = time.perf_counter()
    start.wait()
    for thread in threads:
        thread.join(timeout=seconds + 90)
    if any(thread.is_alive() for thread in threads):
        raise BenchError("load client hung")
    elapsed = time.perf_counter() - clock["start"]
    flat = [item for slot in results for item in slot]
    return {
        "elapsed_s": elapsed,
        "attempted": len(flat),
        "failed": sum(1 for ok, _, _, _ in flat if not ok),
        "latencies_s": [lat for ok, lat, _, _ in flat if ok],
        "timeline": sorted(
            (round(end - clock["start"], 4), round(lat * 1e3, 3))
            for ok, lat, _, end in flat
            if ok
        ),
        "traced": [(tid, lat) for ok, lat, tid, _ in flat if ok and tid],
    }


# ---------------------------------------------------------------------------
# /metrics and /trace readers
# ---------------------------------------------------------------------------
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)$")


def scrape(server: Server) -> Dict[Tuple[str, Tuple], float]:
    """The Prometheus text exposition as {(name, labels): value}."""
    status, text = server.call("GET", "/metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    samples = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if not match or line.startswith("#"):
            continue
        labels = tuple(
            sorted(re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', match.group(3) or ""))
        )
        samples[(match.group(1), labels)] = float(match.group(4))
    return samples


def delta(before: Dict, after: Dict, name: str, **labels) -> float:
    """Summed increase of every series of ``name`` matching ``labels``."""
    total = 0.0
    for (metric, series_labels), value in after.items():
        if metric != name:
            continue
        have = dict(series_labels)
        if any(have.get(k) != v for k, v in labels.items()):
            continue
        total += value - before.get((metric, series_labels), 0.0)
    return total


def histogram_mean(before: Dict, after: Dict, name: str, **labels) -> float:
    count = delta(before, after, f"{name}_count", **labels)
    return delta(before, after, f"{name}_sum", **labels) / count if count else 0.0


def queue_depth_max(server: Server, since_epoch: float) -> float:
    """Peak shard queue depth over the history sampler's points."""
    status, payload = server.call(
        "GET", "/metrics/history?name=repro_shard_queue_depth"
    )
    if status != 200:
        return 0.0
    peak = 0.0
    for series in payload.get("series", ()):
        for stamp, value in series.get("points", ()):
            if stamp >= since_epoch:
                peak = max(peak, float(value))
    return peak


def span_self_times(events: List[Dict]) -> Tuple[Dict[str, float], float]:
    """Per span name, the self time (ms) of one trace: a span's duration
    minus the part of it covered by any descendant span — descendants
    may run on other threads or processes.  Also returns the extent
    (ms) of the union of all spans."""
    spans = [e for e in events if e.get("ph") == "X"]
    by_id = {e["args"]["span_id"]: e for e in spans}
    children: Dict[str, List[Dict]] = {}
    for event in spans:
        parent = event["args"].get("parent_id")
        if parent in by_id:
            children.setdefault(parent, []).append(event)

    def subtree(span_id: str) -> List[Dict]:
        out, frontier = [], list(children.get(span_id, ()))
        while frontier:
            node = frontier.pop()
            out.append(node)
            frontier.extend(children.get(node["args"]["span_id"], ()))
        return out

    def covered(lo: float, hi: float, parts: List[Dict]) -> float:
        clipped = sorted(
            (max(lo, e["ts"]), min(hi, e["ts"] + e["dur"])) for e in parts
        )
        total, cursor = 0.0, lo
        for start, end in clipped:
            start = max(start, cursor)
            if end > start:
                total += end - start
                cursor = end
        return total

    selfs: Dict[str, float] = {}
    for event in spans:
        lo, hi = event["ts"], event["ts"] + event["dur"]
        own = event["dur"] - covered(lo, hi, subtree(event["args"]["span_id"]))
        selfs[event["name"]] = selfs.get(event["name"], 0.0) + own / 1e3
    if not spans:
        return selfs, 0.0
    lo = min(e["ts"] for e in spans)
    hi = max(e["ts"] + e["dur"] for e in spans)
    return selfs, covered(lo, hi, spans) / 1e3
