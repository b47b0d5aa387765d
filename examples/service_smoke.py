"""Smoke test for ``repro-rsn serve``: a real subprocess, a real socket.

Boots the daemon via the CLI (the same code path a user runs), uploads a
design over HTTP, runs an analyze job through :class:`ServiceClient`,
and asserts the result is bit-identical to the direct in-process
analysis.  Then exercises the coalesced ``/damage`` endpoint and the
graceful SIGTERM shutdown.  It does all of that twice: once with
``--workers 0`` (batches solved in the server process) and once with
the default sharded worker pool.  Used by ``make serve-smoke`` and CI.
"""

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis import GraphDamageAnalysis, analyze_damage  # noqa: E402
from repro.analysis.faults import iter_all_faults  # noqa: E402
from repro.bench import build_design  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.spec import spec_for_network  # noqa: E402


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


#: (label, extra serve arguments) — every mode gets the full smoke.
MODES = (
    ("in-process", ["--workers", "0"]),
    ("sharded", []),
)


def smoke(label, extra_args) -> None:
    print(f"== {label} (serve {' '.join(extra_args) or 'defaults'})")
    port = free_port()
    cache_dir = tempfile.mkdtemp(prefix="rsn-service-smoke-")
    env = {**os.environ}
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(port),
            "--cache-dir",
            cache_dir,
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=120.0)
    try:
        health = client.wait_ready(timeout=30.0)
        print(f"server up: version {health['version']}")

        entry = client.upload_network(design="TreeFlat")
        fingerprint = entry["fingerprint"]
        print(f"uploaded TreeFlat: {fingerprint[:16]}...")

        record = client.analyze(fingerprint, seed=0)
        via_http = record["result"]["report"]

        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        direct = analyze_damage(network, spec)
        assert via_http["primitive_damage"] == direct.primitive_damage, (
            "HTTP analyze diverged from direct analysis"
        )
        assert via_http["total"] == direct.total
        print(
            f"analyze parity OK: {len(direct.primitive_damage)} "
            f"primitives, total damage {direct.total:.6f}"
        )

        faults = list(iter_all_faults(network))[:8]
        damages = client.damage(fingerprint, faults)
        graph = GraphDamageAnalysis(network, spec, policy="max")
        expected = [graph.damage_of_fault(fault) for fault in faults]
        assert damages == expected, "coalesced /damage diverged"
        print(f"/damage parity OK over {len(faults)} faults")

        assert "repro_jobs_total" in client.metrics()
        print("/metrics OK")
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        output = server.stdout.read() if server.stdout else ""
        if output.strip():
            print("--- server log ---")
            print(output.strip())
    assert server.returncode == 0, (
        f"server exited with {server.returncode} after SIGTERM"
    )
    print("graceful shutdown OK")


def main() -> int:
    for label, extra_args in MODES:
        smoke(label, extra_args)
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    start = time.time()
    code = main()
    print(f"({time.time() - start:.1f}s)")
    sys.exit(code)
