"""The benchmark's traced mode still attributes a served check.

``perfbench/server_proc.py --trace`` wraps the admission server's layers
by name (``perfbench/layers.py::install_service``).  A rename in the
service would not fail the benchmark: the wrapper would just never run
and its layer would read 0.  This test serves one check twice through
that process and asks for its span totals.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVER_PROC = os.path.join(ROOT, "perfbench", "server_proc.py")

#: Layers a served ``/v1/check`` must pass through.
LAYERS = (
    "service.parse",
    "service.encode",
    "admission.batch",
    "cache.get",
    "obs.trace",
)


def _exchange(sock: socket.socket, request: bytes) -> bytes:
    """Send one request; return its response body."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection"
        body += chunk
    return body


def _serve_two_checks(proc: subprocess.Popen) -> dict:
    """Send one check twice to a started ``server_proc``; return its
    ``stats`` answer after a clean stop."""
    port = json.loads(proc.stdout.readline())["port"]
    body = json.dumps({"period_s": 0.032, "payload_bits": 512.0}).encode()
    request = (
        f"POST /v1/check HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        answers = [json.loads(_exchange(sock, request)) for _ in range(2)]
    assert answers[0] == answers[1]
    assert answers[0]["admitted"] is True
    proc.stdin.write("stats\n")
    proc.stdin.flush()
    stats = json.loads(proc.stdout.readline())
    proc.stdin.write("stop\n")
    proc.stdin.flush()
    assert json.loads(proc.stdout.readline()) == {"stopped": True}
    assert proc.wait(timeout=30) == 0
    return stats


def test_traced_server_attributes_every_layer_of_a_check():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env = {k: v for k, v in env.items() if not k.startswith("REPRO_")}
    with subprocess.Popen(
        [sys.executable, SERVER_PROC, "--mode", "server", "--trace"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    ) as proc:
        try:
            stats = _serve_two_checks(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
    spans = stats["layers"]["spans"]
    for layer in LAYERS:
        assert spans.get(layer, {}).get("calls", 0) > 0, layer
        assert spans[layer]["inclusive_s"] > 0.0, layer
    # both checks went through the batcher, the second from the cache
    assert spans["admission.batch"]["calls"] == 2
    assert stats["metrics"]["cache.admission.hits"]["value"] >= 1
