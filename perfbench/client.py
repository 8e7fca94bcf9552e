"""The benchmark's own daemon driver: process control and load generation
over the unix-socket protocol (one JSON document per line, answered in
order on each connection)."""

from __future__ import annotations

import json
import os
import random
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from refkernel import Calibrator


class Conn:
    """One blocking unix-socket connection."""

    def __init__(self, path: str, timeout_s: float = 60.0) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout_s)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")

    def send(self, doc: dict) -> None:
        self.file.write(json.dumps(doc).encode() + b"\n")
        self.file.flush()

    def recv(self) -> dict:
        line = self.file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def call(self, doc: dict) -> dict:
        self.send(doc)
        return self.recv()

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak resident set size (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Daemon:
    """A ``repro serve`` process started through the benchmark launcher.

    ``setup_s`` is the time from spawn until the first ``ping`` is
    answered."""

    def __init__(self, root: Path, socket_path: str, jobs: int,
                 span_dir: Path | None = None, timeout_s: float = 60.0) -> None:
        env = dict(os.environ)
        env.pop("PERFBENCH_SPAN_DIR", None)
        if span_dir is not None:
            env["PERFBENCH_SPAN_DIR"] = str(span_dir)
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        self.socket_path = socket_path
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "perfbench/serve_daemon.py", "--socket",
             socket_path, "--jobs", str(jobs)],
            cwd=root, env=env, stdout=subprocess.DEVNULL,
        )
        try:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"daemon exited with {self.proc.returncode}")
                if time.perf_counter() - t0 > timeout_s:
                    raise RuntimeError("daemon did not answer ping")
                try:
                    conn = Conn(socket_path)
                except (FileNotFoundError, ConnectionRefusedError):
                    time.sleep(0.002)
                    continue
                try:
                    if conn.call({"op": "ping"}).get("ok"):
                        break
                finally:
                    conn.close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def stats(self) -> dict:
        """The daemon's ``stats`` control op."""
        conn = Conn(self.socket_path)
        try:
            return conn.call({"op": "stats"})["stats"]
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGINT (a clean shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def calibrated_ms(client_ms: float, responses: list[dict], factor: float) -> float:
    """A client-observed time at the nominal reference speed.

    Only the time the daemon reports spending on the requests
    (``server.duration_s``, computation) scales with the host's speed;
    the rest (transport, the daemon's batching window) is wall time and
    is kept as measured."""
    server_ms = sum(
        r["server"]["duration_s"] * 1e3
        for r in responses if isinstance(r.get("server"), dict)
    )
    server_ms = min(server_ms, client_ms)
    return client_ms - server_ms + server_ms * factor


def closed_loop(conn: Conn, docs, seconds: float, cal: Calibrator | None,
                min_requests: int = 1) -> list[dict]:
    """One request in flight; reference samples bracket each call.  Runs
    until ``seconds`` have passed and ``min_requests`` were sent; a dead
    or hung daemon ends the phase with the request recorded unanswered."""
    out = []
    end = time.perf_counter() + seconds
    for doc in docs:
        ref = cal.sample() if cal is not None else None
        t0 = time.perf_counter_ns()
        try:
            response = conn.call(doc)
        except (OSError, ValueError):  # the daemon died, hung or garbled
            out.append({"doc": doc, "response": None, "client_ms": 0.0, "ref": ref})
            break
        t1 = time.perf_counter_ns()
        out.append({"doc": doc, "response": response,
                    "client_ms": (t1 - t0) / 1e6, "ref": ref})
        if time.perf_counter() >= end and len(out) >= min_requests:
            break
    if cal is not None:
        cal.sample()
    for r in out:
        ref = r.pop("ref")
        r["factor"] = 1.0 if ref is None else cal.factor(ref)
        r["norm_ms"] = calibrated_ms(r["client_ms"], [r["response"] or {}], r["factor"])
    return out


def bursts(conn: Conn, docs, seconds: float, in_flight: int,
           cal: Calibrator) -> tuple[list[dict], float, float]:
    """Bursts of ``in_flight`` pipelined requests alternating with
    reference samples.  Returns the records and the raw and calibrated
    seconds spent in bursts."""
    out, timed = [], []
    it = iter(docs)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or not timed:
        batch = [next(it) for _ in range(in_flight)]
        ref = cal.sample()
        t0 = time.perf_counter_ns()
        try:
            for doc in batch:
                conn.send(doc)
            responses = [conn.recv() for _ in batch]
        except (OSError, ValueError):  # the daemon died, hung or garbled
            out += [{"doc": d, "response": None} for d in batch]
            break
        timed.append(((time.perf_counter_ns() - t0) / 1e6, responses, ref))
        out += [{"doc": d, "response": r} for d, r in zip(batch, responses)]
    cal.sample()
    raw_s = sum(t for t, _, _ in timed) / 1e3
    norm_s = sum(calibrated_ms(t, rs, cal.factor(ref)) for t, rs, ref in timed) / 1e3
    return out, raw_s, norm_s


def poisson_schedule(seed: int, rate: float, seconds: float) -> list[float]:
    """Seeded Poisson arrival offsets (s) over ``seconds``."""
    rng = random.Random(f"arrivals-{seed}")
    t, out = 0.0, []
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return out
        out.append(t)


def open_loop(conns: list[Conn], docs: list[dict], due: list[float],
              drain_s: float = 20.0) -> dict:
    """Send ``docs[i]`` at offset ``due[i]`` regardless of replies,
    alternating connections; a second thread reads the replies.  Latency
    is timed from the due time, so a stalled generator or daemon charges
    every request that waited.  Returns records, generator lags and the
    backlog (requests unanswered) seen at each send."""
    n = len(docs)
    records = [{"doc": d, "response": None} for d in docs]
    sent_at = [0.0] * n
    pending = [[] for _ in conns]  # request indices in send order
    lock = threading.Lock()
    answered = [0]
    failure: list[BaseException] = []
    done_sending = threading.Event()

    def reader() -> None:
        sel = selectors.DefaultSelector()
        for k, c in enumerate(conns):
            c.sock.settimeout(None)
            sel.register(c.sock, selectors.EVENT_READ, k)
        buffers = [b"" for _ in conns]
        deadline = None
        try:
            while answered[0] < n:
                if deadline is None and done_sending.is_set():
                    deadline = time.perf_counter() + drain_s
                if deadline is not None and time.perf_counter() > deadline:
                    return
                for key, _ in sel.select(timeout=0.05):
                    k = key.data
                    chunk = conns[k].sock.recv(1 << 16)
                    if not chunk:
                        raise ConnectionError("daemon closed the connection")
                    buffers[k] += chunk
                    while b"\n" in buffers[k]:
                        line, buffers[k] = buffers[k].split(b"\n", 1)
                        now = time.perf_counter()
                        with lock:
                            i = pending[k].pop(0)
                            answered[0] += 1
                        records[i]["response"] = json.loads(line)
                        records[i]["recv"] = now
        except BaseException as exc:  # reported to the caller
            failure.append(exc)
        finally:
            sel.close()

    thread = threading.Thread(target=reader)
    thread.start()
    backlog = []
    payloads = [json.dumps(d).encode() + b"\n" for d in docs]
    start = time.perf_counter() + 0.05
    try:
        for i, offset in enumerate(due):
            target = start + offset
            while True:
                wait = target - time.perf_counter()
                if wait <= 0:
                    break
                time.sleep(wait if wait > 0.002 else 0)
            k = i % len(conns)
            with lock:
                pending[k].append(i)
                backlog.append(i - answered[0])
            sent_at[i] = time.perf_counter()
            conns[k].sock.sendall(payloads[i])
    finally:
        done_sending.set()
        thread.join()
    if failure:
        raise failure[0]
    for i, r in enumerate(records):
        r["due"] = start + due[i]
        r["lag_ms"] = (sent_at[i] - r["due"]) * 1e3
        if r["response"] is not None:
            r["client_ms"] = (r["recv"] - r["due"]) * 1e3
            # Raw: a reference sample would disturb the load.
            r["factor"] = 1.0
            r["norm_ms"] = r["client_ms"]
    return {"records": records, "backlog": backlog}
