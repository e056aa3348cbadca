"""Worker process of the benchmark: one fresh interpreter per pass.

    python3 hskbench/worker.py pass      spec on stdin: run an op list
    python3 hskbench/worker.py setup     spec on stdin: set up and exit
    python3 hskbench/worker.py cli-call  spec on stdin: traced hsk.cli.main(argv)

A pass worker imports hsk from the checkout's ``src``, builds the
fields of the workload's theories, prints ``ready`` (``run.py`` times
set-up up to that line), runs its ops one after another and prints one
JSON line with each op's latency and result.  Results are converted to
JSON after the timed loop, so conversion is not timed.

Between ops, now and then, the worker probes the machine's speed with
fixed work that does not touch hsk (``SpeedProbe``).  Other tenants
share the host, and its speed drifts by a factor of up to two within a
minute; ``run.py`` scales each op's time by the probe times measured
around it, so that the reported figures follow the program and not the
host.  Probe time is not part of any op's time.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CLI_TIMEOUT_S = 120
# Seconds between probe samples, per probe kind; a spawn sample costs
# about 0.2 s, a kernel sample about 25 ms.
PROBE_EVERY_S = {"kernel": 0.5, "spawn": 1.0}


def _kernel() -> int:
    """Fixed pure-Python work made of what hsk's exact arithmetic is made
    of: small and big integer products, tuple keys and dict updates."""
    table: dict = {}
    x = 12345
    big = 3 ** 200
    for i in range(8000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = (x & 63, i & 7)
        table[key] = table.get(key, 0) + (big * x) % 1000003
    return len(table)


class SpeedProbe:
    """Speed samples taken during a pass: ``[time, seconds]`` pairs, with
    ``time`` on this process's ``perf_counter`` clock like the ops' start
    times.  A ``kernel`` sample is the mean of five runs of ``_kernel``,
    for workloads that compute in this process.  A ``spawn`` sample
    starts a fresh interpreter that imports numpy, hsk's heaviest import,
    and exits: the cost that dominates a CLI call."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[list[float]] = []

    def sample(self) -> None:
        t0 = perf_counter()
        if self.kind == "spawn":
            subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                           stdout=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S)
            runs = 1
        else:
            for _ in range(5):
                _kernel()
            runs = 5
        t1 = perf_counter()
        self.samples.append([(t0 + t1) / 2, (t1 - t0) / runs])

    def sample_if_due(self) -> None:
        if perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S[self.kind]:
            self.sample()


def _setup(spec: dict):
    sys.path.insert(0, SRC)
    import hsk

    for N, K in spec["theories"]:
        hsk.Params(N, K).field
    print("ready", flush=True)
    return hsk


def _scalar(x) -> dict:
    e = x.embed()
    return {"num": list(x.num), "den": x.den, "embed": [e.real, e.imag]}


def _call(hsk, op: dict):
    """Run one op; returns the raw hsk value."""
    p = hsk.Params(op["N"], op["K"])
    Y = hsk.YoungDiagram
    kind = op["kind"]
    if kind == "qdim":
        return hsk.qdim(p, Y(tuple(op["lam"])))
    if kind == "twist":
        return hsk.twist(p, Y(tuple(op["lam"])))
    if kind == "fusion":
        return hsk.fusion(p, *(Y(tuple(op[k])) for k in ("lam", "mu", "nu")))
    if kind == "smatrix":
        return hsk.s_matrix(p)
    if kind == "sdet":
        return hsk.s_matrix(p).determinant()
    if kind == "mfdim":
        return hsk.mf_dim(p, op["genus"], [Y(tuple(d)) for d in op["marked"]])
    if kind == "closure":
        return hsk.closure_invariant(p, hsk.BraidWord(op["n"], tuple(op["word"])))
    raise ValueError(f"unknown op kind {kind}")


def _to_json(kind: str, value):
    if kind in ("fusion", "mfdim"):
        return value
    if kind == "smatrix":
        return {"labels": [list(d.rows) for d in value.labels],
                "entries": [[_scalar(c) for c in row] for row in value.entries]}
    return _scalar(value)


def _record(op: dict, t0: float, ms: float, value, err) -> dict:
    rec = {"id": op["id"], "t": t0, "ms": ms}
    if err is None:
        rec["res"] = _to_json(op["kind"], value)
    else:
        rec["err"] = err
    return rec


def _cache_listing(path: str) -> dict[str, int]:
    if not os.path.isdir(path):
        return {}
    return {e.name: e.stat().st_size for e in os.scandir(path)
            if e.is_file() and e.name.endswith(".json")}


def _cli_op(op: dict, spec: dict, index: int) -> dict:
    """One CLI call in its own process; cache effects read from the
    directory before and after."""
    cache = spec["cache"]
    argv = op["argv"] + ["--cache", cache]
    env = dict(os.environ, PYTHONPATH=SRC)
    if spec.get("trace_dir"):
        span_file = os.path.join(spec["trace_dir"], f"cli-{index:04d}.jsonl")
        cmd = [sys.executable, os.path.abspath(__file__), "cli-call"]
        stdin = json.dumps({"argv": argv, "trace": span_file})
    else:
        cmd = [sys.executable, "-m", "hsk.cli"] + argv
        stdin = ""
    before = _cache_listing(cache)
    start = perf_counter()
    rc, out, err, rss_kb = _run_child(cmd, stdin, env, os.path.dirname(cache))
    ms = (perf_counter() - start) * 1000.0
    after = _cache_listing(cache)
    written = {k: v for k, v in after.items() if before.get(k) != v}
    return {"id": op["id"], "t": start, "ms": ms, "rc": rc, "out": out, "err": err[-2000:],
            "written": len(written), "bytes": sum(written.values()), "rss_kb": rss_kb}


def _run_child(cmd: list[str], stdin: str, env: dict, tmp_dir: str):
    """Run ``cmd`` until it exits or CLI_TIMEOUT_S passes.  Returns the exit
    code (None on time-out), stdout, stderr and the child's own peak RSS
    in kB, which ``os.wait4`` reports apart from every other child's.
    Output goes through files, so a child that writes much never blocks."""
    with tempfile.TemporaryFile("w+", dir=tmp_dir) as fin, \
            tempfile.TemporaryFile("w+", dir=tmp_dir) as fout, \
            tempfile.TemporaryFile("w+", dir=tmp_dir) as ferr:
        fin.write(stdin)
        fin.seek(0)
        proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=ferr, env=env, cwd=ROOT)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(CLI_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        fout.seek(0)
        ferr.seek(0)
        if timed_out.is_set():
            return None, "", f"timed out after {CLI_TIMEOUT_S} s", usage.ru_maxrss
        return proc.returncode, fout.read(), ferr.read(), usage.ru_maxrss


def run_pass(spec: dict) -> dict:
    hsk = _setup(spec)
    probe = SpeedProbe(spec["probe"])
    probe.sample()
    tracer = None
    if spec.get("trace_dir") and spec["workload"] != "cli_session":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli = spec["workload"] == "cli_session"
    raw = []
    for i, op in enumerate(spec["ops"]):
        probe.sample_if_due()
        if cli:
            raw.append(_cli_op(op, spec, i))
            continue
        t0 = perf_counter()
        try:
            value, err = _call(hsk, op), None
        except Exception as exc:  # a raising op is a failed op, not a crashed pass
            value, err = None, f"{type(exc).__name__}: {exc}"
        raw.append((op, t0, (perf_counter() - t0) * 1000.0, value, err))
    probe.sample()
    if cli:
        rss_kb = max(r["rss_kb"] for r in raw)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    results = raw if cli else [_record(*item) for item in raw]
    if tracer is not None:
        tracer.write(os.path.join(spec["trace_dir"], "pass.jsonl"))
    return {"peak_rss_mb": rss_kb / 1024.0, "probe": probe.samples, "results": results}


def cli_call(spec: dict) -> int:
    sys.path.insert(0, SRC)
    import hsk.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return hsk.cli.main(spec["argv"])
    finally:
        sys.stdout.flush()
        tracer.write(spec["trace"])


def main() -> int:
    mode = sys.argv[1]
    spec = json.loads(sys.stdin.read())
    if mode == "setup":
        _setup(spec)
        probe = SpeedProbe("spawn")  # set-up is process start and import
        probe.sample()
        print(json.dumps({"probe": probe.samples}), flush=True)
        return 0
    if mode == "pass":
        print(json.dumps(run_pass(spec)), flush=True)
        return 0
    if mode == "cli-call":
        return cli_call(spec)
    raise SystemExit(f"unknown mode {mode}")


if __name__ == "__main__":
    sys.exit(main())
