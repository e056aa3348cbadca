"""hsk benchmark runner.

    python3 hskbench/run.py --workload modular_data --seed 1 --seconds 40 --trace 0

Runs the seeded op lists of one workload in fresh worker processes (one
client, closed loop: the next op starts when the previous one returned),
repeating whole passes until ``--seconds`` have elapsed and at least
MIN_OPS ops were timed.  Every result is checked against an oracle in
``oracles.py``.  Times are scaled to a reference speed by probes of the
machine's speed taken between ops (``speed_factor``; README.md says
why).  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it runs one untraced and one traced pass of the same
op list and prints the per-layer metrics.  The last line of stdout is
one JSON object {correct, attempted, failed, metrics}.  A record of the
run (machine, Python, git sha, seed, per-pass figures) and, for traced
runs, the spans go to ``.hskbench-out/``.  See README.md in this
directory for the metric map.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".hskbench-out")
sys.path.insert(0, ROOT)

from hskbench import oracles as O  # noqa: E402
from hskbench.tracer import layer_metrics  # noqa: E402
from hskbench.workloads import WORKLOADS, make_ops, theories  # noqa: E402

MIN_OPS = 100          # p90 needs at least ten samples beyond it
# Probe time that defines the reference speed, per probe kind, and the
# probe kind of each workload (see worker.SpeedProbe).
REF_PROBE_S = {"kernel": 0.004, "spawn": 0.18}
PROBE_KIND = {"modular_data": "kernel", "closures": "kernel", "cli_session": "spawn"}
PROBE_WINDOW_S = 3.0   # probe samples this close to an op set its speed
SETUP_PROBES = 7       # set-up-only workers per run, for setup_s
PASS_TIMEOUT_S = 170   # a pass that runs longer is killed and the run fails
OP_BOUND_MS = 120_000  # an op slower than this counts as failed


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# workers


def _worker(mode: str, spec: dict, timeout: float) -> tuple[float, str]:
    """Start a fresh worker, return (set-up seconds, final stdout line)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "worker.stderr"), "w+", encoding="utf-8") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), mode],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, text=True, cwd=ROOT, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            proc.stdin.write(json.dumps(spec))
            proc.stdin.close()
            first = proc.stdout.readline()
            setup = perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if first.strip() != "ready" or proc.returncode != 0:
            err.seek(0)
            tail = err.read()[-2000:]
            raise BenchError(f"{mode} worker failed (exit {proc.returncode}): {tail}")
    return setup, rest.strip().splitlines()[-1] if rest.strip() else ""


def speed_factor(probe: list[list[float]], ref: float, start: float, end: float) -> float:
    """``ref`` over the mean time of the probe samples taken
    within PROBE_WINDOW_S of [start, end].  The host's speed flips
    between two levels several times a second, so a single sample says
    little about one op; a few seconds of samples say how much of that
    time the host was slow, and still follow changes that last longer."""
    near = [s for t, s in probe if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
    return ref / statistics.fmean(near)


def run_pass(workload: str, ops: list[dict], ths, trace_dir: str | None = None) -> dict:
    """One pass in a fresh worker.  Each result gains ``ref_ms``, its
    latency at the reference speed (see ``speed_factor``); the pass gains
    its wall time (the sum of the op latencies) unscaled and at the
    reference speed, and its unscaled set-up time."""
    spec = {"workload": workload, "ops": ops, "theories": ths, "trace_dir": trace_dir,
            "probe": PROBE_KIND[workload]}
    ref = REF_PROBE_S[spec["probe"]]
    if workload == "cli_session":
        spec["cache"] = os.path.join(OUT, "cli-cache")
        shutil.rmtree(spec["cache"], ignore_errors=True)
    setup, line = _worker("pass", spec, PASS_TIMEOUT_S)
    out = json.loads(line)
    probe = out["probe"]
    for rec in out["results"]:
        rec["ref_ms"] = rec["ms"] * speed_factor(probe, ref, rec["t"], rec["t"] + rec["ms"] / 1000.0)
    out["raw_wall_s"] = sum(r["ms"] for r in out["results"]) / 1000.0
    out["wall_s"] = sum(r["ref_ms"] for r in out["results"]) / 1000.0
    out["raw_setup_s"] = setup
    return out


def setup_times(ths, count: int) -> tuple[list[float], float]:
    """Unscaled set-up times of ``count`` workers that only set up, and the
    speed factor to scale them with.  Each worker takes a spawn probe
    sample right after its set-up; one sample is noisy, so the factor
    pools all of them."""
    setups, probe = [], []
    for _ in range(count):
        setup, line = _worker("setup", {"theories": ths}, 60)
        setups.append(setup)
        probe += [s for _, s in json.loads(line)["probe"]]
    return setups, REF_PROBE_S["spawn"] / statistics.fmean(probe)


# ---------------------------------------------------------------------------
# checks


def check_pass(ops: list[dict], results: list[dict]) -> dict[int, str]:
    """Failure reason per op id, for every op that failed."""
    by_id = {r["id"]: r for r in results}
    fails: dict[int, str] = {}
    first_out: dict[str, str] = {}
    for op in ops:
        rec = by_id.get(op["id"])
        if rec is None:
            fails[op["id"]] = "no result"
            continue
        reason = None
        if rec["ms"] > OP_BOUND_MS:
            reason = f"took {rec['ms']:.0f} ms, bound {OP_BOUND_MS} ms"
        elif op["kind"] == "cli":
            key = " ".join(op["argv"])
            reason = O.check_cli(op, rec, first_out.get(key))
            if rec.get("rc") == 0:
                first_out.setdefault(key, rec["out"])
        elif "err" in rec:
            reason = rec["err"]
        else:
            reason = _check_value(op, rec["res"], ops, by_id)
        if reason:
            fails[op["id"]] = reason
    return fails


def _check_value(op, res, ops, by_id):
    kind = op["kind"]
    if kind == "closure":
        if "base" in op:
            base = by_id.get(op["base"], {}).get("res")
            if base is None:
                return "base closure missing"
            return O.check_closure_relation(op, res, base)
        return O.check_closure_closed_form(op, res)
    if kind == "sdet":
        smat = next((by_id[o["id"]].get("res") for o in ops if o["kind"] == "smatrix"
                     and (o["N"], o["K"]) == (op["N"], op["K"])), None)
        return O.check_sdet(op, res, smat)
    return {"qdim": O.check_qdim, "twist": O.check_twist, "fusion": O.check_fusion,
            "smatrix": O.check_smatrix, "mfdim": O.check_mfdim}[kind](op, res)


# ---------------------------------------------------------------------------
# metrics


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def cli_counts(ops: list[dict], results: list[dict]) -> dict[str, float]:
    """Disk-cache behaviour seen from outside: a call that wrote an entry
    is a miss; a later call with the same argv that wrote nothing is a hit."""
    by_id = {r["id"]: r for r in results}
    stored: set[str] = set()
    hit_ms, miss_ms, written = [], [], 0
    for op in ops:
        if op["kind"] != "cli":
            continue
        rec = by_id[op["id"]]
        key = " ".join(op["argv"])
        written += rec["bytes"]
        if rec["written"]:
            miss_ms.append(rec["ref_ms"])
            stored.add(key)
        elif key in stored:
            hit_ms.append(rec["ref_ms"])
    n = len(hit_ms) + len(miss_ms)
    return {
        "cli.hits": len(hit_ms),
        "cli.misses": len(miss_ms),
        "cli.hit_frac": len(hit_ms) / n if n else 0.0,
        "cli.hit_ms": statistics.median(hit_ms) if hit_ms else 0.0,
        "cli.miss_ms": statistics.median(miss_ms) if miss_ms else 0.0,
        "cli.bytes_written": written,
    }


UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_frac": "ratio", "bytes_written": "B"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "git_sha": _git_sha()}


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# runs


def measure(workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """Untraced run: whole passes until `seconds` and MIN_OPS are reached,
    each pass with its own draw of the seeded op list."""
    ths = theories(workload, smoke)
    start = perf_counter()
    setups, setup_factor = setup_times(ths, 1 if smoke else SETUP_PROBES)
    passes, latencies, raw_ms, fails, attempted, durations = [], [], [], {}, 0, []
    min_ops = 1 if smoke else MIN_OPS
    # Start another pass only while it is expected to end within
    # `seconds`, or while too few latencies were taken for the p90.
    while (not passes or len(latencies) < min_ops
           or perf_counter() - start + statistics.median(durations) <= seconds):
        ops = make_ops(workload, seed, smoke, draw=len(passes))
        t0 = perf_counter()
        res = run_pass(workload, ops, ths)
        durations.append(perf_counter() - t0)
        f = check_pass(ops, res["results"])
        attempted += len(ops)
        fails.update({f"{len(passes)}:{k}": v for k, v in f.items()})
        latencies += [r["ref_ms"] for r in res["results"]]
        raw_ms += [r["ms"] for r in res["results"]]
        passes.append({k: res[k] for k in ("raw_setup_s", "wall_s", "raw_wall_s",
                                           "peak_rss_mb", "probe")}
                      | {"failed": len(f), "ms": [r["ms"] for r in res["results"]],
                         "ref_ms": [r["ref_ms"] for r in res["results"]]})
    metrics = {
        "setup_s": statistics.median(setups) * setup_factor,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": _p90(latencies) if len(latencies) > 1 else latencies[0],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    detail = {"passes": passes, "setups": setups, "setup_factor": setup_factor,
              "ops_per_pass": len(ops),
              "samples": len(latencies), "failed": len(fails), "attempted": attempted,
              "failures": dict(list(fails.items())[:20]),
              "beyond_p90": sum(1 for x in latencies if x > metrics["op_p90_ms"]),
              "raw": {"setup_s": statistics.median(setups),
                      "wall_s": statistics.median(p["raw_wall_s"] for p in passes),
                      "op_p50_ms": statistics.median(raw_ms),
                      "op_p90_ms": _p90(raw_ms) if len(raw_ms) > 1 else raw_ms[0]}}
    return metrics, detail


def traced(workload: str, seed: int, smoke: bool) -> tuple[dict, dict]:
    """One untraced and one traced pass of the same op list."""
    ops = make_ops(workload, seed, smoke)
    ths = theories(workload, smoke)
    plain = run_pass(workload, ops, ths)
    trace_dir = os.path.join(OUT, f"spans-{workload}-seed{seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    res = run_pass(workload, ops, ths, trace_dir)
    fails = {f"plain:{k}": v for k, v in check_pass(ops, plain["results"]).items()}
    fails.update({f"traced:{k}": v for k, v in check_pass(ops, res["results"]).items()})
    files = sorted(os.path.join(trace_dir, f) for f in os.listdir(trace_dir))
    metrics = layer_metrics(files) | cli_counts(ops, res["results"])
    metrics["trace_overhead_frac"] = res["wall_s"] / plain["wall_s"] - 1.0
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": res["wall_s"],
              "untraced_raw_wall_s": plain["raw_wall_s"], "traced_raw_wall_s": res["raw_wall_s"],
              "span_files": len(files), "failed": len(fails), "attempted": 2 * len(ops),
              "failures": dict(list(fails.items())[:20])}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny op lists, for tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hsk", "__init__.py")):
        print("error: no hsk sources under src/hsk next to the benchmark", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, detail = traced(args.workload, args.seed, args.smoke)
        else:
            metrics, detail = measure(args.workload, args.seed, args.seconds, args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "time": time.time(),
              "machine": machine(), "metrics": metrics, "detail": detail}
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={m['nproc']} "
          f"cpu={m['cpu']!r} python={m['python']} git={m['git_sha']}")
    attempted, failed = detail["attempted"], detail["failed"]
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted} ops)")
    if not args.trace:
        print(f"# op latencies: {detail['samples']} samples, "
              f"{detail['beyond_p90']} beyond p90, {len(detail['passes'])} passes")
        print("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in detail["raw"].items()))
    for reason in list(detail["failures"].items())[:5]:
        print(f"# failed op {reason[0]}: {reason[1]}")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {unit_of(k)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
