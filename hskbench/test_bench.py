"""Tests of the benchmark itself: every oracle rejects a corrupted result,
traced counts repeat exactly, and the whole harness runs at smoke size.

    python3 -m pytest hskbench -q      # about a minute
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hsk  # noqa: E402

from hskbench import oracles as O  # noqa: E402
from hskbench import run, workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def passes():
    out = {}
    for w in workloads.WORKLOADS:
        ops = workloads.make_ops(w, SEED, smoke=True)
        res = run.run_pass(w, ops, workloads.theories(w, True))
        out[w] = (ops, res["results"])
    return out


def test_smoke_results_pass_their_oracles(passes):
    for ops, results in passes.values():
        assert run.check_pass(ops, results) == {}


def _plus_one(res):
    """x -> x + 1, keeping num, den and embed consistent."""
    res["num"][0] += res["den"]
    res["embed"][0] += 1.0
    return res


def _times_zeta(op, res):
    """x -> zeta x, computed exactly in hsk's own field."""
    p = hsk.Params(op["N"], op["K"])
    x = p.scalar_from_json(res) * p.zeta_pow(1)
    e = x.embed()
    return {"num": list(x.num), "den": x.den, "embed": [e.real, e.imag]}


def _corrupt_value(op, res):
    """One wrong result per op kind: a wrong coefficient, a twist off by
    one power of zeta, a broken S~ entry, a closure off its partner."""
    kind = op["kind"]
    if kind in ("fusion", "mfdim"):
        return res + 1
    if kind == "twist":
        return _times_zeta(op, res)
    if kind == "smatrix":
        _plus_one(res["entries"][1][1])
        return res
    return _plus_one(res)  # qdim, sdet, closures


def _corrupt_cli(op, rec):
    data = json.loads(rec["out"])
    check = op["check"]
    if check == "labels":
        data = data[:-1]
    elif check == "twist":
        data = _times_zeta(op, data)
    elif check in ("qdim", "closure"):
        _plus_one(data)
    elif check in ("fusion", "mfdim"):
        data["n" if check == "fusion" else "dim"] += 1
    elif check == "fusion_table":
        data["entries"][-1]["n"] += 1
    elif check == "smatrix":
        _plus_one(data["entries"][1][1])
    elif check in ("purify", "gram"):
        data["dim"] += 1
    elif check == "blocks":
        data["labels"] = data["labels"][:-1]
    elif check == "verify":
        data["overall"] = "fail"
    rec["out"] = json.dumps(data)


def _kinds(op):
    return op["check"] if op["kind"] == "cli" else op["kind"] + (
        ":" + (op.get("relation") or op.get("form") or "base") if op["kind"] == "closure" else "")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_oracle_rejects_a_corrupted_result(passes, workload):
    ops, results = passes[workload]
    firsts = {}
    for op in ops:
        firsts.setdefault(_kinds(op), op)
    assert len(firsts) > 3
    for kind, op in firsts.items():
        bad = copy.deepcopy(results)
        rec = next(r for r in bad if r["id"] == op["id"])
        if op["kind"] == "cli":
            _corrupt_cli(op, rec)
        else:
            rec["res"] = _corrupt_value(op, rec["res"])
        fails = run.check_pass(ops, bad)
        if kind == "closure:base":
            # a wrong base shows through the partners checked against it
            assert any(o.get("base") == op["id"] for o in ops if o["id"] in fails), kind
        else:
            assert op["id"] in fails, kind
        assert len(fails) / len(ops) > 0


def test_embed_must_match_the_exact_coefficients(passes):
    ops, results = passes["modular_data"]
    op = next(o for o in ops if o["kind"] == "qdim")
    bad = copy.deepcopy(results)
    rec = next(r for r in bad if r["id"] == op["id"])
    rec["res"]["embed"][1] += 0.5
    assert "disagrees" in run.check_pass(ops, bad)[op["id"]]


def test_cli_failures_nonzero_exit_and_changed_repeat(passes):
    ops, results = passes["cli_session"]
    bad = copy.deepcopy(results)
    bad[0]["rc"], bad[0]["err"] = 1, "error: boom"
    assert ops[0]["id"] in run.check_pass(ops, bad)
    repeat = next(o for o in ops if o["repeat"] and o["check"] != "verify")
    bad = copy.deepcopy(results)
    rec = next(r for r in bad if r["id"] == repeat["id"])
    rec["out"] = rec["out"].replace(" ", "  ", 1) + " "
    assert run.check_pass(ops, bad)[repeat["id"]].startswith("repeat output differs")


def test_speed_factor_averages_the_probes_near_an_op():
    probe = [[0.0, 0.008], [1.0, 0.004], [10.0, 0.002]]
    # the op covers [0.5, 0.6]; the samples within PROBE_WINDOW_S are the first two
    assert run.speed_factor(probe, 0.004, 0.5, 0.6) == pytest.approx(0.004 / 0.006)
    assert run.speed_factor(probe, 0.004, 9.0, 12.0) == pytest.approx(2.0)


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        metrics, detail = run.traced("modular_data", SEED, smoke=True)
        assert detail["failed"] == 0
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith(("_count", "_calls", "_entries", "_cells", "terms_max"))})
    assert counts[0] == counts[1]
    assert counts[0]["scalar.mul_count"] > 0 and counts[0]["linalg.rref_calls"] > 0


def test_closures_do_no_elimination():
    metrics, _ = run.traced("closures", SEED, smoke=True)
    assert metrics["linalg.rref_calls"] == 0 and metrics["category.fusion_calls"] == 0
    assert metrics["hecke.from_braid_calls"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_result_line(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli_session",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(last["metrics"]) == want


def test_runner_fails_without_program(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "hskbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hskbench/run.py", "--workload", "closures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
