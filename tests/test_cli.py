"""Command line interface: JSON output, exit codes, result cache.

Exit code contract: 0 on success, 1 on domain errors (invalid diagram,
strand limits, bad parameters), 2 on usage errors (malformed braid
words, missing arguments, out-of-range verify bounds)."""

import hashlib
import importlib.util
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsk import Params, jones_wenzl, run_verify
import hsk.cache
from hsk import category, cli, hecke, linalg, perms, seminormal, trace, verify
from hsk.cli import main

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from hskbench.oracles import path_counts, verlinde_mf_dim  # noqa: E402
from hskbench.oracles import purified_dim as oracle_purified_dim  # noqa: E402
from hskbench.oracles import qdim as oracle_qdim  # noqa: E402
from hskbench.tracer import FUNCTIONS, METHODS  # noqa: E402
from test_category import forbid  # noqa: E402


@pytest.fixture(autouse=True)
def _isolate_cwd(tmp_path, monkeypatch):
    # the default cache directory is ./.hsk-cache; keep it out of the repo
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HSK_CACHE", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


class TestBasicCommands:
    def test_labels(self, capsys):
        assert run_json(capsys, "labels", "--N", "2", "--K", "2") == [[], [1], [2]]

    def test_labels_level_one(self, capsys):
        got = run_json(capsys, "labels", "--N", "4", "--K", "1")
        assert got == [[], [1], [1, 1], [1, 1, 1]]

    def test_qint(self, capsys):
        got = run_json(capsys, "qint", "2", "--N", "2", "--K", "2")
        assert got["embed"][0] == pytest.approx(math.sqrt(2))
        assert got["embed"][1] == pytest.approx(0, abs=1e-12)

    def test_dagger(self, capsys):
        assert run_json(capsys, "dagger", "1", "--N", "3", "--K", "2") == [1, 1]
        assert run_json(capsys, "dagger", "2,1", "--N", "3", "--K", "2") == [2, 1]

    def test_branch(self, capsys):
        got = run_json(capsys, "branch", "1,1", "--N", "3", "--K", "2", "--strands", "5")
        assert got == [[1], [2, 2]]

    def test_paths(self, capsys):
        got = run_json(capsys, "paths", "1", "--N", "2", "--K", "2", "--strands", "5")
        assert got == {"n": 5, "diagram": [1], "count": 4}

    def test_jw(self, capsys):
        got = run_json(capsys, "jw", "--N", "2", "--K", "2", "--strands", "2", "--kind", "sym")
        assert got["n"] == 2
        assert len(got["terms"]) == 2

    def test_yidem(self, capsys):
        got = run_json(capsys, "yidem", "2,1", "--N", "3", "--K", "2")
        assert got["diagram"] == [2, 1]
        assert got["idempotent"] is not None
        assert set(got["hook"]) == {"num", "den", "embed"}


class TestTraceAndClosure:
    def test_trace_single_crossing(self, capsys):
        got = run_json(capsys, "trace", "--N", "2", "--K", "2", "--strands", "2", "--braid", "1")
        re, im = got["embed"]
        assert re == pytest.approx(0.2706, abs=1e-4)
        assert im == pytest.approx(-0.6533, abs=1e-4)

    def test_closure_unknot(self, capsys):
        got = run_json(capsys, "closure", "--N", "2", "--K", "2", "--strands", "1", "--braid", "")
        assert got["embed"][0] == pytest.approx(math.sqrt(2))

    def test_closure_kink(self, capsys):
        got = run_json(capsys, "closure", "--N", "2", "--K", "2", "--strands", "2", "--braid", "-1")
        val = complex(*got["embed"])
        expect = math.sqrt(2) * complex(math.cos(6 * math.pi / 16), math.sin(6 * math.pi / 16))
        assert abs(val - expect) < 1e-12

    def test_strands_inferred_from_word(self, capsys):
        got = run_json(capsys, "closure", "--N", "2", "--K", "1", "--braid", "1 2 1")
        assert "embed" in got


class TestAlgebraCommands:
    def test_gram(self, capsys):
        got = run_json(capsys, "gram", "--N", "2", "--K", "2", "--strands", "3")
        assert got == {"n": 3, "form": "bilinear", "dim": 6, "rank": 4, "kernel_dim": 2}

    def test_gram_full(self, capsys):
        got = run_json(capsys, "gram", "--N", "2", "--K", "2", "--strands", "2", "--full")
        assert len(got["matrix"]) == 2
        assert set(got["matrix"][0][0]) == {"num", "den", "embed"}

    def test_purify(self, capsys):
        got = run_json(capsys, "purify", "--N", "3", "--K", "2", "--strands", "4")
        assert got == {"dim": 13, "radical_dim": 11}

    def test_blocks(self, capsys):
        got = run_json(capsys, "blocks", "--N", "2", "--K", "2", "--strands", "4")
        assert got["labels"] == [[], [2]]
        assert got["dims"] == {"[]": 2, "[2]": 2}

    def test_blocks_full(self, capsys):
        got = run_json(capsys, "blocks", "--N", "2", "--K", "1", "--strands", "3", "--full")
        assert "central_idempotents" in got

    def test_blocks_past_the_gram_limit(self, capsys):
        got = run_json(capsys, "blocks", "--N", "3", "--K", "2", "--strands", "7")
        assert sum(f * f for f in got["dims"].values()) == seminormal.dimension(Params(3, 2), 7)
        code, out, err = run_cli(capsys, "blocks", "--N", "3", "--K", "2", "--strands", "7",
                                 "--full")
        assert code == 1 and out == ""
        assert err == "error: Gram computations limited to 6 strands\n"

    def test_blocks_at_the_strand_cap(self, capsys):
        start = time.perf_counter()
        got = run_json(capsys, "blocks", "--N", "5", "--K", "5", "--strands", "1000")
        assert time.perf_counter() - start < 2.0
        assert got["dims"]["[]"] == path_counts(5, 5, 1000)[()]

    @pytest.mark.parametrize("N,K", [(2, 1), (2, 2), (3, 2), (4, 1), (2, 3)])
    def test_scalar_outputs_skip_the_t_basis(self, capsys, monkeypatch, N, K):
        """`trace` is the closure over [N]^n and `blocks` without --full
        reads the Bratteli diagram: neither builds a permutation table, a
        Gram matrix, an elimination or a T-basis expansion."""
        forbid(monkeypatch, perms.perm_table, trace.gram_bilinear, trace.gram_rref,
               linalg.rref, hecke.from_braid, trace._trace_vector,
               category.central_idempotents)
        pk = ["--N", str(N), "--K", str(K)]
        run_json(capsys, "trace", *pk, "--strands", "1", "--braid", "")
        for n in range(2, 9):
            # every generator twice, so no Markov move drops a strand
            word = " ".join(str((-1 if i % 3 == 2 else 1) * (i % (n - 1) + 1))
                            for i in range(2 * n))
            run_json(capsys, "trace", *pk, "--strands", str(n), "--braid", word)
        for n in range(8):
            run_json(capsys, "blocks", *pk, "--strands", str(n))

    @pytest.mark.parametrize("N,K", [(2, 1), (2, 2), (3, 2), (4, 1), (2, 3)])
    def test_ranks_skip_the_gram_elimination(self, capsys, monkeypatch, N, K):
        """`purify` and `gram` without --full print rank sum f^2 and corank
        n! - sum f^2 with no permutation table, Gram elimination or echelon
        form; up to 6 strands these are the bytes the elimination gave."""
        forbid(monkeypatch, perms.perm_table, trace.gram_rref, linalg.rref)
        pk = ["--N", str(N), "--K", str(K)]
        for n in range(8):
            rank = oracle_purified_dim(N, K, n)
            kernel = math.factorial(n) - rank
            got = run_cli(capsys, "purify", *pk, "--strands", str(n))
            assert got == (0, json.dumps({"dim": rank, "radical_dim": kernel}) + "\n", "")
            for form in ("bilinear", "hermitian"):
                got = run_cli(capsys, "gram", *pk, "--strands", str(n), "--form", form)
                want = {"n": n, "form": form, "dim": rank + kernel, "rank": rank,
                        "kernel_dim": kernel}
                assert got == (0, json.dumps(want) + "\n", "")

    def test_purify_at_the_strand_cap(self, capsys):
        code, out, _ = run_cli(capsys, "purify", "--N", "3", "--K", "2", "--strands", "1000")
        assert code == 0
        got = json.loads(out)
        assert got["dim"] + got["radical_dim"] == math.factorial(1000)


class TestCategoryCommands:
    def test_fusion_triple(self, capsys):
        got = run_json(capsys, "fusion", "2", "2", "", "--N", "2", "--K", "2")
        assert got == {"a": [2], "b": [2], "c": [], "n": 1}

    def test_fusion_zero(self, capsys):
        got = run_json(capsys, "fusion", "2", "2", "2", "--N", "2", "--K", "2")
        assert got["n"] == 0

    def test_fusion_table(self, capsys):
        got = run_json(capsys, "fusion", "--table", "--max-strands", "2", "--N", "2", "--K", "2")
        entries = {(tuple(e["a"]), tuple(e["b"]), tuple(e["c"])): e["n"] for e in got["entries"]}
        assert entries[((1,), (1,), ())] == 1
        assert entries[((1,), (1,), (2,))] == 1

    def test_qdim(self, capsys):
        got = run_json(capsys, "qdim", "2", "--N", "3", "--K", "2")
        assert got["embed"][0] == pytest.approx(1.0)
        assert got["embed"][1] == pytest.approx(0, abs=1e-12)

    def test_twist_semion(self, capsys):
        got = run_json(capsys, "twist", "1", "--N", "2", "--K", "1")
        assert got["embed"][0] == pytest.approx(0, abs=1e-12)
        assert got["embed"][1] == pytest.approx(1.0)

    def test_smatrix(self, capsys):
        got = run_json(capsys, "smatrix", "--N", "2", "--K", "1")
        assert got["labels"] == [[], [1]]
        assert got["entries"][1][1]["embed"][0] == pytest.approx(-1.0)

    def test_mfdim_four_points(self, capsys):
        got = run_json(
            capsys, "mfdim", "--N", "2", "--K", "2", "--genus", "0",
            "--label", "1", "--label", "1", "--label", "1", "--label", "1",
        )
        assert got == {"genus": 0, "labels": [[1], [1], [1], [1]], "dim": 2}

    def test_mfdim_torus(self, capsys):
        got = run_json(capsys, "mfdim", "--N", "2", "--K", "2", "--genus", "1")
        assert got["dim"] == 3

    def test_mfdim_folds_only_reached_rows(self, capsys):
        # the (1,1) fold needs only the fusion row of the box at (3,2)
        start = time.perf_counter()
        got = run_json(
            capsys, "mfdim", "--N", "3", "--K", "2", "--genus", "0",
            "--label", "1", "--label", "1,1",
        )
        assert time.perf_counter() - start < 10.0
        assert got == {"genus": 0, "labels": [[1], [1, 1]], "dim": 1}

    def test_mfdim_six_strand_fold_is_bounded(self, capsys):
        # the second (2,1) fold reaches the 6-strand row (2,1) x (2,1)
        start = time.perf_counter()
        got = run_json(
            capsys, "mfdim", "--N", "3", "--K", "2", "--genus", "0",
            "--label", "2,1", "--label", "2,1",
        )
        assert time.perf_counter() - start < 10.0
        assert got["dim"] == verlinde_mf_dim(3, 2, 0, [(2, 1), (2, 1)])


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--N", "2", "--K", "1", "--max-n", "2")
        assert code == 0
        report = json.loads(out)
        assert report["overall"] == "pass"
        assert report["params"] == {"N": 2, "K": 1, "max_n": 2, "seed": 0}
        names = [c["name"] for c in report["checks"]]
        assert "trace.markov_property" in names
        assert all(c["status"] in ("pass", "skip") for c in report["checks"])

    def test_deterministic_modulo_elapsed(self, capsys):
        def strip(report):
            for c in report["checks"]:
                c.pop("elapsed")
            return report

        a = strip(run_json(capsys, "verify", "--N", "2", "--K", "1", "--max-n", "2"))
        b = strip(run_json(capsys, "verify", "--N", "2", "--K", "1", "--max-n", "2"))
        assert a == b

    def test_max_n_out_of_range(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--N", "2", "--K", "1", "--max-n", "9")
        assert code == 2
        assert "usage error" in err

    # a library function broken in verify's namespace, and the checks
    # that must catch it
    BREAKS = {
        "fusion": (lambda f: lambda *a: f(*a) + 1, {"category.fusion", "category.mf_dim"}),
        "twist": (lambda f: lambda p, d: f(p, d) + f(p, d), {"category.qdim_twist"}),
        "qdim": (lambda f: lambda p, d: f(p, d) + p.one,
                 {"category.qdim_twist", "category.smatrix"}),
        "closure_invariant": (lambda f: lambda p, b: f(p, b) * p.zeta_pow(b.strands),
                              {"trace.framing", "trace.stabilization"}),
    }

    @pytest.mark.parametrize("name", list(BREAKS))
    def test_broken_function_fails_its_checks(self, monkeypatch, name):
        wrap, affected = self.BREAKS[name]
        monkeypatch.setattr(verify, name, wrap(getattr(verify, name)))
        report = run_verify(Params(2, 1), max_n=3)
        failed = {c.name: c.details for c in report.checks if c.status == "fail"}
        assert set(failed) == affected
        assert all(failed.values())
        assert report.overall == "fail"

    def test_failed_check_exits_one_with_the_report(self, capsys, monkeypatch):
        wrap, affected = self.BREAKS["fusion"]
        monkeypatch.setattr(verify, "fusion", wrap(verify.fusion))
        code, out, err = run_cli(capsys, "verify", "--N", "2", "--K", "1", "--max-n", "3")
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["overall"] == "fail"
        assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == affected


class TestExitCodes:
    def test_empty_braid_needs_strands(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--N", "2", "--K", "2", "--braid", "")
        assert code == 2
        assert "usage error" in err

    def test_zero_braid_letter(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--N", "2", "--K", "2", "--braid", "0")
        assert code == 2

    def test_strands_too_small(self, capsys):
        code, _, err = run_cli(
            capsys, "trace", "--N", "2", "--K", "2", "--strands", "2", "--braid", "2"
        )
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate", "--N", "2", "--K", "2")[0] == 2

    def test_fusion_needs_three_or_table(self, capsys):
        code, _, err = run_cli(capsys, "fusion", "1", "--N", "2", "--K", "2")
        assert code == 2

    def test_trace_past_the_permutation_tables(self, capsys):
        got = run_json(capsys, "trace", "--N", "2", "--K", "2", "--strands", "9", "--braid", "")
        assert got == {"den": 1, "num": [1] + [0] * 7, "embed": [1.0, 0.0]}

    def test_trace_past_the_path_model_bound_fails_at_once(self, capsys):
        # no Markov move shortens the word; sum f^2 = 2^19 > 8! at (2,2)
        word = " ".join(str(i) for i in range(1, 20) for _ in range(2))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "trace", "--N", "2", "--K", "2", "--braid", word)
        assert time.perf_counter() - start < 2.0
        assert code == 1 and out == ""
        assert err == "error: the path model on 20 strands has dimension 524288 > 8!\n"

    def test_gram_limit_is_domain_error(self, capsys):
        # only the full Gram data are capped; the rank alone runs to 1000 strands
        code, out, err = run_cli(capsys, "gram", "--N", "2", "--K", "2", "--strands", "7",
                                 "--full")
        assert code == 1 and out == ""
        assert err == "error: Gram computations limited to 6 strands\n"

    def test_dagger_non_label(self, capsys):
        code, _, _ = run_cli(capsys, "dagger", "3", "--N", "2", "--K", "2")
        assert code == 1

    def test_bad_rank(self, capsys):
        code, _, err = run_cli(capsys, "labels", "--N", "1", "--K", "2")
        assert code == 1

    @pytest.mark.parametrize("cmd", ["qdim", "twist"])
    def test_non_label_is_domain_error(self, capsys, cmd):
        code, out, err = run_cli(capsys, cmd, "1,1", "--N", "2", "--K", "2")
        assert code == 1 and out == ""
        assert err == "error: (1, 1) is not a label of the category\n"

    # the subcommands with a --strands range check, and their other arguments
    STRANDS_ARGV = {"paths": ["1"], "branch": ["1"], "jw": ["--kind", "sym"],
                    "gram": [], "purify": [], "blocks": []}

    @pytest.mark.parametrize("cmd", list(STRANDS_ARGV))
    def test_negative_strands_is_usage_error(self, capsys, cmd):
        code, out, err = run_cli(capsys, cmd, *self.STRANDS_ARGV[cmd],
                                 "--N", "2", "--K", "2", "--strands", "-1")
        assert code == 2 and out == ""
        assert err == "usage error: --strands must be between 0 and 1000\n"

    @pytest.mark.parametrize("cmd", list(STRANDS_ARGV))
    def test_strand_cap_is_usage_error(self, capsys, cmd):
        code, out, err = run_cli(capsys, cmd, *self.STRANDS_ARGV[cmd],
                                 "--N", "2", "--K", "2", "--strands", "1001")
        assert code == 2 and out == ""
        assert err == "usage error: --strands must be between 0 and 1000\n"

    @pytest.mark.parametrize("cmd", ["trace", "closure"])
    @pytest.mark.parametrize("strands", ["-1", "0"])
    def test_braid_strands_must_be_positive(self, capsys, cmd, strands):
        code, out, err = run_cli(capsys, cmd, "--braid", "", "--N", "2", "--K", "2",
                                 "--strands", strands)
        assert code == 2 and out == ""
        assert err == "usage error: --strands must be positive\n"

    @pytest.mark.parametrize("option", [["--json"], ["--seed", "1"]])
    def test_removed_options_are_usage_errors(self, capsys, option):
        # compact JSON is the default, and only verify draws random elements
        code, out, _ = run_cli(capsys, "labels", "--N", "2", "--K", "2", *option)
        assert code == 2 and out == ""

    def test_deep_path_count(self, capsys):
        # the count at 900 strands, which a recursion over n could not reach
        got = run_json(capsys, "paths", "", "--N", "2", "--K", "2", "--strands", "900")
        assert got == {"n": 900, "diagram": [], "count": path_counts(2, 2, 900)[()]}

    def test_negative_table_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "fusion", "--table", "--max-strands", "-3", "--N", "2", "--K", "2"
        )
        assert code == 2 and out == ""
        assert err.startswith("usage error")

    def test_huge_qint_is_bounded(self, capsys):
        start = time.perf_counter()
        got = run_json(capsys, "qint", "99999999", "--N", "2", "--K", "2")
        assert time.perf_counter() - start < 1.0
        assert got == run_json(capsys, "qint", str(99999999 % 8), "--N", "2", "--K", "2")

    @pytest.mark.parametrize("argv", [
        ["labels", "--N", "13", "--K", "13"],
        ["qdim", "1", "--N", "40", "--K", "40"],
        ["qint", "3", "--N", "80", "--K", "80"],
    ])
    def test_oversized_theory_fails_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["jw", "--strands", "9", "--kind", "sym"],
        ["yidem", "9"],
    ])
    def test_nine_strand_constructions_fail_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--N", "5", "--K", "5")
        assert time.perf_counter() - start < 2.0
        assert code == 1 and out == ""
        assert err == "error: permutation tables are limited to 8 strands\n"

    def test_nine_strand_qdim_answers_at_once(self, capsys):
        # the q-Weyl product builds no table and no model
        start = time.perf_counter()
        got = run_json(capsys, "qdim", "3,3,3", "--N", "5", "--K", "5")
        assert time.perf_counter() - start < 2.0
        assert got["embed"][0] == pytest.approx(oracle_qdim(5, 5, (3, 3, 3)), abs=1e-9)
        assert got["embed"][1] == pytest.approx(0, abs=1e-9)

    @pytest.mark.parametrize("argv", [
        ["smatrix", "--N", "5", "--K", "5"],
        ["mfdim", "--genus", "1", "--N", "5", "--K", "5"],
        ["smatrix", "--N", "3", "--K", "20"],
        ["mfdim", "--genus", "1", "--N", "3", "--K", "20"],
        ["twist", "3,3,3", "--N", "5", "--K", "5"],
    ])
    def test_models_past_the_bound_fail_at_once(self, capsys, argv):
        # sum f^2 beyond 8! is refused before any path is listed
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 1 and out == ""
        assert err.startswith("error: the path model on ") and err.count("\n") == 1

    def test_closure_past_the_path_model_bound_fails_at_once(self, capsys):
        # 9 strands at (5,5): sum f^2 = 326,794 > 8!
        full_twist = " ".join(str(i) for _ in range(2) for k in range(2, 10) for i in range(k - 1, 0, -1))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "closure", "--N", "5", "--K", "5", "--strands", "9",
                                 "--braid", full_twist)
        assert time.perf_counter() - start < 2.0
        assert code == 1 and out == ""
        assert err == "error: the path model on 9 strands has dimension 326794 > 8!\n"

    def test_closure_past_the_permutation_tables(self, capsys):
        # an unlink splits into loops, up to the CLI's strand range
        start = time.perf_counter()
        got = run_json(capsys, "closure", "--N", "2", "--K", "3", "--strands", "1000", "--braid", "")
        assert time.perf_counter() - start < 2.0
        assert got["embed"][0] == pytest.approx(oracle_qdim(2, 3, (1,)) ** 1000, rel=1e-9)
        for argv in (["--strands", "1001", "--braid", ""], ["--braid", "1 1001"]):
            code, out, err = run_cli(capsys, "closure", "--N", "2", "--K", "2", *argv)
            assert code == 2 and out == ""
            assert err == "usage error: braids are limited to 1000 strands\n"

    def test_closure_beyond_the_float_range(self, capsys):
        # [5]^1000 at (5,5), about 10^510, is exact but has no float
        code, out, err = run_cli(capsys, "closure", "--N", "5", "--K", "5", "--strands", "1000",
                                 "--braid", "")
        assert code == 1 and out == ""
        assert err == "error: the value is too large to embed as a float\n"

    def test_genus_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "mfdim", "--N", "2", "--K", "1", "--genus", "1001")
        assert code == 2 and out == ""
        assert err.startswith("usage error")
        got = run_json(capsys, "mfdim", "--N", "2", "--K", "1", "--genus", "1000")
        assert got["dim"] == 2 ** 1000

    def test_arithmetic_error_is_domain_error(self, capsys, monkeypatch):
        def divide(p, args):
            raise ArithmeticError("zero has no inverse")

        monkeypatch.setattr(cli, "_cmd_qdim", divide)
        code, out, err = run_cli(capsys, "qdim", "1", "--N", "2", "--K", "2")
        assert code == 1 and out == ""
        assert err == "error: zero has no inverse\n"

    def test_malformed_diagram_is_usage_error(self, capsys):
        # non-decreasing rows are a syntax problem, not a domain one
        code, _, _ = run_cli(capsys, "qdim", "1,2", "--N", "2", "--K", "2")
        assert code == 2


# argv fuzzing: every subcommand, on the theories of the test grid and
# invalid ones, with strand counts -1..4, malformed diagrams, braid words
# and genera, and verify bounds in and out of range (a valid verify call
# at --max-n 3 takes well under a second)
THEORIES = st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (2, 3),
                            (1, 2), (2, 0), (0, 0), (-2, 3), (40, 40)])
STRANDS = st.integers(-1, 4).map(str)
DIAGRAMS = st.sampled_from(["", "1", "2", "1,1", "2,1", "2,2", "3", "1,1,1", "3,3,3",
                            "1,2", "0", "-1", "x", "1,,1", "2 1", "1.5"])
BRAIDS = st.one_of(
    st.lists(st.integers(-5, 5), max_size=6).map(lambda w: " ".join(map(str, w))),
    st.sampled_from(["a", "1 x", "--", "1.0", "+1 -1"]))
GENERA = st.sampled_from(["-1", "0", "1", "2", "1000", "1001", "x"])
MAX_N = st.sampled_from(["2", "3", "1", "7", "x"])
SEEDS = st.one_of(st.integers(-3, 10**6).map(str), st.just("x"))


def _maybe(*parts):
    return st.one_of(st.just([]), st.tuples(*parts).map(list))


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["labels", "qint", "dagger", "branch", "paths", "jw", "yidem",
                                "trace", "closure", "gram", "purify", "blocks", "fusion",
                                "qdim", "twist", "smatrix", "mfdim", "verify"]))
    N, K = draw(THEORIES)
    argv = [cmd, "--N", str(N), "--K", str(K)]
    if cmd == "qint":
        argv.append(draw(st.one_of(st.integers(-3, 20).map(str), st.just("x"))))
    elif cmd in ("dagger", "yidem", "qdim", "twist"):
        argv.append(draw(DIAGRAMS))
    elif cmd in ("branch", "paths"):
        argv += [draw(DIAGRAMS), *draw(_maybe(st.just("--strands"), STRANDS))]
    elif cmd == "jw":
        argv += ["--strands", draw(STRANDS), "--kind", draw(st.sampled_from(["sym", "antisym", "x"]))]
    elif cmd in ("trace", "closure"):
        argv += ["--braid", draw(BRAIDS), *draw(_maybe(st.just("--strands"), STRANDS))]
    elif cmd == "gram":
        argv += ["--strands", draw(STRANDS), "--form", draw(st.sampled_from(["bilinear", "hermitian"])),
                 *draw(_maybe(st.just("--full")))]
    elif cmd in ("purify", "blocks"):
        argv += ["--strands", draw(STRANDS)]
        if cmd == "blocks":
            argv += draw(_maybe(st.just("--full")))
    elif cmd == "fusion":
        if draw(st.booleans()):
            argv += ["--table", *draw(_maybe(st.just("--max-strands"), STRANDS))]
        else:
            argv += draw(st.lists(DIAGRAMS, min_size=1, max_size=3))
    elif cmd == "mfdim":
        argv += ["--genus", draw(GENERA)]
        for d in draw(st.lists(DIAGRAMS, max_size=3)):
            argv += ["--label", d]
    elif cmd == "verify":
        argv += ["--max-n", draw(MAX_N), *draw(_maybe(st.just("--seed"), SEEDS))]
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_argv())
    def test_every_input_ends_in_json_or_a_short_error(self, capsys, argv):
        """Exit 0 with JSON on stdout, or exit 1/2 with nothing on stdout;
        never a traceback, and each call within a fixed time bound."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 10.0, argv
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 0:
            json.loads(out)
        else:
            assert out == "", argv
            assert err, argv


class TestOutputModes:
    def test_pretty_matches_json(self, capsys):
        plain = run_cli(capsys, "labels", "--N", "2", "--K", "2")[1]
        pretty = run_cli(capsys, "labels", "--N", "2", "--K", "2", "--pretty")[1]
        assert json.loads(plain) == json.loads(pretty)
        assert "\n  " in pretty

    def test_plain_is_single_line(self, capsys):
        out = run_cli(capsys, "smatrix", "--N", "2", "--K", "2")[1]
        assert out.count("\n") == 1

    def test_deterministic_bytes(self, capsys):
        a = run_cli(capsys, "smatrix", "--N", "2", "--K", "2")[1]
        b = run_cli(capsys, "smatrix", "--N", "2", "--K", "2")[1]
        assert a == b


COMMANDS = ("labels", "qint", "dagger", "branch", "paths", "jw", "yidem", "trace", "closure",
            "gram", "purify", "blocks", "fusion", "qdim", "twist", "smatrix", "mfdim", "verify")


def _parse(capsys, parser, argv):
    """Exit code, stdout and stderr of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestOneCommandParser:
    """A call that names its command first builds that subparser alone,
    with the full parser's help, usage and errors."""

    def test_the_table_lists_every_command(self):
        assert tuple(cli._COMMANDS) == COMMANDS

    @pytest.mark.parametrize("name", COMMANDS)
    def test_help_is_the_full_parsers(self, capsys, name):
        full, one = cli._build_parser(), cli._build_parser(name)
        assert one.format_usage() == full.format_usage()
        got = _parse(capsys, one, [name, "-h"])
        assert got == _parse(capsys, full, [name, "-h"])
        assert got[0] == 0 and got[1].startswith(f"usage: hsk {name} [-h]")

    @pytest.mark.parametrize("name", COMMANDS)
    @pytest.mark.parametrize("extra", [
        [], ["--N", "2"], ["--N", "2", "--K", "1", "x", "y", "z", "w"]],
        ids=["bare", "no-K", "extra-args"])
    def test_usage_errors_are_the_full_parsers(self, capsys, name, extra):
        argv = [name] + extra
        got = _parse(capsys, cli._build_parser(name), argv)
        assert got == _parse(capsys, cli._build_parser(), argv)
        assert got[0] == 2 and got[1] == "" and "error: " in got[2]

    def _spy(self, monkeypatch) -> list:
        built, real = [], cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda only=None: built.append(only) or real(only))
        return built

    def test_a_call_builds_its_command_alone(self, capsys, monkeypatch):
        built = self._spy(monkeypatch)
        assert run_json(capsys, "qdim", "2,1", "--N", "3", "--K", "2")["den"] == 1
        code, _, err = run_cli(capsys, "qdim", "--N", "3")
        assert built == ["qdim", "qdim"]
        assert code == 2 and "required: --K, diagram" in err

    @pytest.mark.parametrize("argv", [["-h"], ["--N", "2", "qdim"], ["bogus"], []])
    def test_other_calls_get_the_full_parser(self, capsys, monkeypatch, argv):
        full = _parse(capsys, cli._build_parser(), argv)
        built = self._spy(monkeypatch)
        assert run_cli(capsys, *argv) == full
        assert built == [None]
        assert "{" + ",".join(COMMANDS) + "}" in full[1] + full[2]


class TestCache:
    """Only the T-basis outputs (jw, yidem, gram --full, blocks --full)
    are cached; the entry tests run on jw and yidem."""

    def test_cold_and_warm_agree(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        argv = ["jw", "--strands", "3", "--kind", "sym", "--N", "2", "--K", "2", "--cache", cache]
        cold = run_cli(capsys, *argv)[1]
        files = list((tmp_path / "c").glob("*.json"))
        assert len(files) == 1
        warm = run_cli(capsys, *argv)[1]
        assert warm == cold

    def test_entry_shape(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        run_cli(capsys, "yidem", "2", "--N", "2", "--K", "2", "--cache", cache)
        entry = json.loads(next((tmp_path / "c").glob("*.json")).read_text())
        assert set(entry) == {"version", "key", "checksum", "payload"}
        assert entry["key"][1:3] == [2, 2]

    def test_corrupt_entry_recomputed(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        argv = ["jw", "--strands", "3", "--kind", "sym", "--N", "2", "--K", "2", "--cache", cache]
        cold = run_cli(capsys, *argv)[1]
        target = next((tmp_path / "c").glob("*.json"))
        target.write_text("{not json")
        assert run_cli(capsys, *argv)[1] == cold
        # tampered payload with stale checksum is ignored too
        entry = json.loads(next((tmp_path / "c").glob("*.json")).read_text())
        entry["payload"] = {"num": [[9, 1]], "den": 1, "embed": [9.0, 0.0]}
        target.write_text(json.dumps(entry))
        assert run_cli(capsys, *argv)[1] == cold

    def test_entry_from_other_code_recomputed(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "c"
        argv = ["jw", "--strands", "3", "--kind", "sym", "--N", "2", "--K", "2",
                "--cache", str(cache)]
        real = hsk.cache._code_fingerprint()
        # an entry written by other code, with a wrong but well-formed payload
        monkeypatch.setattr(hsk.cache, "_code_fingerprint", lambda: "0" * 16)
        run_cli(capsys, *argv)
        target = next(cache.glob("*.json"))
        entry = json.loads(target.read_text())
        entry["payload"] = {"den": 1, "num": [9] + [0] * 7, "embed": [9.0, 0.0]}
        entry["checksum"] = hashlib.sha256(
            hsk.cache.ResultCache._canon(entry["payload"]).encode()).hexdigest()
        target.write_text(json.dumps(entry))
        assert run_json(capsys, *argv)["num"][0] == 9  # that code still reads it
        monkeypatch.setattr(hsk.cache, "_code_fingerprint", lambda: real)
        want = jones_wenzl(Params(2, 2), 3, "sym").to_json()
        assert run_json(capsys, *argv) == want
        assert not target.exists()  # the write pruned the other code's entry
        assert len(list(cache.glob("*.json"))) == 1

    def test_fingerprint_reads_every_source_file(self, tmp_path):
        """One byte appended to any .py file of the package changes the
        fingerprint, on a copy of the package with its own cache module."""
        pkg = tmp_path / "hsk"
        shutil.copytree(pathlib.Path(hsk.cache.__file__).parent, pkg,
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = importlib.util.spec_from_file_location("hsk_cache_copy", pkg / "cache.py")
        cache = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cache)  # the module imports only the standard library
        sources = sorted(pkg.glob("*.py"))
        assert len(sources) > 1
        before = cache._code_fingerprint()
        for path in sources:
            with path.open("ab") as fh:
                fh.write(b" ")
            cache._code_fingerprint.cache_clear()
            after = cache._code_fingerprint()
            assert after != before, path.name
            before = after

    def test_pruning_spares_other_files(self, capsys, tmp_path):
        cache = tmp_path / "c"
        cache.mkdir()
        stale = cache / ("0" * 16 + "-" + "1" * 32 + ".json")
        unprefixed = cache / ("2" * 32 + ".json")
        for f in (stale, unprefixed, cache / "notes.json", cache / "abc.json"):
            f.write_text("{}")
        run_cli(capsys, "yidem", "2", "--N", "2", "--K", "2", "--cache", str(cache))
        assert not stale.exists() and not unprefixed.exists()
        assert (cache / "notes.json").exists() and (cache / "abc.json").exists()
        assert len(list(cache.glob("*.json"))) == 3
        # the directory is pruned once per process: a later write leaves
        # an entry of other code in place
        stale.write_text("{}")
        run_cli(capsys, "yidem", "1", "--N", "2", "--K", "2", "--cache", str(cache))
        assert stale.exists()

    def test_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HSK_CACHE", str(tmp_path / "envc"))
        run_cli(capsys, "jw", "--strands", "2", "--kind", "antisym", "--N", "2", "--K", "1")
        assert list((tmp_path / "envc").glob("*.json"))

    def test_distinct_keys_distinct_files(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        run_cli(capsys, "yidem", "1", "--N", "2", "--K", "2", "--cache", cache)
        run_cli(capsys, "yidem", "2", "--N", "2", "--K", "2", "--cache", cache)
        run_cli(capsys, "yidem", "1", "--N", "2", "--K", "1", "--cache", cache)
        assert len(list((tmp_path / "c").glob("*.json"))) == 3

    def test_path_model_outputs_are_not_cached(self, capsys, tmp_path):
        cache = tmp_path / "c"
        cache.mkdir()
        for argv in (["qdim", "2"], ["smatrix"], ["fusion", "--table"]):
            run_json(capsys, *argv, "--N", "2", "--K", "2", "--cache", str(cache))
        assert list(cache.iterdir()) == []


def test_import_leaves_numpy_unloaded():
    # hsk has no runtime dependency; numpy, were anything to import it,
    # would be about half of the import time of a CLI call
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    code = "import sys, hsk.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


# The T-basis route: the permutation tables, Hecke elements, the Markov
# trace with its Gram forms, the purified algebra and the verify battery.
T_BASIS = ("hsk.perms", "hsk.hecke", "hsk.trace", "hsk.category", "hsk.verify")


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)


def test_runs_without_numpy(tmp_path):
    # with every import of numpy failing, the T-basis verify call passes
    # and the full hermitian Gram matrix prints as the golden set has it
    golden = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())
    want = next(g["stdout"] for g in golden if g["argv"] == [
        "gram", "--N", "2", "--K", "2", "--strands", "3", "--form", "hermitian", "--full"])
    verify_argv = ["verify", "--max-n", "4", "--N", "2", "--K", "2"]
    gram_argv = ["gram", "--strands", "3", "--full", "--form", "hermitian", "--N", "2", "--K", "2"]
    out = []
    for argv in (verify_argv, gram_argv):
        code = ("import sys\nsys.modules['numpy'] = None\nfrom hsk.cli import main\n"
                f"sys.exit(main({argv + ['--cache', str(tmp_path)]!r}))\n")
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert json.loads(out[0])["overall"] == "pass"
    assert out[1] == want


def _loaded_after_path_model_commands(cache, modules) -> str:
    """Which of modules a fresh interpreter holds after running every
    path-model command through cli.main."""
    commands = [["labels"], ["qdim", "2,1"], ["twist", "2,1"], ["fusion", "1", "1", "2"],
                ["fusion", "--table"], ["smatrix"], ["mfdim", "--genus", "1"],
                ["closure", "--braid", "1 -2 1 2"], ["trace", "--braid", "1 -2 1 2"],
                ["blocks", "--strands", "4"], ["purify", "--strands", "4"],
                ["gram", "--strands", "4", "--form", "hermitian"]]
    code = (
        "import contextlib, io, sys\n"
        "from hsk.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert main(argv + ['--N', '3', '--K', '2', '--cache', {str(cache)!r}]) == 0\n"
        f"print([m for m in {modules!r} if m in sys.modules])\n"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_path_model_commands_leave_the_t_basis_unloaded(tmp_path):
    # the disk cache, too, serves only the T-basis outputs
    modules = T_BASIS + ("hsk.cache",)
    assert _loaded_after_path_model_commands(tmp_path, modules) == "[]\n"


def test_path_model_commands_load_no_dataclasses_or_fractions(tmp_path):
    # dataclasses (with inspect) and fractions (with decimal) are a fixed
    # start-up cost that no path-model call needs
    stdlib = ("dataclasses", "inspect", "fractions", "decimal")
    assert _loaded_after_path_model_commands(tmp_path, stdlib) == "[]\n"


def test_import_loads_the_t_basis_on_demand():
    code = (
        "import sys, hsk\n"
        f"print([m for m in {T_BASIS!r} if m in sys.modules])\n"
        "missing = [n for n in hsk.__all__ if getattr(hsk, n, None) is None]\n"
        "print(missing, hsk.run_verify is sys.modules['hsk.verify'].run_verify)\n"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[] True\n"


def test_benchmark_tracer_names_resolve():
    import importlib

    for mod, attr, _, _ in FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"hsk.{mod}"), attr)), (mod, attr)
    for mod, cls, attr, _ in METHODS:
        assert attr in vars(getattr(importlib.import_module(f"hsk.{mod}"), cls)), (mod, cls, attr)
