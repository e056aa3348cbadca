"""Run the standing mutation checks of hsk.

Each mutant is one exact text replacement in one file, with the tests
expected to fail under it.  The tree (src, tests, hskbench and
pyproject.toml) is copied once to a temporary directory; each mutant is
applied there in turn, only its tests run, and the file is restored.
One line per mutant says whether it was

    killed    its tests failed,
    survived  its tests passed: a missing check,
    stale     its old text is not in the file exactly once: update it.

    python3 scripts/mutants.py              # every mutant
    python3 scripts/mutants.py NAME [...]   # the mutants named

The exit status is 0 when every mutant run was killed.  Only the
standard library is used; the tests need pytest and hypothesis.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter, namedtuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "hskbench", "pyproject.toml")

Mutant = namedtuple("Mutant", "name file old new tests")

SEMINORMAL = "src/hsk/seminormal.py"
CLOSURE = "src/hsk/closure.py"
MODULAR = "src/hsk/modular.py"
TRACE = "src/hsk/trace.py"
CATEGORY = "src/hsk/category.py"
SCALAR = "src/hsk/scalar.py"
DIAGRAMS = "src/hsk/diagrams.py"
HECKE = "src/hsk/hecke.py"
LINALG = "src/hsk/linalg.py"
T_SEMI = "tests/test_seminormal.py::"
T_REDUCE = "tests/test_trace.py::TestReduction::"
T_CAT = "tests/test_category.py::"
T_MOD = "tests/test_modular.py::"
T_FOLD = "tests/test_trace.py::TestPhaseFold::"

WEIGHT_CHECK = """\
    for j, (block, (weight, _)) in enumerate(zip(model.blocks, matrices)):
        if block.weight is not weight:
            raise RuntimeError(f"block {j} weight differs from its weight matrix")
"""
MEMO_LOOKUP = """\
    traces, key = model.traces, (word, phase)
    if key in traces:
        return traces[key]
"""

MUTANTS = [
    # the theory table's closed forms and entries built on demand
    Mutant("a_-d = q - 1 + a_d", SEMINORMAL,
           "        b = q - 1 - a\n", "        b = q - 1 + a\n",
           [T_SEMI + "test_blocks_satisfy_the_hecke_relations",
            T_SEMI + "test_entries_fill_per_content_difference_on_demand"]),
    Mutant("closed form without its 1/n", SEMINORMAL,
           "F.monomial_map(range(n), k, shift), n)", "F.monomial_map(range(n), k, shift), 1)",
           [T_SEMI + "test_closed_form_inverses_equal_norm_inverses"]),
    Mutant("[k]^-1 shifted by h^k, not h^(k-1)", SEMINORMAL,
           "2 * p.N * k, p.N * (k - 1))", "2 * p.N * k, p.N * k)",
           [T_SEMI + "test_closed_form_inverses_equal_norm_inverses",
            T_SEMI + "test_weights_are_quantum_dimensions"]),
    Mutant("T^-1 diagonal +q^-1 a_-d", SEMINORMAL,
           "rows[d, -1], rows[-d, -1] = (-qinv * b, qinv * off)",
           "rows[d, -1], rows[-d, -1] = (qinv * b, qinv * off)",
           [T_SEMI + "test_block_matrix_is_the_product_of_the_generators",
            T_SEMI + "test_entries_fill_per_content_difference_on_demand"]),
    Mutant("partner entry of d < 0 is q", SEMINORMAL,
           "rows[d, 1], rows[-d, 1] = (a, off), (b, one)",
           "rows[d, 1], rows[-d, 1] = (a, off), (b, q)",
           [T_SEMI + "test_blocks_satisfy_the_hecke_relations"]),
    Mutant("+ q dropped from the off-diagonal", SEMINORMAL,
           "off = a * b + q", "off = a * b",
           [T_SEMI + "test_blocks_satisfy_the_hecke_relations"]),
    Mutant("weight matrices from block.weight", SEMINORMAL,
           "weights = [table[block.label] for block in model.blocks]",
           "weights = [block.weight for block in model.blocks]",
           [T_FOLD + "test_replaced_block_weight_is_refused"]),
    Mutant("D doubled", SEMINORMAL,
           "num = [c * (wden // w.den) for c in w.num]", "num = [c * (2 * wden // w.den) for c in w.num]",
           [T_FOLD + "test_integer_combination_matches_block_sum"]),
    # the memo of closure traces
    Mutant("memo keyed on (len(word), phase)", SEMINORMAL,
           "traces, key = model.traces, (word, phase)", "traces, key = model.traces, (len(word), phase)",
           [T_FOLD + "test_integer_combination_matches_block_sum"]),
    Mutant("weight check moved after the memo lookup", SEMINORMAL,
           WEIGHT_CHECK + MEMO_LOOKUP, MEMO_LOOKUP + WEIGHT_CHECK,
           [T_FOLD + "test_replaced_block_weight_is_refused"]),
    # the closure's curl and its cancellation up to far commutation
    Mutant("curl off by one power of zeta", CLOSURE,
           "return p.zeta_pow(sign * (1 - p.N * p.N))", "return p.zeta_pow(sign * (2 - p.N * p.N))",
           [T_FOLD + "test_curl_is_the_markov_formula"]),
    Mutant("adjacent generators commute", CLOSURE,
           "last > at[g - 1][-1] and last > at[g + 1][-1] and", "last >= 0 and",
           [T_REDUCE + "test_far_commuting_pairs", T_REDUCE + "test_reduced_equals_unreduced"]),
    Mutant("a letter cancels an equal letter", CLOSURE,
           "and out[last] == -e:", "and out[last] == e:",
           [T_REDUCE + "test_far_commuting_pairs", T_REDUCE + "test_reduced_equals_unreduced"]),
    Mutant("destabilised word left uncancelled", CLOSURE,
           "todo.append((top, _commute_cancel(top, word[j + 1:] + word[:j])))",
           "todo.append((top, word[j + 1:] + word[:j]))",
           [T_REDUCE + "test_destabilised_word_is_cancelled_up_to_commutation"]),
    # the braid relation that brings a generator to one letter
    Mutant("a = -b merge takes a's sign in the middle", CLOSURE,
           "(h if b else -h, g if c else -g, h if a else -h)",
           "(h if b else -h, g if a else -g, h if a else -h)",
           [T_REDUCE + "test_braid_relation_brings_a_generator_to_one_letter",
            T_REDUCE + "test_reduced_equals_unreduced"]),
    Mutant("a = b != c pair merged", CLOSURE,
           "            if a == b != c:\n                continue\n", "",
           [T_REDUCE + "test_braid_relation_brings_a_generator_to_one_letter",
            "tests/test_seminormal.py::test_route_choice"]),
    Mutant("one count-0 arc too many asked for", CLOSURE,
           "hs.count(0) < k - 2", "hs.count(0) < k - 1",
           [T_REDUCE + "test_braid_relation_brings_a_generator_to_one_letter",
            T_REDUCE + "test_each_move"]),
    # the modular data and the hermitian form
    Mutant("every vacuum fusion coefficient raised by 1", MODULAR,
           "return tuple(found.get(nu, 0) for nu in labels(p))",
           "return tuple(found.get(nu, 0) + (not a or not b) for nu in labels(p))",
           ["tests/test_category.py::TestFusion::test_unit"]),
    # fusion rows from the fundamental rows by Pieri's first-column step
    Mutant("lam's own strip also subtracted", MODULAR,
           "        if nu != lam:\n", "        if True:\n",
           [T_MOD + "test_determinant_rows_equal_pair_rows"]),
    Mutant("E_c fold over one column too few", MODULAR,
           "row = _fold(p, YoungDiagram((1,) * c), ", "row = _fold(p, YoungDiagram((1,) * (c - 1)), ",
           [T_MOD + "test_determinant_rows_equal_pair_rows"]),
    Mutant("dagger-side row read at mu, not mu dagger", MODULAR,
           "row = _row(p, YoungDiagram((1,) * (p.N - k)), dual)",
           "row = _row(p, YoungDiagram((1,) * (p.N - k)), mu)",
           [T_MOD + "test_determinant_rows_equal_pair_rows"]),
    Mutant("negative Pieri entry let through", MODULAR,
           "if any(r < 0 for r in row):", "if False:",
           [T_MOD + "test_negative_determinant_entry_is_refused"]),
    Mutant("gram_hermitian returning -K", TRACE,
           "return tuple(zip(*_gram_rows(p, n, -1)))",
           "return tuple(tuple(-x for x in row) for row in zip(*_gram_rows(p, n, -1)))",
           ["tests/test_trace.py::TestGram::test_psd"]),
    # the echelon form of the path model over the T_w, its centre and branching
    Mutant("E on entry (t, 0), not (t, t)", CATEGORY,
           "diagonal = [(k, t == s) for", "diagonal = [(k, s == 0) for",
           [T_CAT + "TestOldRoutes::test_echelon_form_is_the_gram_elimination",
            T_CAT + "TestBlocks::test_resolution_of_identity_mod_radical"]),
    Mutant("a pivot in E let through", CATEGORY,
           "if piv[-1] >= size:", "if piv[-1] > size:",
           [T_CAT + "TestBlocks::test_lost_block_is_caught"]),
    Mutant("branching reads the previous block", CATEGORY,
           "k = path_model(p, n), perm_table(n).word, labs.index(lam)",
           "k = path_model(p, n), perm_table(n).word, labs.index(lam) - 1",
           [T_CAT + "TestBranching::test_multiplicities_match_path_recursion",
            T_CAT + "TestBranching::test_known_values"]),
    # the letter programs and the packed product
    Mutant("slot width capped at 48 bits", SEMINORMAL,
           "    w = bound.bit_length() + 1\n", "    w = min(bound.bit_length() + 1, 48)\n",
           [T_SEMI + "test_block_matrix_is_the_product_of_the_generators",
            "tests/test_modular.py"]),
    Mutant("template key without the scale", SEMINORMAL,
           "key = (d, sign, partner, self.scale, T)", "key = (d, sign, partner, T)",
           [T_SEMI + "test_models_on_a_warm_table_equal_cold_builds"]),
    Mutant("letter growth from one row kind", SEMINORMAL,
           "growth, widest = max(1, *norms), max(sizes)",
           "growth, widest = max(1, norms[0]), max(sizes)",
           [T_SEMI + "test_programs_pad_rows_by_scope",
            T_SEMI + "test_one_product_over_the_model_is_the_block_products"]),
    Mutant("reorder shifted by one row", SEMINORMAL,
           "itemgetter(*(place[t] * phi + k for t",
           "itemgetter(*((place[t] + 1) % len(place) * phi + k for t",
           [T_SEMI + "test_one_product_over_the_model_is_the_block_products",
            T_SEMI + "test_path_route_matches_t_route_on_mixed_words"]),
    # the scalar field, the labels, the T basis and elimination
    Mutant("conjugation as the identity", SCALAR,
           "monomial_map(self.num, -1), self.den)", "monomial_map(self.num, 1), self.den)",
           ["tests/test_scalar.py::TestConjugation::test_matches_complex_conjugation"]),
    Mutant("Gamma's level bound one column short", DIAGRAMS,
           "d.nrows < p.N and d.row(0) <= p.K\n", "d.nrows < p.N and d.row(0) < p.K\n",
           ["tests/test_diagrams.py::TestLabels::test_stats_flags",
            "tests/test_diagrams.py::TestPathCount::test_su2_level2_values"]),
    Mutant("(q - 1) T_w with the wrong sign", HECKE,
           "qs1 = qs - 1\n", "qs1 = 1 - qs\n",
           ["tests/test_hecke.py::TestQuadraticRelation::test_t_squared"]),
    Mutant("determinant ignoring a row swap", LINALG,
           "det = (-det if swapped else det) * d", "det = det * d",
           ["tests/test_linalg.py::test_determinant_leaves_input_unchanged",
            "tests/test_linalg.py::test_laplace_matches_elimination"]),
]


def is_stale(root: pathlib.Path, mutant: Mutant) -> bool:
    """True when the mutant's old text is not in its file exactly once."""
    path = root / mutant.file
    return not path.is_file() or path.read_text(encoding="utf-8").count(mutant.old) != 1


def run(tree: pathlib.Path, mutant: Mutant) -> str:
    """Apply the mutant in tree, run its tests, restore the file."""
    if is_stale(tree, mutant):
        return "stale"
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=tree, env=env, capture_output=True, text=True)
    finally:
        path.write_text(text, encoding="utf-8")
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:
        return "killed"
    return f"error (pytest exit {done.returncode}: {done.stdout.strip().splitlines()[-1:]})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("names", nargs="*", help="run only the mutants of these names")
    args = ap.parse_args()
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        ap.error(f"no mutant named {sorted(unknown)}")
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="hsk-mutants-") as tmp:
        tree = pathlib.Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hskbench-out"))
            else:
                shutil.copy2(src, tree / name)
        for mutant in chosen:
            start = time.perf_counter()
            outcome = run(tree, mutant)
            outcomes.append(outcome)
            print(f"{outcome:<9} {time.perf_counter() - start:6.1f}s  {mutant.file}: {mutant.name}",
                  flush=True)
    per_file: dict[str, Counter] = {}
    for mutant, outcome in zip(chosen, outcomes):
        per_file.setdefault(mutant.file, Counter())[outcome.split()[0]] += 1
    for file, counts in per_file.items():
        print(f"{file}: {counts['killed']} killed, {counts['survived']} survived, "
              f"{counts['stale']} stale")
    killed = outcomes.count("killed")
    print(f"{killed}/{len(outcomes)} killed, {outcomes.count('stale')} stale")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
