"""Golden CLI output: stdout and exit code of a fixed command set, byte
for byte.

``golden_cli.json`` holds the output of every command below as printed
by a known-good build.  Any change to an exact result, to its JSON
layout or to an exit code shows up here as a mismatch.  Each command
runs in-process through ``cli.main`` with a fresh, empty disk cache, so
every result is computed rather than read back.

To re-capture the file from a trusted checkout (never from the change
under test), run ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import json
import os
import sys

from hsk.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

THEORIES = {(2, 2): ["", "1", "2"], (3, 2): ["", "1", "2", "1,1", "2,1", "2,2"]}


def _full_twist(n: int, sign: int = 1) -> str:
    half = [i for k in range(2, n + 1) for i in range(k - 1, 0, -1)]
    return " ".join(str(sign * i) for i in half + half)


# (strands, word) pairs for closure and trace: full twists and their
# inverses on 5-7 strands, and mixed-sign words up to the 8-strand limit.
# The trace of the 7-strand inverse full twist at (3,2), whose T
# expansion takes seconds, was added later, at the end of the set.
BRAIDS = [
    (5, _full_twist(5)),
    (5, _full_twist(5, -1)),
    (6, _full_twist(6)),
    (6, _full_twist(6, -1)),
    (7, _full_twist(7)),
    (7, _full_twist(7, -1)),
    (5, "1 -2 3 -4 1 2"),
    (6, "2 -1 3 5 -4 -2 1"),
    (7, "1 2 3 4 5 6 -1 -3 -5"),
    (8, "1 -2 3 -4 5 -6 7 -1 2"),
    (8, "7 6 5 4 3 2 1 -3 -5 -7"),
]


def commands() -> list[list[str]]:
    cmds = []
    for (N, K), labs in THEORIES.items():
        pk = ["--N", str(N), "--K", str(K)]
        for n, word in BRAIDS:
            for kind in ("closure", "trace"):
                if kind == "trace" and (N, K) == (3, 2) and word == _full_twist(7, -1):
                    continue
                cmds.append([kind, *pk, "--strands", str(n), "--braid", word])
        for lab in labs:
            cmds.append(["qdim", lab, *pk])
            cmds.append(["twist", lab, *pk])
        cmds.append(["smatrix", *pk])
        for n in (1, 2, 3):
            for form in ("bilinear", "hermitian"):
                cmds.append(["gram", *pk, "--strands", str(n), "--form", form, "--full"])
        cmds.append(["fusion", "--table", "--max-strands", "4", *pk])
        cmds.append(["mfdim", *pk, "--genus", "0"])
    # marked points and handles need every fusion matrix
    pk = ["--N", "2", "--K", "2"]
    for genus in (1, 2, 5):
        cmds.append(["mfdim", *pk, "--genus", str(genus)])
    cmds.append(["mfdim", *pk, "--genus", "2", "--label", "1", "--label", "1"])
    # central idempotents pin the centre of the purified algebra
    for N, K in THEORIES:
        pk = ["--N", str(N), "--K", str(K)]
        for n in range(5):
            cmds.append(["blocks", *pk, "--strands", str(n), "--full"])
        cmds.append(["purify", *pk, "--strands", "4"])
    # small commands pin inverses (q-factorials, hooks) and path counts
    for (N, K), labs in THEORIES.items():
        pk = ["--N", str(N), "--K", str(K)]
        cmds.append(["labels", *pk])
        for j in (0, 1, 2, 3, N + K, 2 * (N + K) + 1, 99):
            cmds.append(["qint", str(j), *pk])
        for lab in labs:
            size = sum(int(t) for t in lab.split(",") if t)
            cmds.append(["dagger", lab, *pk])
            for n in (size, size + N, size + 2 * N + 1):
                cmds.append(["branch", lab, *pk, "--strands", str(n)])
                cmds.append(["paths", lab, *pk, "--strands", str(n)])
        for n in (249, 250):
            cmds.append(["paths", "", *pk, "--strands", str(n)])
        for lab in [*labs, "3", "3,1"]:
            cmds.append(["yidem", lab, *pk])
        for n in (2, 3, 4):
            for kind in ("sym", "antisym"):
                cmds.append(["jw", *pk, "--strands", str(n), "--kind", kind])
    # closures at two more theories: full twists and their inverses on
    # 6-7 strands and a mixed 8-strand word
    for N, K in ((4, 1), (2, 3)):
        pk = ["--N", str(N), "--K", str(K)]
        for n in (6, 7):
            for sign in (1, -1):
                cmds.append(["closure", *pk, "--strands", str(n), "--braid", _full_twist(n, sign)])
        cmds.append(["closure", *pk, "--strands", "8", "--braid", "1 -2 3 -4 5 -6 7 -1 2"])
    # modular data at more theories: S~, fusion tables, one handle, and
    # the qdim and twist of every label
    for N, K in ((2, 1), (3, 1), (4, 1), (2, 3)):
        cmds.append(["smatrix", "--N", str(N), "--K", str(K)])
    for N, K in ((4, 1), (2, 3)):
        cmds.append(["fusion", "--table", "--max-strands", "5", "--N", str(N), "--K", str(K)])
    for N, K in ((2, 2), (3, 1), (4, 1)):
        cmds.append(["mfdim", "--N", str(N), "--K", str(K), "--genus", "1"])
    for (N, K), labs in (((4, 1), ["", "1", "1,1", "1,1,1"]), ((2, 3), ["", "1", "2", "3"])):
        pk = ["--N", str(N), "--K", str(K)]
        for lab in labs:
            cmds.append(["qdim", lab, *pk])
            cmds.append(["twist", lab, *pk])
    # central idempotents and purified dimensions at four more theories;
    # at (4,1) every block has one path, so 5 strands stay cheap
    for N, K in ((2, 1), (3, 1), (4, 1), (2, 3)):
        pk = ["--N", str(N), "--K", str(K)]
        for n in range(6 if (N, K) == (4, 1) else 5):
            cmds.append(["blocks", *pk, "--strands", str(n), "--full"])
        cmds.append(["purify", *pk, "--strands", "4"])
    # modular data whose label pairs need 7-9 strands: S~ at (2,4) and
    # (5,1), the torus at (3,2), and a 9-box qdim, which builds no model
    for N, K in ((2, 4), (5, 1)):
        cmds.append(["smatrix", "--N", str(N), "--K", str(K)])
    cmds.append(["mfdim", "--N", "3", "--K", "2", "--genus", "1"])
    cmds.append(["qdim", "3,3,3", "--N", "5", "--K", "5"])
    # closures past the permutation tables, in the path model: full
    # twists on 10 strands, a 12-strand unlink, and a 9-strand full twist
    # at (5,5), whose path model (dimension 326,794) is refused
    for N, K in ((2, 2), (3, 2)):
        cmds.append(["closure", "--N", str(N), "--K", str(K), "--strands", "10",
                     "--braid", _full_twist(10)])
    cmds.append(["closure", "--N", "3", "--K", "2", "--strands", "12", "--braid", ""])
    cmds.append(["closure", "--N", "5", "--K", "5", "--strands", "9", "--braid", _full_twist(9)])
    # short words on 5-7 strands that no Markov move changes, captured
    # when they were still expanded over the T_w
    for N, K in ((4, 3), (5, 5)):
        for n, word in ((5, "1 1 2 -3 4 4"), (5, "1 2 -3 4 4 3 1"), (6, "1 1 2 -3 4 5 5"),
                        (6, "2 -1 -1 3 -4 5 5 -3"), (7, "1 1 2 3 -4 5 6 6"),
                        (7, "-1 -1 2 -3 4 -5 6 6 2")):
            cmds.append(["closure", "--N", str(N), "--K", str(K), "--strands", str(n),
                         "--braid", word])
    # block summaries without the centre, captured when they still ran
    # the Gram elimination, and the trace skipped above, captured from
    # the T-basis expansion
    for N, K, n in ((2, 2, 5), (2, 2, 6), (3, 2, 5)):
        cmds.append(["blocks", "--N", str(N), "--K", str(K), "--strands", str(n)])
    cmds.append(["trace", "--N", "3", "--K", "2", "--strands", "7", "--braid", _full_twist(7, -1)])
    # ranks of the trace forms, captured from the Gram elimination
    for N, K in ((2, 1), (2, 2), (3, 2), (4, 1), (2, 3)):
        pk = ["--N", str(N), "--K", str(K)]
        for n in ("0", "6"):
            cmds.append(["purify", "--strands", n, *pk])
            cmds.append(["gram", "--strands", n, *pk])
            cmds.append(["gram", "--strands", n, "--form", "hermitian", *pk])
    # closures that reduce to loops, several factors and curls of either
    # sign, captured before the curls were folded into the braid phase
    for N, K, n, word in ((3, 2, 8, "1 1 1 2 -1 -1 4 -5 -5 4 -5 7"),
                          (3, 2, 9, "1 1 1 -3 2 -3 2 5 6 5 6 5 -8"),
                          (4, 3, 7, "1 -2 1 -2 4 4 4 6"),
                          (4, 3, 8, "-1 2 -1 2 2 -4 5 -4 5 -7"),
                          (5, 5, 9, "-1 -1 -1 2 -1 3 -4 -4 -4 -3 6 6 7 -6 8"),
                          (5, 5, 9, "1 -2 1 -2 -3 -5 -5 -5 -6 -7")):
        cmds.append(["closure", "--N", str(N), "--K", str(K), "--strands", str(n),
                     "--braid", word])
    # S~ at two more theories and 6-strand fusion tables, captured before
    # the path model shared its entries across builds and fusion rows
    # computed only the columns their traces read
    for N, K in ((2, 5), (6, 1)):
        cmds.append(["smatrix", "--N", str(N), "--K", str(K)])
    for N, K in ((3, 2), (2, 3)):
        cmds.append(["fusion", "--table", "--max-strands", "6", "--N", str(N), "--K", str(K)])
    # words whose inverse pairs meet only across far-commuting letters,
    # freely or cyclically, captured before the closures cancelled them;
    # the 9- and 10-strand words are too large for (4,3) as given
    far = [(6, "1 3 -1 5 2 -4 -2 1 4 -3 -5 2"), (7, "3 1 5 -3 6 2 -1 4 -6 1 -2 3 -5 2"),
           (8, "2 4 6 1 -4 3 -6 5 7 -2 1 -3 4 -7 6"),
           (8, "3 1 5 2 -6 4 1 7 2 2 -5 6 -1 -7 5 -3")]
    wide = [(9, "-5 1 3 7 2 -1 4 -7 6 8 -3 5 -2 1 -8 3"),
            (10, "1 3 5 7 9 -1 2 4 -3 6 8 -9 -5 1 -7 3 2 -6 9 4"),
            (10, "4 -1 3 6 -8 2 5 -3 9 -6 7 1 -2 8 -5 3")]
    for N, K in ((2, 2), (3, 2), (4, 3)):
        for n, word in far + (wide if K == 2 else []):
            for kind in ("closure", "trace"):
                cmds.append([kind, "--N", str(N), "--K", str(K), "--strands", str(n),
                             "--braid", word])
    # central idempotents on 5 strands and Gram matrices with their
    # kernels on 4, captured from the elimination of the Gram matrix
    for N, K in ((3, 2), (2, 3)):
        cmds.append(["blocks", "--N", str(N), "--K", str(K), "--strands", "5", "--full"])
    for N, K in ((2, 2), (3, 2)):
        for form in ("bilinear", "hermitian"):
            cmds.append(["gram", "--N", str(N), "--K", str(K), "--strands", "4", "--form", form,
                         "--full"])
    # words whose top or bottom generator the braid relation brings to
    # one occurrence, so that a strand is destabilised, captured while
    # they were still traced whole; the 9- and 10-strand words are too
    # large for (4,3) as given
    braided = [(6, "-1 2 4 3 5 4 -3 4 5 -1 -1 -3 3 -2 3"), (6, "-1 5 -3 -1 -2 4 1 4 -3 2 5 1 -4"),
               (7, "3 2 6 5 4 3 6 5 5 1 2 1 -3 -2"), (7, "-5 -6 -3 -3 -6 1 -6 -2 -4 -1 -3 3 -5 3 2 5"),
               (8, "3 -7 4 -6 7 1 3 1 4 1 -6 5 6 -2 1 -6"), (8, "1 -7 6 -4 -2 7 -2 -3 6 1 4 2 5")]
    wide = [(9, "-1 -4 -6 -3 4 -8 3 1 -7 5 2 -1 -2 -4 -1 -8 -7 -5"),
            (9, "8 -4 4 -7 3 -2 -1 -2 4 -3 -5 8 -2 -6 8 1"),
            (10, "-3 7 6 1 -2 -8 -9 -8 7 -1 -4 7 -9 -2 -7 8 -5 -3 -3"),
            (10, "2 -7 -8 -9 4 6 -3 -4 7 -6 -1 2 4 1 -4 -4 -5 -8 9")]
    for N, K in ((2, 2), (3, 2), (4, 3)):
        for n, word in braided + (wide if K == 2 else []):
            for kind in ("closure", "trace"):
                cmds.append([kind, "--N", str(N), "--K", str(K), "--strands", str(n),
                             "--braid", word])
    return cmds


def run(argv: list[str], capsys=None) -> dict:
    code = main(argv)
    if capsys is not None:
        out = capsys.readouterr().out
    else:
        out = sys.stdout.getvalue()
        sys.stdout.seek(0)
        sys.stdout.truncate()
    return {"argv": argv, "exit": code, "stdout": out}


def _load() -> list[dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_command_set_matches_file():
    assert [rec["argv"] for rec in _load()] == commands()


def test_outputs_match_golden(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HSK_CACHE", raising=False)
    for rec in _load():
        got = run(rec["argv"], capsys)
        assert (got["exit"], got["stdout"]) == (rec["exit"], rec["stdout"]), rec["argv"]


if __name__ == "__main__":
    import io
    import tempfile

    real = sys.stdout
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.environ.pop("HSK_CACHE", None)
        sys.stdout = io.StringIO()
        try:
            records = [run(argv) for argv in commands()]
        finally:
            sys.stdout = real
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} commands to {GOLDEN}")
