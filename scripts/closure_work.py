"""Print the path-model work left after reduction on a seeded op list of
the benchmark's ``closures`` workload.

Each closure op is reduced by ``closure._reduce``; every factor it
leaves is traced in the path model on its strands, one product row per
path, so the work of the list is the letter-rows
sum over factors of len(word) * sum_lambda f_lambda.  The script prints
the op and factor counts, the letter-rows and a histogram of the
factors' strand counts:

    python3 scripts/closure_work.py                     # seed 41, draw 0
    python3 scripts/closure_work.py --seed 77 --draw 1
    python3 scripts/closure_work.py --smoke             # the smoke op list

It reads ``hskbench.workloads.make_ops`` and changes nothing there.
"""

import argparse
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from hsk import BraidWord, Params  # noqa: E402
from hsk.closure import _reduce  # noqa: E402
from hsk.seminormal import path_model  # noqa: E402
from hskbench.workloads import make_ops  # noqa: E402


def closure_work(ops: list[dict]) -> tuple[int, int, int, Counter]:
    """(ops, factors, letter-rows, factors per strand count) of the
    closure ops in ops."""
    rows: dict[tuple[Params, int], int] = {}
    count = factors = work = 0
    strands: Counter = Counter()
    for op in ops:
        if op["kind"] != "closure":
            continue
        count += 1
        p = Params(op["N"], op["K"])
        for f in _reduce(BraidWord(op["n"], tuple(op["word"])))[0]:
            if (p, f.strands) not in rows:
                rows[p, f.strands] = sum(len(b.paths) for b in path_model(p, f.strands).blocks)
            factors += 1
            work += len(f.word) * rows[p, f.strands]
            strands[f.strands] += 1
    return count, factors, work, strands


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--draw", type=int, default=0)
    ap.add_argument("--smoke", action="store_true", help="the smoke op list")
    args = ap.parse_args(argv)
    count, factors, work, strands = closure_work(
        make_ops("closures", args.seed, smoke=args.smoke, draw=args.draw))
    print(f"closures seed {args.seed} draw {args.draw}{' smoke' if args.smoke else ''}: "
          f"{count} ops, {factors} factors, {work:,} letter-rows")
    for n in sorted(strands):
        print(f"  {n} strands: {strands[n]} factors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
