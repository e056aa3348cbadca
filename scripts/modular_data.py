"""Print the modular data of the desk-scale parameter sets.

For each (N, K) of the grid, tabulate quantum dimensions, ribbon
twists and the unnormalized S-matrix, all read off the seminormal path
model, both as exact cyclotomic data and as complex approximations.
Any theory whose largest label pair fits the path model's bound (sum
f^2 <= 8!) can be given with --params.  The (2,1) row is the semion,
(2,2) the Ising anyons, (3,1) the Z_3 theory, (3,2) the smallest whose
S~ needs 8 strands.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hsk import Params, labels, qdim, s_matrix, twist

GRID = [(2, 1), (2, 2), (3, 1), (3, 2)]


def fmt(x) -> str:
    z = x.embed()
    re = f"{z.real:+.6f}".rstrip("0").rstrip(".")
    im = f"{z.imag:+.6f}".rstrip("0").rstrip(".")
    return f"{re}{im}i" if abs(z.imag) > 1e-12 else re


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--params", type=str, default=None,
                    help="comma pair N,K to restrict to one theory")
    args = ap.parse_args()
    grid = GRID
    if args.params:
        N, K = (int(t) for t in args.params.split(","))
        grid = [(N, K)]

    for N, K in grid:
        p = Params(N, K)
        labs = labels(p)
        print(f"== (N, K) = ({N}, {K}) at q = exp(2 pi i / {N + K}), "
              f"{len(labs)} labels")
        print(f"  {'label':<12} {'qdim':<16} twist")
        for d in labs:
            name = str(list(d.rows))
            print(f"  {name:<12} {fmt(qdim(p, d)):<16} {fmt(twist(p, d))}")
        s = s_matrix(p)
        print("  S~ =")
        for row in s.entries:
            print("    [" + ", ".join(f"{fmt(c):>12}" for c in row) + "]")
        print(f"  det S~ = {fmt(s.determinant())}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
