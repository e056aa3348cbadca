"""Command-line interface for the Hecke-algebra category toolkit.

Every subcommand fixes the parameters with --N and --K, computes one
exact quantity, and prints it as JSON (compact by default, --pretty for
indented output).  Scalar-valued results carry the exact cyclotomic
coordinates together with a float embedding for human inspection.

Exit codes: 0 on success, 1 on a domain error (a quantity that does
not exist at these parameters, or an input outside the strand limits),
2 on a usage error (malformed arguments).  The `verify` subcommand
also exits 1 when the report contains a failed check.

A path-model call loads the package (the path-model route), argparse
and json, and builds the argparse subparser of its one command; help,
an unknown command or an option placed before the command build the
full parser.  The path-model records are namedtuples and scalars take
any numbers.Rational, so such a call loads neither dataclasses (with
inspect) nor fractions (with decimal).  Under PYTHONDONTWRITEBYTECODE,
compiling the sources is the remaining per-call floor beside the
interpreter's own start.

The T-basis outputs, `jw`, `yidem`, `gram --full` and `blocks --full`,
are computed on every call, like every other output; nothing is written
to disk, and --cache DIR is accepted and ignored.  The last two read
the radical and the central idempotents off one elimination of the path
model's block matrices of the T_w (``category.purified_algebra``);
`gram --full` also builds the n! x n! Gram matrix it prints.  The
T-basis route is imported only where it is used, so a path-model call
never loads it.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .closure import BraidWord, closure_invariant
from .diagrams import YoungDiagram, branch, dagger, labels, path_count
from .modular import (
    GRAM_LIMIT,
    block_summary,
    fusion,
    fusion_table,
    mf_dim,
    purified_dim,
    qdim,
    s_matrix,
    twist,
)
from .scalar import Params, qint

# Bound on the label count C(N+K-1, K) and on m^2, m = 2N(N+K): `labels`
# lists every label, and Q(zeta_m) keeps an m x phi(m) reduction table.
# Theories up to (5,5) (126 labels, m^2 = 10^4) run in well under a second.
_THEORY_LIMIT = 10**5

# Bound on every strand count, a braid's included: path counts at 1000
# strands stay far below JSON's digit limit, and a closure's reduction and
# loop power take time that grows with its strands, however short its word.
_STRAND_LIMIT = 1000


class UsageError(Exception):
    """Malformed command-line input; reported with exit code 2."""


# ---------------------------------------------------------------------------
# serialization helpers


def _parse_diagram(text: str) -> YoungDiagram:
    """Row lengths as comma- or space-separated positive integers;
    an empty string is the empty diagram."""
    parts = [t for t in text.replace(",", " ").split() if t]
    rows = []
    for t in parts:
        try:
            r = int(t)
        except ValueError:
            raise UsageError(f"diagram row {t!r} is not an integer")
        if r <= 0:
            raise UsageError("diagram rows must be positive")
        rows.append(r)
    if any(a < b for a, b in zip(rows, rows[1:])):
        raise UsageError("diagram rows must be weakly decreasing")
    return YoungDiagram(tuple(rows))


def _parse_braid(word: str, strands: int | None) -> BraidWord:
    letters = []
    for t in word.split():
        try:
            i = int(t)
        except ValueError:
            raise UsageError(f"braid letter {t!r} is not an integer")
        if i == 0:
            raise UsageError("braid letters must be nonzero")
        letters.append(i)
    needed = max((abs(i) for i in letters), default=0) + 1
    if strands is None:
        if not letters:
            raise UsageError("--strands is required for the empty braid word")
        strands = needed
    if strands < 1:
        raise UsageError("--strands must be positive")
    if strands > _STRAND_LIMIT:
        raise UsageError(f"braids are limited to {_STRAND_LIMIT} strands")
    if letters and strands < needed:
        raise UsageError(
            f"braid word uses generator {needed - 1}, needs at least {needed} strands"
        )
    return BraidWord(strands, tuple(letters))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (json_payload, exit_code)


def _cmd_labels(p: Params, args):
    return [list(d.rows) for d in labels(p)], 0


def _cmd_qint(p: Params, args):
    return qint(p, args.j).to_json(embed=True), 0


def _cmd_dagger(p: Params, args):
    d = _parse_diagram(args.diagram)
    return list(dagger(p, d).rows), 0


def _cmd_branch(p: Params, args):
    d = _parse_diagram(args.diagram)
    n = d.size if args.strands is None else args.strands
    return [list(b.rows) for b in branch(p, n, d)], 0


def _cmd_paths(p: Params, args):
    d = _parse_diagram(args.diagram)
    n = d.size if args.strands is None else args.strands
    return {"n": n, "diagram": list(d.rows), "count": path_count(p, n, d)}, 0


def _cmd_jw(p: Params, args):
    from .hecke import jones_wenzl

    return jones_wenzl(p, args.strands, args.kind).to_json(), 0


def _cmd_yidem(p: Params, args):
    from .hecke import young_idempotent

    d = _parse_diagram(args.diagram)
    y = young_idempotent(p, d)
    return {
        "diagram": list(d.rows),
        "hook": y.hook.to_json(embed=True),
        "quasi": y.quasi.to_json(),
        "idempotent": None if y.idem is None else y.idem.to_json(),
    }, 0


def _cmd_trace(p: Params, args):
    # Tr(b) = [N]^-n closure(b): the unlink on n strands closes to [N]^n
    b = _parse_braid(args.braid, args.braid_strands)
    return (closure_invariant(p, b) * qint(p, p.N) ** -b.strands).to_json(embed=True), 0


def _cmd_closure(p: Params, args):
    b = _parse_braid(args.braid, args.braid_strands)
    return closure_invariant(p, b).to_json(embed=True), 0


def _cmd_gram(p: Params, args):
    if not args.full:
        d = purified_dim(p, args.strands)
        return {"n": args.strands, "form": args.form, "dim": d.dim + d.radical_dim,
                "rank": d.dim, "kernel_dim": d.radical_dim}, 0
    from .trace import gram

    return gram(p, args.strands, args.form).to_json(True), 0


def _cmd_purify(p: Params, args):
    return purified_dim(p, args.strands).to_json(), 0


def _cmd_blocks(p: Params, args):
    if not args.full:
        return block_summary(p, args.strands), 0
    from .category import central_idempotents

    return central_idempotents(p, args.strands).to_json(), 0


def _cmd_fusion(p: Params, args):
    if args.table:
        cap = args.max_strands
        if cap is not None and cap < 0:
            raise UsageError("--max-strands must be nonnegative")
        return fusion_table(p, cap).to_json(), 0
    if args.a is None or args.b is None or args.c is None:
        raise UsageError("fusion needs three diagrams A B C, or --table")
    a, b, c = (_parse_diagram(t) for t in (args.a, args.b, args.c))
    return {"a": list(a.rows), "b": list(b.rows), "c": list(c.rows), "n": fusion(p, a, b, c)}, 0


def _cmd_qdim(p: Params, args):
    return qdim(p, _parse_diagram(args.diagram)).to_json(embed=True), 0


def _cmd_twist(p: Params, args):
    return twist(p, _parse_diagram(args.diagram)).to_json(embed=True), 0


def _cmd_smatrix(p: Params, args):
    return s_matrix(p).to_json(), 0


def _cmd_mfdim(p: Params, args):
    marked = [_parse_diagram(t) for t in (args.label or [])]
    if not 0 <= args.genus <= 1000:  # dimensions grow like D^(2g)
        raise UsageError("--genus must be between 0 and 1000")
    labs = [list(d.rows) for d in marked]
    return {"genus": args.genus, "labels": labs, "dim": mf_dim(p, args.genus, marked)}, 0


def _cmd_verify(p: Params, args):
    if not (2 <= args.max_n <= GRAM_LIMIT):
        raise UsageError(f"--max-n must be between 2 and {GRAM_LIMIT}")
    from .verify import run_verify

    report = run_verify(p, max_n=args.max_n, seed=args.seed)
    return report.to_json(), 0 if report.overall == "pass" else 1


# ---------------------------------------------------------------------------
# argument parsing


def _diagram_strands(sp):
    sp.add_argument("diagram", help="row lengths, e.g. '2,1'; '' = empty")
    sp.add_argument("--strands", type=int, help="strand count n (default: diagram size)")


def _braid_args(sp):
    # checked with the word in _parse_braid, not by main's range check
    sp.add_argument("--strands", type=int, dest="braid_strands", metavar="STRANDS",
                    help="strand count n")
    sp.add_argument(
        "--braid",
        required=True,
        help="whitespace-separated nonzero integers, sign = crossing sign",
    )


# name -> (help, configure): the one list of subcommands, read by the full
# parser and by the one-command parser of ``main``.  The handler of a
# name is _cmd_<name>, looked up when the parser is built.
_COMMANDS = {
    "labels": ("list the simple labels of the category", None),
    "qint": ("quantum integer [j]", lambda sp: sp.add_argument("j", type=int)),
    "dagger": (
        "dual label",
        lambda sp: sp.add_argument("diagram", help="row lengths, e.g. '2,1'; '' = empty"),
    ),
    "branch": ("one-step restriction of a label at n strands", _diagram_strands),
    "paths": ("number of admissible paths to a label", _diagram_strands),
    "jw": (
        "symmetrizer or antisymmetrizer projector",
        lambda sp: (
            sp.add_argument("--strands", type=int, required=True),
            sp.add_argument("--kind", choices=["sym", "antisym"], required=True),
        ),
    ),
    "yidem": (
        "Young idempotent of a diagram",
        lambda sp: sp.add_argument("diagram", help="row lengths, e.g. '2,1'"),
    ),
    "trace": ("Markov trace of a braid word", _braid_args),
    "closure": ("skein invariant of a braid closure", _braid_args),
    "gram": (
        "Gram matrix data of the trace form",
        lambda sp: (
            sp.add_argument("--strands", type=int, required=True),
            sp.add_argument("--form", choices=["bilinear", "hermitian"], default="bilinear"),
            sp.add_argument("--full", action="store_true", help="include the matrix"),
        ),
    ),
    "purify": (
        "dimension and radical dimension of the purified algebra",
        lambda sp: sp.add_argument("--strands", type=int, required=True),
    ),
    "blocks": (
        "block decomposition of the purified algebra",
        lambda sp: (
            sp.add_argument("--strands", type=int, required=True),
            sp.add_argument("--full", action="store_true", help="include central idempotents"),
        ),
    ),
    "fusion": (
        "fusion coefficient N_ab^c, or the full table with --table",
        lambda sp: (
            sp.add_argument("a", nargs="?", help="first label"),
            sp.add_argument("b", nargs="?", help="second label"),
            sp.add_argument("c", nargs="?", help="target label"),
            sp.add_argument("--table", action="store_true"),
            sp.add_argument("--max-strands", type=int, dest="max_strands"),
        ),
    ),
    "qdim": ("quantum dimension of a label", lambda sp: sp.add_argument("diagram")),
    "twist": ("ribbon twist eigenvalue of a label", lambda sp: sp.add_argument("diagram")),
    "smatrix": ("unnormalized S-matrix from the balancing identity", None),
    "mfdim": (
        "modular-functor dimension of a marked surface",
        lambda sp: (
            sp.add_argument("--genus", type=int, default=0),
            sp.add_argument(
                "--label",
                action="append",
                help="marked-point label (repeatable), row lengths e.g. '2,1'",
            ),
        ),
    ),
    "verify": (
        "run the invariant battery and print a report",
        lambda sp: (
            sp.add_argument("--max-n", type=int, default=5, dest="max_n"),
            sp.add_argument("--seed", type=int, default=0, help="seed for randomized checks"),
        ),
    ),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the subcommand ``only``
    alone.  That one prints the same help, usage and errors, because
    the full list of commands in its usage line is given as a metavar."""
    parser = argparse.ArgumentParser(
        prog="hsk",
        description="Exact Hecke-algebra realization of the level-K SU(N) category",
    )
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--N", type=int, required=True, help="rank (N >= 2)")
    common.add_argument("--K", type=int, required=True, help="level (K >= 1)")
    common.add_argument("--cache", metavar="DIR", help="accepted and ignored; nothing is cached")
    common.add_argument("--pretty", action="store_true", help="indented JSON output")
    for name in _COMMANDS if only is None else [only]:
        help_text, configure = _COMMANDS[name]
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if configure:
            configure(sp)
        sp.set_defaults(handler=globals()[f"_cmd_{name}"])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call that names its command first builds that subparser alone;
    # help, an unknown command or a leading option needs the full parser
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        p = Params(args.N, args.K)
        if p.m ** 2 > _THEORY_LIMIT or comb(p.N + p.K - 1, p.K) > _THEORY_LIMIT:
            raise ValueError(f"theory (N, K) = ({p.N}, {p.K}) exceeds the size limit")
        strands = getattr(args, "strands", None)
        if strands is not None and not 0 <= strands <= _STRAND_LIMIT:
            raise UsageError(f"--strands must be between 0 and {_STRAND_LIMIT}")
        payload, code = args.handler(p, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.pretty:
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
