"""Seeded op lists for the three workloads.

An op is a JSON-able dict with a ``kind`` and its arguments; ops that
are checked against another op of the same stream carry that op's
``base`` id.  The seed chooses the order of the ops and the free
arguments (braid conjugators and stabilization signs, CLI labels and
braids, where CLI repeats fall); the set of expensive computations is
fixed per workload, so that run-to-run cost differences come from the
program and the machine, not from the draw.
"""
from __future__ import annotations

from random import Random

from . import oracles as O

WORKLOADS = ("modular_data", "closures", "cli_session")


def theories(workload: str, smoke: bool = False) -> list[tuple[int, int]]:
    if smoke:
        return {"modular_data": [(2, 1), (2, 2)], "closures": [(2, 2)],
                "cli_session": [(2, 1), (2, 2)]}[workload]
    return {"modular_data": [(2, 3), (4, 1), (3, 2)], "closures": [(2, 2), (3, 2)],
            "cli_session": [(2, 1), (2, 2), (3, 1), (4, 1)]}[workload]


def make_ops(workload: str, seed: int, smoke: bool = False, draw: int = 0) -> list[dict]:
    """Op list of one pass.  A run draws a new op list for each pass
    (``draw`` 0, 1, ...) from its seed, so that its latencies pool a few
    draws and one unusual draw does not set a run's figures."""
    rng = Random(f"{workload}:{seed}:{draw}")
    build = {"modular_data": _modular_data, "closures": _closures,
               "cli_session": _cli_session}[workload]
    ops = build(rng, smoke)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


# ---------------------------------------------------------------------------
# modular_data

# Largest |lam| + |mu| per theory.  (3,2) stops at four strands: its
# five-strand rows cost about 20 s cold, longer than a whole pass; the
# five-strand Gram -> rref -> compressed-rank path is measured at (2,3).
_FUSION_CAP = {(2, 3): 5, (4, 1): 5, (3, 2): 4, (2, 1): 3, (2, 2): 3}
_SMATRIX = {(2, 3), (4, 1), (2, 1), (2, 2)}
_MF_MARKED = {
    (2, 3): [[(1,), (1,), (1,), (1,)], [(2,), (1,), (1,)]],
    (4, 1): [[(1,), (1,), (1,), (1,)], [(1, 1), (1, 1)], [(1,), (1, 1), (1,)]],
    (2, 1): [[(1,), (1,)]],
    (2, 2): [[(1,), (1,), (2,)]],
}


def _modular_data(rng: Random, smoke: bool) -> list[dict]:
    """Per theory, in the order a researcher would list them: dimensions
    and twists by label, fusion rules by strand count, S~ and its
    determinant, then modular-functor dimensions.  The seed orders the
    theories and the mf_dim calls.  Within a group the order is fixed:
    which op pays a cold cache depends on it, and seeded orders moved
    the median latency of a pass by up to a fifth, as much as the
    regressions the benchmark is meant to catch."""
    sessions = []
    for N, K in theories("modular_data", smoke):
        labs = O.labels(N, K)
        groups = [[{"kind": kind, "N": N, "K": K, "lam": list(d)} for d in labs]
                  for kind in ("qdim", "twist")]
        pairs = [(a, b) for a in labs for b in labs if sum(a) + sum(b) <= _FUSION_CAP[(N, K)]]
        by_n: dict[int, list[dict]] = {}
        for a, b in pairs:
            for c in O.gamma_n(N, K, sum(a) + sum(b)):
                by_n.setdefault(sum(a) + sum(b), []).append(
                    {"kind": "fusion", "N": N, "K": K, "lam": list(a), "mu": list(b), "nu": list(c)})
        groups += [by_n[n] for n in sorted(by_n)]
        if (N, K) in _SMATRIX:
            groups.append([{"kind": "smatrix", "N": N, "K": K}, {"kind": "sdet", "N": N, "K": K}])
        mf = [{"kind": "mfdim", "N": N, "K": K, "genus": 0, "marked": [list(d) for d in m]}
              for m in _MF_MARKED.get((N, K), [])]
        rng.shuffle(mf)
        groups.append(mf)
        sessions.append([op for g in groups for op in g])
    rng.shuffle(sessions)
    return [op for s in sessions for op in s]


# ---------------------------------------------------------------------------
# closures


def _full_twist(n: int) -> list[int]:
    half = [i for k in range(2, n + 1) for i in range(k - 1, 0, -1)]
    return half + half


def _block_transposition(a: int, b: int) -> list[int]:
    return [j for i in range(a, 0, -1) for j in range(i, i + b)]


def _inverse(word: list[int]) -> list[int]:
    return [-i for i in reversed(word)]


def _random_word(rng: Random, n: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]


def _closures(rng: Random, smoke: bool) -> list[dict]:
    """Per theory, strand counts in ascending order.  Each strand count
    opens with an unlink, which pays that count's trace-vector build
    (and, at eight strands, perm_table(8)); the rest of the group is
    shuffled.  Ops that are checked against a partner carry its index
    in ``base``."""
    strands = (3, 4, 5) if smoke else (5, 6, 7, 8)
    dense_strands = (3, 4) if smoke else (5, 6, 7)
    hopf_blocks = ((1, 2), (2, 2)) if smoke else ((2, 3), (3, 3), (3, 4))
    n_random = 4 if smoke else 48
    sessions = []
    for N, K in theories("closures", smoke):
        def op(n, word, **kw):
            return {"kind": "closure", "N": N, "K": K, "n": n, "word": word, **kw}

        # (base, partner) pairs; the partner is None for an op that has a
        # closed form of its own.
        pairs: list[tuple[dict, dict | None]] = []
        for n in strands:
            j = rng.randint(1, n - 1)
            k = rng.choice((1, -1)) * rng.randint(1, 5)
            pairs.append((op(n, [j if k > 0 else -j] * abs(k), form="torus2", k=k), None))
        # The random words themselves are fixed per theory, so every seed
        # times the same set of from_braid expansions; the seed draws
        # their conjugators, stabilization signs and order.
        words = Random(f"closure-words:{N},{K}")
        for t in range(n_random):
            n = strands[t % len(strands)]
            base = op(n, _random_word(words, n, 8 + t % 11))
            g = _random_word(rng, n, 2)
            pairs.append((base, op(n, g + base["word"] + _inverse(g), relation="conjugate")))
            if n < strands[-1]:
                s = rng.choice((1, -1))
                pairs.append((base, op(n + 1, base["word"] + [s * n],
                                       relation="stabilize+" if s > 0 else "stabilize-")))
            else:
                pairs.append((base, op(n, _inverse(base["word"]), relation="inverse")))
        # Dense words: full twists against their inverses, torus braids
        # against a conjugate, Hopf cablings against a stabilization.
        for n in dense_strands:
            ft = _full_twist(n)
            pairs.append((op(n, ft), op(n, _inverse(ft), relation="inverse")))
            torus = list(range(1, n)) * 2
            g = _random_word(rng, n, 2)
            pairs.append((op(n, torus), op(n, g + torus + _inverse(g), relation="conjugate")))
        for a, b in hopf_blocks:
            hopf = _block_transposition(a, b) + _block_transposition(b, a)
            s = rng.choice((1, -1))
            pairs.append((op(a + b, hopf), op(a + b + 1, hopf + [s * (a + b)],
                                              relation="stabilize+" if s > 0 else "stabilize-")))
        by_n: dict[int, list[dict]] = {n: [] for n in strands}
        seen: set[int] = set()
        for base, partner in pairs:
            for o in (base, partner):
                if o is not None and id(o) not in seen:
                    seen.add(id(o))
                    by_n[o["n"]].append(o)
        session = []
        for n in strands:
            rng.shuffle(by_n[n])
            i = rng.randint(1, n - 1)
            session += [op(n, [i, -i], form="unlink")] + by_n[n]
        for base, partner in pairs:
            if partner is not None:
                partner["base"] = base
        sessions.append(session)
    rng.shuffle(sessions)
    ops = [o for s in sessions for o in s]
    index = {id(o): i for i, o in enumerate(ops)}
    for o in ops:
        if "base" in o:
            o["base"] = index[id(o["base"])]
    return ops


# ---------------------------------------------------------------------------
# cli_session


def _diag(d) -> str:
    return ",".join(str(x) for x in d)


def _cli_session(rng: Random, smoke: bool) -> list[dict]:
    """Each call template has a fixed theory and strand count; the seed
    picks labels and braid words, the order, and where repeats fall."""
    ths = theories("cli_session", smoke)
    small = ths[:2] if smoke else [(2, 2), (3, 1)]
    slot = iter(range(1000))

    def theory():
        return ths[next(slot) % len(ths)]

    def call(N, K, *argv, **kw):
        return {"kind": "cli", "N": N, "K": K,
                "argv": list(argv) + ["--N", str(N), "--K", str(K)], **kw}

    unique: list[dict] = []
    for _ in range(2):
        unique.append(call(*theory(), "labels", check="labels"))
    for kind in ("qdim", "twist") * (1 if smoke else 3):
        N, K = theory()
        lam = rng.choice(O.labels(N, K))
        unique.append(call(N, K, kind, _diag(lam), check=kind, lam=list(lam)))
    for _ in range(1 if smoke else 3):
        N, K = theory()
        labs = [d for d in O.labels(N, K) if sum(d) <= 2]
        a, b = rng.choice(labs), rng.choice(labs)
        c = rng.choice(O.gamma_n(N, K, sum(a) + sum(b)))
        unique.append(call(N, K, "fusion", _diag(a), _diag(b), _diag(c), check="fusion",
                           lam=list(a), mu=list(b), nu=list(c)))
    for N, K in small:
        unique.append(call(N, K, "fusion", "--table", "--max-strands", "4",
                           check="fusion_table", cap=4))
        unique.append(call(N, K, "smatrix", check="smatrix"))
    for n in (3,) if smoke else (3, 4, 5):
        N, K = theory()
        k = rng.choice((1, -1)) * rng.randint(1, 4)
        j = rng.randint(1, n - 1)
        word = " ".join(str(j if k > 0 else -j) for _ in range(abs(k)))
        unique.append(call(N, K, "closure", "--strands", str(n), "--braid", word,
                           check="closure", n=n, k=k))
    for sub, n in (("purify", 3), ("purify", 4), ("blocks", 4), ("gram", 3), ("gram", 4)):
        unique.append(call(*theory(), sub, "--strands", str(n), check=sub, n=n))
    for genus, (N, K) in zip((0, 1), small):
        marked = [rng.choice(O.labels(N, K)[1:]) for _ in range(2 - genus)]
        argv = ["mfdim", "--genus", str(genus)]
        for d in marked:
            argv += ["--label", _diag(d)]
        unique.append(call(N, K, *argv, check="mfdim", genus=genus,
                           marked=[list(d) for d in marked]))
    N, K = small[0]
    verify = call(N, K, "verify", "--max-n", "4", check="verify")
    # Every unique call is made twice, so about half the calls are repeats.
    slots = unique + [dict(u) for u in unique]
    rng.shuffle(slots)
    seen: set[str] = set()
    ops = []
    for s in slots:
        key = " ".join(s["argv"])
        ops.append(dict(s, repeat=key in seen))
        seen.add(key)
    ops.insert(rng.randrange(len(ops) + 1), dict(verify, repeat=False))
    return ops
