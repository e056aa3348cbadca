"""Closed-form SU(N)_K data and the checks the benchmark applies to hsk results.

Nothing here imports hsk.  Every expected value comes from a formula
that does not share code with the call under test:

* quantum dimensions from the q-Weyl formula
  d_lam = prod_{i<j} [lam_i - lam_j + j - i] / [j - i];
* twists as zeta^x, zeta = exp(2 pi i / 2N(N+K)),
  x = N sum lam_i^2 - |lam|^2 + N sum lam_i (N + 1 - 2i);
* fusion coefficients and modular-functor dimensions from the Verlinde
  formula applied to the numeric Kac-Peterson S-matrix;
* labels, level-bounded Bratteli path counts and purified dimensions
  from an independent enumeration of N-row diagrams with
  lam_1 - lam_N <= K;
* braid closures from the unlink value [N]^n, the two-strand torus
  closed form, and relations between partners in the same stream
  (conjugate, inverse and stabilized braids).

A check returns None when the result agrees and a one-line reason when
it does not.
"""
from __future__ import annotations

import cmath
import json
import math
from functools import lru_cache, wraps
from itertools import permutations

TOL = 1e-7


# ---------------------------------------------------------------------------
# labels and paths


@lru_cache(maxsize=None)
def labels(N: int, K: int) -> tuple[tuple[int, ...], ...]:
    """Diagrams with fewer than N rows and first row at most K, ordered
    by size then rows (the order hsk documents for `labels`)."""
    out = []

    def rec(prefix, maximum):
        out.append(tuple(prefix))
        if len(prefix) < N - 1:
            for r in range(1, maximum + 1):
                rec(prefix + [r], r)

    rec([], K)
    return tuple(sorted(out, key=lambda d: (sum(d), d)))


def gamma_n(N: int, K: int, n: int) -> list[tuple[int, ...]]:
    return [d for d in labels(N, K) if sum(d) <= n and (n - sum(d)) % N == 0]


def _reduce(rows: tuple[int, ...], N: int) -> tuple[int, ...]:
    """Strip full columns from an N-row diagram."""
    low = rows[N - 1]
    return tuple(r - low for r in rows[: N - 1] if r - low)


@lru_cache(maxsize=None)
def path_counts(N: int, K: int, n: int) -> dict[tuple[int, ...], int]:
    """Number of box-adding paths from the empty diagram through N-row
    diagrams with lam_1 - lam_N <= K, grouped by reduced label."""
    level = {(0,) * N: 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = {}
        for rows, c in level.items():
            for i in range(N):
                if i and rows[i] + 1 > rows[i - 1]:
                    continue
                new = rows[:i] + (rows[i] + 1,) + rows[i + 1:]
                if new[0] - new[N - 1] > K:
                    continue
                nxt[new] = nxt.get(new, 0) + c
        level = nxt
    out: dict[tuple[int, ...], int] = {}
    for rows, c in level.items():
        lab = _reduce(rows, N)
        out[lab] = out.get(lab, 0) + c
    return out


def purified_dim(N: int, K: int, n: int) -> int:
    return sum(c * c for c in path_counts(N, K, n).values())


# ---------------------------------------------------------------------------
# scalars


def qnum(N: int, K: int, x: int) -> float:
    """Symmetric quantum integer [x] at q = exp(2 pi i/(N+K))."""
    h = N + K
    return math.sin(math.pi * x / h) / math.sin(math.pi / h)


def _padded(N: int, lam) -> list[int]:
    lam = list(lam)
    return lam + [0] * (N - len(lam))


def qdim(N: int, K: int, lam) -> float:
    l = _padded(N, lam)
    out = 1.0
    for i in range(N):
        for j in range(i + 1, N):
            out *= qnum(N, K, l[i] - l[j] + j - i) / qnum(N, K, j - i)
    return out


def global_dim_sq(N: int, K: int) -> float:
    return sum(qdim(N, K, d) ** 2 for d in labels(N, K))


def zeta(N: int, K: int, k: int = 1) -> complex:
    return cmath.exp(2j * math.pi * k / (2 * N * (N + K)))


def twist_exponent(N: int, lam) -> int:
    l = _padded(N, lam)
    size = sum(l)
    return (N * sum(x * x for x in l) - size * size
            + N * sum(x * (N + 1 - 2 * (i + 1)) for i, x in enumerate(l)))


def twist(N: int, K: int, lam) -> complex:
    return zeta(N, K, twist_exponent(N, lam))


def unlink(N: int, K: int, n: int) -> float:
    return qnum(N, K, N) ** n


def curl(N: int, K: int, sign: int) -> complex:
    """Stabilization factor curl(sign); curl(-1) = zeta^(N^2 - 1)."""
    return zeta(N, K, -sign * (N * N - 1))


def torus2(N: int, K: int, n: int, k: int) -> complex:
    """Closure of sigma_j^k on n strands.  T has eigenvalues q and -1,
    the Markov trace gives the -1 eigenprojector weight
    eta = [N+1]/([2][N]), and sigma = -zeta^(1-N) T."""
    q = cmath.exp(2j * math.pi / (N + K))
    eta = qnum(N, K, N + 1) / (qnum(N, K, 2) * qnum(N, K, N))
    tr = eta * (-1) ** k + (1 - eta) * q ** k
    return unlink(N, K, n) * (-zeta(N, K, 1 - N)) ** k * tr


# ---------------------------------------------------------------------------
# Kac-Peterson S-matrix and Verlinde


@lru_cache(maxsize=None)
def kac_peterson(N: int, K: int) -> tuple[tuple[complex, ...], ...]:
    """Unitary S-matrix of SU(N)_K over labels(N, K)."""
    h = N + K
    labs = labels(N, K)
    rho = [N - 1 - i for i in range(N)]
    shifted = []
    for d in labs:
        l = _padded(N, d)
        mean = sum(l) / N
        shifted.append([l[i] + rho[i] - mean for i in range(N)])
    perms = []
    for w in permutations(range(N)):
        inv = sum(1 for i in range(N) for j in range(i + 1, N) if w[i] > w[j])
        perms.append((w, -1 if inv % 2 else 1))
    raw = []
    for a in shifted:
        row = []
        for b in shifted:
            acc = 0j
            for w, sgn in perms:
                dot = sum(a[w[i]] * b[i] for i in range(N))
                acc += sgn * cmath.exp(-2j * math.pi * dot / h)
            row.append(acc)
        raw.append(row)
    norm = math.sqrt(sum(abs(x) ** 2 for x in raw[0]))
    s00 = raw[0][0] / norm
    phase = s00 / abs(s00)
    return tuple(tuple(x / norm / phase for x in row) for row in raw)


def verlinde(N: int, K: int, lam, mu, nu) -> int:
    labs = labels(N, K)
    idx = {d: i for i, d in enumerate(labs)}
    S = kac_peterson(N, K)
    a, b, c = idx[tuple(lam)], idx[tuple(mu)], idx[tuple(nu)]
    val = sum(S[a][s] * S[b][s] * S[c][s].conjugate() / S[0][s] for s in range(len(labs)))
    return _as_int(val)


def verlinde_mf_dim(N: int, K: int, genus: int, marked) -> int:
    labs = labels(N, K)
    idx = {d: i for i, d in enumerate(labs)}
    S = kac_peterson(N, K)
    val = 0j
    for s in range(len(labs)):
        term = S[0][s] ** (2 - 2 * genus)
        for d in marked:
            term *= S[idx[tuple(d)]][s] / S[0][s]
        val += term
    return _as_int(val)


def _as_int(val: complex) -> int:
    r = round(val.real)
    if abs(val - r) > 1e-6:
        raise ArithmeticError(f"Verlinde value {val} is not an integer")
    return r


# ---------------------------------------------------------------------------
# comparisons


def close(a: complex, b: complex, scale: float = 1.0) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b), scale)


class _Inconsistent(Exception):
    pass


def _embed(op, res) -> complex:
    """The complex value of an exact scalar {num, den}, evaluated here from
    its coefficients over zeta = exp(2 pi i / 2N(N+K)); the embedding hsk
    printed beside them must agree."""
    m = 2 * op["N"] * (op["N"] + op["K"])
    terms = [c * cmath.exp(2j * math.pi * j / m) for j, c in enumerate(res["num"]) if c]
    z = sum(terms, 0j) / res["den"]
    printed = complex(res["embed"][0], res["embed"][1])
    if not close(printed, z, sum(abs(t) for t in terms) / res["den"]):
        raise _Inconsistent(f"embed {printed} disagrees with its coefficients {z}")
    return z


def _guarded(check):
    @wraps(check)
    def wrapper(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except _Inconsistent as exc:
            return str(exc)

    return wrapper


@_guarded
def check_qdim(op, res):
    want = qdim(op["N"], op["K"], op["lam"])
    got = _embed(op, res)
    return None if close(got, want) else f"qdim {got} != q-Weyl {want}"


@_guarded
def check_twist(op, res):
    want = twist(op["N"], op["K"], op["lam"])
    got = _embed(op, res)
    return None if close(got, want) else f"twist {got} != zeta^x {want}"


def check_fusion(op, res):
    want = verlinde(op["N"], op["K"], op["lam"], op["mu"], op["nu"])
    return None if res == want else f"fusion {res} != Verlinde {want}"


@_guarded
def check_smatrix(op, res):
    N, K = op["N"], op["K"]
    labs = [tuple(d) for d in res["labels"]]
    if labs != list(labels(N, K)):
        return f"S labels {labs} != {list(labels(N, K))}"
    S = [[_embed(op, c) for c in row] for row in res["entries"]]
    exact = [[(tuple(c["num"]), c["den"]) for c in row] for row in res["entries"]]
    k = len(labs)
    for j, d in enumerate(labs):
        if not close(S[0][j], qdim(N, K, d)):
            return f"S[0][{j}] {S[0][j]} != qdim {qdim(N, K, d)}"
    for i in range(k):
        for j in range(i + 1, k):
            if exact[i][j] != exact[j][i]:
                return f"S not symmetric at ({i},{j})"
    D2 = global_dim_sq(N, K)
    for i in range(k):
        for j in range(k):
            v = sum(S[i][t] * S[j][t].conjugate() for t in range(k))
            if not close(v, D2 if i == j else 0.0, D2):
                return f"(S S^dagger)[{i}][{j}] = {v}, want {D2 if i == j else 0}"
    return None


@_guarded
def check_sdet(op, res, smatrix_res=None):
    """|det S~| = D^k from closed-form dimensions; when the S~ entries of
    the same theory are at hand, also numpy's determinant of them."""
    N, K = op["N"], op["K"]
    k = len(labels(N, K))
    got = _embed(op, res)
    want_abs = global_dim_sq(N, K) ** (k / 2)
    if not math.isclose(abs(got), want_abs, rel_tol=1e-7):
        return f"|det S~| {abs(got)} != D^{k} {want_abs}"
    if smatrix_res is not None:
        import numpy as np

        mat = np.array([[_embed(op, c) for c in row] for row in smatrix_res["entries"]])
        ref = complex(np.linalg.det(mat))
        if not close(got, ref, want_abs):
            return f"det S~ {got} != numeric {ref}"
    return None


def check_mfdim(op, res):
    want = verlinde_mf_dim(op["N"], op["K"], op["genus"], op["marked"])
    return None if res == want else f"mf_dim {res} != Verlinde {want}"


@_guarded
def check_closure_closed_form(op, res):
    N, K, n = op["N"], op["K"], op["n"]
    form = op.get("form")
    if form == "unlink":
        want: complex = unlink(N, K, n)
    elif form == "torus2":
        want = torus2(N, K, n, op["k"])
    else:
        return None
    got = _embed(op, res)
    return None if close(got, want, unlink(N, K, n)) else f"closure {got} != {form} {want}"


@_guarded
def check_closure_relation(op, res, base_res):
    """Relation between a partner and the base closure it was built from."""
    N, K = op["N"], op["K"]
    rel = op["relation"]
    if rel == "conjugate":
        same = res["num"] == base_res["num"] and res["den"] == base_res["den"]
        return None if same else "conjugated braid closes to a different value"
    base = _embed(op, base_res)
    if rel == "inverse":
        want = base.conjugate()
    elif rel in ("stabilize+", "stabilize-"):
        want = curl(N, K, 1 if rel == "stabilize+" else -1) * base
    else:
        return f"unknown relation {rel}"
    got = _embed(op, res)
    scale = unlink(N, K, op["n"])
    return None if close(got, want, scale) else f"{rel} partner {got} != {want}"


def _fusion_table(N: int, K: int, cap: int) -> list[tuple]:
    labs = labels(N, K)
    out = []
    for a in labs:
        for b in labs:
            if sum(a) + sum(b) > cap:
                continue
            for c in gamma_n(N, K, sum(a) + sum(b)):
                n = verlinde(N, K, a, b, c)
                if n:
                    out.append((a, b, c, n))
    return sorted(out)


def check_cli_payload(op, data):
    """Oracle for the JSON a CLI call printed."""
    N, K, check = op["N"], op["K"], op["check"]
    if check == "labels":
        want = [list(d) for d in labels(N, K)]
        return None if data == want else f"labels {data} != {want}"
    if check in ("qdim", "twist"):
        return (check_qdim if check == "qdim" else check_twist)(op, data)
    if check == "fusion":
        return check_fusion(op, data["n"])
    if check == "fusion_table":
        got = sorted((tuple(e["a"]), tuple(e["b"]), tuple(e["c"]), e["n"]) for e in data["entries"])
        want = _fusion_table(N, K, op["cap"])
        return None if got == want else "fusion table differs from Verlinde"
    if check == "smatrix":
        return check_smatrix(op, data)
    if check == "closure":
        return check_closure_closed_form(dict(op, form="torus2"), data)
    n = op.get("n")
    if check == "purify":
        dim = purified_dim(N, K, n)
        want = {"dim": dim, "radical_dim": math.factorial(n) - dim}
        return None if data == want else f"purify {data} != {want}"
    if check == "blocks":
        pc = path_counts(N, K, n)
        labs = gamma_n(N, K, n)
        want = {"n": n, "labels": [list(d) for d in labs],
                "dims": {str(list(d)): pc.get(d, 0) for d in labs}}
        return None if data == want else f"blocks {data} != {want}"
    if check == "gram":
        dim = purified_dim(N, K, n)
        size = math.factorial(n)
        want = {"n": n, "form": "bilinear", "dim": size, "rank": dim, "kernel_dim": size - dim}
        return None if data == want else f"gram {data} != {want}"
    if check == "mfdim":
        return check_mfdim(op, data["dim"])
    if check == "verify":
        ok = data.get("overall") == "pass" and data["params"]["N"] == N and data["params"]["K"] == K
        return None if ok else "verify report did not pass"
    return f"unknown check {check}"


def check_cli(op, rec, first_out):
    """Exit code, JSON shape, the payload oracle, and byte equality of a
    repeated argv with its first call (verify reports carry timings, so
    they are exempt)."""
    if rec["rc"] != 0:
        return f"exit {rec['rc']}: {rec['err'].strip()[-300:]}"
    if first_out is not None and op["check"] != "verify" and rec["out"] != first_out:
        return "repeat output differs from the first call"
    try:
        data = json.loads(rec["out"])
    except ValueError:
        return "stdout is not JSON"
    return check_cli_payload(op, data)
