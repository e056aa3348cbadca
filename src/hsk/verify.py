"""Structured self-check runner for one parameter set (N, K).

Executes the library's invariant battery -- scalar arithmetic, diagram
combinatorics, Hecke algebra conventions, Markov trace axioms, Gram
positivity, block decomposition, fusion, modular data, and skein
closures -- and collects the outcome of each named check in a report.
The acceptance criteria of the test suite are timed runs of these
same checks, so each invariant has one implementation.  Verdicts are
exact; floats enter only where ``scalar.embed`` is under test and in
the certified sign of the pivots that decide ``trace.gram_psd``.

Checks are deterministic: all randomness is drawn from a seeded
generator, so two runs with the same (N, K, max_n, seed) produce the
same sequence of test elements and the same pass/fail verdicts.  A
check that is out of scope for the given parameters (for example
Jones-Wenzl projectors beyond the vanishing quantum factorial, or an
S-matrix whose largest label pair needs a path model beyond its
bound) is reported as skipped with the reason, never silently dropped.

The checks on the T basis of A_n and its Gram matrices (ranks, positivity,
blocks, branching) stop at five strands (``FORM_CHECK_LIMIT``) whatever
max_n is: the 720 x 720 exact Gram matrix at six strands is outside
desk-scale budgets.  Fusion and modular-functor dimensions run in the
seminormal path model and build no Gram matrix; they keep the same
five-strand budget, except the torus, which like S~ needs the largest
label pair and is bounded only by that pair's path model.  S~ is also
compared entry by entry with the exact Kac-Peterson sum over S_N for
N <= 5 (``KAC_PETERSON_LIMIT``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from random import Random

from .closure import (
    BraidWord,
    closure_invariant,
    curl_scalar,
    loop_power,
)
from .diagrams import (
    YoungDiagram,
    branch,
    dagger,
    gamma_n,
    labels,
    pad,
    path_counts,
    weight,
)
from .hecke import (
    HeckeElement,
    e_idempotent,
    from_braid,
    jones_wenzl,
    random_element,
    sigma_element,
    star,
    tensor_embed,
    young_idempotent,
)
from .linalg import positive_definite
from .modular import (
    GRAM_LIMIT,
    fusion,
    fusion_table,
    mf_dim,
    qdim,
    s_matrix,
    twist,
)
from .perms import perm_table
from .scalar import Params, Scalar, qint
from .seminormal import check_size
from .trace import (
    _closure_unreduced,
    eta,
    gram,
    gram_rref,
    markov_trace,
    trace_parameter,
)
from .category import (
    branching_multiplicity,
    central_idempotents,
)

# Gram matrices at six strands (720 x 720 exact entries) are beyond a
# desk-scale run; form-based checks stop here even when max_n = 6.
FORM_CHECK_LIMIT = 5
# Largest N whose S~ is compared with the Kac-Peterson sum, N! terms an entry.
KAC_PETERSON_LIMIT = 5


class CheckFailure(Exception):
    """An invariant did not hold; the message describes the violation."""


class CheckSkip(Exception):
    """A check is out of scope for these parameters; message says why."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    details: str
    elapsed: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "details": self.details,
            "elapsed": self.elapsed,
        }


@dataclass(frozen=True)
class VerifyReport:
    N: int
    K: int
    max_n: int
    seed: int
    checks: tuple[CheckResult, ...]
    overall: str  # "pass" iff no check failed

    def to_json(self) -> dict:
        return {
            "params": {"N": self.N, "K": self.K, "max_n": self.max_n, "seed": self.seed},
            "checks": [c.to_json() for c in self.checks],
            "overall": self.overall,
        }


def _random_scalar(p: Params, rng: Random) -> Scalar:
    out = p.zero
    for _ in range(3):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        out = out + p.scalar(c) * p.zeta_pow(rng.randrange(p.m))
    return out


def _assert(cond: bool, msg: str):
    if not cond:
        raise CheckFailure(msg)


# ---------------------------------------------------------------------------
# scalar checks


def _check_scalar_embed(p: Params, max_n: int, rng: Random) -> str:
    for _ in range(25):
        x, y = _random_scalar(p, rng), _random_scalar(p, rng)
        lhs = (x * y).embed()
        rhs = x.embed() * y.embed()
        _assert(abs(lhs - rhs) < 1e-10, f"embed not multiplicative: {lhs} vs {rhs}")
    return "embed(x*y) = embed(x)*embed(y) within 1e-10 on 25 random pairs"


def _check_scalar_conjugation(p: Params, max_n: int, rng: Random) -> str:
    for _ in range(25):
        x, y = _random_scalar(p, rng), _random_scalar(p, rng)
        _assert(x.conjugate().conjugate() == x, "conjugation is not an involution")
        _assert(
            (x * y).conjugate() == x.conjugate() * y.conjugate(),
            "conjugation is not multiplicative",
        )
        _assert(
            (x + y).conjugate() == x.conjugate() + y.conjugate(),
            "conjugation is not additive",
        )
    z = p.zeta_pow(1)
    _assert(z.conjugate() == p.zeta_pow(p.m - 1), "conjugate(zeta) != zeta^(m-1)")
    return "involution and ring homomorphism on 25 random pairs; conj(zeta) = zeta^-1"


def _check_scalar_qint(p: Params, max_n: int, rng: Random) -> str:
    for j in range(1, p.N + p.K):
        _assert(not qint(p, j).is_zero(), f"[{j}] = 0 but {j} < N+K")
    _assert(qint(p, p.N + p.K).is_zero(), "[N+K] != 0")
    return f"[j] != 0 for 1 <= j < {p.N + p.K} and [{p.N + p.K}] = 0"


def _check_scalar_inverse(p: Params, max_n: int, rng: Random) -> str:
    done = 0
    while done < 25:
        x = _random_scalar(p, rng)
        if x.is_zero():
            continue
        _assert(x * x.inverse() == p.one, "x * invert(x) != 1")
        done += 1
    return "x * invert(x) = 1 exactly on 25 random nonzero scalars"


# ---------------------------------------------------------------------------
# diagram checks


def _check_dagger(p: Params, max_n: int, rng: Random) -> str:
    labs = labels(p)
    for d in labs:
        dd = dagger(p, d)
        _assert(dd in labs, f"dagger({d.rows}) left the label set")
        _assert(dagger(p, dd) == d, f"dagger not involutive on {d.rows}")
    _assert(dagger(p, YoungDiagram.of()) == YoungDiagram.of(), "dagger(empty) != empty")
    return f"involution on all {len(labs)} labels; dagger(empty) = empty"


def _check_weight_bijection(p: Params, max_n: int, rng: Random) -> str:
    labs = labels(p)
    seen = set()
    for d in labs:
        w = weight(p, d)
        _assert(w.in_level_alcove, f"label {d.rows} outside the level alcove")
        _assert(0 <= w.pairing <= p.K, f"pairing of {d.rows} out of range")
        seen.add(w.coeffs)
    _assert(len(seen) == len(labs), "weight map is not injective on labels")
    # enumerate the alcove directly: coefficients a_1..a_{N-1} >= 0 with
    # (Lambda, theta) = a_1 + ... + a_{N-1} <= K
    def alcove(i: int, budget: int):
        if i == p.N - 1:
            yield ()
            return
        for a in range(budget + 1):
            for rest in alcove(i + 1, budget - a):
                yield (a,) + rest

    target = set(alcove(0, p.K))
    _assert(seen == target, "weights of labels != level-K alcove")
    return f"labels biject onto the {len(target)} dominant weights with (w,theta) <= {p.K}"


def _check_pad_bijection(p: Params, max_n: int, rng: Random) -> str:
    cap = min(max_n, 8)
    for n in range(cap + 1):
        image = set()
        for d in gamma_n(p, n):
            q = pad(p, d, n)
            _assert(q.size == n, f"pad({d.rows}, {n}) has wrong size")
            _assert(q.nrows <= p.N, f"pad({d.rows}, {n}) has too many rows")
            _assert(
                q.row(0) - q.row(p.N - 1) <= p.K,
                f"pad({d.rows}, {n}) leaves the alcove",
            )
            image.add(q.rows)

        target = {d.rows for d in _partitions(n)
                  if d.nrows <= p.N and d.row(0) - d.row(p.N - 1) <= p.K}
        _assert(
            image == target,
            f"pad image at n={n} is {sorted(image)} but expected {sorted(target)}",
        )
    return f"pad is a bijection onto bounded diagrams for n <= {cap}"


def _check_path_recursion(p: Params, max_n: int, rng: Random) -> str:
    for n in range(1, max_n + 1):
        counts, before = path_counts(p, n), path_counts(p, n - 1)
        for d, pc in counts.items():
            below = sum(before[b] for b in branch(p, n, d))
            _assert(pc == below, f"path_count({n}, {d.rows}) = {pc} but branch sum = {below}")
        total = sum(pc * pc for pc in counts.values())
        _assert(total <= factorial(n), f"sum of squared path counts exceeds {n}!")
    return f"branching recursion and sum-of-squares bound for n <= {max_n}"


# ---------------------------------------------------------------------------
# Hecke algebra checks


def _check_braid_relations(p: Params, max_n: int, rng: Random) -> str:
    n = min(max_n, 6)
    if n < 2:
        raise CheckSkip("needs at least 2 strands")
    for i in range(1, n - 1):
        lhs = from_braid(p, BraidWord(n, (i, i + 1, i)))
        rhs = from_braid(p, BraidWord(n, (i + 1, i, i + 1)))
        _assert(lhs == rhs, f"braid relation fails at i={i}, n={n}")
    for i in range(1, n):
        for j in range(i + 2, n):
            lhs = from_braid(p, BraidWord(n, (i, j)))
            rhs = from_braid(p, BraidWord(n, (j, i)))
            _assert(lhs == rhs, f"far commutation fails at ({i},{j})")
        prod = from_braid(p, BraidWord(n, (i, -i)))
        _assert(prod == HeckeElement.identity(p, n), f"sigma_{i} inverse fails")
    return f"braid, far-commutation and inverse relations on {n} strands"


def _check_quadratic_skein(p: Params, max_n: int, rng: Random) -> str:
    n = min(max_n, 4)
    if n < 2:
        raise CheckSkip("needs at least 2 strands")
    one = HeckeElement.identity(p, n)
    tbl = perm_table(n)
    for i in range(1, n):
        ol = list(range(n))
        ol[i - 1], ol[i] = ol[i], ol[i - 1]
        t = HeckeElement.basis(p, n, tbl.index[tuple(ol)])
        _assert(
            t * t == t.scale(p.q - p.one) + one.scale(p.q),
            f"quadratic relation fails for T_{i}",
        )
        sig = sigma_element(p, n, i)
        sig_inv = sigma_element(p, n, i, -1)
        # skein: q^(-1/2N) sigma - q^(1/2N) sigma^(-1) = (q^(-1/2) - q^(1/2)) Id
        lhs = sig.scale(p.zeta_pow(-1)) - sig_inv.scale(p.zeta_pow(1))
        rhs = one.scale(p.q_half_pow(-1) - p.q_half_pow(1))
        _assert(lhs == rhs, f"skein relation fails for sigma_{i}")
    return f"quadratic and skein relations on {n} strands"


def _check_star(p: Params, max_n: int, rng: Random) -> str:
    n = min(max_n, 5)
    for _ in range(10):
        x = random_element(p, n, rng)
        y = random_element(p, n, rng)
        _assert(star(x * y) == star(y) * star(x), "(xy)* != y* x*")
        _assert(star(star(x)) == x, "star is not an involution")
    return f"conjugate-linear anti-automorphism on 10 random pairs in H_{n}"


def _check_e_idempotents(p: Params, max_n: int, rng: Random) -> str:
    for n in range(2, min(max_n, 5) + 1):
        for i in range(1, n):
            e = e_idempotent(p, n, i)
            _assert(e * e == e, f"e_{i} not idempotent in H_{n}")
            _assert(star(e) == e, f"e_{i} not star-fixed in H_{n}")
    return f"e_i idempotent and star-fixed for all i, n <= {min(max_n, 5)}"


def _check_jw(p: Params, max_n: int, rng: Random) -> str:
    cap = min(max_n, p.N + p.K - 1, 5)
    if cap < 2:
        raise CheckSkip(f"no multi-strand projector below n = N+K = {p.N + p.K}")
    f_eig = p.zeta_pow(1 - p.N)
    g_eig = -p.zeta_pow(1 + p.N)
    for n in range(2, cap + 1):
        f = jones_wenzl(p, n, "sym")
        g = jones_wenzl(p, n, "antisym")
        _assert(f * f == f, f"f_{n} not idempotent")
        _assert(g * g == g, f"g_{n} not idempotent")
        for i in range(1, n):
            sig = sigma_element(p, n, i)
            e = e_idempotent(p, n, i)
            _assert(sig * f == f.scale(f_eig), f"sigma eigenvalue on f_{n} wrong")
            _assert(sig * g == g.scale(g_eig), f"sigma eigenvalue on g_{n} wrong")
            _assert(e * f == f and f * e == f, f"e_{i} does not absorb into f_{n}")
            _assert((e * g).is_zero() and (g * e).is_zero(), f"e_{i} g_{n} != 0")
    return f"projector eigenvalues and absorption for n <= {cap}"


def _check_young_quasi(p: Params, max_n: int, rng: Random) -> str:
    cap = min(max_n, 5)
    limit = p.N + p.K
    count = 0
    for n in range(1, cap + 1):
        for d in _partitions(n):
            if d.row(0) >= limit or d.transpose().row(0) >= limit:
                continue
            y = young_idempotent(p, d)
            _assert(
                y.quasi * y.quasi == y.quasi.scale(y.hook),
                f"quasi-idempotent law fails for {d.rows}",
            )
            count += 1
    return f"y~^2 = hook * y~ for {count} diagrams of size <= {cap}"


def _check_young_orthogonality(p: Params, max_n: int, rng: Random) -> str:
    cap = min(max_n, 4)
    limit = p.N + p.K
    pairs = 0
    for n in range(2, cap + 1):
        ds = [
            d
            for d in _partitions(n)
            if d.row(0) < limit and d.transpose().row(0) < limit
            and young_idempotent(p, d).idem is not None
        ]
        for a in ds:
            ya = young_idempotent(p, a).idem
            for b in ds:
                yb = young_idempotent(p, b).idem
                for _ in range(3):
                    x = random_element(p, n, rng)
                    prod = ya * x * yb
                    if a == b:
                        _assert(
                            prod.proportionality(ya) is not None,
                            f"y x y not proportional to y for {a.rows}",
                        )
                    else:
                        _assert(prod.is_zero(), f"y_a x y_b != 0 for {a.rows},{b.rows}")
                    pairs += 1
    return f"two-sided orthogonality on {pairs} random products, sizes <= {cap}"


def _partitions(n: int) -> list[YoungDiagram]:
    out: list[YoungDiagram] = []

    def rec(prefix: list[int], remaining: int, maximum: int):
        if remaining == 0:
            out.append(YoungDiagram(tuple(prefix)))
            return
        for r in range(min(maximum, remaining), 0, -1):
            rec(prefix + [r], remaining - r, r)

    rec([], n, n)
    return out


# ---------------------------------------------------------------------------
# trace checks


def _check_trace_normalization(p: Params, max_n: int, rng: Random) -> str:
    for n in range(1, max_n + 1):
        _assert(
            markov_trace(p, HeckeElement.identity(p, n)) == p.one,
            f"Tr(1) != 1 in H_{n}",
        )
    for n in range(2, min(max_n, 5) + 1):
        for i in range(1, n):
            _assert(
                markov_trace(p, e_idempotent(p, n, i)) == eta(p),
                f"Tr(e_{i}) != eta in H_{n}",
            )
    zt = trace_parameter(p)
    _assert(
        zt == p.q - (p.q + p.one) * eta(p),
        "zeta_T != q - (q+1) eta",
    )
    return f"Tr(1) = 1 and Tr(e_i) = eta for n <= {max_n}"


def _check_trace_property(p: Params, max_n: int, rng: Random) -> str:
    for n in range(2, min(max_n, 5) + 1):
        for _ in range(6):
            x = random_element(p, n, rng)
            y = random_element(p, n, rng)
            _assert(
                markov_trace(p, x * y) == markov_trace(p, y * x),
                f"Tr(xy) != Tr(yx) in H_{n}",
            )
    return f"Tr(xy) = Tr(yx) on random pairs, n <= {min(max_n, 5)}"


def _check_markov_property(p: Params, max_n: int, rng: Random) -> str:
    for n in range(2, min(max_n, 5) + 1):
        et = eta(p)
        for _ in range(6):
            x = random_element(p, n - 1, rng)
            y = random_element(p, n - 1, rng)
            strand = HeckeElement.identity(p, 1)
            xe = tensor_embed(x, strand)
            ye = tensor_embed(y, strand)
            e_top = e_idempotent(p, n, n - 1)
            _assert(
                markov_trace(p, xe * e_top) == et * markov_trace(p, x),
                f"one-sided Markov property fails in H_{n}",
            )
            _assert(
                markov_trace(p, xe * e_top * ye) == et * markov_trace(p, x * y),
                f"two-sided Markov property fails in H_{n}",
            )
    return f"conditional expectation onto H_(n-1) with weight eta, n <= {min(max_n, 5)}"


def _check_trace_star(p: Params, max_n: int, rng: Random) -> str:
    for n in range(2, min(max_n, 5) + 1):
        for _ in range(6):
            x = random_element(p, n, rng)
            _assert(
                markov_trace(p, star(x)) == markov_trace(p, x).conjugate(),
                f"Tr(x*) != conj Tr(x) in H_{n}",
            )
    return f"Tr(x*) = conjugate(Tr(x)) on random elements, n <= {min(max_n, 5)}"


def _check_gram_rank(p: Params, max_n: int, rng: Random) -> str:
    cap = min(max_n, FORM_CHECK_LIMIT)
    ranks = []
    for n in range(1, cap + 1):
        expected = sum(f * f for f in path_counts(p, n).values())
        rank = len(gram_rref(p, n)[1])
        _assert(rank == expected, f"bilinear rank at n={n}: {rank} != {expected}")
        ranks.append(expected)
    note = "" if max_n <= cap else f" (n > {cap} skipped: desk-scale budget)"
    return (f"bilinear rank = sum of squared path counts, n <= {cap}: {ranks}{note}; "
            "trace.gram_psd proves the hermitian rank equal")


def _check_gram_psd(p: Params, max_n: int, rng: Random) -> str:
    """K is PSD of rank |J|, J the bilinear pivot columns of
    ``gram_rref``: K is hermitian, each r in the bilinear radical R has
    r^T K = 0 (so K conj(r) = 0), and every x is y + r with y supported
    on J, so x^T K conj(x) = y^T K conj(y); a positive definite pivot
    block K[J][J] leaves R as the kernel.  The basis of R is that of
    ``gram``, read off the path model's echelon form, so its check
    against K is also one across the two routes."""
    cap = min(max_n, FORM_CHECK_LIMIT)
    for n in range(1, cap + 1):
        gh = gram(p, n, "hermitian")
        herm = gh.matrix
        size = len(herm)
        _assert(all(herm[v][u] == herm[u][v].conjugate()
                    for u in range(size) for v in range(u, size)),
                f"hermitian Gram at n={n} is not a hermitian matrix")
        for x in gh.kernel_basis:
            _assert(
                all(sum((c * herm[u][v] for u, c in x.terms.items()), p.zero).is_zero()
                    for v in range(size)),
                f"bilinear radical vector outside the hermitian radical at n={n}",
            )
        piv = gram_rref(p, n)[1]
        _assert(positive_definite(p, [[herm[i][j] for j in piv] for i in piv]),
                f"hermitian Gram at n={n} is not positive semidefinite: "
                "its pivot block is not positive definite")
    return (f"hermitian, bilinear radical in its kernel and pivot block positive definite "
            f"(Sylvester, exact), so PSD of rank = bilinear rank, n <= {cap}")


def _closure_both(p: Params, b: BraidWord) -> Scalar:
    """The closure of b without the Markov-move reduction, after checking
    that the reduced closure equals it: with the reduction, closure
    identities on closure_invariant alone would test it against itself."""
    val = _closure_unreduced(p, b)
    _assert(closure_invariant(p, b) == val, f"reduced closure of {b.word} != unreduced")
    return val


def _check_framing(p: Params, max_n: int, rng: Random) -> str:
    # the Markov formula curl(s) = -[N] q^(s(1-N)/2N) Tr(T_{s_i}^s); curl(-1)
    # = zeta^(N^2-1), the framing factor, by construction
    zt = trace_parameter(p)
    for sign, tr in ((1, zt), (-1, p.q_pow(-1) * (zt + 1) - 1)):
        _assert(
            curl_scalar(p, sign) == -qint(p, p.N) * p.zeta_pow(sign * (1 - p.N)) * tr,
            f"curl({sign}) != -[N] q^({sign}(1-N)/2N) Tr(T^{sign})",
        )
    for n in range(1, min(max_n, 4) + 1):
        _assert(
            _closure_both(p, BraidWord(n, ())) == loop_power(p, n),
            f"trivial {n}-braid closure != [N]^{n}",
        )
    for sign in (1, -1):
        val = _closure_both(p, BraidWord(2, (sign,)))
        _assert(
            val == curl_scalar(p, sign) * qint(p, p.N),
            f"one-crossing closure (sign {sign}) != curl * [N]",
        )
    return "curls equal the Markov formula; matching sign gives q^((N^2-1)/2N) * [N]"


def _check_stabilization(p: Params, max_n: int, rng: Random) -> str:
    cap = min(max_n - 1, 3)
    if cap < 1:
        raise CheckSkip("needs at least 2 strands")
    count = 0
    for n in range(1, cap + 1):
        for _ in range(5):
            word = tuple(
                rng.choice([1, -1]) * rng.randint(1, max(1, n - 1))
                for _ in range(rng.randint(0, 5))
            ) if n > 1 else ()
            base = _closure_both(p, BraidWord(n, word))
            for sign in (1, -1):
                stab = BraidWord(n + 1, word + (sign * n,))
                _assert(
                    _closure_both(p, stab) == curl_scalar(p, sign) * base,
                    f"Markov stabilization fails for word {word}, sign {sign}",
                )
            count += 1
    return f"stabilization multiplies the closure by the curl scalar, {count} random braids"


# ---------------------------------------------------------------------------
# category checks


def _check_blocks(p: Params, max_n: int, rng: Random) -> str:
    cap = min(max_n, FORM_CHECK_LIMIT)
    for n in range(1, cap + 1):
        dims = {d: e.dim for d, e in central_idempotents(p, n).blocks.items()}
        _assert(dims == path_counts(p, n), f"blocks differ from the path counts of Gamma^{n}")
        _assert(
            sum(f * f for f in dims.values()) == len(gram_rref(p, n)[1]),
            f"sum of squared block dims != Gram rank at n={n}",
        )
    note = "" if max_n <= cap else f" (n > {cap} skipped: desk-scale budget)"
    return f"central decomposition matches Gamma^n and path counts, n <= {cap}{note}"


def _check_branching(p: Params, max_n: int, rng: Random) -> str:
    cap = min(max_n, FORM_CHECK_LIMIT)
    checked = 0
    for n in range(2, cap + 1):
        for lam in gamma_n(p, n):
            downs = set(b.rows for b in branch(p, n, lam))
            for sub in gamma_n(p, n - 1):
                m = branching_multiplicity(p, n, lam, sub)
                expected = 1 if sub.rows in downs else 0
                _assert(
                    m == expected,
                    f"branching multiplicity ({lam.rows} -> {sub.rows}) = {m}, expected {expected}",
                )
                checked += 1
    return f"0/1 branching indicator matches the lattice on {checked} pairs, n <= {cap}"


def _check_fusion(p: Params, max_n: int, rng: Random) -> str:
    cap = min(max_n, FORM_CHECK_LIMIT)
    table = fusion_table(p, cap)
    labs = labels(p)
    empty = YoungDiagram.of()
    box = YoungDiagram.of(1)
    for lam in labs:
        if lam.size > cap:
            continue
        for nu in labs:
            want = 1 if nu == lam else 0
            _assert(
                table.coefficient(lam, empty, nu) == want,
                f"unit fusion fails at {lam.rows}",
            )
    for (a, b, c), m in table.entries.items():
        _assert(m >= 0, "negative fusion coefficient")
        _assert(
            table.coefficient(b, a, c) == m,
            f"fusion not symmetric at {a.rows},{b.rows}",
        )
    count = 0
    for lam in labs:
        if lam.size + 1 > cap:
            continue
        ups = {
            nu.rows
            for nu in gamma_n(p, lam.size + 1)
            if nu in labs and lam in branch(p, lam.size + 1, nu)
        }
        for nu in labs:
            if nu.size != lam.size + 1:
                continue
            want = 1 if nu.rows in ups else 0
            _assert(
                fusion(p, lam, box, nu) == want,
                f"box fusion at {lam.rows} -> {nu.rows} != reversed branching",
            )
            count += 1
    return f"unit, symmetry and box-fusion = reversed branching ({count} pairs), caps at {cap}"


def _check_qdim_twist(p: Params, max_n: int, rng: Random) -> str:
    cap = min(max_n, 4)
    seen = 0
    for d in labels(p):
        if d.size > cap:
            continue
        _assert(qdim(p, d) == qdim(p, dagger(p, d)), f"qdim({d.rows}) != qdim(dagger)")
        t = twist(p, d)
        _assert(abs(abs(t.embed()) - 1.0) < 1e-10, f"twist of {d.rows} is not unimodular")
        _assert(t == twist(p, dagger(p, d)), f"twist({d.rows}) != twist(dagger)")
        seen += 1
    _assert(qdim(p, YoungDiagram.of()) == p.one, "qdim(empty) != 1")
    return f"qdim and twist invariant under dagger on {seen} labels of size <= {cap}"


def _kac_peterson(p: Params, labs) -> list[list[Scalar]]:
    """S~ in Q(zeta_m) from the Weyl-group sum of Kac and Peterson.  With
    x = lam + rho, y = mu + rho and rho = (N-1, ..., 0),

        raw(lam, mu) = sum_{w in S_N} sign(w) zeta^(-2N sum_i x_w(i) y_i + 2|x||y|),

    the exponent an integer, and S~_{lam mu} = conj(raw(lam, mu) / raw(0, 0)).
    It shares nothing with the fusion rules or the twists."""
    n = p.N
    signed = [(w, sum(w[i] > w[j] for i in range(n) for j in range(i + 1, n)) % 2)
              for w in permutations(range(n))]

    def raw(x, y):
        acc = p.zero
        for w, odd in signed:
            term = p.zeta_pow(-2 * n * sum(x[w[i]] * y[i] for i in range(n)) + 2 * sum(x) * sum(y))
            acc = acc - term if odd else acc + term
        return acc

    rho = range(n - 1, -1, -1)
    shifted = [[lam.row(i) + rho[i] for i in range(n)] for lam in labs]
    unit = raw(rho, rho).inverse()
    return [[(raw(x, y) * unit).conjugate() for y in shifted] for x in shifted]


def _check_smatrix(p: Params, max_n: int, rng: Random) -> str:
    try:
        check_size(p, 2 * max(d.size for d in labels(p)))
    except ValueError as exc:
        raise CheckSkip(f"largest label pair: {exc}") from None
    s = s_matrix(p)
    k = len(s.labels)
    for i in range(k):
        for j in range(k):
            _assert(s.entries[i][j] == s.entries[j][i], "S~ is not symmetric")
    for j, mu in enumerate(s.labels):
        _assert(s.entries[0][j] == qdim(p, mu), f"S~ row empty != qdim at {mu.rows}")
    _assert(not s.determinant().is_zero(), "det S~ = 0")
    for i, lam in enumerate(s.labels):
        for j, mu in enumerate(s.labels):
            jj = s.labels.index(dagger(p, mu))
            _assert(
                s.entries[i][jj] == s.entries[i][j].conjugate(),
                "charge conjugation fails on S~",
            )
    details = f"{k} x {k} S~ symmetric, first row = qdim, det != 0, conjugation exact"
    if p.N > KAC_PETERSON_LIMIT:
        return details + f"; Kac-Peterson sum skipped (N > {KAC_PETERSON_LIMIT})"
    kp = _kac_peterson(p, s.labels)
    for i, lam in enumerate(s.labels):
        for j, mu in enumerate(s.labels):
            _assert(s.entries[i][j] == kp[i][j], f"S~ != Kac-Peterson sum at {lam.rows},{mu.rows}")
    return details + ", = Kac-Peterson sum"


def _check_mf_dim(p: Params, max_n: int, rng: Random) -> str:
    cap = min(max_n, FORM_CHECK_LIMIT)
    labs = labels(p)
    max_lab = max(d.size for d in labs)
    # a fold computes the fusion rows (d, mu) its vector reaches, and
    # mu can be any label, so d is within budget if d.size + max_lab fits
    ok = [d for d in labs if d.size + max_lab <= cap]
    _assert(mf_dim(p, 0, []) == 1, "sphere with no labels != 1")
    parts = []
    try:
        check_size(p, 2 * max_lab)
    except ValueError as exc:
        parts.append(f"torus skipped ({exc})")
    else:
        torus = mf_dim(p, 1, [])
        _assert(torus == len(labs), f"torus dimension {torus} != {len(labs)} labels")
        parts.append(f"torus = {len(labs)}")
    for lam in ok:
        for mu in ok:
            want = 1 if mu == dagger(p, lam) else 0
            got = mf_dim(p, 0, [lam, mu])
            _assert(got == want, f"two-point dimension at {lam.rows},{mu.rows}")
    triple_count = 0
    for lam in ok:
        for mu in ok:
            if lam.size + mu.size > cap:
                continue
            for nu in ok:
                want = fusion(p, lam, mu, dagger(p, nu))
                got = mf_dim(p, 0, [lam, mu, nu])
                _assert(
                    got == want,
                    f"three-point dimension at {lam.rows},{mu.rows},{nu.rows}: {got} != {want}",
                )
                perm = mf_dim(p, 0, [nu, lam, mu])
                _assert(perm == got, "mf_dim not permutation invariant")
                triple_count += 1
    parts.append(f"{triple_count} three-point checks = fusion")
    return "; ".join(parts) + f" (strand budget {cap})"


# ---------------------------------------------------------------------------
# runner

CHECKS = (
    ("scalar.embed_multiplicative", _check_scalar_embed),
    ("scalar.conjugation", _check_scalar_conjugation),
    ("scalar.qint_vanishing", _check_scalar_qint),
    ("scalar.inverse", _check_scalar_inverse),
    ("diagrams.dagger_involution", _check_dagger),
    ("diagrams.weight_bijection", _check_weight_bijection),
    ("diagrams.pad_bijection", _check_pad_bijection),
    ("diagrams.path_recursion", _check_path_recursion),
    ("hecke.braid_relations", _check_braid_relations),
    ("hecke.quadratic_skein", _check_quadratic_skein),
    ("hecke.star_antiautomorphism", _check_star),
    ("hecke.e_idempotents", _check_e_idempotents),
    ("hecke.jones_wenzl", _check_jw),
    ("hecke.young_quasi_idempotent", _check_young_quasi),
    ("hecke.young_orthogonality", _check_young_orthogonality),
    ("trace.normalization", _check_trace_normalization),
    ("trace.trace_property", _check_trace_property),
    ("trace.markov_property", _check_markov_property),
    ("trace.star_invariance", _check_trace_star),
    ("trace.gram_rank", _check_gram_rank),
    ("trace.gram_psd", _check_gram_psd),
    ("trace.framing", _check_framing),
    ("trace.stabilization", _check_stabilization),
    ("category.blocks", _check_blocks),
    ("category.branching", _check_branching),
    ("category.fusion", _check_fusion),
    ("category.qdim_twist", _check_qdim_twist),
    ("category.smatrix", _check_smatrix),
    ("category.mf_dim", _check_mf_dim),
)

MAX_N_FLOOR = 2


def run_verify(p: Params, max_n: int = 5, seed: int = 0) -> VerifyReport:
    """Run the full invariant battery for (N, K) up to max_n strands.

    max_n is bounded by the Gram strand limit; randomized checks draw
    from a generator seeded by (seed, check name) so the report content
    is reproducible."""
    if not (MAX_N_FLOOR <= max_n <= GRAM_LIMIT):
        raise ValueError(
            f"max_n must be between {MAX_N_FLOOR} and {GRAM_LIMIT}, got {max_n}"
        )
    results: list[CheckResult] = []
    for name, func in CHECKS:
        rng = Random(f"{seed}:{name}")
        start = time.perf_counter()
        try:
            details = func(p, max_n, rng)
            status = "pass"
        except CheckSkip as exc:
            details, status = str(exc), "skip"
        except CheckFailure as exc:
            details, status = str(exc), "fail"
        except Exception as exc:  # an invariant crashing is a failure, not a crash of the run
            details, status = f"{type(exc).__name__}: {exc}", "fail"
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, status, details, round(elapsed, 3)))
    overall = "pass" if all(c.status != "fail" for c in results) else "fail"
    return VerifyReport(p.N, p.K, max_n, seed, tuple(results), overall)
