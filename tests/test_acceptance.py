"""End-to-end acceptance battery.

Ten timed criteria, each printing one [acceptance] line, covering:
generator conventions, Young quasi-idempotents and orthogonality, the
Markov trace axioms, radical and positivity of the trace forms, the
block decomposition, fusion rules, the S-matrix, modular-functor
dimensions, and framed closure behaviour.  All algebraic identities
are checked in exact cyclotomic arithmetic; the only tolerances are
the stated 1e-8 eigenvalue floor and 1e-12 on embedded pins.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import cmath
import math
import time
from random import Random

from hsk import (
    BraidWord,
    HeckeElement,
    Params,
    YoungDiagram,
    branch,
    branching_multiplicity,
    central_idempotents,
    closure_invariant,
    curl_scalar,
    dagger,
    e_idempotent,
    eta,
    fusion,
    fusion_table,
    gamma_n,
    gram,
    jones_wenzl,
    labels,
    loop_power,
    markov_trace,
    mf_dim,
    pairing,
    path_count,
    purified_algebra,
    purified_dim,
    qdim,
    qint,
    s_matrix,
    sigma_element,
    star,
    tensor_embed,
    young_idempotent,
)
from hsk.hecke import random_element
from hsk.trace import CURL_MATCH_SIGN, gram_bilinear, gram_hermitian

PARAMS = [Params(2, 1), Params(2, 2), Params(3, 1), Params(3, 2), Params(4, 1)]


def _criterion(num: int, name: str, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        print(f"[acceptance] criterion {num} ({name}): FAIL "
              f"(time {elapsed:.1f}s over the {budget:.0f}s budget)")
        raise AssertionError(f"criterion {num} took {elapsed:.1f}s > {budget:.0f}s")
    print(f"[acceptance] criterion {num} ({name}): PASS ({elapsed:.1f}s)")


def _partitions(n: int) -> list[YoungDiagram]:
    out: list[YoungDiagram] = []

    def rec(prefix, remaining, maximum):
        if remaining == 0:
            out.append(YoungDiagram(tuple(prefix)))
            return
        for r in range(min(maximum, remaining), 0, -1):
            rec(prefix + [r], remaining - r, r)

    rec([], n, n)
    return out


def _small_diagrams(p: Params, n: int) -> list[YoungDiagram]:
    """Partitions of n whose rows and columns stay below N+K, the
    domain on which row and column quantum factorials are invertible."""
    limit = p.N + p.K
    return [
        d for d in _partitions(n)
        if d.row(0) < limit and d.transpose().row(0) < limit
    ]


def test_criterion_1_conventions():
    """e_i idempotent and hermitian; braid generators act on the
    symmetrizers by q^((1-N)/2N) and -q^((1+N)/2N)."""

    def body():
        for p in PARAMS:
            f_eig = p.zeta_pow(1 - p.N)
            g_eig = -p.zeta_pow(1 + p.N)
            for n in range(2, 6):
                for i in range(1, n):
                    e = e_idempotent(p, n, i)
                    assert e * e == e, f"e_{i} not idempotent at {(p.N, p.K)}, n={n}"
                    assert star(e) == e, f"e_{i} not hermitian at {(p.N, p.K)}, n={n}"
                if n < p.N + p.K:
                    f = jones_wenzl(p, n, "sym")
                    g = jones_wenzl(p, n, "antisym")
                    for i in range(1, n):
                        s = sigma_element(p, n, i)
                        assert s * f == f.scale(f_eig), \
                            f"sigma_{i} f_{n} eigenvalue at {(p.N, p.K)}"
                        assert s * g == g.scale(g_eig), \
                            f"sigma_{i} g_{n} eigenvalue at {(p.N, p.K)}"

    _criterion(1, "convention coherence", 30, body)


def test_criterion_2_quasi_idempotent_law():
    """y~_d^2 equals the hook-length product times y~_d for every
    diagram of size <= 5 with invertible row/column factorials."""

    def body():
        for p in PARAMS:
            for n in range(1, 6):
                for d in _small_diagrams(p, n):
                    y = young_idempotent(p, d)
                    assert y.quasi * y.quasi == y.quasi.scale(y.hook), \
                        f"quasi law fails for {d.rows} at {(p.N, p.K)}"

    _criterion(2, "quasi-idempotent law", 120, body)


def test_criterion_3_young_orthogonality():
    """y_a x y_b = 0 for distinct diagrams of equal size <= 4, and
    y_a x y_a is proportional to y_a, on 20 random x each."""

    def body():
        rng = Random("acceptance:3")
        for p in PARAMS:
            for n in range(2, 5):
                ds = [
                    d for d in _small_diagrams(p, n)
                    if young_idempotent(p, d).idem is not None
                ]
                for a in ds:
                    ya = young_idempotent(p, a).idem
                    for b in ds:
                        yb = young_idempotent(p, b).idem
                        for _ in range(20):
                            x = random_element(p, n, rng)
                            prod = ya * x * yb
                            if a == b:
                                assert prod.proportionality(ya) is not None, \
                                    f"y x y not in the line of y for {a.rows}"
                            else:
                                assert prod.is_zero(), \
                                    f"y_a x y_b != 0 for {a.rows}, {b.rows}"

    _criterion(3, "Young orthogonality", 120, body)


def test_criterion_4_markov_trace_axioms():
    """Tr(1) = 1, Tr(e_i) = eta, the trace property and the Markov
    conditional expectation, 50 random pairs per strand count."""

    def body():
        rng = Random("acceptance:4")
        for p in PARAMS:
            et = eta(p)
            for n in range(1, 6):
                assert markov_trace(p, HeckeElement.identity(p, n)) == p.one
                for i in range(1, n):
                    assert markov_trace(p, e_idempotent(p, n, i)) == et
            for n in range(2, 6):
                e_top = e_idempotent(p, n, n - 1)
                strand = HeckeElement.identity(p, 1)
                for _ in range(50):
                    x = random_element(p, n, rng)
                    y = random_element(p, n, rng)
                    assert markov_trace(p, x * y) == markov_trace(p, y * x)
                    u = random_element(p, n - 1, rng)
                    v = random_element(p, n - 1, rng)
                    ue, ve = tensor_embed(u, strand), tensor_embed(v, strand)
                    assert markov_trace(p, ue * e_top * ve) == et * markov_trace(p, u * v)

    _criterion(4, "Markov trace axioms", 60, body)


def _in_left_kernel(p: Params, mat, x: HeckeElement) -> bool:
    size = len(mat)
    items = list(x.terms.items())
    for v in range(size):
        acc = p.zero
        for u, c in items:
            e = mat[u][v]
            if not e.is_zero():
                acc = acc + c * e
        if not acc.is_zero():
            return False
    return True


def _herm_norm(p: Params, herm, x: HeckeElement):
    """Tr(x* x) through the hermitian Gram matrix K[u][v] = (T_u, T_v)."""
    acc = p.zero
    for u, cu in x.terms.items():
        for v, cv in x.terms.items():
            e = herm[u][v]
            if not e.is_zero():
                acc = acc + cu * cv.conjugate() * e
    return acc


def test_criterion_5_radical_and_positivity():
    """The bilinear and hermitian radicals coincide and consist of the
    null vectors of Tr(x* x); the hermitian form is PSD within 1e-8
    and the exact rank is the sum of squared path counts.  The reverse
    inclusion (null vectors lie in the radical) is the PSD statement
    itself: a PSD form within 1e-8 vanishes only toward its kernel."""

    def body():
        for p in PARAMS:
            top = 4 if (p.N, p.K) == (4, 1) else 5
            for n in range(1, top + 1):
                gb = gram(p, n, "bilinear")
                gh = gram(p, n, "hermitian")
                expected = sum(path_count(p, n, d) ** 2 for d in gamma_n(p, n))
                assert gb.rank == expected, f"bilinear rank at n={n}, {(p.N, p.K)}"
                assert gh.rank == expected, f"hermitian rank at n={n}, {(p.N, p.K)}"
                assert len(gb.kernel_basis) == len(gh.kernel_basis)
                assert gh.min_eigenvalue() >= -1e-8, \
                    f"hermitian form not PSD at n={n}, {(p.N, p.K)}"
                bil = gram_bilinear(p, n)
                herm = gram_hermitian(p, n)
                for x in gb.kernel_basis:
                    assert _in_left_kernel(p, herm, x), \
                        f"bilinear radical not in hermitian radical at n={n}"
                for x in gh.kernel_basis:
                    assert _in_left_kernel(p, bil, x), \
                        f"hermitian radical not in bilinear radical at n={n}"
                    norm = _herm_norm(p, herm, x)
                    assert norm.is_zero(), f"kernel vector with Tr(x*x) != 0 at n={n}"
                    assert abs(norm.embed()) <= 1e-8

    _criterion(5, "radical and positivity", 300, body)


def test_criterion_6_block_decomposition():
    """The central idempotents sum to 1 mod radical, are pairwise
    orthogonal mod radical, are counted by Gamma^n, and branch with
    the block-dimension bookkeeping."""

    def body():
        for p in PARAMS:
            for n in range(1, 6):
                bd = central_idempotents(p, n)
                labs = gamma_n(p, n)
                assert set(bd.blocks) == set(labs), f"block count at n={n}"
                alg = purified_algebra(p, n)

                def in_rad(x):
                    return all(c.is_zero() for c in alg.reduce(x))

                total = HeckeElement.identity(p, n).scale(-p.one)
                for entry in bd.blocks.values():
                    total = total + entry.z
                assert in_rad(total), f"sum of blocks != 1 mod radical at n={n}"
                items = list(bd.blocks.items())
                for i, (la, ea) in enumerate(items):
                    assert in_rad(ea.z * ea.z + ea.z.scale(-p.one)), \
                        f"z_{la.rows} not idempotent mod radical"
                    for lb, eb in items[i + 1:]:
                        assert in_rad(ea.z * eb.z), \
                            f"z_{la.rows} z_{lb.rows} not in the radical"
                if n >= 2:
                    for lam in labs:
                        down = {b: branching_multiplicity(p, n, lam, b)
                                for b in gamma_n(p, n - 1)}
                        assert set(b for b, m in down.items() if m) \
                            == set(branch(p, n, lam)), \
                            f"branching support of {lam.rows} at n={n}"
                        assert path_count(p, n, lam) == sum(
                            m * path_count(p, n - 1, b) for b, m in down.items()
                        ), f"block dims do not branch at {lam.rows}, n={n}"

    _criterion(6, "block decomposition", 300, body)


def test_criterion_7_fusion_rules():
    """Unit row, commutativity, box fusion = reversed branching, and
    the (2,2) pins N_(2)(2)^() = 1, N_(2)(2)^(2) = 0; coefficients are
    exact trace ratios Tr(z_nu (y_lam (x) y_mu)) / Tr(e_nu), checked to
    be nonnegative integers."""

    def body():
        cap = 5
        for p in PARAMS:
            table = fusion_table(p, cap)
            labs = labels(p)
            empty = YoungDiagram.of()
            box = YoungDiagram.of(1)
            for lam in labs:
                if lam.size > cap:
                    continue
                for nu in labs:
                    assert table.coefficient(lam, empty, nu) == (1 if nu == lam else 0)
            for (a, b, c), m in table.entries.items():
                assert m >= 0
                assert table.coefficient(b, a, c) == m, \
                    f"N is not symmetric at {a.rows}, {b.rows}"
            for lam in labs:
                if lam.size + 1 > cap:
                    continue
                ups = {
                    nu for nu in gamma_n(p, lam.size + 1)
                    if nu in labs and lam in branch(p, lam.size + 1, nu)
                }
                for nu in labs:
                    if nu.size == lam.size + 1:
                        assert fusion(p, lam, box, nu) == (1 if nu in ups else 0), \
                            f"box fusion at {lam.rows} -> {nu.rows}"
        p22 = Params(2, 2)
        two = YoungDiagram.of(2)
        assert fusion(p22, two, two, YoungDiagram.of()) == 1
        assert fusion(p22, two, two, two) == 0

    _criterion(7, "fusion rules", 300, body)


def test_criterion_8_s_matrix():
    """S~ symmetric with S~_(empty, mu) = qdim(mu) and exactly nonzero
    determinant for (2,1), (2,2) and (3,1)."""

    def body():
        for p in (Params(2, 1), Params(2, 2), Params(3, 1)):
            s = s_matrix(p)
            k = len(s.labels)
            for i in range(k):
                for j in range(k):
                    assert s.entries[i][j] == s.entries[j][i], "S~ not symmetric"
            for j, mu in enumerate(s.labels):
                assert s.entries[0][j] == qdim(p, mu), f"S~ vacuum row at {mu.rows}"
            assert not s.determinant().is_zero(), f"det S~ = 0 at {(p.N, p.K)}"

    _criterion(8, "S-matrix", 180, body)


def test_criterion_9_modular_functor():
    """Sphere dimensions: duality pairing on two points, fusion on
    three, the four-sigma pin at (2,2); the torus counts the labels."""

    def body():
        small = (Params(2, 1), Params(2, 2), Params(3, 1))
        for p in small:
            assert mf_dim(p, 0, ()) == 1
            for lam in labels(p):
                for mu in labels(p):
                    want = 1 if mu == dagger(p, lam) else 0
                    assert mf_dim(p, 0, (lam, mu)) == want, \
                        f"two-point space at {lam.rows}, {mu.rows}"
            assert mf_dim(p, 1, ()) == len(labels(p)), f"torus at {(p.N, p.K)}"
        for p in (Params(2, 1), Params(2, 2)):
            for lam in labels(p):
                for mu in labels(p):
                    for nu in labels(p):
                        assert mf_dim(p, 0, (lam, mu, nu)) == \
                            fusion(p, lam, mu, dagger(p, nu)), \
                            f"three-point space at {lam.rows}, {mu.rows}, {nu.rows}"
        box = YoungDiagram.of(1)
        assert mf_dim(Params(2, 2), 0, (box,) * 4) == 2

    _criterion(9, "modular functor dimensions", 60, body)


def test_criterion_10_framed_closures():
    """Trivial closures give [N]^n; the two one-crossing closures are
    mutually inverse curls times [N], the matching sign embedding to
    sqrt(2) exp(6 pi i/16) at (2,2); stabilization changes a closure
    by exactly the curl scalar, on 20 random braids per parameter."""

    def body():
        rng = Random("acceptance:10")
        for p in PARAMS:
            for n in range(1, 5):
                assert closure_invariant(p, BraidWord(n, ())) == loop_power(p, n)
            plus = closure_invariant(p, BraidWord(2, (1,)))
            minus = closure_invariant(p, BraidWord(2, (-1,)))
            loop = qint(p, p.N)
            assert plus == curl_scalar(p, 1) * loop
            assert minus == curl_scalar(p, -1) * loop
            assert curl_scalar(p, 1) * curl_scalar(p, -1) == p.one
            match = closure_invariant(p, BraidWord(2, (CURL_MATCH_SIGN,)))
            assert match == p.zeta_pow(p.N * p.N - 1) * loop
            count = 0
            while count < 20:
                n = rng.randint(1, 3)
                word = tuple(
                    rng.choice([1, -1]) * rng.randint(1, n - 1)
                    for _ in range(rng.randint(0, 5))
                ) if n > 1 else ()
                base = closure_invariant(p, BraidWord(n, word))
                sign = rng.choice([1, -1])
                stab = BraidWord(n + 1, word + (sign * n,))
                assert closure_invariant(p, stab) == curl_scalar(p, sign) * base, \
                    f"stabilization at {(p.N, p.K)}, word {word}, sign {sign}"
                count += 1
        p22 = Params(2, 2)
        pin = closure_invariant(p22, BraidWord(2, (CURL_MATCH_SIGN,)))
        expect = math.sqrt(2) * cmath.exp(6j * math.pi / 16)
        assert abs(pin.embed() - expect) < 1e-12

    _criterion(10, "framed closures", 120, body)
