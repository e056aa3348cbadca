"""End-to-end acceptance battery.

Ten timed criteria, each printing one [acceptance] line, covering:
generator conventions, Young quasi-idempotents and orthogonality, the
Markov trace axioms, radical and positivity of the trace forms, the
block decomposition, fusion rules, the S-matrix, modular-functor
dimensions, and framed closure behaviour.

Each criterion runs named checks of ``hsk.verify`` -- the battery that
``hsk verify`` reports on -- over its theories, strand cap and sample
count; a check that skips or fails fails the criterion.  A check that
samples fewer random elements than its criterion asks for is called
several times on one seeded generator.  What stays here are the pins
of particular theories and the two assertions no check makes.  All
algebraic identities are checked in exact cyclotomic arithmetic, the
positivity of ``trace.gram_psd`` included: it reads the sign of a real
pivot from its embedding only outside a certified rounding bound.  The
only tolerance is 1e-12 on embedded pins.

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
    central_idempotents,
    closure_invariant,
    fusion,
    gram,
    mf_dim,
)
from hsk.closure import CURL_MATCH_SIGN
from hsk.trace import gram_bilinear
from hsk.verify import CHECKS, CheckFailure, CheckSkip

PARAMS = [Params(2, 1), Params(2, 2), Params(3, 1), Params(3, 2), Params(4, 1)]
SMALL = [Params(2, 1), Params(2, 2), Params(3, 1)]

_CHECKS = dict(CHECKS)


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


def _check(name: str, p: Params, max_n: int, rng: Random, times: int = 1) -> None:
    """Call the verify check `name` `times` times on one generator; a
    skip or a failure is an assertion error naming the check."""
    for _ in range(times):
        try:
            _CHECKS[name](p, max_n, rng)
        except (CheckSkip, CheckFailure) as exc:
            raise AssertionError(
                f"{name} at {(p.N, p.K)}: {type(exc).__name__}: {exc}") from exc


def test_criterion_1_conventions():
    """e_i idempotent and hermitian; braid generators act on the
    symmetrizers by q^((1-N)/2N) and -q^((1+N)/2N), up to 5 strands."""

    def body():
        rng = Random("acceptance:1")
        for p in PARAMS:
            _check("hecke.e_idempotents", p, 5, rng)
            _check("hecke.jones_wenzl", p, 5, rng)

    _criterion(1, "convention coherence", 30, body)


def test_criterion_2_quasi_idempotent_law():
    """y~_d^2 equals the hook-length product times y~_d for every
    diagram of size <= 5 with invertible row/column factorials."""

    def body():
        rng = Random("acceptance:2")
        for p in PARAMS:
            _check("hecke.young_quasi_idempotent", p, 5, rng)

    _criterion(2, "quasi-idempotent law", 120, body)


def test_criterion_3_young_orthogonality():
    """y_a x y_b = 0 for distinct diagrams of equal size <= 4, and
    y_a x y_a is proportional to y_a, on 21 random x each (the check
    draws 3 per pair)."""

    def body():
        rng = Random("acceptance:3")
        for p in PARAMS:
            _check("hecke.young_orthogonality", p, 4, rng, times=7)

    _criterion(3, "Young orthogonality", 120, body)


def test_criterion_4_markov_trace_axioms():
    """Tr(1) = 1, Tr(e_i) = eta, the trace property and the Markov
    conditional expectation, 54 random pairs per strand count (the
    checks draw 6)."""

    def body():
        rng = Random("acceptance:4")
        for p in PARAMS:
            _check("trace.normalization", p, 5, rng)
            _check("trace.trace_property", p, 5, rng, times=9)
            _check("trace.markov_property", p, 5, rng, times=9)

    _criterion(4, "Markov trace axioms", 60, body)


def test_criterion_5_radical_and_positivity():
    """Both forms have rank sum of squared path counts: ``trace.gram_rank``
    proves it for the bilinear form from its elimination, and
    ``trace.gram_psd`` proves the hermitian rank equal to the bilinear
    one.  The hermitian form is PSD, decided exactly by Sylvester's
    criterion on its block at the bilinear pivots, and its radical
    vectors are null vectors of Tr(x* x) in the left kernel of both
    Gram matrices.  The reverse inclusion (null vectors lie in the
    radical) is the PSD statement itself: with the pivot block positive
    definite, the form vanishes only toward its kernel.  Five strands,
    four at (4,1)."""

    def body():
        rng = Random("acceptance:5")
        for p in PARAMS:
            top = 4 if (p.N, p.K) == (4, 1) else 5
            _check("trace.gram_rank", p, top, rng)
            _check("trace.gram_psd", p, top, rng)
            for n in range(1, top + 1):
                bil = gram_bilinear(p, n)
                for x in gram(p, n, "hermitian").kernel_basis:
                    assert all(
                        sum((c * bil[u][v] for u, c in x.terms.items()), p.zero).is_zero()
                        for v in range(len(bil))
                    ), f"hermitian radical not in bilinear radical at n={n}"

    _criterion(5, "radical and positivity", 300, body)


def test_criterion_6_block_decomposition():
    """The blocks are counted by Gamma^n with path-count dimensions and
    branch as the lattice does; the central idempotents sum to 1 and
    are idempotent and pairwise orthogonal mod radical."""

    def body():
        rng = Random("acceptance:6")
        for p in PARAMS:
            for name in ("category.blocks", "category.branching",
                         "diagrams.path_recursion"):
                _check(name, p, 5, rng)
            for n in range(1, 6):
                gram = gram_bilinear(p, n)

                def in_rad(x):
                    return all(sum((c * gram[u][v] for u, c in x.terms.items()), p.zero).is_zero()
                               for v in range(len(gram)))

                zs = [(lam, e.z) for lam, e in central_idempotents(p, n).blocks.items()]
                total = HeckeElement.identity(p, n).scale(-p.one)
                for _, z in zs:
                    total = total + z
                assert in_rad(total), f"sum of blocks != 1 mod radical at n={n}"
                for i, (la, za) in enumerate(zs):
                    assert in_rad(za * za + za.scale(-p.one)), \
                        f"z_{la.rows} not idempotent mod radical"
                    for lb, zb in zs[i + 1:]:
                        assert in_rad(za * zb), \
                            f"z_{la.rows} z_{lb.rows} not in the radical"

    _criterion(6, "block decomposition", 300, body)


def test_criterion_7_fusion_rules():
    """Unit row, commutativity, nonnegativity and box fusion = reversed
    branching up to 5 strands, each coefficient a block trace of path
    projections in the seminormal model; and the (2,2) pins
    N_(2)(2)^() = 1, N_(2)(2)^(2) = 0."""

    def body():
        rng = Random("acceptance:7")
        for p in PARAMS:
            _check("category.fusion", p, 5, rng)
        p22 = Params(2, 2)
        two = YoungDiagram.of(2)
        assert fusion(p22, two, two, YoungDiagram.of()) == 1
        assert fusion(p22, two, two, two) == 0

    _criterion(7, "fusion rules", 300, body)


def test_criterion_8_s_matrix():
    """S~ symmetric with S~_(empty, mu) = qdim(mu) and exactly nonzero
    determinant for (2,1), (2,2) and (3,1)."""

    def body():
        rng = Random("acceptance:8")
        for p in SMALL:
            _check("category.smatrix", p, 5, rng)

    _criterion(8, "S-matrix", 180, body)


def test_criterion_9_modular_functor():
    """Sphere dimensions: duality pairing on two points, fusion on
    three, the four-box pin at (2,2); the torus counts the labels."""

    def body():
        rng = Random("acceptance:9")
        for p in SMALL:
            _check("category.mf_dim", p, 5, rng)
        box = YoungDiagram.of(1)
        assert mf_dim(Params(2, 2), 0, (box,) * 4) == 2

    _criterion(9, "modular functor dimensions", 60, body)


def test_criterion_10_framed_closures():
    """Trivial closures give [N]^n; the two one-crossing closures are
    mutually inverse curls times [N], the matching sign embedding to
    sqrt(2) exp(6 pi i/16) at (2,2); stabilization changes a closure
    by exactly the curl scalar, on 30 random braids per parameter
    (the check draws 15)."""

    def body():
        rng = Random("acceptance:10")
        for p in PARAMS:
            _check("trace.framing", p, 5, rng)
            _check("trace.stabilization", p, 5, rng, times=2)
        pin = closure_invariant(Params(2, 2), BraidWord(2, (CURL_MATCH_SIGN,)))
        expect = math.sqrt(2) * cmath.exp(6j * math.pi / 16)
        assert abs(pin.embed() - expect) < 1e-12

    _criterion(10, "framed closures", 120, body)
