"""Braid words and the invariant of a closed braid, traced in the path
model of the level-K quotient (``seminormal``).

A braid generator is sigma_i = -q^(-(N-1)/2N) T_{s_i} (``hecke``), so
the image of a word is zeta^k times the bare word in T_{s_i}^(+/-1),
k = ``braid_phase``.

A closure is first reduced by exact moves (``_reduce``).  (a) Inverse
letters cancel up to far commutation, sigma_i sigma_j = sigma_j sigma_i
for |i - j| >= 2, freely and cyclically (the closure is a class
function): a letter cancels an earlier inverse it reaches past letters
it commutes with, and a letter that commutes to the front cancels an
inverse that commutes to the back (``_commute_cancel``).  This runs on
the word as given and on each word (c), (d) and (e) leave, not on the
pieces of (b): every letter of one piece commutes with the other.  The
moves are applied until none changes the word: (b) a word without
sigma_i closes to the product of the closures on strands 1..i and
i+1..n, the upper letters shifted down by i, since the Markov trace is
multiplicative on x (x) y and the phase of ``braid_phase`` is additive
over letters; (c) if sigma_(n-1)^(+/-1) occurs once, it is rotated to
the end and dropped with one strand, times curl(+/-1) (Markov
destabilisation); (d) (c) applies to sigma_1 after the flip
i -> n - i, conjugation by the half twist; (e) with t = n - 1, two
cyclically consecutive letters sigma_t^a, sigma_t^b with one
sigma_(t-1)^c between them, the other letters there commuting with
sigma_t, merge into one by the braid relation, up to conjugation:
sigma_t^a x sigma_(t-1)^a y sigma_t^a = x sigma_(t-1)^a sigma_t^a
sigma_(t-1)^a y, and sigma_t^a x sigma_(t-1)^c y sigma_t^-a =
x sigma_(t-1)^-a sigma_t^c sigma_(t-1)^a y, the braid relation
conjugated by sigma_t^a (``_one_occurrence``); a pair with a = b != c
is left alone.  Pairs merge while one qualifies; if sigma_t ends at one
letter, (c) drops it, else the word is left as it was and sigma_1 is
merged across sigma_2 the same way, then dropped as in (d).  Each
merge removes a letter of sigma_t and a kept word loses a strand, so
the reduction ends; keeping a partly merged word could undo a merge
from the other end and cycle.  A one-strand factor closes to [N].
Every other factor is traced in the seminormal model (``seminormal.closure_trace``): the Markov trace is
the weighted block sum (Wenzl, Invent. Math. 92 (1988)), so the
closure is zeta^k sum_lambda d_lambda tr rho_lambda(bare word).  Its
work is len(word) sum_lambda f_lambda^2, with sum f_lambda^2 = 233 on
7 strands at (3,2) against 7! = 5,040 permutations, and its one bound
is the path model's size (``seminormal.check_size``), which a factor on
fewer than 8 strands always meets since sum f_lambda^2 <= n!.  Nothing
here builds a permutation table or a trace vector; ``hsk trace`` prints
[N]^-n times the closure.  The T expansion, [N]^n Tr(from_braid(b)) on
the word as given (``trace._closure_unreduced``), is the oracle of the
reduction and the path model.

Closures of braids are normalised so that the trivial n-strand braid
closes to [N]^n, the unlink value; a single +/-1 kink contributes the
curl scalar curl(+/-1) = zeta^(+/-(1-N^2)) (zeta the primitive
2N(N+K)-th root), and the two curl scalars are exactly mutually
inverse.  A negative kink contributes curl(-1) = q^((N^2-1)/2N): the
framing anomaly of the generating object.  The Markov formula for the
curl (``curl_scalar``) is verify's check of this value.  Curls are
phases, so a closure applies their sum as one power of zeta, a
monomial map, as each factor applies its braid phase: no field
inversion once the path models are built.  The one-negative-crossing
2-braid closure at (2,2) is sqrt(2).zeta^3.
"""
from __future__ import annotations

from collections import namedtuple

from .scalar import Params, Scalar, qint
from .seminormal import closure_trace, path_model

__all__ = [
    "BraidWord", "CURL_MATCH_SIGN", "braid_phase", "full_twist_word",
    "block_transposition_word", "closure_invariant", "loop_power",
    "curl_scalar",
]

# The crossing sign whose curl scalar equals the framing factor
# q^((N^2-1)/2N); see curl_scalar.
CURL_MATCH_SIGN = -1


class BraidWord(namedtuple("BraidWord", "strands word")):
    """Braid group word on a fixed strand count; entry +i (-i) is the
    positive (negative) crossing of strands i, i+1, 1-based."""

    __slots__ = ()

    def __new__(cls, strands: int, word: tuple[int, ...] = ()):
        if strands < 1:
            raise ValueError("strand count must be positive")
        for e in word:
            if e == 0 or abs(e) > strands - 1:
                raise ValueError(f"braid letter {e} out of range")
        return super().__new__(cls, strands, word)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if other.strands != self.strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.strands, self.word + other.word)


def braid_phase(p: Params, b: BraidWord) -> int:
    """The k with image(b) = zeta^k times the bare word in T_{s_i}^(+/-1):
    (-1)^len zeta^((1-N) #pos + (N-1) #neg), with -1 = zeta^(m/2)."""
    npos = sum(1 for e in b.word if e > 0)
    nneg = len(b.word) - npos
    return (1 - p.N) * npos + (p.N - 1) * nneg + len(b.word) % 2 * (p.m // 2)


def full_twist_word(n: int) -> BraidWord:
    """The full twist Delta^2 on n strands as a positive braid word."""
    half: list[int] = []
    for k in range(2, n + 1):
        half.extend(range(k - 1, 0, -1))
    return BraidWord(n, tuple(half + half))


def block_transposition_word(a: int, b: int) -> BraidWord:
    """Positive braid on a+b strands carrying the first a strands past
    the last b (the block transposition), with ab crossings."""
    word: list[int] = []
    for i in range(a, 0, -1):
        word.extend(range(i, i + b))
    return BraidWord(a + b, tuple(word))


def closure_invariant(p: Params, b: BraidWord) -> Scalar:
    """Invariant of the closed braid in the skein normalisation where
    the trivial n-braid closes to [N]^n: the product, over the factors
    that ``_reduce`` leaves, of their closures in the path model, times
    [N] per one-strand factor and the curl scalar per destabilised
    crossing.  The curls add up to one power of zeta, applied once."""
    factors, loops, curls = _reduce(b)
    acc = None if factors and not loops else loop_power(p, loops)
    for f in factors:
        acc = _path_closure(p, f) if acc is None else acc * _path_closure(p, f)
    return p.lift(acc, curls * (1 - p.N * p.N))


def _commute_cancel(n: int, word: tuple[int, ...]) -> tuple[int, ...]:
    """The word on n strands with every inverse pair cancelled that meets
    across letters it commutes with, freely and then cyclically.

    Letters of generators i and j commute unless |i - j| = 1.  Freely, a
    letter reaches back past every letter but those of the neighbouring
    generators, and of its own generator only the last letter can be its
    inverse (an earlier one would have cancelled), so it cancels that
    last letter if it is its inverse and no neighbour follows it.
    Cyclically, the first and last letters of a generator cancel if they
    are inverse, no neighbour precedes the first and none follows the
    last: the word is then the rest conjugated by the first.  at[g] lists the
    places in out of generator g's letters, after a -1 that stands for
    none; a cancelled letter's place is set to 0."""
    out: list[int] = []
    at = [[-1] for _ in range(n + 1)]
    for e in word:
        g = abs(e)
        places = at[g]
        last = places[-1]
        if last > at[g - 1][-1] and last > at[g + 1][-1] and out[last] == -e:
            out[places.pop()] = 0
        else:
            places.append(len(out))
            out.append(e)
    again = True
    while again:
        again = False
        for g in range(1, n):
            places, low, high = at[g], at[g - 1], at[g + 1]
            if len(places) < 3:
                continue
            first, last = places[1], places[-1]
            if (out[first] == -out[last] and last > low[-1] and last > high[-1]
                    and (len(low) == 1 or first < low[1]) and (len(high) == 1 or first < high[1])):
                out[first] = out[last] = 0
                places.pop()
                places.pop(1)
                again = True
    return tuple(e for e in out if e)


def _one_occurrence(word: tuple[int, ...], g: int, h: int) -> tuple[int, ...] | None:
    """The word with generator g brought to one letter by the merges of
    move (e) (``_reduce``), or None; h = g +/- 1 is g's one neighbour in
    the word, and every other letter commutes with g.  The first pair
    that qualifies merges, in the order of the letters and the pair that
    wraps round last, until g occurs once.

    A merge spends an arc holding one letter of h and adds one to each
    arc beside it, so counts never fall.  Of k arcs, the k - 1 spent each
    reach count 1, and the k - 2 merges before the last add 2(k - 2), at
    most one per merge to the arc left over: at least k - 2 arcs start
    at count 0.  A word short of that, or without a count-1 arc, is
    refused before any merge.  hs[s] counts the letters of h between
    letters at[s - 1] and at[s] of g, hs[0] round the end."""
    while True:
        at, hs, count = [], [], 0
        for i, e in enumerate(word):
            if e == g or e == -g:
                at.append(i)
                hs.append(count)
                count = 0
            elif e == h or e == -h:
                count += 1
        k = len(at)
        if k == 1:
            return word
        hs[0] += count
        if 1 not in hs or hs.count(0) < k - 2:
            return None
        for s in [*range(1, k), 0]:
            if hs[s] != 1:
                continue
            i, j = at[s - 1], at[s]
            arc = word[i + 1:j] if i < j else word[i + 1:] + word[:j]
            m = arc.index(h) if h in arc else arc.index(-h)
            a, b, c = word[i] > 0, word[j] > 0, arc[m] > 0
            if a == b != c:
                continue
            merged = arc[:m] + (h if b else -h, g if c else -g, h if a else -h) + arc[m + 1:]
            word = word[:i] + merged + word[j + 1:] if i < j else merged + word[j + 1:i]
            break
        else:
            return None


def _reduce(b: BraidWord) -> tuple[list[BraidWord], int, int]:
    """(factors, loops, curls): the closure of b is [N]^loops
    curl(sign(curls))^|curls| times the product of the factors'
    closures.  The word is reduced by the exact moves (a) cancel up to
    far commutation (``_commute_cancel``), on the word as given and on
    each destabilised one, (b) split at every absent generator, a
    one-strand piece counting as a loop, (c) destabilise a top generator
    that occurs once, (d) destabilise a bottom one through the flip
    i -> n - i and (e) bring the top generator t, else the bottom one,
    to one occurrence and destabilise it as (c) or (d).  (e) merges
    sigma_t^a x sigma_(t-1)^c y sigma_t^b = x sigma_(t-1)^b sigma_t^c
    sigma_(t-1)^a y, x and y below t - 1, when a = b = c (the braid
    relation) or a = -b (the braid relation conjugated by sigma_t^a)
    (``_one_occurrence``).  It keeps a word only when t reaches one
    occurrence, each merge removing one, so every move either drops a
    strand or leaves a factor, and the reduction ends.  A word that
    passes (b) holds every generator, so (e) has a neighbour letter to
    merge across once n > 2; on two strands top and bottom are one."""
    todo = [(b.strands, _commute_cancel(b.strands, b.word))]
    factors: list[BraidWord] = []
    loops = curls = 0
    while todo:
        n, word = todo.pop()
        if n == 1:
            loops += 1
            continue
        present = set(map(abs, word))
        if len(present) < n - 1:
            low = 0
            for high in [i for i in range(1, n) if i not in present] + [n]:
                if high - low == 1:
                    loops += 1
                else:
                    todo.append((high - low, tuple(e - low if e > 0 else e + low
                                                   for e in word if low < abs(e) < high)))
                low = high
            continue
        top = n - 1
        if word.count(top) + word.count(-top) != 1:
            if word.count(1) + word.count(-1) == 1:
                word = _flip(n, word)
            elif n > 2 and (moved := _one_occurrence(word, top, top - 1)):
                word = moved
            elif n > 2 and (moved := _one_occurrence(word, 1, 2)):
                word = _flip(n, moved)
            else:
                factors.append(BraidWord(n, word))
                continue
        j = word.index(top) if top in word else word.index(-top)
        curls += 1 if word[j] > 0 else -1
        todo.append((top, _commute_cancel(top, word[j + 1:] + word[:j])))
    return factors, loops, curls


def _flip(n: int, word: tuple[int, ...]) -> tuple[int, ...]:
    """The word conjugated by the half twist: sigma_i -> sigma_(n-i)."""
    return tuple(n - e if e > 0 else -n - e for e in word)


def _path_closure(p: Params, b: BraidWord) -> Scalar:
    """zeta^k sum_lambda d_lambda tr rho_lambda(bare word), k the braid
    phase, traced in the path model (``seminormal.closure_trace``)."""
    return closure_trace(path_model(p, b.strands), b.word, braid_phase(p, b))


def loop_power(p: Params, n: int) -> Scalar:
    """[N]^n, the unlink value on n components."""
    return qint(p, p.N) ** n


def curl_scalar(p: Params, sign: int) -> Scalar:
    """Markov stabilization factor: closing b.sigma_n^(s) multiplies
    the closure of b by curl(s) = zeta^(s(1-N^2)).  The Markov property
    gives curl(+1) = -[N] q^((1-N)/2N) zeta_T with zeta_T = Tr(T_{s_i})
    (``trace.trace_parameter``); the two curls are mutually inverse, and
    curl(-1) is the framing factor q^((N^2-1)/2N) = zeta^(N^2-1)."""
    return p.zeta_pow(sign * (1 - p.N * p.N))
