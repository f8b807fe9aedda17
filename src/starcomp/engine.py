"""Star-set search: candidate enumeration, compatibility, backtracking, certification.

The engine realizes the reconstruction condition constructively.  Over a fixed
complement H with adjacency matrix C and a scalar mu that is not an eigenvalue
of C, put N = q(C), the quotient of the minimal polynomial m of C at mu, and
mval = m(mu).  Then N (mu I - C) = mval I, and a family X of 0/1
H-neighbourhood vectors extends H to a graph with eigenvalue mu of
multiplicity |X| iff

    b^T N b  = mval * mu          for every b in X,
    b^T N b' in {-mval, 0}        for every pair (adjacent / non-adjacent),

everything scaled by mval so the arithmetic stays exact.

Every pairing the search needs is a sum of entries of N over the support
of 0/1 vectors, so N exists only in integer form: make_context sums it
over the integer powers of C (the ones its minimal polynomial built) into
an IntKernel, N scaled to a common denominator (one int per entry, packed
for quadratic mu), and no QNum matrix is built.  Both candidate routes read
it: a tagged K_{t,s} tests each vertex type (a, b) once, anything else
walks the 2^q subsets in Gray-code order with N b packed into one int.
Either one runs once per search and yields plain ints, each candidate
the bitmask of its H-neighbourhood.  _non_main, the non-main test
b^T N j = -mval of a regular graph (j the all-ones vector), filters the
pool for every degree other than r = mu, and for maximal families too.
The pair relation (_build_label_tables) forms B^T N B a row at a time,
each row packed into one int and labelled by word-parallel compares.
Test oracles check it, a pair's label (classify_pair) and the types
(vertex_types) against the QNum resolvent, closed forms and K_{s,s} roots.

One function, _search, runs the whole search: every degree r of a sweep,
one r, or maximal families (r None).  Labels, cover masks and least
images do not depend on r, so it builds one pool, its pair-label tables
and one orderly test per call, and a degree only masks the candidates
it may use.  Only the recursion depends on the mode: a DFS that prunes
by the degree equations, or a walk over maximal cliques of the
compatibility relation.  Both keep their state as bit rows over the
pool, and the DFS keeps its degree budgets as counts that run down to 0.
On a tagged context both drop the choices that a part permutation of
K_{t,s} maps to a lexicographically smaller one (orderly generation,
_orderly_test), so each orbit of finds is assembled once (about once
for a part group too large to list); _dedupe merges orbits that are
isomorphic and whatever else is left, refining each find once, and
orders the classes by order n, handing the colouring to canonical()
only for classes whose n another class shares.

make_context checks the resolvent identity on integer matrices.  The
certificate reads nothing from a search context: its complement half is
check (i) and the IntKernel of make_context(G - X, mu), built once per
distinct G - X per search call, and _assemble lays out every H + X graph
from the picks' H-neighbourhoods and X-rows.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial
from operator import mul
from typing import NamedTuple, Optional, Sequence, Union

from .algebra import QNum, qnum
from .canon import CANONICAL_CAP, are_isomorphic, canonical, stable_colouring
from .errors import BadTag, HypothesisViolated, InternalInconsistency, TooLarge, Unbounded
from .graphs import (Graph, graph6_encode, induced_subgraph, is_connected, make_kts,
                     regular_degree, set_bits)
from .linalg import (minimal_polynomial_powers, multiplicity, numerators, resolvent_parts,
                     weighted_sum)

# The untagged scan costs 0.33-0.6 us per subset at q = 16..24 (C_q at mu=3,
# Python 3.11, one core of a shared 2-vCPU Xeon): q = 20 takes 0.34-0.37 s and
# q = 24 7-10 s, so q = 25 would take about 15-20 s and q = 30 about 10 min.
BRUTE_FORCE_CAP = 24
# A pool of k candidates costs k^2 pair labels: the label tables of 4,096
# K_{3,18} mu=2 candidates take 0.5-0.7 s (0.19 s at 2,048), and its full
# pool of 99,450 would take minutes before the search starts.  The largest
# pool a search in the tests builds is 225 (K_{6,6} mu=-2).
CANDIDATE_CAP = 4096
HALF_CAP_MIN_Q = 3
# The orderly test lists a part group of at most PART_GROUP_CAP elements:
# packing the images takes 0.2-0.7 us per element and candidate (1.8 ms for
# the 20 candidates of K_{2,5} mu=1), under 1 ms per candidate at the cap.
# That lists K_{t,s} for t <= 3 and s <= 5, and K_{1,6}; not K_{4,4} (1,152).
# A packed int, |G| (|pool| w + 1) bits for w-bit counts, is capped too.
PART_GROUP_CAP = 1000
PACKED_BITS_CAP = 1 << 18


class IntKernel(NamedTuple):
    """N, Nj and the targets scaled by one common denominator D.

    Each scaled entry is A + B*sqrt(d) with A, B integers, held as the one
    int A + B * 2^K (just A when mu is rational), so a pairing of 0/1
    vectors is a plain int sum (an entry of B^T N B, which the pair-label
    tables pack a row per int) and a test against a target is one int
    comparison.  Every sum the engine forms, a target included, has at most
    max(q^2, 1) terms (q = 0 leaves just the targets), so its A stays within
    max(q^2, 1) * max|A| < 2^(K-1), and two packed sums are equal iff both
    their parts are.
    """
    N: tuple[tuple[int, ...], ...]   # D * N
    ones: tuple[int, ...]            # D * N j
    self_target: int                 # D * mval * mu
    adjacent: int                    # -D * mval: adjacent pairs, b^T N j
    D: int
    K: int


class StarContext(NamedTuple):
    """Everything fixed by the choice of complement H and eigenvalue mu."""
    H: Graph
    mu: QNum
    mval: QNum           # minimal polynomial of A(H) evaluated at mu
    kernel: IntKernel    # the scaled resolvent N in integers
    tag: Optional[tuple[int, int]]

    @property
    def q(self) -> int:
        return self.H.n

    @property
    def mu_special(self) -> bool:
        """mu in {-1, 0}: duplicate neighbourhoods are legal, families infinite."""
        return self.mu == -1 or self.mu == 0


def make_context(H: Graph, mu, bipartite_tag: Optional[tuple[int, int]] = None) -> StarContext:
    """Build the search context for complement H and eigenvalue mu.

    N = sum_j a_j C^j comes from the minimal polynomial m of C, whose
    computation builds I, C, ..., C^d (d = deg m): these are the only
    matrix products.  The resolvent identity N (mu I - C) = mval I is
    checked entry by entry on those integer powers, with the scalars over
    one common denominator, and the kernel is summed over them.  Raises
    MuIsEigenvalue when mu is an eigenvalue of H and BadTag when H is not
    the declared complete bipartite graph.
    """
    mu = qnum(mu)
    m, powers = minimal_polynomial_powers(H.matrix())
    D, ps, rs = resolvent_parts(m, mu)
    d = len(m) - 1
    if bipartite_tag is not None:
        t, s = bipartite_tag
        if not (1 <= t <= s) or H != make_kts(t, s):
            raise BadTag(f"graph is not K_{{{t},{s}}} with parts in order")
    # N (mu I - C) = mval I: sum_k (mu a_k - a_(k-1)) C^k = 0, a_(-1) = mval and
    # a_d = 0, times D z for mu = (x + y sqrt(e)) / z, in rational and sqrt(e) parts
    (x, y, z), e = numerators(mu), mu.d
    a_p, a_r = ([-c[d + 1]] + c[:d] + [0] for c in (ps, rs))
    for own, other, f in ((a_p, a_r, e), (a_r, a_p, 1)):
        if any(weighted_sum([x * own[k + 1] + f * y * other[k + 1] - z * own[k]
                             for k in range(d + 1)], powers)):
            raise InternalInconsistency("resolvent identity N (mu I - C) = mval I fails")
    # D N = P + R sqrt(e), then D Nj (the row sums) and the two targets
    q = H.n
    sums = [[[sum(row)] for row in M] for M in powers[:d]]
    P, R = (weighted_sum(c, powers[:d]) + weighted_sum(c, sums) + c[d:]
            for c in (ps, rs))
    K = (max(q * q, 1) * max(map(abs, P))).bit_length() + 1
    packed = [p + (r << K) for p, r in zip(P, R)]
    kernel = IntKernel(N=tuple(tuple(packed[i * q:(i + 1) * q]) for i in range(q)),
                       ones=tuple(packed[q * q:q * q + q]), self_target=packed[-2],
                       adjacent=packed[-1], D=D, K=K)
    mval = QNum(Fraction(-ps[-1], D), Fraction(-rs[-1], D), e)
    return StarContext(H=H, mu=mu, mval=mval, kernel=kernel, tag=bipartite_tag)


class VertexType(NamedTuple):
    """a neighbours in the t-part of K_{t,s}, b in the s-part."""
    a: int
    b: int


def _candidate(ctx: StarContext, mask: int) -> tuple[int, ...]:
    """The sort key of the candidate with H-neighbourhood mask (bit v set
    iff v is a neighbour): its type (a, b) on a tagged K_{t,s}, then its
    indicator vector (b_0, ..., b_{q-1}) read as a binary number, b_0 first."""
    key = (int(f"{mask:0{ctx.q}b}"[::-1], 2),)
    if ctx.tag is None:
        return key
    t = ctx.tag[0]
    return ((mask & (1 << t) - 1).bit_count(), (mask >> t).bit_count()) + key


def _non_main(ctx: StarContext, mask: int) -> bool:
    """b^T N j = -mval for the 0/1 vector b with support mask (j all ones)."""
    return sum(ctx.kernel.ones[i] for i in set_bits(mask)) == ctx.kernel.adjacent


def vertex_types(ctx: StarContext, non_main: bool = True) -> list[VertexType]:
    """The types (a, b), the empty one included, ascending, whose vectors
    pass b^T N b = mval * mu on a tagged K_{t,s} (BadTag otherwise), and
    _non_main too when non_main is set.  N is a polynomial in C, so it
    commutes with the part permutations: each type is tested once, on the
    first a vertices of the t-part and the first b of the s-part."""
    if ctx.tag is None:
        raise BadTag("vertex types need a context tagged as K_{t,s}")
    t, s = ctx.tag
    N, target = ctx.kernel.N, ctx.kernel.self_target
    out = []
    for a, b in product(range(t + 1), range(s + 1)):
        rep = (1 << a) - 1 | ((1 << b) - 1) << t
        if sum(N[i][j] for i in set_bits(rep) for j in set_bits(rep)) == target and \
                (not non_main or _non_main(ctx, rep)):
            out.append(VertexType(a, b))
    return out


def enumerate_candidates(ctx: StarContext, non_main: bool = True) -> list[int]:
    """All 0/1 vectors b over V(H) with b^T N b = mval * mu, plus
    b^T N j = -mval when non_main is set (j the all-ones vector), each as
    its bitmask (bit v set iff b_v = 1).

    A tagged K_{t,s} expands vertex_types: every vector of a passing type
    passes.  Everything else scans the 2^q subsets in Gray-code order,
    capped at q = BRUTE_FORCE_CAP, with N b packed into one int, so each
    step is a few int operations; it runs the non-main test only on
    vectors that pass the self test.  Both routes raise TooLarge before
    building a pool of more than CANDIDATE_CAP.  Candidates come back
    sorted by _candidate: type, then indicator vector.
    """
    N, target, q = ctx.kernel.N, ctx.kernel.self_target, ctx.q
    hits = []
    if ctx.tag is not None:
        t, s = ctx.tag
        types = vertex_types(ctx, non_main)
        if sum(comb(t, a) * comb(s, b) for a, b in types) > CANDIDATE_CAP:
            raise TooLarge(f"the candidate pool is capped at {CANDIDATE_CAP}")
        for a, b in types:
            hits.extend(sum(1 << i for i in vpart + wpart)
                        for vpart, wpart in product(combinations(range(t), a),
                                                    combinations(range(t, t + s), b)))
    elif q > BRUTE_FORCE_CAP:
        raise TooLarge(f"untagged candidate scan is capped at q = {BRUTE_FORCE_CAP}")
    else:
        # Gray-code walk (Knuth, TAOCP 4A, 7.2.1.1): step k flips the lowest
        # set bit i of k.  With w = N b (N is symmetric), flipping b_i changes
        # b^T N b by N_ii +- 2 w_i.  w is one int with a W-bit field per
        # vertex (TAOCP 4A, 7.1.3), each biased by top > q max|N_ij| >= |w_i|
        # so that no field goes negative; a flip adds or subtracts the
        # packed row N[i] in one operation.
        top = q * max((abs(x) for row in N for x in row), default=0) + 1
        W = (2 * top).bit_length()
        F = (1 << W) - 1
        shifts = [W * i for i in range(q)]
        rows = [sum(x << sh for x, sh in zip(row, shifts)) for row in N]
        diag = [N[i][i] for i in range(q)]
        w = sum(top << sh for sh in shifts)
        mask = self_val = 0
        for step in range(1 << q):
            if step:
                i = (step & -step).bit_length() - 1
                mask ^= 1 << i
                w_i = (w >> shifts[i] & F) - top
                if mask >> i & 1:
                    self_val += diag[i] + 2 * w_i
                    w += rows[i]
                else:
                    self_val += diag[i] - 2 * w_i
                    w -= rows[i]
            if self_val == target and (not non_main or _non_main(ctx, mask)):
                hits.append(mask)
                if len(hits) > CANDIDATE_CAP:
                    raise TooLarge(f"the candidate pool is capped at {CANDIDATE_CAP}")
    hits.sort(key=lambda m: _candidate(ctx, m))
    return hits


# --------------------------------------------------------------------------
# certificates and assembled solutions

class Certificate(NamedTuple):
    """Outcome of the three independent star-set checks on a finished graph."""
    mu: QNum
    x_size: int
    multiplicity: int
    regular_degree: Optional[int]
    mu_not_in_complement: bool
    multiplicity_matches: bool
    reconstruction_ok: bool

    @property
    def passed(self) -> bool:
        return (self.mu_not_in_complement and self.multiplicity_matches
                and self.reconstruction_ok)


class StarSolution(NamedTuple):
    """A graph together with a certified star set inside it: H on vertices
    0..q-1, X after, so x's H-neighbourhood mask is graph.adj[x] & (2^q - 1)."""
    graph: Graph
    x_vertices: tuple[int, ...]
    cert: Certificate

    @property
    def order(self) -> int:
        return self.graph.n


def verify_star_pair(G: Graph, X: Sequence[int], mu, halves: Optional[dict] = None) -> Certificate:
    """Exact certificate that X is a star set for mu in G.

    Three independent checks: (i) mu is not an eigenvalue of G - X
    (its multiplicity there, an integer rank, is 0), (ii) the multiplicity
    of mu in G equals |X| (a fraction-free integer rank), (iii) the scaled
    reconstruction identity mval (mu I - A_X) = B^T N B entry by entry.
    (i) and (ii), rank tests without N, prove X a star set by themselves.
    The complement half, check (i) and the IntKernel of make_context(G - X,
    mu), depends on G - X and mu alone; halves, a dict keyed by both, keeps
    it across calls.  One packed product B^T (D N) B, for any mu, meets the
    kernel's self_target on the diagonal and adjacent * A_X off it.
    Failures land in the certificate flags; an exception from make_context
    (whose resolvent identity guards this N) is a bug in linalg.
    """
    mu = qnum(mu)
    X = list(X)
    xset = set(X)
    rest = [v for v in range(G.n) if v not in xset]
    H = induced_subgraph(G, rest)                  # G - X by its rows
    halves = {} if halves is None else halves
    if (H, mu) not in halves:
        halves[H, mu] = None if multiplicity(H.matrix(), mu) else make_context(H, mu).kernel
    kernel = halves[H, mu]

    A = G.matrix()
    mult = multiplicity(A, mu)

    recon = False
    if kernel is not None:
        # b_x, column x of B: the H-neighbourhood of x
        bs = [[A[x][h] for h in rest] for x in X]
        NB = [[sum(map(mul, row, b)) for row in kernel.N] for b in bs]
        target, adjacent = kernel.self_target, kernel.adjacent
        recon = all(sum(map(mul, bi, nbj)) == (target if x == y else adjacent * A[x][y])
                    for x, bi in zip(X, bs) for y, nbj in zip(X, NB))

    return Certificate(mu=mu, x_size=len(X), multiplicity=mult,
                       regular_degree=regular_degree(G),
                       mu_not_in_complement=kernel is not None,
                       multiplicity_matches=(mult == len(X)),
                       reconstruction_ok=recon)


def _assemble(ctx: StarContext, chosen: list[int], xadj: list[int]) -> Graph:
    """Graph with H on vertices 0..q-1 and the star set after, in choice
    order: pick j has H-row chosen[j] and X-row xadj[j], as in Graph.adj."""
    q = ctx.q
    rows = list(ctx.H.adj)
    for j, mask in enumerate(chosen):
        for v in set_bits(mask):
            rows[v] |= 1 << (q + j)
    return Graph(q + len(chosen), tuple(rows + [m | x << q for m, x in zip(chosen, xadj)]))


def solution_from_assembled(ctx: StarContext, G: Graph,
                            halves: Optional[dict] = None) -> StarSolution:
    """Wrap an already-built graph (H on vertices 0..q-1, the star set
    q..n-1) as a certified solution, its certificate given halves; raises
    InternalInconsistency when the certificate fails."""
    xs = tuple(range(ctx.q, G.n))
    cert = verify_star_pair(G, xs, ctx.mu, halves)
    if not cert.passed:
        raise InternalInconsistency("assembled solution failed certification")
    return StarSolution(graph=G, x_vertices=xs, cert=cert)


# --------------------------------------------------------------------------
# the backtracking search

def multiplicity_cap(q: int) -> int:
    """(q+1)(q-2)/2: the multiplicity bound from a complement of order
    q >= 3 when mu is outside {-1, 0} and G is connected."""
    if q < HALF_CAP_MIN_Q:
        raise HypothesisViolated(f"the multiplicity cap needs q >= {HALF_CAP_MIN_Q}, got {q}")
    return (q + 1) * (q - 2) // 2


def _effective_cap(ctx: StarContext, max_x: Optional[int], n_cands: int) -> int:
    if ctx.mu_special:
        # repeats allowed, only the explicit cap bounds |X|
        return max_x
    # candidates do not repeat, so the pool bounds |X|.  The multiplicity
    # cap bounds it for G connected, and outside {-1, 0} every X-vertex has
    # an H-neighbour (b^T N b = mval mu is not 0), so G is connected iff H is
    cap = n_cands if max_x is None else min(max_x, n_cands)
    if ctx.q >= HALF_CAP_MIN_Q and is_connected(ctx.H):
        cap = min(cap, multiplicity_cap(ctx.q))
    return cap


def _orderly_test(ctx: StarContext, masks: list[int], symmetry: bool, max_x: Optional[int]):
    """The orderly-generation test (Read, "Every one a winner", 1978;
    Faradzev, 1978) under the part permutations of K_{t,s}: S_t x S_s,
    plus the part swap when t = s.  Returns is_least(prefix), which takes
    a non-decreasing list of candidate indices and returns False when it
    finds a symmetry g that maps prefix to a set whose sorted tuple is
    lexicographically smaller; with symmetry off, or on an untagged
    context, every prefix passes.  Every prefix of the lex-least member of
    an orbit passes, so pruning on the test keeps the first find of each
    isomorphism class.  A verdict depends on the prefix alone, not on
    which prefixes were tested before it.

    A group of at most PART_GROUP_CAP elements is listed, and then the
    test is complete: a prefix passes iff it is the least of its images,
    so the search emits one find per orbit (the minimal-image problem;
    Linton, ISSAC 2004).  A prefix, a multiset, is read as its count
    vector: a W-bit field holds candidate i's count in its i-th w-bit
    subfield, candidate 0 on top (w = max_x.bit_length() when repeats are
    legal, else 1: no count, at most max_x, carries).  For equal sizes, the lex-smaller
    sorted tuple has the larger count where the two first differ, so the
    larger field.  Candidate i packs its image under group element j,
    counted once, into field j of one int (Knuth, TAOCP 4A, 7.1.3), the
    identity's on top, so the prefix's packed ints sum to its images'
    count vectors, its own on top.  One product puts that plus one in
    every field; one subtraction leaves the guard bit above a field set
    exactly where the image beats the prefix.  A packed int takes |G|
    (W + 1) bits; past PACKED_BITS_CAP the cell test runs instead.

    Larger groups (K_{6,6} has 1,036,800 elements) take the cell test.
    The symmetries that map the sources matched so far onto P[:depth]
    form a coset held as paired cells (a, b) of vertex bitmasks: g maps
    each a onto b.  A source with support S maps onto target T iff
    |S & a| = |T & b| in every cell, and its least image sets the top
    |S & a| bits of each b (ones late in the tuple sort first).  When an
    unused source has a least image below P[depth], P is not minimal.
    Otherwise only the first source that maps onto P[depth] is followed,
    which keeps the test sound and one branch deep; it may miss a smaller
    image down another tie, and _dedupe catches that.  Each start coset
    keeps the levels of the last prefix it tested: the (source, target)
    pair matched into a level, its cells, and a memo from a source's
    candidate index to the index of its least image under those cells.
    A level is reused while its pair is the one the prefix matches, and
    the path is cut at the first pair that differs, so a depth-first walk
    computes each least image about once per level and the cache holds
    at most one path per start coset.  A repeat needs no skip: its memo
    entry is its first copy's, which has already returned or set fit.
    """
    if not symmetry or ctx.tag is None:
        return lambda prefix: True
    t, s = ctx.tag
    A, B = (1 << t) - 1, ((1 << s) - 1) << t
    index = {m: i for i, m in enumerate(masks)}
    w = max(max_x, 1).bit_length() if ctx.mu_special else 1
    W = len(masks) * w
    order = factorial(t) * factorial(s) * (1 + (t == s))
    if order <= PART_GROUP_CAP and order * (W + 1) <= PACKED_BITS_CAP:
        def images(part: int, shift: int, n: int) -> list[int]:
            # the images of one part's bits under each permutation of the part
            bits = list(set_bits(part >> shift))
            return [sum(1 << g[v] for v in bits) << shift for g in permutations(range(n))]
        # field[x], in binary, is a field (guard bit 0) counting image x once;
        # the fields of (sigma, tau) for every tau are joined once per candidate
        field = ["0" * (x * w + w) + "1" + "0" * (W - w - x * w) for x in range(len(masks))]
        block = ["".join(field[index[m & A | y]] for y in images(m & B, t, s)) for m in masks]
        packed = [int("".join(block[index[y | m & B]] for y in images(m & A, 0, t)), 2)
                  for m in masks]
        if t == s:   # then, below, each element after the part swap
            packed = [p << order // 2 * (W + 1) | packed[index[m >> t | (m & A) << t]]
                      for p, m in zip(packed, masks)]
        ones = int(("0" * W + "1") * order, 2)
        guards, top = ones << W, (order - 1) * (W + 1)

        def is_least(prefix: list[int]) -> bool:
            image = sum(map(packed.__getitem__, prefix))
            return not ((image | guards) - ones * ((image >> top) + 1)) & guards
        return is_least

    starts = [((A, A), (B, B))]
    if t == s:
        starts.append(((A, B), (B, A)))
    paths = [[(None, cells, {})] for cells in starts]

    def least(S: int, cells) -> int:
        image = 0
        for a, b in cells:
            for _ in range(b.bit_count() - (S & a).bit_count()):
                b &= b - 1
            image |= b
        return index[image]

    def is_least(prefix: list[int]) -> bool:
        for levels in paths:
            unused = list(prefix)
            for depth, target in enumerate(prefix):
                _, cells, memo = levels[depth]
                fit = None
                for pos, p in enumerate(unused):
                    i = memo.get(p)
                    if i is None:
                        i = memo[p] = least(masks[p], cells)
                    if i < target:
                        return False
                    if i == target and fit is None:
                        fit = pos
                if fit is None:
                    break      # every image of the rest lies above P[depth]
                source = unused.pop(fit)
                if depth + 1 < len(levels) and levels[depth + 1][0] == (source, target):
                    continue
                del levels[depth + 1:]
                S, T = masks[source], masks[target]
                cells = [cell for a, b in cells
                         for cell in ((a & S, b & T), (a & ~S, b & ~T)) if cell[0]]
                levels.append(((source, target), cells, {}))
        return True

    return is_least


def _dedupe(found: list[Graph]) -> list[Graph]:
    """One representative per isomorphism class, the first find of each,
    in output order: by order n, then by canonical bytes.

    Each find is refined once and bucketed by its order and the signature
    of its stable colouring, both isomorphism invariants; it is tested only
    against the representatives in its bucket, with the colourings already
    at hand.  A class whose order no other class shares is placed by n
    alone, so canonical() runs only for classes that tie on n, its form
    searched from that colouring; above CANONICAL_CAP ties are broken by
    graph6 instead.
    """
    reps: list[tuple[Graph, tuple]] = []
    buckets: dict[tuple, list[tuple[Graph, tuple]]] = {}
    for g in found:
        colouring = stable_colouring(g)
        bucket = buckets.setdefault((g.n, colouring[1]), [])
        if any(are_isomorphic(h, g, (ch, colouring)) for h, ch in bucket):
            continue
        bucket.append((g, colouring))
        reps.append((g, colouring))
    classes = Counter(g.n for g, _ in reps)

    def key(rep: tuple[Graph, tuple]) -> tuple[int, bytes]:
        g, colouring = rep
        if classes[g.n] == 1:
            return g.n, b""
        return g.n, (canonical(g, colouring).bytes if g.n <= CANONICAL_CAP
                     else graph6_encode(g).encode())
    reps.sort(key=key)
    return [g for g, _ in reps]


def search_star_sets(ctx: StarContext,
                     require_regular: Union[None, int, str] = None,
                     max_x: Optional[int] = None,
                     max_solutions: Optional[int] = None,
                     symmetry: bool = True) -> list[StarSolution]:
    """Search for graphs extending H with eigenvalue mu of multiplicity |X|.

    require_regular: an integer r keeps only r-regular extensions (the
    degree equations prune during backtracking); the string "sweep" tries
    every r from the maximum H-degree up to q + cap, cap the bound on |X|
    below; None returns maximal compatible families instead (maximal, or
    cut off at max_x).  The candidates are enumerated once per call: a
    degree r = mu, where mu is the main eigenvalue, takes them all, every
    other degree, and maximal families too, only those that pass the
    non-main test.

    H must have a vertex (q >= 1), or HypothesisViolated: over K_0 the
    star sets are the edgeless graphs at mu = 0, which the walk cannot emit.

    max_x bounds |X|; it is mandatory for mu in {-1, 0}, where co-duplicate
    vertices make the families infinite (Unbounded otherwise).  For other
    mu no candidate repeats, so |X| is at most the pool's size, and the
    bound (q+1)(q-2)/2 applies on top whenever q >= 3 and G is connected
    (G is connected iff H is, for such mu).
    max_solutions is a work limit on raw finds: graphs the search assembles
    after orderly pruning and before isomorphism reduction, counted across
    the whole call (all the degrees of a sweep together).  On a tagged
    context whose part group has at most PART_GROUP_CAP elements, the
    search assembles one find per orbit under that group, so every raw
    find counted is a new orbit.  The search stops at that many, so fewer
    isomorphism classes may come back.  A negative
    max_x or max_solutions is a ValueError, and so is a bool for any of
    the three (bool is an int, so True would mean degree or limit 1).

    symmetry (tagged contexts only) prunes a partial choice of candidates
    once a part permutation of K_{t,s} (S_t x S_s, and the part swap when
    t = s) is found to map it to a lexicographically smaller one (orderly
    generation).  The first find of each isomorphism class survives, so
    the output is the same either way; symmetry=False assembles every
    find and is the slower reference.

    Results are deduplicated up to isomorphism, certified (every returned
    solution passes verify_star_pair, and with an integer r is r-regular;
    a sweep's are regular; InternalInconsistency otherwise) and sorted by
    order then canonical bytes (graph6 above CANONICAL_CAP), so repeated
    runs produce identical output.  Canonical forms are computed only for
    classes whose order another class shares.
    """
    for name, limit in (("max_x", max_x), ("max_solutions", max_solutions)):
        if isinstance(limit, bool):
            raise ValueError(f"{name} must be an integer or None, got {limit}")
        if limit is not None and limit < 0:
            raise ValueError(f"{name} must be non-negative, got {limit}")
    if not ctx.q:
        raise HypothesisViolated("q = 0: over K_0 the star sets are the edgeless graphs, mu = 0")
    if ctx.mu_special and max_x is None:
        raise Unbounded("mu in {-1, 0}: co-duplicates make families infinite, set max_x")
    if require_regular not in (None, "sweep") and (isinstance(require_regular, bool)
                                                 or not isinstance(require_regular, int)):
        raise ValueError("require_regular must be None, an integer, or 'sweep'")

    found: list[Graph] = []
    with contextlib.suppress(_BudgetSpent):
        _search(ctx, require_regular, max_x, max_solutions, symmetry, found)
    halves = {}
    sols = [solution_from_assembled(ctx, g, halves) for g in _dedupe(found)]
    if require_regular is not None:
        for sol in sols:
            degree = sol.cert.regular_degree
            if degree is None or require_regular not in ("sweep", degree):
                raise InternalInconsistency(
                    f"a search for degree {require_regular} returned a graph of degree {degree}")
    return sols


def _build_label_tables(ctx: StarContext, masks: list[int]):
    """The pair labels as bitmask tables: bit j of adj_mask[i] (compat_mask[i])
    is set when j is forced adjacent to (may join X alongside) i; the
    diagonal bit concerns a repeat of i.

    Row i of D B^T N B is one int with a w-bit field per candidate (Knuth,
    TAOCP 4A, 7.1.3): member[v] has a 1 in field j when v supports j, and
    bias plus the packed rows (D N B)[u] over the support of i holds
    2^(w-2) + pairing(i, j) in field j.  No field leaves (0, 2^(w-1)), so
    none carries; XOR with a packed target zeroes the fields that hit it,
    and ((x + M) & H) ^ H keeps just their guard bits (H: bit w-1 of each).
    """
    k, q, kern = len(masks), ctx.q, ctx.kernel
    top = q * q * max((abs(x) for row in kern.N for x in row), default=0) + abs(kern.adjacent)
    step = (top.bit_length() + 9) // 8     # bytes per field, w = 8 step: 2^(w-2) > top
    unit = (bytes(step), b"\x01" + bytes(step - 1))
    ones = int.from_bytes(unit[1] * k, "little")
    H, bias = ones << (8 * step - 1), ones << (8 * step - 2)
    M, hit = H - ones, bias + kern.adjacent * ones
    member = [int.from_bytes(b"".join([unit[m >> v & 1] for m in masks]), "little")
              for v in range(q)]
    rows = [sum(n * m for n, m in zip(row, member)) for row in kern.N]
    digits = bytes.maketrans(b"\x00\x80", b"01")

    def zero_fields(x: int) -> int:
        guards = (((x + M) & H) ^ H).to_bytes(step * k, "little")[step - 1::step]
        return int(guards.translate(digits)[::-1], 2)

    adj_mask, compat_mask = [], []
    for mask in masks:
        P = bias + sum(rows[u] for u in set_bits(mask))
        adj_mask.append(zero_fields(P ^ hit))
        compat_mask.append(adj_mask[-1] | zero_fields(P ^ bias))
    return adj_mask, compat_mask


class _BudgetSpent(Exception):
    """Unwinds a search once it holds max_solutions raw finds."""


def _search(ctx: StarContext, require_regular: Union[None, int, str], max_x: Optional[int],
            max_solutions: Optional[int], symmetry: bool, found: list[Graph]) -> None:
    """Append to found the r-regular star sets of r = require_regular, of
    each r of a sweep, or the maximal families (None); raises _BudgetSpent
    once found holds max_solutions raw finds.  The tables are built over
    the pool of candidates of size > 0 when a degree first reaches the
    walk, and the pool bounds a sweep's top degree.  A degree keeps need,
    room, cap and usable: the candidates that pass the non-main test
    (unless r = mu), have size <= r and support inside the needy vertices.
    usable is closed under the part permutations and keeps the pool's
    order, so the walk is the one a pool of usable would take.  The regular
    walk counts down deficit[v] (H-vertex v) and slack[p] (pick p) from need
    and room; one at 0 takes cover_mask[v] (adj_mask[p]) out of allowed."""
    q = ctx.q
    sweep = require_regular == "sweep"
    lo = max(ctx.H.degrees(), default=0)
    # a degree r = mu takes the candidates that fail the non-main test too,
    # and a sweep may reach any integer r >= lo
    main = ctx.mu == require_regular or (sweep and ctx.mu.is_integer and ctx.mu >= lo)
    pool = [m for m in enumerate_candidates(ctx, non_main=not main) if m]
    # an X-vertex has degree at most q + |X| - 1
    degrees = (range(lo, q + _effective_cap(ctx, max_x, len(pool)) + 1) if sweep
               else [require_regular])
    full = (1 << len(pool)) - 1
    non_main = sum(1 << i for i, m in enumerate(pool) if _non_main(ctx, m)) if main else full
    special = ctx.mu_special
    is_least = None

    def emit(chosen_idx: list[int]):
        # the diagonal bit of adj_mask concerns a repeat: X-row j drops bit j
        xadj = [sum((adj_mask[a] >> b & 1) << i for i, b in enumerate(chosen_idx)) & ~(1 << j)
                for j, a in enumerate(chosen_idx)]
        found.append(_assemble(ctx, [pool[i] for i in chosen_idx], xadj))
        if len(found) == max_solutions:
            raise _BudgetSpent

    def maximal(chosen_idx: list[int], allowed_all: int, pick_from: int):
        # maximal: nothing anywhere (even below the ascending floor)
        # extends X; the cap also closes a branch
        if chosen_idx and (not allowed_all or len(chosen_idx) >= cap):
            if is_least(chosen_idx):
                emit(chosen_idx)
            return
        m = pick_from
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            nxt = chosen_idx + [i]
            nxt_all = allowed_all & compat_mask[i]
            nxt_pick = nxt_all & ge_mask[i]
            # a test ORs one packed image per chosen index (the cell route
            # reads a memo per unused index and level) and may cut up to
            # 2^|nxt_pick| nodes, so the walk tests only while more
            # candidates are pickable than chosen; pickable only shrinks,
            # so below that it tests only what it emits.  On K_{2,5} mu=1
            # (20 mutually compatible candidates; median of five in-process
            # runs, Python 3.11, shared 2-vCPU Xeon, memoised least images)
            # testing every node took 1.5 s, first choices and emissions only
            # 0.33 s, this rule 0.13 s.
            if nxt_pick.bit_count() > len(nxt) and not is_least(nxt):
                continue
            maximal(nxt, nxt_all, nxt_pick)

    def regular(chosen_idx: list[int], deficit: list[int], slack: list[int], allowed: int):
        # the orderly test of chosen_idx runs last, once the cheaper degree
        # checks (which most nodes fail) have passed; the top of the walk
        # tests each pick before that pick's walk, so depth 1 is tested
        if not any(deficit):
            # every H-vertex has degree r, so z = (A - rI)j lives on X.  For
            # an eigenvector e of mu, z.e = (mu - r) j.e: 0 at r = mu, and by
            # the non-main test otherwise.  On a star set, z orthogonal to
            # the eigenspace is 0, so every pick has degree r too
            # (search_star_sets checks each answer's degree)
            if len(chosen_idx) < 2 or is_least(chosen_idx):
                emit(chosen_idx)
            return
        if len(chosen_idx) >= cap:
            return
        for v, d in enumerate(deficit):
            if d and (allowed & cover_mask[v]).bit_count() < (1 if special else d):
                return
        if len(chosen_idx) > 1 and not is_least(chosen_idx):
            return
        m = allowed
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            if not chosen_idx and not is_least([i]):
                continue
            # no pick overfills a vertex v of H or pushes a chosen p past
            # degree r: the pick that brought v's deficit (p's slack) to 0
            # took cover_mask[v] (adj_mask[p]) out of allowed, below, and
            # allowed only shrinks.  No mask bounds the new pick's own slack.
            # ge_mask keeps choices ascending; the diagonal bit of
            # compat_mask decides whether i itself may repeat
            pruned = allowed & compat_mask[i] & ge_mask[i]
            nxt_slack = slack + [room[i]]
            for p, pi in enumerate(chosen_idx):
                if adj_mask[pi] >> i & 1:
                    nxt_slack[-1] -= 1
                    nxt_slack[p] -= 1
                    if not nxt_slack[p]:
                        pruned &= ~adj_mask[pi]
            if nxt_slack[-1] < 0:
                continue
            if not nxt_slack[-1]:
                pruned &= ~adj_mask[i]
            nxt_deficit = deficit[:]
            for v in support[i]:
                nxt_deficit[v] -= 1
                if not nxt_deficit[v]:
                    pruned &= ~cover_mask[v]
            regular(chosen_idx + [i], nxt_deficit, nxt_slack, pruned)

    # the walks read room and cap of the degree in hand.  Each holds
    # itself in a cell, emptied on the way out to free the tables on return
    try:
        for r in degrees:
            if len(found) == max_solutions:
                return
            if r is None:
                need, usable = [0] * q, non_main
            else:
                need = [r - ctx.H.degree(v) for v in range(q)]
                if any(x < 0 for x in need) or not any(need):
                    continue
                needy = sum(1 << v for v in range(q) if need[v])
                usable = (full if ctx.mu == r else non_main) & sum(
                    1 << i for i, m in enumerate(pool) if m.bit_count() <= r and not m & ~needy)
            if not usable:
                continue
            cap = _effective_cap(ctx, max_x, usable.bit_count())
            max_size = max(pool[i].bit_count() for i in set_bits(usable))
            if cap < 1 or (sum(need) + max_size - 1) // max_size > cap:
                continue
            if is_least is None:
                adj_mask, compat_mask = _build_label_tables(ctx, pool)
                ge_mask = [(full >> i) << i for i in range(len(pool))]
                support = [tuple(set_bits(m)) for m in pool]
                cover_mask = [sum(1 << i for i, m in enumerate(pool) if m >> v & 1)
                              for v in range(q)]
                is_least = _orderly_test(ctx, pool, symmetry, max_x)
            if r is None:
                maximal([], usable, usable)
            else:
                room = [r - m.bit_count() for m in pool]   # the X-degree each pick must reach
                regular([], need, [], usable)
    finally:
        del maximal, regular
