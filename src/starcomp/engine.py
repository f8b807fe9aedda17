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
over the integer powers of C into an IntKernel, N scaled to a common
denominator (one int per entry, packed for quadratic mu), and no QNum
matrix is built.  Both candidate routes read it: a tagged K_{t,s} tests
each vertex type (a, b) once, anything else walks the 2^q subsets in
Gray-code order.  Either one runs once per search, and _non_main, the
non-main test b^T N j = -mval of a regular graph (j the all-ones vector),
filters its pool for every degree other than r = mu.  The pair relation
(_build_label_tables, used by classify_pair and the search) forms B^T N B
a row at a time, each row packed into one int and labelled by
word-parallel compares.  The tests check it against the QNum resolvent,
and the types (vertex_types, which `starcomp analyze` prints) against
their closed form; both oracles live in the tests.

One function, _search, runs a search for one degree r (or for maximal
families when r is None): it filters the candidates, builds the
pair-label tables and assembles every find.  Only its recursion depends
on the mode: a DFS that prunes by the degree equations, or a walk over
maximal cliques of the compatibility relation.  On a tagged context both
drop the choices that a part permutation of K_{t,s} maps to a
lexicographically smaller one (orderly generation, _orderly_test), so
each orbit of finds is assembled about once; _dedupe removes the rest,
refining each find once and handing that colouring to canonical().

make_context and verify_star_pair check their identities on integer
matrices; the certificate builds everything from G - X, never from a
search context.
"""

from __future__ import annotations

import contextlib
import enum
from itertools import combinations, product
from math import comb
from typing import NamedTuple, Optional, Sequence, Union

from .algebra import QNum, qnum
from .canon import CANONICAL_CAP, are_isomorphic, canonical, stable_colouring
from .errors import (BadTag, DuplicateNeighbourhood, HypothesisViolated,
                     InternalInconsistency, TooLarge, Unbounded)
from .graphs import Graph, graph6_encode, induced_subgraph, make_kts, regular_degree
from .linalg import (combination_vanishes, identity, mat_mul, matrix_powers,
                     minimal_polynomial, multiplicity, resolvent_coefficients,
                     scaled_parts, weighted_sum)

# The untagged scan costs about 2.0-2.8 us per subset at q = 16..24
# (Python 3.11, one core of a shared 2-vCPU Xeon): q = 20 takes 2.2 s,
# q = 24 takes 38 s, so q = 25 would take about 75 s and q = 30 about 40 min.
BRUTE_FORCE_CAP = 24
# A pool of k candidates costs k^2 pair labels: the label tables of 4,096
# K_{3,18} mu=2 candidates take 0.5-0.7 s (0.19 s at 2,048), and its full
# pool of 99,450 would take minutes before the search starts.  The largest
# pool a search in the tests builds is 225 (K_{6,6} mu=-2).
CANDIDATE_CAP = 4096
HALF_CAP_MIN_Q = 3


class Compat(enum.Enum):
    """Forced relation between two prospective star-set vertices."""
    ADJACENT = "adjacent"
    NON_ADJACENT = "non-adjacent"
    INCOMPATIBLE = "incompatible"


class IntKernel(NamedTuple):
    """N, Nj and the targets scaled by one common denominator D.

    Each scaled entry is A + B*sqrt(d) with A, B integers, held as the one
    int A + B * 2^K (just A when mu is rational), so a pairing of 0/1
    vectors is a plain int sum (an entry of B^T N B, which the pair-label
    tables pack a row per int) and a test against a target is one int
    comparison.  Every sum the engine forms has at most q^2 terms, so its A
    stays within q^2 * max|A| < 2^(K-1), and two packed sums are equal iff
    both their parts are.
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

    N = sum_j a_j C^j comes from the minimal polynomial of C, and the
    resolvent identity N (mu I - C) = mval I is checked entry by entry on
    the integer powers C^j, with the scalars over one common denominator.
    The kernel is summed the same way over the powers of C.  Raises
    MuIsEigenvalue when mu is an eigenvalue of H and BadTag when H is not
    the declared complete bipartite graph.
    """
    mu = qnum(mu)
    C = H.matrix()
    a, mval = resolvent_coefficients(minimal_polynomial(C), mu)
    d = len(a)
    powers = matrix_powers(C, d + 1)
    if bipartite_tag is not None:
        t, s = bipartite_tag
        if not (1 <= t <= s) or H != make_kts(t, s):
            raise BadTag(f"graph is not K_{{{t},{s}}} with parts in order")
    # resolvent identity N (mu I - C) = mval I, entrywise, with N = sum_j a_j C^j:
    # sum_j a_j (mu C^j - C^(j+1)) - mval I = 0
    if not combination_vanishes([mu * x for x in a] + [-x for x in a] + [-mval],
                                powers[:d] + powers[1:] + [powers[0]]):
        raise InternalInconsistency("resolvent identity N (mu I - C) = mval I fails")
    # D N = P + R sqrt(d), then D Nj (the row sums) and the two targets
    q = H.n
    D, ps, rs = scaled_parts(a + [mval * mu, -mval])
    sums = [[[sum(row)] for row in M] for M in powers[:d]]
    P, R = (weighted_sum(c, powers[:d]) + weighted_sum(c, sums) + c[d:]
            for c in (ps, rs))
    K = (q * q * max(map(abs, P))).bit_length() + 1
    packed = [p + (r << K) for p, r in zip(P, R)]
    kernel = IntKernel(N=tuple(tuple(packed[i * q:(i + 1) * q]) for i in range(q)),
                       ones=tuple(packed[q * q:q * q + q]), self_target=packed[-2],
                       adjacent=packed[-1], D=D, K=K)
    return StarContext(H=H, mu=mu, mval=mval, kernel=kernel, tag=bipartite_tag)


class VertexType(NamedTuple):
    """a neighbours in the t-part of K_{t,s}, b in the s-part."""
    a: int
    b: int


class CandidateVector(NamedTuple):
    """A 0/1 H-neighbourhood vector passing the self (and non-main) tests.

    mask (bit v set iff v is a neighbour) is the form the engine reads;
    bits, the same vector as a tuple, only orders the candidates."""
    bits: tuple[int, ...]
    mask: int
    type_ab: Optional[VertexType]

    @property
    def size(self) -> int:
        return self.mask.bit_count()


def _candidate(ctx: StarContext, mask: int) -> CandidateVector:
    """The candidate with H-neighbourhood mask, a subset of the q vertices."""
    type_ab = None
    if ctx.tag is not None:
        low = (1 << ctx.tag[0]) - 1
        type_ab = VertexType((mask & low).bit_count(), (mask & ~low).bit_count())
    return CandidateVector(bits=tuple(mask >> v & 1 for v in range(ctx.q)), mask=mask,
                           type_ab=type_ab)


def _ones(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _non_main(ctx: StarContext, mask: int) -> bool:
    """b^T N j = -mval for the 0/1 vector b with support mask (j all ones)."""
    return sum(ctx.kernel.ones[i] for i in _ones(mask)) == ctx.kernel.adjacent


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
        if sum(N[i][j] for i in _ones(rep) for j in _ones(rep)) == target and \
                (not non_main or _non_main(ctx, rep)):
            out.append(VertexType(a, b))
    return out


def enumerate_candidates(ctx: StarContext, non_main: bool = True) -> list[CandidateVector]:
    """All 0/1 vectors b over V(H) with b^T N b = mval * mu, plus
    b^T N j = -mval when non_main is set (j the all-ones vector).

    A tagged K_{t,s} expands vertex_types: every vector of a passing type
    passes.  Everything else scans the 2^q subsets in Gray-code order,
    capped at q = BRUTE_FORCE_CAP, and runs the non-main test only on
    vectors that pass the self test.  Both routes raise TooLarge before
    building a pool of more than CANDIDATE_CAP.  Candidates come back
    sorted by (type, indicator tuple).
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
        # b^T N b by N_ii +- 2 w_i.
        w = [0] * q
        mask = self_val = 0
        for step in range(1 << q):
            if step:
                i = (step & -step).bit_length() - 1
                mask ^= 1 << i
                row = N[i]
                if mask >> i & 1:
                    self_val += row[i] + 2 * w[i]
                    w = [x + y for x, y in zip(w, row)]
                else:
                    self_val += row[i] - 2 * w[i]
                    w = [x - y for x, y in zip(w, row)]
            if self_val == target and (not non_main or _non_main(ctx, mask)):
                hits.append(mask)
                if len(hits) > CANDIDATE_CAP:
                    raise TooLarge(f"the candidate pool is capped at {CANDIDATE_CAP}")
    out = [_candidate(ctx, m) for m in hits]
    out.sort(key=lambda c: (c.type_ab, c.bits))
    return out


def classify_pair(ctx: StarContext, u: CandidateVector, v: CandidateVector) -> Compat:
    """Relation forced between two candidates if both join the star set.

    Equal vectors are co-duplicates, legal only for mu in {-1, 0} (where the
    same arithmetic labels the pair); for any other mu they are rejected
    with DuplicateNeighbourhood.  The label is the one the search uses.
    """
    if u.mask == v.mask and not ctx.mu_special:
        raise DuplicateNeighbourhood("equal H-neighbourhoods require mu in {-1, 0}")
    (adj, _), (compat, _) = _build_label_tables(ctx, [u, v])
    if not compat >> 1 & 1:
        return Compat.INCOMPATIBLE
    return Compat.ADJACENT if adj >> 1 & 1 else Compat.NON_ADJACENT


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
    """A graph together with a certified star set inside it."""
    candidates: tuple[CandidateVector, ...]
    graph: Graph
    x_vertices: tuple[int, ...]
    cert: Certificate

    @property
    def order(self) -> int:
        return self.graph.n


def verify_star_pair(G: Graph, X: Sequence[int], mu) -> Certificate:
    """Exact certificate that X is a star set for mu in G.

    Three independent checks: (i) mu is not an eigenvalue of G - X
    (its multiplicity there, an integer rank, is 0), (ii) the multiplicity
    of mu in G equals |X| (a fraction-free integer rank), (iii) the scaled
    reconstruction identity mval (mu I - A_X) = B^T N B entry by entry.
    For (iii), C, its minimal polynomial m and the coefficients a_j of
    N = sum_j a_j C^j come from G - X itself, so B^T N B =
    sum_j a_j B^T C^j B with integer matrices B^T C^j B, and the identity
    is compared in integers.  Failures land in the certificate flags;
    nothing is raised.
    """
    mu = qnum(mu)
    X = list(X)
    xset = set(X)
    rest = [v for v in range(G.n) if v not in xset]
    C = induced_subgraph(G, rest).matrix()
    mu_ok = multiplicity(C, mu) == 0

    A = G.matrix()
    mult = multiplicity(A, mu)

    recon = False
    if mu_ok:
        a, mval = resolvent_coefficients(minimal_polynomial(C), mu)
        B = [[A[h][x] for x in X] for h in rest]
        Bt = [[A[x][h] for h in rest] for x in X]
        terms = []
        CjB = B
        for j in range(len(a)):
            if j:
                CjB = mat_mul(C, CjB)
            terms.append(mat_mul(Bt, CjB))
        AX = [[A[u][v] for v in X] for u in X]
        recon = combination_vanishes(a + [-mval * mu, mval],
                                     terms + [identity(len(X)), AX])

    return Certificate(mu=mu, x_size=len(X), multiplicity=mult,
                       regular_degree=regular_degree(G),
                       mu_not_in_complement=mu_ok,
                       multiplicity_matches=(mult == len(X)),
                       reconstruction_ok=recon)


def _assemble(ctx: StarContext, chosen: list[CandidateVector],
              adjacency: list[list[int]]) -> Graph:
    """Graph with H on vertices 0..q-1 and the star set after, in choice order."""
    q, k = ctx.q, len(chosen)
    rows = list(ctx.H.adj)
    xrows = [cand.mask for cand in chosen]
    for j, cand in enumerate(chosen):
        for v in _ones(cand.mask):
            rows[v] |= 1 << (q + j)
    for i in range(k):
        for j in range(k):
            if i != j and adjacency[i][j]:
                xrows[i] |= 1 << (q + j)
    return Graph(q + k, tuple(rows + xrows))


def solution_from_assembled(ctx: StarContext, G: Graph) -> StarSolution:
    """Wrap an already-built graph (H on vertices 0..q-1, the star set
    q..n-1) as a certified solution; raises InternalInconsistency when its
    certificate fails."""
    xs = tuple(range(ctx.q, G.n))
    chosen = [_candidate(ctx, G.adj[x] & ((1 << ctx.q) - 1)) for x in xs]
    cert = verify_star_pair(G, xs, ctx.mu)
    if not cert.passed:
        raise InternalInconsistency("assembled solution failed certification")
    return StarSolution(candidates=tuple(chosen), graph=G,
                        x_vertices=xs, cert=cert)


# --------------------------------------------------------------------------
# the backtracking search

def multiplicity_cap(q: int) -> int:
    """(q+1)(q-2)/2: the multiplicity bound from a complement of order
    q >= 3 when mu is outside {-1, 0}."""
    if q < HALF_CAP_MIN_Q:
        raise HypothesisViolated(f"the multiplicity cap needs q >= {HALF_CAP_MIN_Q}, got {q}")
    return (q + 1) * (q - 2) // 2


def _effective_cap(ctx: StarContext, max_x: Optional[int], n_cands: int) -> int:
    if ctx.mu_special:
        # repeats allowed, only the explicit cap bounds |X|
        return max_x
    cap = n_cands if max_x is None else min(max_x, n_cands)
    if ctx.q >= HALF_CAP_MIN_Q:
        cap = min(cap, multiplicity_cap(ctx.q))
    return cap


def _orderly_test(ctx: StarContext, cands: list[CandidateVector], symmetry: bool):
    """The orderly-generation test (Read, "Every one a winner", 1978;
    Faradzev, 1978) under the part permutations of K_{t,s}: S_t x S_s,
    plus the part swap when t = s.  Returns (root, extend); with symmetry
    off, or on an untagged context, extend passes every prefix.

    extend(state, prefix, k) takes the state of prefix[:-k], a
    non-decreasing tuple of candidate indices, and returns the state of
    prefix, or None when some symmetry g maps prefix to a set whose sorted
    tuple is lexicographically smaller; root is the state of ().  Every
    prefix of the lex-least member of an orbit passes, so pruning on the
    test keeps one find per orbit, and the first of each isomorphism class.

    The symmetries that map the sources matched so far onto P[:depth]
    form a coset held as paired cells (a, b) of vertex bitmasks: g maps
    each a onto b.  A source with support S maps onto target T iff
    |S & a| = |T & b| in every cell, and its least image sets the top
    |S & a| bits of each b (ones late in the tuple sort first).  When an
    unused source has a least image below P[depth], P is not minimal.
    Otherwise only the first source that maps onto P[depth] is followed,
    which keeps the test sound and one branch deep; it may miss a smaller
    image down another tie, and _dedupe catches that.  A state keeps, per
    start coset, a level (cells, memo) for each matched depth and the
    sources left unused, so extending a prefix by one index replays the
    new source through the stored cells instead of starting over.  The
    cells of a level never change, and memo maps a source's candidate index
    to the index of its least image under them, filled on first use.
    extend copies the list of levels, not the levels, so a level and its
    memo are shared by every state built on it: each least image is
    computed once per level.
    """
    if not symmetry or ctx.tag is None:
        return [], lambda state, prefix, k=1: state
    t, s = ctx.tag
    A, B = (1 << t) - 1, ((1 << s) - 1) << t
    starts = [((A, A), (B, B))]
    if t == s:
        starts.append(((A, B), (B, A)))
    masks = [c.mask for c in cands]
    index = {m: i for i, m in enumerate(masks)}

    def least(S: int, cells) -> int:
        image = 0
        for a, b in cells:
            for _ in range(b.bit_count() - (S & a).bit_count()):
                b &= b - 1
            image |= b
        return index[image]

    def extend(state, prefix: list[int], k: int = 1):
        added = prefix[-k:]
        out = []
        for levels, unused in state:
            depth = len(levels) - 1
            for d in range(depth):
                cells, memo = levels[d]
                for p in added:
                    i = memo.get(p)
                    if i is None:
                        i = memo[p] = least(masks[p], cells)
                    if i < prefix[d]:
                        return None
            levels, unused = levels[:], unused + added
            cells, memo = levels[-1]
            for target in prefix[depth:]:
                T = masks[target]
                fit = None
                for pos, p in enumerate(unused):
                    if pos and unused[pos - 1] == p:
                        continue   # a repeat (mu in {-1, 0}) has the same images
                    i = memo.get(p)
                    if i is None:
                        i = memo[p] = least(masks[p], cells)
                    if i < target:
                        return None
                    if i == target and fit is None:
                        fit = pos
                if fit is None:
                    break      # every image of the rest lies above P[depth]
                S = masks[unused.pop(fit)]
                cells = [cell for a, b in cells
                         for cell in ((a & S, b & T), (a & ~S, b & ~T)) if cell[0]]
                memo = {}
                levels.append((cells, memo))
            out.append((levels, unused))
        return out

    return [([(cells, {})], []) for cells in starts], extend


def _dedupe(found: list[Graph]) -> list[tuple[Graph, tuple]]:
    """One representative per isomorphism class, the first find of each,
    keyed for deterministic order.

    Each find is refined once and bucketed by its order and the signature
    of its stable colouring, both isomorphism invariants; it is tested only
    against the representatives in its bucket, with the colourings already
    at hand.  The key of a new class is (n, canonical bytes), its form
    searched from that colouring, or (n, graph6) above CANONICAL_CAP.
    """
    reps: list[tuple[Graph, tuple]] = []
    buckets: dict[tuple, list[tuple[Graph, tuple]]] = {}
    for g in found:
        colouring = stable_colouring(g)
        bucket = buckets.setdefault((g.n, colouring[1]), [])
        if any(are_isomorphic(h, g, (ch, colouring)) for h, ch in bucket):
            continue
        bucket.append((g, colouring))
        form = (canonical(g, colouring).bytes if g.n <= CANONICAL_CAP
                else graph6_encode(g).encode())
        reps.append((g, (g.n, form)))
    reps.sort(key=lambda item: item[1])
    return reps


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
    other degree only those that pass the non-main test.

    max_x bounds |X|; it is mandatory for mu in {-1, 0}, where co-duplicate
    vertices make the families infinite (Unbounded otherwise).  For other
    mu the bound (q+1)(q-2)/2 applies on top whenever q >= 3.
    max_solutions is a work limit on raw finds: graphs the search assembles
    after orderly pruning and before isomorphism reduction, counted across
    the whole call (all the degrees of a sweep together).  The search stops
    at that many, so fewer isomorphism classes may come back.  A negative
    max_x or max_solutions is a ValueError.

    symmetry (tagged contexts only) prunes a partial choice of candidates
    once a part permutation of K_{t,s} (S_t x S_s, and the part swap when
    t = s) is found to map it to a lexicographically smaller one (orderly
    generation).  The first find of each isomorphism class survives, so
    the output is the same either way; symmetry=False assembles every
    find and is the slower reference.

    Results are deduplicated up to isomorphism, certified (every returned
    solution passes verify_star_pair) and sorted by order then canonical
    bytes (graph6 above CANONICAL_CAP), so repeated runs produce identical
    output.
    """
    for name, limit in (("max_x", max_x), ("max_solutions", max_solutions)):
        if limit is not None and limit < 0:
            raise ValueError(f"{name} must be non-negative, got {limit}")
    if ctx.mu_special and max_x is None:
        raise Unbounded("mu in {-1, 0}: co-duplicates make families infinite, set max_x")
    if require_regular == "sweep":
        # an X-vertex has degree at most q + |X| - 1, and no pool holds more
        # than 2^q distinct vectors
        lo = max(ctx.H.degrees(), default=0)
        degrees = range(lo, ctx.q + _effective_cap(ctx, max_x, 1 << ctx.q) + 1)
    elif require_regular is None or isinstance(require_regular, int):
        degrees = [require_regular]
    else:
        raise ValueError("require_regular must be None, an integer, or 'sweep'")

    # mu = r is the one main eigenvalue of an r-regular graph: for that
    # degree only, the non-main filter comes off the one scan of the context
    main = [r is not None and ctx.mu == r for r in degrees]
    pool = enumerate_candidates(ctx, non_main=not any(main))
    non_main_pool = [c for c in pool if _non_main(ctx, c.mask)] if any(main) else pool
    found: list[Graph] = []
    for r, is_main in zip(degrees, main):
        if len(found) == max_solutions:
            break
        _search(ctx, pool if is_main else non_main_pool, r, max_x, max_solutions,
                symmetry, found)

    return [solution_from_assembled(ctx, g) for g, _key in _dedupe(found)]


def _build_label_tables(ctx: StarContext, cands: list[CandidateVector]):
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
    k, q, kern = len(cands), ctx.q, ctx.kernel
    masks = [c.mask for c in cands]
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
        P = bias + sum(rows[u] for u in _ones(mask))
        adj_mask.append(zero_fields(P ^ hit))
        compat_mask.append(adj_mask[-1] | zero_fields(P ^ bias))
    return adj_mask, compat_mask


class _BudgetSpent(Exception):
    """Unwinds a search once it holds max_solutions raw finds."""


def _search(ctx: StarContext, pool: list[CandidateVector], r: Optional[int],
            max_x: Optional[int], max_solutions: Optional[int], symmetry: bool,
            found: list[Graph]) -> None:
    """Append to found the star sets built from pool: r-regular extensions,
    or maximal compatible families when r is None.  Stops once found holds
    max_solutions raw finds."""
    q = ctx.q
    if r is None:
        need = [0] * q
        cands = [c for c in pool if c.size > 0]
    else:
        need = [r - ctx.H.degree(v) for v in range(q)]
        if any(x < 0 for x in need) or not any(need):
            return
        needy = sum(1 << v for v in range(q) if need[v])
        cands = [c for c in pool if 0 < c.size <= r and not c.mask & ~needy]
    if not cands:
        return
    cap = _effective_cap(ctx, max_x, len(cands))
    max_size = max(c.size for c in cands)
    if cap < 1 or (sum(need) + max_size - 1) // max_size > cap:
        return

    k = len(cands)
    adj_mask, compat_mask = _build_label_tables(ctx, cands)
    full = (1 << k) - 1
    ge_mask = [(full >> i) << i for i in range(k)]
    root, extend = _orderly_test(ctx, cands, symmetry)

    def emit(chosen_idx: list[int]):
        chosen = [cands[i] for i in chosen_idx]
        adjacency = [[adj_mask[a] >> b & 1 for b in chosen_idx] for a in chosen_idx]
        found.append(_assemble(ctx, chosen, adjacency))
        if len(found) == max_solutions:
            raise _BudgetSpent

    def maximal(chosen_idx: list[int], allowed_all: int, pick_from: int, state):
        # maximal: nothing anywhere (even below the ascending floor)
        # extends X; the cap also closes a branch
        if chosen_idx and (not allowed_all or len(chosen_idx) >= cap):
            # state is None once the walk has stopped testing prefixes
            if state is not None or extend(root, chosen_idx, len(chosen_idx)) is not None:
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
            nxt_state = None
            # a test costs at most one least image per chosen index and may cut
            # up to 2^|nxt_pick| nodes, so the walk tests only while more
            # candidates are pickable than chosen.  On K_{2,5} mu=1 (20
            # mutually compatible candidates; median of five in-process
            # runs, Python 3.11, shared 2-vCPU Xeon, memoised least images)
            # testing every node took 1.5 s, first choices and emissions only
            # 0.33 s, this rule 0.13 s.
            if state is not None and nxt_pick.bit_count() > len(nxt):
                nxt_state = extend(state, nxt)
                if nxt_state is None:
                    continue
            maximal(nxt, nxt_all, nxt_pick, nxt_state)

    masks = [c.mask for c in cands]
    cover_mask = [0] * q
    for i, mask in enumerate(masks):
        for v in _ones(mask):
            cover_mask[v] |= 1 << i
    special = ctx.mu_special
    room = [] if r is None else [r - c.size for c in cands]  # the X-degree each pick must reach

    def regular(chosen_idx: list[int], cov: list[int], adeg: list[int],
                allowed: int, state):
        # state is that of chosen_idx[:-1]: the orderly test of chosen_idx
        # runs last, once the cheaper degree checks (which most nodes fail)
        # have passed
        if cov == need:
            # H-side degrees are saturated; X-side must match exactly
            if (all(adeg[p] == room[i] for p, i in enumerate(chosen_idx))
                    and extend(state, chosen_idx) is not None):
                emit(chosen_idx)
            return
        if len(chosen_idx) >= cap:
            return
        for v in range(q):
            deficit = need[v] - cov[v]
            if deficit > 0:
                avail = allowed & cover_mask[v]
                if not avail:
                    return
                if not special and avail.bit_count() < deficit:
                    return
        if chosen_idx:
            state = extend(state, chosen_idx)
            if state is None:
                return
        m = allowed
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            # no pick overfills a vertex v of H or pushes a chosen p past
            # degree r: the pick that filled v (p) took cover_mask[v]
            # (adj_mask[p]) out of allowed, below, and allowed only shrinks.
            # No mask bounds the new candidate's own X-degree.
            hit = [adj_mask[p] >> i & 1 for p in chosen_idx]
            acount = sum(hit)
            if acount > room[i]:
                continue
            nxt = chosen_idx + [i]
            new_adeg = [d + h for d, h in zip(adeg, hit)] + [acount]
            # ge_mask keeps choices ascending; the diagonal bit of
            # compat_mask decides whether i itself may repeat
            pruned = allowed & compat_mask[i] & ge_mask[i]
            new_cov = cov[:]
            for v in _ones(masks[i]):
                new_cov[v] += 1
                if new_cov[v] == need[v]:
                    pruned &= ~cover_mask[v]
            for p, pi in enumerate(nxt):
                if new_adeg[p] == room[pi]:
                    pruned &= ~adj_mask[pi]
            regular(nxt, new_cov, new_adeg, pruned, state)

    with contextlib.suppress(_BudgetSpent):
        if r is None:
            maximal([], full, full, root)
        else:
            regular([], [0] * q, [], full, root)
