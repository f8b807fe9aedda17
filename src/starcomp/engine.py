"""Star-set search: candidate enumeration, compatibility, backtracking, certification.

The engine realizes the reconstruction condition constructively.  Over a fixed
complement H with adjacency matrix C and a scalar mu that is not an eigenvalue
of C, put N = q(C), the quotient of the minimal polynomial m of C at mu, and
mval = m(mu).  Then N (mu I - C) = mval I, and a family X of 0/1
H-neighbourhood vectors extends H to a graph with eigenvalue mu of
multiplicity |X| iff

    b^T N b  = mval * mu          for every b in X,
    b^T N b' in {-mval, 0}        for every pair (adjacent / non-adjacent),

everything scaled by mval so the arithmetic stays exact.  Complete bipartite
complements K_{t,s} with t + s >= 3 admit a closed-form candidate path
through the vertex-type equations; K_{1,1} falls outside (its minimal
polynomial is quadratic, not the cubic x^3 - ts x) and always takes the
generic route.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence, Union

from .algebra import IntPoly, QNum, qnum
from .canon import CANONICAL_CAP, are_isomorphic, canonical
from .errors import (BadTag, DuplicateNeighbourhood, InternalInconsistency,
                     TooLarge, Unbounded)
from .graphs import Graph, graph6_encode, induced_subgraph, regular_degree
from .kts import VertexType, make_kts, solve_types_fixed
from .linalg import (char_polynomial, field_rank, mat_mul, mat_vec,
                     scaled_resolvent)

BRUTE_FORCE_CAP = 30
HALF_CAP_MIN_Q = 3


class Compat(enum.Enum):
    """Forced relation between two prospective star-set vertices."""
    ADJACENT = "adjacent"
    NON_ADJACENT = "non-adjacent"
    INCOMPATIBLE = "incompatible"


@dataclass(frozen=True)
class StarContext:
    """Everything fixed by the choice of complement H and eigenvalue mu."""
    H: Graph
    mu: QNum
    N: tuple             # q x q scaled resolvent, tuples of QNum
    mval: QNum           # minimal polynomial of A(H) evaluated at mu
    ones_pairing: tuple  # N applied to the all-ones vector
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

    With a (t, s) tag the scaled resolvent is also derived from the cubic
    relation C^3 = ts C as N = C^2 + mu C + (mu^2 - ts) I, and the two
    routes are checked against each other entry by entry.  The cubic is the
    minimal polynomial only for t + s >= 3, so a (1, 1) tag skips the
    closed form.  Raises MuIsEigenvalue when mu is an eigenvalue of H and
    BadTag when H is not the declared complete bipartite graph.
    """
    mu = qnum(mu)
    C = H.matrix()
    N_gen, mval = scaled_resolvent(C, mu)
    n = H.n
    if bipartite_tag is not None:
        t, s = bipartite_tag
        if not (1 <= t <= s) or H != make_kts(t, s):
            raise BadTag(f"graph is not K_{{{t},{s}}} with parts in order")
        if t + s >= 3:
            C2 = mat_mul(C, C)
            shift = mu * mu - t * s
            fast_ok = mval == mu * shift and all(
                N_gen[i][j] == C2[i][j] + mu * C[i][j] + (shift if i == j else 0)
                for i in range(n) for j in range(n))
            if not fast_ok:
                raise InternalInconsistency(
                    "cubic-relation resolvent disagrees with the minimal-polynomial route")
    # resolvent identity N (mu I - C) = mval I, entrywise
    M = [[(mu if i == j else qnum(0)) - C[i][j] for j in range(n)] for i in range(n)]
    P = mat_mul(N_gen, M)
    if not all(P[i][j] == (mval if i == j else 0) for i in range(n) for j in range(n)):
        raise InternalInconsistency("resolvent identity N (mu I - C) = mval I fails")
    ones = mat_vec(N_gen, [1] * n)
    return StarContext(H=H, mu=mu,
                       N=tuple(tuple(qnum(x) for x in row) for row in N_gen),
                       mval=qnum(mval),
                       ones_pairing=tuple(qnum(x) for x in ones),
                       tag=bipartite_tag)


def pairing(ctx: StarContext, x: Sequence[int], y: Sequence[int]) -> QNum:
    """Scaled pairing x^T N y; the reference values are mval*mu (self),
    -mval (adjacent pair) and 0 (non-adjacent pair)."""
    acc = qnum(0)
    for i, xi in enumerate(x):
        if xi:
            row = ctx.N[i]
            for j, yj in enumerate(y):
                if yj:
                    acc = acc + row[j] * (xi * yj)
    return acc


@dataclass(frozen=True)
class CandidateVector:
    """A 0/1 H-neighbourhood vector passing the self (and non-main) tests."""
    bits: tuple[int, ...]
    mask: int
    self_pair: QNum
    ones_pair: QNum
    type_ab: Optional[VertexType]

    @property
    def size(self) -> int:
        return sum(self.bits)


def _candidate(ctx: StarContext, bits: tuple[int, ...],
               type_ab: Optional[VertexType] = None) -> CandidateVector:
    mask = 0
    op = qnum(0)
    for i, b in enumerate(bits):
        if b:
            mask |= 1 << i
            op = op + ctx.ones_pairing[i]
    return CandidateVector(bits=bits, mask=mask,
                           self_pair=pairing(ctx, bits, bits),
                           ones_pair=op, type_ab=type_ab)


def enumerate_candidates(ctx: StarContext, non_main: bool = True) -> list[CandidateVector]:
    """All 0/1 vectors b over V(H) with b^T N b = mval * mu, plus
    b^T N j = -mval when non_main is set (j the all-ones vector).

    Tagged K_{t,s} contexts with t + s >= 3 go type by type through the
    vertex-type equations; everything else scans the 2^q subsets, capped at
    q = 30.  Candidates come back sorted by (type, indicator tuple).
    """
    target_self = ctx.mval * ctx.mu
    target_ones = -ctx.mval
    out: list[CandidateVector] = []
    if ctx.tag is not None and sum(ctx.tag) >= 3:
        t, s = ctx.tag
        for tp in solve_types_fixed(t, s, ctx.mu, non_main=non_main):
            a, b = tp
            for vpart in combinations(range(t), a):
                vbits = set(vpart)
                for wpart in combinations(range(t, t + s), b):
                    bits = tuple(1 if (i in vbits or i in wpart) else 0
                                 for i in range(ctx.q))
                    cand = _candidate(ctx, bits, tp)
                    # the type equations and the resolvent must agree
                    if cand.self_pair != target_self or \
                            (non_main and cand.ones_pair != target_ones):
                        raise InternalInconsistency(
                            f"vertex type {tp} disagrees with the resolvent pairing")
                    out.append(cand)
        out.sort(key=lambda c: (c.type_ab, c.bits))
        return out
    if ctx.q > BRUTE_FORCE_CAP:
        raise TooLarge(f"untagged candidate scan is capped at q = {BRUTE_FORCE_CAP}")
    start = 0 if ctx.mu == 0 else 1
    for mask in range(start, 1 << ctx.q):
        bits = tuple((mask >> i) & 1 for i in range(ctx.q))
        type_ab = None
        if ctx.tag is not None:
            t, s = ctx.tag
            type_ab = VertexType(sum(bits[:t]), sum(bits[t:]))
        cand = _candidate(ctx, bits, type_ab)
        if cand.self_pair != target_self:
            continue
        if non_main and cand.ones_pair != target_ones:
            continue
        out.append(cand)
    out.sort(key=lambda c: c.bits)
    return out


def _label_from_value(ctx: StarContext, val: QNum) -> Compat:
    if val == 0:
        return Compat.NON_ADJACENT
    if val == -ctx.mval:
        return Compat.ADJACENT
    return Compat.INCOMPATIBLE


def _closed_form_pairing(ctx: StarContext, u: CandidateVector,
                         v: CandidateVector) -> QNum:
    """Pair relation for typed candidates over K_{t,s}: with rho common
    neighbours, (mu^2 - ts) rho + acs + bdt + mu(ad + bc)."""
    t, s = ctx.tag
    a, b = u.type_ab
    c, d = v.type_ab
    rho = bin(u.mask & v.mask).count("1")
    return (ctx.mu * ctx.mu - t * s) * rho + a * c * s + b * d * t \
        + ctx.mu * (a * d + b * c)


def _pair_label(ctx: StarContext, u: CandidateVector, v: CandidateVector) -> Compat:
    """Label used inside the search; closed form when the cubic applies."""
    if ctx.tag is not None and sum(ctx.tag) >= 3 \
            and u.type_ab is not None and v.type_ab is not None:
        return _label_from_value(ctx, _closed_form_pairing(ctx, u, v))
    return _label_from_value(ctx, pairing(ctx, u.bits, v.bits))


def classify_pair(ctx: StarContext, u: CandidateVector, v: CandidateVector) -> Compat:
    """Relation forced between two candidates if both join the star set.

    Equal vectors are co-duplicates, legal only for mu in {-1, 0} (where the
    same arithmetic labels the pair); for any other mu they are rejected
    with DuplicateNeighbourhood.  On tagged contexts with t + s >= 3 the
    generic resolvent pairing and the closed-form pair relation are
    evaluated independently and must agree.
    """
    if u.bits == v.bits and not ctx.mu_special:
        raise DuplicateNeighbourhood("equal H-neighbourhoods require mu in {-1, 0}")
    val = pairing(ctx, u.bits, v.bits)
    if ctx.tag is not None and sum(ctx.tag) >= 3 \
            and u.type_ab is not None and v.type_ab is not None:
        closed = _closed_form_pairing(ctx, u, v)
        if closed != val:
            raise InternalInconsistency(
                "closed-form pair relation disagrees with the resolvent pairing")
    return _label_from_value(ctx, val)


# --------------------------------------------------------------------------
# certificates and assembled solutions

@dataclass(frozen=True)
class Certificate:
    """Outcome of the three independent star-set checks on a finished graph."""
    mu: QNum
    x_size: int
    multiplicity: int
    regular_degree: Optional[int]
    char_poly: IntPoly
    mu_not_in_complement: bool
    multiplicity_matches: bool
    reconstruction_ok: bool

    @property
    def passed(self) -> bool:
        return (self.mu_not_in_complement and self.multiplicity_matches
                and self.reconstruction_ok)


@dataclass(frozen=True)
class StarSolution:
    """A graph together with a certified star set inside it."""
    candidates: tuple[CandidateVector, ...]
    ax: Graph
    graph: Graph
    x_vertices: tuple[int, ...]
    cert: Certificate

    @property
    def order(self) -> int:
        return self.graph.n


def verify_star_pair(G: Graph, X: Sequence[int], mu) -> Certificate:
    """Exact certificate that X is a star set for mu in G.

    Three independent checks: (i) mu is not an eigenvalue of G - X
    (characteristic polynomial evaluation), (ii) the multiplicity of mu in
    G equals |X| (rank of mu I - A over the exact field), (iii) the scaled
    reconstruction identity mval (mu I - A_X) = B^T N B entry by entry.
    Failures land in the certificate flags; nothing is raised.
    """
    mu = qnum(mu)
    X = list(X)
    xset = set(X)
    rest = [v for v in range(G.n) if v not in xset]
    H = induced_subgraph(G, rest)
    C = H.matrix()
    mu_ok = char_polynomial(C)(mu) != 0

    A = G.matrix()
    M = [[(mu if i == j else qnum(0)) - A[i][j] for j in range(G.n)]
         for i in range(G.n)]
    mult = G.n - field_rank(M)

    recon = False
    if mu_ok:
        N, mval = scaled_resolvent(C, mu)
        B = [[1 if G.adjacent(h, x) else 0 for x in X] for h in rest]
        AX = [[1 if G.adjacent(u, v) else 0 for v in X] for u in X]
        NB = mat_mul(N, B)
        BtNB = mat_mul([list(col) for col in zip(*B)], NB) if X else []
        recon = all(
            mval * ((mu if i == j else qnum(0)) - AX[i][j]) == BtNB[i][j]
            for i in range(len(X)) for j in range(len(X)))

    return Certificate(mu=mu, x_size=len(X), multiplicity=mult,
                       regular_degree=regular_degree(G),
                       char_poly=char_polynomial(A),
                       mu_not_in_complement=mu_ok,
                       multiplicity_matches=(mult == len(X)),
                       reconstruction_ok=recon)


def _assemble(ctx: StarContext, chosen: list[CandidateVector],
              adjacency: list[list[bool]]) -> Graph:
    """Graph with H on vertices 0..q-1 and the star set after, in choice order."""
    q, k = ctx.q, len(chosen)
    rows = list(ctx.H.adj)
    xrows = [0] * k
    for j, cand in enumerate(chosen):
        for v in range(q):
            if cand.bits[v]:
                rows[v] |= 1 << (q + j)
                xrows[j] |= 1 << v
    for i in range(k):
        for j in range(k):
            if i != j and adjacency[i][j]:
                xrows[i] |= 1 << (q + j)
    return Graph(q + k, tuple(rows + xrows))


def solution_from_assembled(ctx: StarContext, G: Graph,
                            x_vertices: Sequence[int]) -> StarSolution:
    """Wrap an already-built graph (H on vertices 0..q-1) as a certified solution."""
    xs = tuple(x_vertices)
    chosen = []
    for x in xs:
        bits = tuple(1 if G.adjacent(x, v) else 0 for v in range(ctx.q))
        type_ab = None
        if ctx.tag is not None:
            t, s = ctx.tag
            type_ab = VertexType(sum(bits[:t]), sum(bits[t:]))
        chosen.append(_candidate(ctx, bits, type_ab))
    ax = induced_subgraph(G, xs)
    cert = verify_star_pair(G, xs, ctx.mu)
    return StarSolution(candidates=tuple(chosen), ax=ax, graph=G,
                        x_vertices=xs, cert=cert)


# --------------------------------------------------------------------------
# the backtracking search

def multiplicity_cap(q: int) -> int:
    """(q+1)(q-2)/2: the multiplicity bound from a complement of order
    q >= 3 when mu is outside {-1, 0}."""
    return (q + 1) * (q - 2) // 2


def _effective_cap(ctx: StarContext, max_x: Optional[int], n_cands: int) -> int:
    if ctx.mu_special:
        # repeats allowed, only the explicit cap bounds |X|
        return max_x if max_x is not None else 0
    cap = n_cands if max_x is None else min(max_x, n_cands)
    if ctx.q >= HALF_CAP_MIN_Q:
        cap = min(cap, multiplicity_cap(ctx.q))
    return cap


def _orbit_reps(ctx: StarContext, cands: list[CandidateVector]) -> list[int]:
    """Index of the least candidate in each orbit of the part-permuting
    symmetries of K_{t,s} (S_t x S_s, plus the part swap when t = s).
    Untagged contexts get no reduction.

    Restricting only the first (least-index) choice to orbit minima is
    complete: candidates sort by type, orbits are unions of type blocks,
    so mapping the least element of a solution onto its orbit's least
    index never pulls another element below it.
    """
    if ctx.tag is None or any(c.type_ab is None for c in cands):
        return list(range(len(cands)))
    t, s = ctx.tag
    seen = set()
    reps = []
    for i, c in enumerate(cands):
        key = (c.type_ab.a, c.type_ab.b)
        if t == s:
            key = min(key, (key[1], key[0]))
        if key not in seen:
            seen.add(key)
            reps.append(i)
    return reps


def _reps_mask(ctx: StarContext, cands: list[CandidateVector], symmetry: bool) -> int:
    if not symmetry:
        return (1 << len(cands)) - 1
    m = 0
    for i in _orbit_reps(ctx, cands):
        m |= 1 << i
    return m


def _dedupe(found: list[tuple[Graph, tuple[int, ...]]]
            ) -> list[tuple[Graph, tuple[int, ...], tuple]]:
    """One representative per isomorphism class, keyed for deterministic order."""
    reps: list[tuple[Graph, tuple[int, ...], tuple]] = []
    seen_keys = set()
    for g, xs in found:
        if g.n <= CANONICAL_CAP:
            key = (g.n, canonical(g).bytes)
            if key in seen_keys:
                continue
            seen_keys.add(key)
        else:
            if any(h.n == g.n and h.n > CANONICAL_CAP and are_isomorphic(h, g)
                   for h, _, _ in reps):
                continue
            key = (g.n, graph6_encode(g).encode())
        reps.append((g, xs, key))
    reps.sort(key=lambda item: item[2])
    return reps


def search_star_sets(ctx: StarContext,
                     require_regular: Union[None, int, str] = None,
                     max_x: Optional[int] = None,
                     max_solutions: Optional[int] = None,
                     symmetry: bool = True) -> list[StarSolution]:
    """Search for graphs extending H with eigenvalue mu of multiplicity |X|.

    require_regular: an integer r keeps only r-regular extensions (the
    degree equations prune during backtracking); the string "sweep" tries
    every r from the maximum H-degree up to q + cap; None returns maximal
    compatible families instead (maximal, or cut off at max_x).

    max_x bounds |X|; it is mandatory for mu in {-1, 0}, where co-duplicate
    vertices make the families infinite (Unbounded otherwise).  For other
    mu the bound (q+1)(q-2)/2 applies on top whenever q >= 3.
    max_solutions stops the raw enumeration early (before isomorphism
    reduction), as a work limit.

    Results are deduplicated up to isomorphism, certified (every returned
    solution passes verify_star_pair) and sorted by order then canonical
    bytes, so repeated runs produce identical output.
    """
    if ctx.mu_special and max_x is None:
        raise Unbounded("mu in {-1, 0}: co-duplicates make families infinite, set max_x")

    pool: dict[bool, list[CandidateVector]] = {}

    def cand_pool(non_main: bool) -> list[CandidateVector]:
        if non_main not in pool:
            pool[non_main] = enumerate_candidates(ctx, non_main=non_main)
        return pool[non_main]

    found: list[tuple[Graph, tuple[int, ...]]] = []
    if require_regular == "sweep":
        if max_x is not None:
            cap_guess = max_x
        elif ctx.q >= HALF_CAP_MIN_Q:
            cap_guess = multiplicity_cap(ctx.q)
        else:
            cap_guess = 1 << ctx.q
        lo = max(ctx.H.degrees(), default=0)
        for r in range(lo, ctx.q + cap_guess + 1):
            found.extend(_search_regular(ctx, r, max_x, max_solutions, symmetry,
                                         cand_pool))
            if max_solutions is not None and len(found) >= max_solutions:
                break
    elif require_regular is None:
        found = _search_maximal(ctx, max_x, max_solutions, symmetry, cand_pool)
    elif isinstance(require_regular, int):
        found = _search_regular(ctx, require_regular, max_x, max_solutions,
                                symmetry, cand_pool)
    else:
        raise ValueError("require_regular must be None, an integer, or 'sweep'")

    solutions = []
    for g, xs, _key in _dedupe(found):
        sol = solution_from_assembled(ctx, g, xs)
        if not sol.cert.passed:
            raise InternalInconsistency("assembled solution failed certification")
        solutions.append(sol)
    return solutions


def _build_label_tables(ctx: StarContext, cands: list[CandidateVector]):
    """Pairwise labels plus bitmask tables over candidate indices."""
    k = len(cands)
    label = [[None] * k for _ in range(k)]
    compat_mask = [0] * k   # j usable alongside i (diagonal bit: i may repeat)
    adj_mask = [0] * k      # j forced adjacent to i
    for i in range(k):
        for j in range(i, k):
            lab = _pair_label(ctx, cands[i], cands[j])
            label[i][j] = label[j][i] = lab
            if lab is Compat.INCOMPATIBLE:
                continue
            compat_mask[i] |= 1 << j
            compat_mask[j] |= 1 << i
            if lab is Compat.ADJACENT:
                adj_mask[i] |= 1 << j
                adj_mask[j] |= 1 << i
    return label, compat_mask, adj_mask


def _search_regular(ctx: StarContext, r: int, max_x: Optional[int],
                    max_solutions: Optional[int], symmetry: bool,
                    cand_pool: Callable[[bool], list[CandidateVector]]
                    ) -> list[tuple[Graph, tuple[int, ...]]]:
    q = ctx.q
    need = [r - ctx.H.degree(v) for v in range(q)]
    if any(x < 0 for x in need):
        return []
    total = sum(need)
    if total == 0:
        return []
    # mu = r is the one main eigenvalue of an r-regular graph: for that
    # sweep step only, the non-main filter must come off
    non_main = ctx.mu != r
    cands = [c for c in cand_pool(non_main)
             if 0 < c.size <= r and all(need[v] for v in range(q) if c.bits[v])]
    if not cands:
        return []
    cap = _effective_cap(ctx, max_x, len(cands))
    max_size = max(c.size for c in cands)
    if cap < 1 or (total + max_size - 1) // max_size > cap:
        return []

    k = len(cands)
    label, compat_mask, adj_mask = _build_label_tables(ctx, cands)
    cover_mask = [0] * q
    for i, c in enumerate(cands):
        for v in range(q):
            if c.bits[v]:
                cover_mask[v] |= 1 << i
    full = (1 << k) - 1
    ge_mask = [(full >> i) << i for i in range(k)]
    special = ctx.mu_special

    found: list[tuple[Graph, tuple[int, ...]]] = []
    budget = [-1 if max_solutions is None else max_solutions]

    def emit(chosen_idx: list[int]):
        chosen = [cands[i] for i in chosen_idx]
        adjacency = [[label[a][b] is Compat.ADJACENT for b in chosen_idx]
                     for a in chosen_idx]
        found.append((_assemble(ctx, chosen, adjacency),
                      tuple(range(q, q + len(chosen)))))
        if budget[0] > 0:
            budget[0] -= 1

    def dfs(chosen_idx: list[int], cov: list[int], adeg: list[int],
            allowed: int, pick_from: int):
        if budget[0] == 0:
            return
        if all(cov[v] == need[v] for v in range(q)):
            # H-side degrees are saturated; X-side must match exactly
            if all(adeg[p] == r - cands[i].size
                   for p, i in enumerate(chosen_idx)):
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
                if not special and bin(avail).count("1") < deficit:
                    return
        m = pick_from
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            c = cands[i]
            new_cov = cov[:]
            over = False
            for v in range(q):
                if c.bits[v]:
                    new_cov[v] += 1
                    if new_cov[v] > need[v]:
                        over = True
                        break
            if over:
                continue
            new_adeg = adeg + [0]
            acount = 0
            ok = True
            for p, pi in enumerate(chosen_idx):
                if label[pi][i] is Compat.ADJACENT:
                    new_adeg[p] += 1
                    acount += 1
                    if new_adeg[p] > r - cands[pi].size:
                        ok = False
                        break
            if not ok or acount > r - c.size:
                continue
            new_adeg[-1] = acount
            nxt = chosen_idx + [i]
            # ge_mask keeps choices ascending; the diagonal bit of
            # compat_mask decides whether i itself may repeat
            pruned = allowed & compat_mask[i] & ge_mask[i]
            for v in range(q):
                if c.bits[v] and new_cov[v] == need[v]:
                    pruned &= ~cover_mask[v]
            for p, pi in enumerate(nxt):
                if new_adeg[p] == r - cands[pi].size:
                    pruned &= ~adj_mask[pi]
            dfs(nxt, new_cov, new_adeg, pruned, pruned)
            if budget[0] == 0:
                return

    dfs([], [0] * q, [], full, full & _reps_mask(ctx, cands, symmetry))
    return found


def _search_maximal(ctx: StarContext, max_x: Optional[int],
                    max_solutions: Optional[int], symmetry: bool,
                    cand_pool: Callable[[bool], list[CandidateVector]]
                    ) -> list[tuple[Graph, tuple[int, ...]]]:
    cands = [c for c in cand_pool(True) if c.size > 0]
    if not cands:
        return []
    cap = _effective_cap(ctx, max_x, len(cands))
    if cap < 1:
        return []
    label, compat_mask, _ = _build_label_tables(ctx, cands)
    full = (1 << len(cands)) - 1
    ge_mask = [(full >> i) << i for i in range(len(cands))]

    found: list[tuple[Graph, tuple[int, ...]]] = []
    budget = [-1 if max_solutions is None else max_solutions]

    def emit(chosen_idx: list[int]):
        chosen = [cands[i] for i in chosen_idx]
        adjacency = [[label[a][b] is Compat.ADJACENT for b in chosen_idx]
                     for a in chosen_idx]
        found.append((_assemble(ctx, chosen, adjacency),
                      tuple(range(ctx.q, ctx.q + len(chosen)))))
        if budget[0] > 0:
            budget[0] -= 1

    def dfs(chosen_idx: list[int], allowed_all: int, pick_from: int):
        if budget[0] == 0:
            return
        # maximal: nothing anywhere (even below the ascending floor)
        # extends X; the cap also closes a branch
        if chosen_idx and (not allowed_all or len(chosen_idx) >= cap):
            emit(chosen_idx)
            return
        m = pick_from
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            nxt_all = allowed_all & compat_mask[i]
            dfs(chosen_idx + [i], nxt_all, nxt_all & ge_mask[i])
            if budget[0] == 0:
                return

    dfs([], full, full & _reps_mask(ctx, cands, symmetry))
    return found
