"""The traced run: spans and counts at the boundary of each layer.

Nothing in `src/` is edited.  The tracer replaces names where the callers
look them up (a `from x import y` binds `y` in the importing module, so the
wrapper goes into that module) and puts the originals back afterwards.
Private phases are wrapped only if they still exist; when a refactor has
renamed one, the metrics that depend on it are reported as missing.

A span is ``[name, start, end, parent, op]``: the parent is the index of
the enclosing span (-1 for the root span of a search) and `op` the index
of that root span.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import starcomp.algebra
import starcomp.cli
import starcomp.engine


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """`fn` recorded as a span; `after(args, result)` counts outside it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, spans[parent][4] if stack else len(spans)]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _patch(self, owner, attr: str, make, optional: bool) -> None:
        if optional and not hasattr(owner, attr):
            self.missing.add(attr)
            return
        old = getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, make(old))

    def _span(self, owner, attr, name, after=None, optional=False) -> None:
        self._patch(owner, attr, lambda fn: self.wrap(name, fn, after), optional)

    def _count(self, owner, attr, key, inside=None, optional=False) -> None:
        counts, spans, stack = self.counts, self.spans, self._stack

        def make(fn):
            def counted(*args, **kwargs):
                if inside is None or (stack and spans[stack[-1]][0] == inside):
                    counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        self._patch(owner, attr, make, optional)

    def install(self) -> None:
        cli, engine, QNum = starcomp.cli, starcomp.engine, starcomp.algebra.QNum
        counts = self.counts

        def classes(args, result):
            counts["classes"] += len(result)

        def candidates(args, result):
            counts["candidates_found"] += len(result)

        def labels(args, result):
            k = len(args[1])
            compat_mask = result[1]
            counts["label_pairs"] += k * (k + 1) // 2
            counts["compatible_pairs"] += sum(bin(m >> i).count("1")
                                              for i, m in enumerate(compat_mask))

        for owner in (cli, engine):
            self._span(owner, "make_context", "linalg.context")
            self._span(owner, "search_star_sets", "engine.search", classes)
        self._span(engine, "canonical", "canon.canonical")
        self._span(engine, "are_isomorphic", "canon.are_isomorphic")
        self._span(engine, "verify_star_pair", "engine.certify")
        self._span(engine, "enumerate_candidates", "engine.candidates", candidates)
        self._span(engine, "_build_label_tables", "engine.labels", labels, optional=True)
        self._count(engine, "_assemble", "raw_finds", optional=True)
        self._count(engine, "_candidate", "subsets_scanned", inside="engine.candidates",
                    optional=True)
        self._count(QNum, "__init__", "qnum_new")
        for attr in ("__mul__", "__rmul__"):
            self._count(QNum, attr, "qnum_mul")
        for attr in ("__add__", "__radd__"):
            self._count(QNum, attr, "qnum_add")

    def remove(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def metrics(self, overhead_s: float) -> dict[str, float | int | None]:
        """Per-layer metrics of the traced pass; None marks a missing one."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)  # self time: minus child spans
        calls: Counter = Counter()
        for name, start, end, parent, _op in self.spans:
            total[name] += end - start
            own[name] += end - start
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        c = self.counts

        def count(key, needs):
            return None if needs in self.missing else c[key]

        def ratio(num, den):
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        raw_finds = count("raw_finds", "_assemble")
        label_pairs = count("label_pairs", "_build_label_tables")
        scanned = count("subsets_scanned", "_candidate")
        labels_s = None if "_build_label_tables" in self.missing else total["engine.labels"]
        return {
            "canon.canonical_s": total["canon.canonical"],
            "canon.canonical_calls": calls["canon.canonical"],
            "canon.isomorphic_s": total["canon.are_isomorphic"],
            "canon.isomorphic_calls": calls["canon.are_isomorphic"],
            "canon.dedupe_yield": ratio(c["classes"], raw_finds),
            "engine.labels_s": labels_s,
            "engine.label_pairs": label_pairs,
            "engine.compatible_ratio": ratio(count("compatible_pairs", "_build_label_tables"),
                                             label_pairs),
            "algebra.qnum_new": c["qnum_new"],
            "algebra.qnum_mul": c["qnum_mul"],
            "algebra.qnum_add": c["qnum_add"],
            "engine.candidates_s": total["engine.candidates"],
            "engine.candidates_found": c["candidates_found"],
            "engine.subsets_scanned": scanned,
            "engine.scan_yield": ratio(c["candidates_found"], scanned),
            "engine.dfs_s": own["engine.search"],
            "engine.raw_finds": raw_finds,
            "engine.certify_s": total["engine.certify"],
            "engine.certify_calls": calls["engine.certify"],
            "linalg.context_s": total["linalg.context"],
            "linalg.context_calls": calls["linalg.context"],
            "cli.encode_s": own["op.cli"],
            "trace.overhead_s": overhead_s,
        }
