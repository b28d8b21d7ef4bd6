"""Spans and call counts at the public functions of each gluecheck module.

The tracer wraps functions from outside the program; nothing in ``src/``
knows about it.  Two details decide whether a wrapper sees its calls:

* ``from gluecheck.exactlin import kernel`` copies the function object into
  the importing module when that module is first imported, so replacing
  ``exactlin.kernel`` alone leaves ``lattice.kernel``, ``algebra.kernel``
  and ``multipullback.kernel`` calling the original.  ``install`` therefore
  rebinds the name in every loaded ``gluecheck`` module that holds the
  original object.  Calls inside a module (``intersect`` calling ``span``)
  look the name up in that module's globals at call time and see the
  rebinding as well.
* Methods are looked up on the class at call time, so they are patched as
  class attributes; a ``staticmethod`` is re-wrapped as one.

Each call records its span: name, start, end, the span that was open when
it began, and the operation it ran under.  Self time is the span minus
the spans of its direct children.  Counts and times are aggregated for
every call.  Span records are kept in memory and written out by ``write``
after the run, never during it.  A traced round makes millions of calls
(``Algebra.multiply`` alone is called about two million times on
``corpus``), so to bound memory the records are kept for whole operations
only: every span of an operation that began while fewer than
``SPAN_LIMIT`` records were kept, none of a later one.  Each written
operation is then a complete tree whose parent ids all resolve.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# Public functions per module; "Class.method" names a method.
TARGETS = {
    "exactlin": ("span", "subspace_sum", "intersect", "kernel", "image", "invert", "quotient",
                 "Subspace.contains"),
    "algebra": ("validate_algebra", "validate_hom", "Algebra.multiply", "Algebra.direct_sum",
                "GluingFamily.problems", "is_ideal", "quotient_algebra", "subspace_algebra",
                "kernel_ideal"),
    "lattice": ("generate_lattice", "is_distributive"),
    "multipullback": ("build_pullback", "pullback_subspace", "check_cocycle", "check_condition2",
                      "check_condition3", "repair"),
    "finset": ("duality_check", "glue", "check_embedding"),
    "specfile": ("parse_document", "family_json", "dump_document"),
    "cli": ("main",),
}
PACKAGE = "gluecheck"
SPAN_LIMIT = 100_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}      # name -> [calls, self_ns, total_ns]
        self.edges: dict[tuple[str, str], int] = {}  # (parent, child) -> calls
        self.counts: dict[str, int] = {}            # counters that hooks fill from results
        self.spans: list[tuple] = []
        self.op_id = 0
        self.keep = True
        self.ops_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, op_id: int) -> None:
        """Mark the start of an operation; its spans are kept whole or not at all."""
        self.op_id = op_id
        self.keep = len(self.spans) < SPAN_LIMIT
        if not self.keep:
            self.ops_dropped += 1

    def wrap(self, name: str, fn, hook=None):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        edges, spans = self.edges, self.spans
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [name, 0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - start
                stats[0] += 1
                stats[1] += total - frame[1]
                stats[2] += total
                if parent is not None:
                    parent[1] += total
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0) + 1
                if self.keep:
                    spans.append((span_id, name, start, end,
                                  parent[2] if parent is not None else -1, self.op_id))
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def install(self, hooks: dict | None = None) -> None:
        """Wrap every target in every loaded module of the package.

        ``hooks[name](counts, result)`` runs after each successful call of
        the named function, outside its span, to count what it returned.
        """
        hooks = hooks or {}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for short, names in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{short}"]
            for qual in names:
                metric = f"{short}.{qual}"
                hook = hooks.get(metric)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self.wrap(metric, raw.__func__, hook))
                    else:
                        new = self.wrap(metric, raw, hook)
                    self._patch(cls, attr, new)
                    continue
                original = getattr(home, qual)
                wrapped = self.wrap(metric, original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        # vars(cls) may hold a staticmethod wrapper: restore exactly that.
        previous = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self._patches):
            setattr(owner, attr, previous)
        self._patches.clear()

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[1] / 1e9

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def write(self, path: Path) -> None:
        """Write counts and kept spans as one JSON document."""
        names = sorted({s[1] for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        doc = {
            "functions": {n: {"calls": c, "self_s": s / 1e9, "total_s": t / 1e9}
                          for n, (c, s, t) in sorted(self.stats.items())},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "span_names": names,
            "spans": [[i, code[n], s, e, p, op] for i, n, s, e, p, op in self.spans],
            "ops_dropped": self.ops_dropped,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
