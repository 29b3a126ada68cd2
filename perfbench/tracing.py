"""In-memory spans at layer boundaries, and the traced run's kernel wrappers.

A span is [name, start_ns, end_ns, parent index, query id, extra]. Spans
are appended to a list and written out once, when the run ends. Self
time is a span's duration minus its children's; spans on one thread
nest, so children never overlap.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from time import perf_counter_ns


class Spans:
    def __init__(self) -> None:
        self.records: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str, query=None):
        """Record one span; yields its index into records."""
        idx = len(self.records)
        rec = [name, perf_counter_ns(), 0, self._open[-1] if self._open else -1, query, None]
        self.records.append(rec)
        self._open.append(idx)
        try:
            yield idx
        finally:
            rec[2] = perf_counter_ns()
            self._open.pop()

    def seconds(self, idx: int) -> float:
        rec = self.records[idx]
        return (rec[2] - rec[1]) / 1e9

    def totals(self, root: int) -> dict:
        """name -> [total s, self s, count] over the subtree at root."""
        inside = {root}
        child_ns: dict = {}
        for i in range(root + 1, len(self.records)):
            name, start, end, parent, _, _ = self.records[i]
            if parent in inside:
                inside.add(i)
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out: dict = {}
        for i in sorted(inside):
            name, start, end = self.records[i][:3]
            acc = out.setdefault(name, [0.0, 0.0, 0])
            acc[0] += (end - start) / 1e9
            acc[1] += (end - start - child_ns.get(i, 0)) / 1e9
            acc[2] += 1
        return out

    def dump(self, path, header: dict) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "query", "extra")
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for r in self.records:
                f.write(json.dumps(dict(zip(keys, r))) + "\n")


class KernelWrappers:
    """Child spans for the kernels the builds call, in the traced run only.

    Replaces the module-level names the layers look up at call time and
    restores the originals on exit. The originals still run, so
    track_kernels counts exactly as without the wrappers.
    """

    def __init__(self, spans: Spans) -> None:
        import polyroute.embedding as embedding
        import polyroute.sssp as sssp

        self.spans = spans
        self.matrix_settled = 0
        self._targets = [
            (embedding, "shortest_path_tree", "sssp.full_spt"),
            (embedding, "multi_source_spt", "sssp.multi_source"),
            (embedding, "landmark_matrix", "sssp.matrix"),
            (sssp, "truncated_spt", "sssp.truncated_spt"),
        ]
        self._saved: list = []

    def _wrap(self, fn, name: str):
        spans = self.spans

        def wrapped(*args, **kwargs):
            with spans.span(name):
                out = fn(*args, **kwargs)
            if name == "sssp.truncated_spt":
                self.matrix_settled += len(out.dist) - out.dist.count(math.inf)
            return out

        return wrapped

    def __enter__(self) -> "KernelWrappers":
        for module, attr, name in self._targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in self._saved:
            setattr(module, attr, fn)
        self._saved.clear()
