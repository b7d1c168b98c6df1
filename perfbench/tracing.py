"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent, group): `parent` is the index of the
enclosing span (-1 at top level) and `group` is the sentence or step the
span belongs to.  Spans live in flat typed arrays so that a traced run
of a few hundred thousand calls stays small; `write` saves them at the
end of the run.  A layer is the part of a span name before the first
dot (`trie.index_of` belongs to `trie`), and its self time is the
duration of its spans minus the part covered by their child spans.

`NullTracer` has the same interface and adds nothing to a call: `wrap`
returns the callable unchanged, so the untraced run that gives the
end-to-end metrics executes the library calls directly.
"""

import contextlib
import time
from array import array

import numpy as np

_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing switched off."""

    group = 0

    def wrap(self, name, fn):
        return fn

    def span(self, name):
        return _NO_SPAN


class Tracer:
    """Records spans of leaf calls (`wrap`) and of enclosing blocks (`span`)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.groups = array("q")
        self._open = [-1]  # indices of the enclosing open spans
        self.group = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """Return `fn` wrapped so that each call records one leaf span."""
        name_id = self._name_id(name)
        starts, ends, name_ids = self.starts, self.ends, self.name_ids
        parents, groups, open_spans = self.parents, self.groups, self._open
        clock = time.perf_counter

        def traced(*args):
            start = clock()
            result = fn(*args)
            end = clock()
            starts.append(start)
            ends.append(end)
            name_ids.append(name_id)
            parents.append(open_spans[-1])
            groups.append(self.group)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block; spans opened inside are its children."""
        index = len(self.starts)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._open[-1])
        self.groups.append(self.group)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.ends[index] = time.perf_counter()

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        names = np.array(self.name_ids)
        parents = np.array(self.parents)
        durations = np.array(self.ends) - np.array(self.starts)
        covered = np.zeros(len(durations))
        nested = parents >= 0
        np.add.at(covered, parents[nested], durations[nested])
        selfs = durations - covered
        out = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "seconds": float(durations[mask].sum()),
                "self_s": float(selfs[mask].sum()),
            }
        return out

    def write(self, path) -> None:
        """Save every span as columns of one compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name_ids),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents),
            group=np.array(self.groups),
        )
