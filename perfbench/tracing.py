"""Span tracing of the program's layers, installed from outside the program.

Each target is a name that callers look up at call time: a module-level
function, rebound in every ``revpinsker`` module that imported it, or a
method on its class.  The wrappers record one span per call (name, start,
duration, self time, parent and a count of items handled) in flat arrays
kept in memory; ``save`` writes them once the run is over.  A target that is
missing or renamed is reported as absent instead of failing the run, and
every original is put back when ``installed()`` exits.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


def _rows(args, kwargs, result):
    return result[0].shape[0]


def _result_size(args, kwargs, result):
    return result.size


def _first_array_size(args, kwargs, result):
    import numpy as np

    return next(a.size for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray))


#: span name, home module, qualified name, items counter
TARGETS = (
    ("oracle.search_sup", "revpinsker.oracle", "search_sup", None),
    ("oracle.sample_batch", "revpinsker.oracle", "_sample_batch", _rows),
    ("divergence.batch_f_divergence", "revpinsker.divergence", "batch_f_divergence",
     _first_array_size),
    ("divergence.f_divergence", "revpinsker.divergence", "f_divergence", None),
    ("generators.evaluate", "revpinsker.generators", "Generator.evaluate", _result_size),
    ("bounds.ClassParams", "revpinsker.bounds", "ClassParams.__init__", None),
    ("bounds.theorem1_bound", "revpinsker.bounds", "theorem1_bound", None),
    ("bounds.feasible", "revpinsker.bounds", "feasible", None),
    ("extremal.ternary_extremal", "revpinsker.extremal", "ternary_extremal", None),
    ("distributions.validate_distribution", "revpinsker.distributions",
     "validate_distribution", None),
    ("cli.main", "revpinsker.cli", "main", None),
)
ROOT_SPAN = "op"
#: the span whose (params, p, q) results are kept for the in-class check
SAMPLER_SPAN = "oracle.sample_batch"


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names = [ROOT_SPAN] + [t[0] for t in TARGETS]
        self.name = array("H")
        self.span_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.duration = array("d")
        self.self_time = array("d")
        self.items = array("q")
        self.samples: list = []  # (params, p, q) returned by the sampler
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []
        #: runs one workload operation under a root span: root(fn, *args)
        self.root = self._wrap(lambda fn, *args: fn(*args), ROOT_SPAN, None)

    def _wrap(self, fn, name: str, count_items):
        name_id = self.names.index(name)
        capture = name == SAMPLER_SPAN
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                d = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += d
                items = 0
                if ok and count_items is not None:
                    try:
                        items = count_items(args, kwargs, result)
                    except (AttributeError, IndexError, StopIteration, TypeError):
                        items = 0
                tracer._record(name_id, sid, parent, t0, d, d - frame[1], items)
                if ok and capture:
                    tracer._capture(args, kwargs, result)

        return traced

    def _record(self, name_id, sid, parent, t0, d, self_d, items):
        self.name.append(name_id)
        self.span_id.append(sid)
        self.parent.append(parent)
        self.start.append(t0)
        self.duration.append(d)
        self.self_time.append(self_d)
        self.items.append(items)

    def _capture(self, args, kwargs, result):
        params = next((a for a in (*args, *kwargs.values()) if hasattr(a, "delta")), None)
        if params is not None and isinstance(result, tuple) and len(result) == 2:
            self.samples.append((params, result[0], result[1]))

    def install(self) -> None:
        # import every home module first: a module imported while patching is
        # under way would bind wrappers that restore() does not know about
        self.absent = []
        homes = {}
        for name, modname, _, _ in TARGETS:
            try:
                homes[name] = importlib.import_module(modname)
            except ImportError:
                self.absent.append(name)
        for name, _, qualname, count_items in TARGETS:
            home = homes.get(name)
            if home is None:
                continue
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                original = vars(owner).get(attr) if isinstance(owner, type) else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count_items))
                continue
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._wrap(original, name, count_items)
            for modname2, module in list(sys.modules.items()):
                if modname2.split(".")[0] == "revpinsker" and vars(module).get(attr) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def arrays(self) -> dict:
        import numpy as np

        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "span_id": np.frombuffer(self.span_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "duration": np.frombuffer(self.duration, dtype=np.float64),
            "self_time": np.frombuffer(self.self_time, dtype=np.float64),
            "items": np.frombuffer(self.items, dtype=np.int64),
        }

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
