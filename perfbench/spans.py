"""Span recording around the public functions of the runvec layers.

The benchmark records spans from its own files: :func:`install` replaces
each listed function, in every runvec module namespace that holds it, by
a wrapper that records one span per call.  The program's source is not
touched.  ``lemmalab``, ``search`` and ``cli`` bind ``seqcore`` names with
``from .seqcore import ...``, which is why every namespace is rewritten,
not only the defining module.

A span is a name, a start, an end, the index of the enclosing span
(``-1`` at the top) and the pass it belongs to.  Spans are kept in
memory as columns and written out once, when the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import pickle
import time
from array import array
from collections import Counter

#: The public functions timed per layer, named ``<layer>.<function>``.
LAYER_FUNCTIONS = {
    "seqcore": (
        "all_sequences",
        "encode_rle",
        "decode_rle",
        "run_structure",
        "run_vector_of",
        "run_vector",
        "aperiodic_autocorrelations",
        "periodic_autocorrelations",
        "is_balanced",
        "is_skew_symmetric",
        "is_barker",
        "u_k",
        "f_eval",
        "boundary_rank_interval",
    ),
    "lemmalab": (
        "sweep",
        "theorem1_residual",
        "delta_autocorrelation",
        "balanced_profile",
        "check_p_odd",
    ),
    "search": (
        "enumerate_barker",
        "find_barker_sequences",
        "classify_odd_barker",
        "canonical_representatives",
    ),
    "cli": ("main",),
}

#: Counters added from a wrapped function's result: span name -> counter.
RESULT_COUNTERS = {"search.find_barker_sequences": "search.hits"}


class Recorder:
    """Spans of one pass, in columns: name id, start, end, parent index."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        """A wrapper recording one span per call of ``fn`` (per ``next()``
        for a generator function, so spans never cover the consumer)."""
        nid = self._name_id(name)
        clock = time.perf_counter
        name_ids, starts, ends, parents, open_ = (
            self.name_ids, self.starts, self.ends, self.parents, self._open,
        )
        counter = RESULT_COUNTERS.get(name)
        counters = self.counters

        def begin() -> int:
            idx = len(starts)
            name_ids.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            return idx

        def finish(idx: int) -> None:
            ends[idx] = clock()
            open_.pop()

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = begin()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        finish(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if counter is not None:
                counters[counter] += len(result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "pass_id": self.pass_id,
                    "names": self.names,
                    "name_ids": self.name_ids,
                    "starts": self.starts,
                    "ends": self.ends,
                    "parents": self.parents,
                    "counters": dict(self.counters),
                },
                fh,
            )


def install(recorder: Recorder, modules, functions=LAYER_FUNCTIONS) -> None:
    """Wrap each function of ``functions`` (layer -> names) in every
    namespace of ``modules`` (layer -> module) that binds it."""
    namespaces = list(modules.values())
    for layer, names in functions.items():
        home = modules[layer]
        for fname in names:
            original = getattr(home, fname)
            wrapper = recorder.wrap(f"{layer}.{fname}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)


def load(path) -> dict:
    """Read back a file written by :meth:`Recorder.dump` (this benchmark's own)."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def self_times(names, name_ids, starts, ends, parents) -> dict[str, tuple[int, float]]:
    """Calls and self time per span name.

    A span's self time is its duration minus the time covered by its
    child spans.  Children run on the same thread inside their parent,
    so they never overlap and their durations simply add up.
    """
    covered = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i, nid in enumerate(name_ids):
        calls[nid] += 1
        self_s[nid] += ends[i] - starts[i] - covered[i]
    return {names[nid]: (calls[nid], self_s[nid]) for nid in calls}
