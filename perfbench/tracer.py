"""Span tracer for the benchmark's traced runs.

`Tracer.install` wraps every public function of the library's layer modules in
every module namespace that binds it (``insdel_lab.codes.lcs_length`` as well
as ``insdel_lab.words.lcs_length``), plus ``PiecewiseBound.evaluate``.  Each
call records a span: name, start, end and parent span.  Spans are kept in
compact arrays until the run ends, so even the ~10^6 spans of the `regress`
workload cost tens of MiB, not hundreds.  ``Word.__post_init__`` is counted,
not spanned: it runs once per enumerated ball element.

Generator functions (``all_words``, ``words_up_to``, ``rs_codewords``) are not
spanned, because their work happens while the caller iterates; it shows up in
the caller's self time.  Calls made inside worker processes are not recorded.

The untraced run never constructs a Tracer, so it patches nothing.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict
from functools import wraps
from types import ModuleType
from typing import Callable

LAYERS = ("words", "codes", "verify", "bounds", "figures", "combinatorics", "acceptance")

# Counter observers: (counts, args, kwargs, result, seconds) -> None.  They run
# after the span has ended, so their own cost is not charged to the layer.
Observer = Callable[[dict, tuple, dict, object, float], None]


def _observers(lib) -> dict[str, Observer]:
    size_bound = lib.words.insdel_ball_size_bound  # captured unwrapped

    def ball(counts, args, kwargs, result, seconds):
        x, t_ins, t_del = args[:3]
        counts["words.insdel_ball.outputs"] += len(result)
        counts["words.insdel_ball.estimate"] += size_bound(len(x), t_ins, t_del, x.q)

    def verdict(counts, args, kwargs, result, seconds):
        counts["verify.list_decodable.nondecodable"] += not result.decodable
        if kwargs.get("workers", 1) > 1:
            counts["verify.list_decodable.pooled_s"] += seconds

    def region(counts, args, kwargs, result, seconds):
        counts["verify.region.pairs_checked"] += len(result.checked)
        counts["verify.region.pairs_skipped"] += len(result.skipped)
        counts["verify.region.runs_beating_unique"] += result.beats_unique_decoding

    def search(counts, args, kwargs, result, seconds):
        counts["codes.rs_search_eval_points.examined"] += result.examined

    def rows(counts, args, kwargs, result, seconds):
        counts["figures.rows"] += len(result)
        counts["figures.bytes"] += len(("\n".join(result) + "\n").encode("utf-8"))

    return {
        "words.insdel_ball": ball,
        "verify.list_decodable": verdict,
        "verify.check_bound_region": region,
        "codes.rs_search_eval_points": search,
        "figures.bound_table_rows": rows,
        "figures.comparison_rows": rows,
        "figures.bound_profile_rows": rows,
        "figures.rate_region_rows": rows,
    }


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> float:
        now = time.perf_counter()
        self.end[idx] = now
        self._stack.pop()
        return now - self.start[idx]

    def wrap(self, fn: Callable, name: str, observe: Observer | None) -> Callable:
        begin, finish, counts = self.begin, self.finish, self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = finish(idx)
            if observe is not None:
                observe(counts, args, kwargs, result, seconds)
            return result

        if hasattr(fn, "cache_clear"):  # keep an lru_cache clearable
            traced.cache_clear = fn.cache_clear
        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, lib) -> None:
        """Wrap the public functions of every layer module of `lib`."""
        observers = _observers(lib)
        modules: dict[str, ModuleType] = {layer: getattr(lib, layer) for layer in LAYERS}
        wrapped: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or not callable(value)
                    or inspect.isclass(value)
                    or inspect.isgeneratorfunction(value)
                    or getattr(value, "__module__", None) != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(value)] = self.wrap(value, name, observers.get(name))
        for namespace in (lib.package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrapped:
                    self._patch(namespace, attr, wrapped[id(value)])

        piecewise = lib.bounds.PiecewiseBound
        self._patch(
            piecewise,
            "evaluate",
            self.wrap(piecewise.evaluate, "bounds.PiecewiseBound.evaluate", None),
        )
        word_cls = lib.words.Word
        validate = word_cls.__post_init__
        counts = self.counts

        def counted(self_word) -> None:
            counts["words.Word.validations"] += 1
            validate(self_word)

        self._patch(word_cls, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds).

        Self time is a span's duration minus the durations of its child spans;
        children of one span never overlap, since the traced code is serial.
        """
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        child = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, k in enumerate(name_id):
            calls[k] += 1
            own[k] += end[i] - start[i] - child[i]
        return {name: (calls[k], own[k]) for k, name in enumerate(self.names)}
