"""Outside-in tracing of ``bifree``: wraps public callables and records spans.

A span is (name, start, end, parent span).  Spans are kept in flat arrays in
memory and written out once, when the run ends; ``run.py`` derives self time
(span duration minus the part covered by child spans) and the per-layer
metrics from them.  Nothing under ``src/bifree`` is modified: each original
callable is replaced by a wrapper wherever a ``bifree`` module binds it,
because ``from ... import`` copies the binding into the importing module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute path, span name).  An attribute path with a dot names a
# method, patched on its class.
TRACED = (
    ("bifree.bnc", "enumerate_bnc", "bnc.enumerate"),
    ("bifree.bnc", "mobius_bnc", "bnc.mobius"),
    ("bifree.bnc", "lattice_leq", "bnc.leq"),
    ("bifree.bnc", "BncPartition.__init__", "bnc.partition"),
    ("bifree.moments", "eval_moment_pi", "moments.eval_pi"),
    ("bifree.moments", "cumulant_pi", "moments.cumulant_pi"),
    ("bifree.moments", "cumulants_from_moments", "moments.to_cumulants"),
    ("bifree.moments", "moments_from_cumulants", "moments.to_moments"),
    ("bifree.moments", "bifree_test", "moments.bifree_test"),
    ("bifree.words", "MomentFunctional.expect", "words.expect"),
    ("bifree.fock", "FockModel.apply_symbol", "fock.apply_symbol"),
    ("bifree.fock", "FockModel.expectation", "fock.expectation"),
    ("bifree.fock", "FockModel.inner_B", "fock.inner"),
    ("bifree.fock", "FockModel.register_symbol", "fock.register_symbol"),
    ("bifree.conjvar", "conj_residual", "conjvar.residual"),
    ("bifree.conjvar", "VectorCandidate.extend", "conjvar.extend"),
    ("bifree.conjvar", "WordCandidate.extend", "conjvar.extend"),
    ("bifree.conjvar", "MatrixLift.expect", "conjvar.lift_expect"),
    ("bifree.conjvar", "entropy_chi_star", "conjvar.quadrature"),
    ("bifree.conjvar", "fisher_info", "conjvar.fisher"),
    ("bifree.balgebra", "CPMap.__call__", "balgebra.cp"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # Fock state sizes, summed and maxed over apply_symbol results.
        self.terms_out = 0
        self.max_depth = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _count_state(self, vec) -> None:
        self.terms_out += len(vec.terms)
        self.max_depth = max(self.max_depth, vec.depth())

    def install(self) -> None:
        """Wrap every callable in ``TRACED`` in every loaded ``bifree`` module."""
        modules = [m for k, m in sys.modules.items() if k == "bifree" or k.startswith("bifree.")]
        for modname, path, name in TRACED:
            owner = importlib.import_module(modname)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            hook = self._count_state if name == "fock.apply_symbol" else None
            wrapper = self.wrap(name, original, hook)
            if cls:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def save(self, path) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def span_totals(spans, names: list[str]) -> dict[str, dict[str, float]]:
    """Calls, inclusive time, self time and calls without child spans, per span name."""
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - covered
    children = np.bincount(parent[has_parent], minlength=len(dur))
    k = len(names)
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_time, minlength=k)
    # A span with no child span did no traced work below it, e.g. a memo hit.
    leaves = np.bincount(name, weights=(children == 0), minlength=k)
    return {
        n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i]),
            "leaves": int(leaves[i])}
        for i, n in enumerate(names)
    }
