"""Span tracing of bmobell's public functions, installed from outside the package.

Each traced function is replaced, for the duration of a ``traced`` block,
by a wrapper bound under every name that any ``bmobell`` module (the
package namespace included) binds it to, so internal calls such as
``random_step_fn -> bmo_norm`` and the CLI's ``from .bellman import value``
are seen as well as the benchmark's own calls.  The wrapper records a span
(name, start, end, parent) and charges the span's self time, its duration
minus the time of its child spans, to its name.
"""

from __future__ import annotations

import contextlib
import sys
import time

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _bmo_nodes(args, kwargs):
    f, levels = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "levels")
    grid = np.linspace(f.a, f.b, 2 ** levels + 1)
    return int(np.unique(np.concatenate([grid, f.breakpoints()])).size)


# traced name -> size of one call's input, from (args, kwargs, result)
TARGETS = {
    "specfn.m_fn": lambda a, k, res: int(np.size(_arg(a, k, 2, "u"))),
    "specfn.k_fn": lambda a, k, res: int(np.size(_arg(a, k, 2, "u"))),
    "domain.classify": lambda a, k, res: 1,
    "domain.bellman2d": lambda a, k, res: 1,
    "bellman.solve_leaf": lambda a, k, res: 1,
    "bellman.value": lambda a, k, res: 1,
    "bellman.solve_u_batch": lambda a, k, res: len(_arg(a, k, 1, "pts")),
    "bellman.value_batch": lambda a, k, res: len(_arg(a, k, 1, "pts")),
    "bellman.gradient_batch": lambda a, k, res: len(_arg(a, k, 1, "pts")),
    "bellman.hessian_leaf_batch": lambda a, k, res: len(_arg(a, k, 1, "pts")),
    "bellman.central_u_batch": lambda a, k, res: int(np.size(_arg(a, k, 2, "x3"))),
    "testfn.random_step_fn": lambda a, k, res: int(_arg(a, k, 1, "cells")),
    "testfn.bmo_norm": lambda a, k, res: _bmo_nodes(a, k),
    "testfn.prefix_integrals": lambda a, k, res: int(np.size(_arg(a, k, 1, "t"))),
    "testfn.moments": lambda a, k, res: len(_arg(a, k, 0, "f")),
    "testfn.build_ladder": lambda a, k, res: len(res),
    "verify.check_inequality_oracle": lambda a, k, res: int(_arg(a, k, 1, "n_fns")),
    "verify.extract_constant": lambda a, k, res: int(_arg(a, k, 1, "grid_density")) ** 2,
    "verify.transference_metrics": lambda a, k, res: len(_arg(a, k, 0, "psi")),
    "cli.run": lambda a, k, res: 1,
}

# (child, ancestor): calls of child made while ancestor is open
NESTED = (
    ("specfn.m_fn", "bellman.solve_leaf"),
    ("specfn.k_fn", "bellman.solve_leaf"),
    ("bellman.solve_leaf", "bellman.solve_u_batch"),
    ("domain.classify", "bellman.solve_u_batch"),
    ("testfn.bmo_norm", "verify.transference_metrics"),
)


class Tracer:
    """Spans and per-name counters of the calls made through the wrappers.

    Counters cover the current round and are handed back by end_round;
    spans are kept only while ``record`` is true.
    """

    def __init__(self):
        self.names = list(TARGETS)
        self.spans = []
        self.record = False
        self._open = []  # one frame per open span, innermost last
        self._active = dict.fromkeys(self.names, 0)
        self._ancestors = {}
        for child, anc in NESTED:
            self._ancestors.setdefault(child, []).append(anc)
        self.begin_round()

    def begin_round(self):
        self.calls = dict.fromkeys(self.names, 0)
        self.points = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.nested = dict.fromkeys(NESTED, 0)
        self.pairs = 0
        self.step_fn_keys = set()
        self.step_fn_repeats = 0

    def end_round(self) -> dict:
        return {
            "calls": dict(self.calls),
            "points": dict(self.points),
            "self_s": dict(self.self_s),
            "nested": dict(self.nested),
            "pairs": self.pairs,
            "step_fn_repeats": self.step_fn_repeats,
        }

    def wrap(self, name, fn):
        size_of = TARGETS[name]
        ancestors = self._ancestors.get(name, ())
        clock = time.perf_counter

        def traced_call(*args, **kwargs):
            for anc in ancestors:
                if self._active[anc]:
                    self.nested[(name, anc)] += 1
            slot = parent = None
            if self.record:
                parent = self._open[-1][2] if self._open else None
                slot = len(self.spans)
                self.spans.append(None)
            frame = [0.0, 0.0, slot]  # start, seconds of child spans, span id
            self._open.append(frame)
            self._active[name] += 1
            frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._active[name] -= 1
                self._open.pop()
                dur = end - frame[0]
                self.self_s[name] += dur - frame[1]
                if self._open:
                    self._open[-1][1] += dur
                if slot is not None:
                    self.spans[slot] = (name, frame[0], end, parent)
            # input sizes are measured after the clock stops, and the parent
            # is not charged for that either
            t0 = clock()
            self.calls[name] += 1
            n = size_of(args, kwargs, result)
            self.points[name] += n
            if name == "testfn.bmo_norm":
                self.pairs += n * (n - 1) // 2
            elif name == "testfn.random_step_fn":
                key = (args, tuple(sorted(kwargs.items())))
                if key in self.step_fn_keys:
                    self.step_fn_repeats += 1
                self.step_fn_keys.add(key)
            if self._open:
                self._open[-1][1] += clock() - t0
            return result

        traced_call.__wrapped__ = fn
        return traced_call

    def write_spans(self, path):
        """Write the recorded spans as CSV: id, name, start, end, parent id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{'' if parent is None else parent}\n")


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind every traced function in every bmobell module; restore on exit."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "bmobell" or n.startswith("bmobell.")]
    rebound = []
    for name in tracer.names:
        mod_name, attr = name.split(".")
        original = getattr(sys.modules["bmobell." + mod_name], attr)
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    rebound.append((mod, key, original))
    try:
        yield tracer
    finally:
        for mod, key, original in rebound:
            setattr(mod, key, original)
