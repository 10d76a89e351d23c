"""Spans and call counts recorded around calls into rmsyndrome's public
functions, from outside the library.

A module binds the names it imports when it is imported, so wrapping a
function means replacing every binding of it in every loaded rmsyndrome
module (``rank`` lives in linalg, code, polyspace, jennrich and the package
namespace).  Methods are wrapped on their class.  Module globals are looked
up at call time, so calls made inside a module, and function-level
``from .x import y`` imports, reach the wrapper too.

Spans stay in memory as [name, start, end, parent] and are written out
when the run ends; a span's self time is its duration minus the time its
direct children cover (the benchmark runs one caller in one thread, so
children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, qualified name) of every traced public entry point, by layer.
TRACED = (
    ("fields", "berlekamp_roots"),
    ("fields", "extension_field"),
    ("fields", "find_primitive_element"),
    ("linalg", "rref"),
    ("linalg", "rank"),
    ("linalg", "nullspace_basis"),
    ("linalg", "solve"),
    ("linalg", "inverse"),
    ("linalg", "full_rank_submatrix"),
    ("linalg", "char_poly"),
    ("linalg", "eigen_decompose"),
    ("polynomials", "monomial_index"),
    ("polynomials", "substitution_matrix"),
    ("polynomials", "PolySpace.affine_image"),
    ("polynomials", "PolySpace.restrict_last_zero"),
    ("polynomials", "PolySpace.restrict_last_const"),
    ("code", "syndrome_of_word"),
    ("code", "syndrome_from_errors"),
    ("code", "solve_error_magnitudes"),
    ("jennrich", "tensor_from_syndrome"),
    ("jennrich", "decompose"),
    ("polyspace", "space_roots"),
    ("polyspace", "vv_sample"),
    ("polyspace", "find_roots"),
    ("polyspace", "det_find_roots"),
    ("polyspace", "locate_and_correct"),
)

# Called far too often to time without distorting the timed layers; they
# are only counted, in a pass of their own.
COUNT_ONLY = (
    ("fields", "ExtField.mul"),
    ("fields", "ExtField.inv"),
)

ROOT = "bench.decode"


def _library_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "rmsyndrome" or name.startswith("rmsyndrome."))]


class Tracer:
    """Wraps the library's public names; either records timed spans or
    only counts calls, never both, so that counting costs no span time."""

    def __init__(self, timed: bool = True):
        self.timed = timed
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.located = 0  # points returned by find_roots, for the hit ratio
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _timed_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def _counting_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if name == "polyspace.find_roots":
                self.located += len(result)
            return result
        return counted

    # -- installing --------------------------------------------------------

    def install(self, targets=TRACED) -> None:
        modules = _library_modules()
        for mod_name, qualname in targets:
            name = f"{mod_name}.{qualname}"
            module = sys.modules[f"rmsyndrome.{mod_name}"]
            make = self._timed_wrapper if self.timed else self._counting_wrapper
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, make(name, original))
                continue
            original = getattr(module, qualname)
            wrapper = make(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- benchmark spans -----------------------------------------------------

    def root(self, fn, *args):
        """Run one decode under a root span and return its result."""
        return self._timed_wrapper(ROOT, fn)(*args)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time in seconds per span name."""
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return dict(out)

    def root_durations(self) -> list[float]:
        return [end - start for name, start, end, parent in self.spans
                if parent < 0 and name == ROOT]

    def write(self, path) -> None:
        """Spans as JSON rows [name, start_s, end_s, parent, decode], times
        relative to the first span; decode is the index of the root span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        decode_of: list[int] = []
        rows = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            decode_of.append(i if parent < 0 else decode_of[parent])
            rows.append([name, round(start - t0, 9), round(end - t0, 9), parent, decode_of[i]])
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "decode"],
                       "spans": rows}, fh)
