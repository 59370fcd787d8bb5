"""Span recorder for the traced benchmark run.

Each listed public function of virtres is replaced, in every ``virtres``
module namespace that binds it, by a wrapper that records one span per call:
name, start, end, parent span and job id.  Spans stay in flat arrays in
memory and are written out once, when the run ends.  Self time is a span's
duration minus the durations of its direct children.

The wrappers sit at the package's public boundaries only.  Work without such
a boundary (mod-p elimination, packed-monomial arithmetic) shows up as the
self time of the span that calls it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

import numpy as np

# (module, attribute) of each traced function; "Class.method" patches the
# method on its class.
SPANS = (
    ("groebner", "groebner_basis"),
    ("groebner", "syzygy_module"),
    ("groebner", "minimal_generators"),
    ("groebner", "GroebnerBasis.normal_form"),
    ("ideals", "intersect"),
    ("ideals", "quotient"),
    ("ideals", "saturate"),
    ("ideals", "b_saturate"),
    ("ideals", "hilbert_function"),
    ("ideals", "QuotientModule.graded_basis"),
    ("complexes", "free_resolution"),
    ("complexes", "virtual_of_pair"),
    ("complexes", "is_virtual"),
    ("complexes", "FreeComplex.homology"),
    ("complexes", "minimalize"),
    ("cohomology", "regularity_check"),
    ("cohomology", "sheaf_cohomology_exact"),
    ("cohomology", "local_cohomology_dim"),
    ("cohomology", "beilinson_shape"),
    ("punctual", "points_ideal"),
    ("punctual", "intersect_with_irrelevant_power"),
    ("punctual", "hilbert_burch"),
    ("punctual", "koszul_pair_for_points"),
    ("cli", "parse_job"),
    ("cli", "main"),
    ("ring", "RingSpec.monomials_of_degree"),
)



class SpanRecorder:
    """Records spans of the wrapped functions while ``enabled`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.job = array("q")
        self.stack: list[int] = []
        self.current_job = -1
        self.enabled = False
        # counters for the derived metrics
        self.fast_calls = 0
        self.mingen_in = 0
        self.mingen_out = 0
        self.syz_out = 0
        self.syz_out_in_pair = 0
        self.pair_kept = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function in every loaded virtres module."""
        import virtres

        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == "virtres" or name.startswith("virtres."))
        ]

        def rebind(orig, wrapped):
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

        for modname, attr in SPANS:
            home = getattr(virtres, modname)
            span_name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(span_name, getattr(cls, meth)))
            else:
                orig = getattr(home, attr)
                rebind(orig, self._wrap(span_name, orig))
        # counted, not timed: a span here would split the self time of
        # regularity_check and beilinson_shape, which are spans already
        orig = virtres.cohomology.local_cohomology_dim_fast
        rebind(orig, self._count_fast(orig))

    def _wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        rec = self
        perf = time.perf_counter
        hook = _HOOKS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            idx = len(rec.start)
            stack = rec.stack
            rec.parent.append(stack[-1] if stack else -1)
            rec.name.append(nid)
            rec.job.append(rec.current_job)
            rec.end.append(0.0)
            stack.append(idx)
            rec.start.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf()
                stack.pop()
            if hook is not None:
                hook(rec, args, out)
            return out

        return wrapper

    def _count_fast(self, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.enabled:
                rec.fast_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------------

    def arrays(self):
        n = len(self.end)
        start = np.array(self.start[:n], dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name, dtype=np.int64)
        return start, end, parent, name

    def metrics(self, solve_s: float) -> dict[str, tuple[float, str]]:
        """Per-span calls and self time, derived ratios and untraced time."""
        start, end, parent, name = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_by_name = np.bincount(name, weights=self_s, minlength=k)
        out: dict[str, tuple[float, str]] = {}
        for nid, span in enumerate(self.names):
            out[f"{span}.calls"] = (int(calls[nid]), "count")
            out[f"{span}.self_s"] = (float(self_by_name[nid]), "s")
        out["groebner.minimal_generators.kept_ratio"] = (
            _ratio(self.mingen_out, self.mingen_in),
            "ratio",
        )
        out["groebner.syzygy_module.out_elems"] = (self.syz_out, "count")
        out["complexes.virtual_of_pair.kept_ratio"] = (
            _ratio(self.pair_kept, self.syz_out_in_pair),
            "ratio",
        )
        out["cohomology.fallback_ratio"] = (
            _ratio(
                int(calls[self.names.index("cohomology.local_cohomology_dim")]),
                self.fast_calls,
            ),
            "ratio",
        )
        top = float(dur[~has_parent].sum())
        out["untraced_s"] = (solve_s - top, "s")
        out["traced_solve_s"] = (solve_s, "s")
        return out

    def write(self, path: str, t0: float) -> None:
        """Write the spans, gzipped: a header line with the span names, then one
        ``[name id, start, end, parent, job]`` line per span (seconds after t0)."""
        start, end, parent, name = self.arrays()
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(end)):
                fh.write(
                    f"[{int(name[i])},{start[i] - t0:.7f},{end[i] - t0:.7f},"
                    f"{int(parent[i])},{self.job[i]}]\n"
                )


def _ratio(num: int, den: int) -> float:
    """num / den, and 0.0 when the denominator counted nothing."""
    return num / den if den else 0.0


# -- hooks that count work at the span boundaries ------------------------------


def _mingen_hook(rec: SpanRecorder, args, out) -> None:
    rec.mingen_in += len(args[0])
    rec.mingen_out += len(out)


def _syz_hook(rec: SpanRecorder, args, out) -> None:
    rec.syz_out += len(out)
    pair = rec.names.index("complexes.virtual_of_pair")
    if any(rec.name[i] == pair for i in rec.stack):
        rec.syz_out_in_pair += len(out)


def _pair_hook(rec: SpanRecorder, args, out) -> None:
    # syzygies kept under d + n are the generators of F_2, F_3, ...
    rec.pair_kept += sum(t.rank for t in out.terms[2:])


_HOOKS = {
    "groebner.minimal_generators": _mingen_hook,
    "groebner.syzygy_module": _syz_hook,
    "complexes.virtual_of_pair": _pair_hook,
}
