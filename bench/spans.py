"""Span recorder for the traced benchmark run.

``Tracer`` wraps the public functions of each diffalg module from outside
the library: every module-level name and class attribute that binds a
traced function is replaced by a timing wrapper while the tracer is active,
and the originals are put back when it exits.  Spans are kept in memory as
per-name aggregates (calls, total time, self time) plus parent -> child edge
counts, because the poly kernels run hundreds of thousands of times per
workload and one record per call would dominate the run.  Self time is a
span's duration minus the time covered by the wrapped spans it called.
"""

import functools
import sys
import time

from diffalg import cli, daha, ideals, poly, springer, weyl, zalg

# Traced span name -> (owner, attribute).  The owner is a class for methods
# and a module for functions; the wrapper replaces every binding of the
# original object, so names imported elsewhere with ``from ... import`` are
# traced as well.
SPANS = {
    "poly.mul": (poly.LaurentPoly, "__mul__"),
    "poly.add": (poly.LaurentPoly, "__add__"),
    "poly.pow": (poly.LaurentPoly, "__pow__"),
    "poly.shift_y": (poly, "shift_y"),
    "poly.taylor_pair": (poly, "taylor_pair"),
    "poly.exact_divide": (poly, "exact_divide"),
    "poly.rf_init": (poly.RationalFunction, "__init__"),
    "poly.rf_add": (poly.RationalFunction, "__add__"),
    "poly.rf_mul": (poly.RationalFunction, "__mul__"),
    "weyl.act_matrix": (weyl.RootData, "act_matrix"),
    "weyl.project": (weyl.RootData, "project"),
    "weyl.vandermonde": (weyl.RootData, "vandermonde"),
    "daha.compose": (daha.DiffReflOp, "compose"),
    "daha.e_lambda": (daha, "e_lambda"),
    "zalg.class_commutative": (zalg, "class_commutative"),
    "zalg.class_localized": (zalg, "class_localized"),
    "zalg.abelian_product": (zalg, "abelian_product"),
    "ideals.membership": (ideals, "membership"),
    "ideals.rref": (ideals, "rref"),
    "ideals.graded_dimension": (ideals, "graded_dimension"),
    "springer.module_act": (springer, "module_act"),
    "springer.element": (springer.ModuleElt, "__init__"),
    "cli.run_suite": (cli, "run_suite"),
}

STEP_PREFIX = "cli.step."


def _count_mul(counts, args, result):
    a, b = args
    if isinstance(b, poly.LaurentPoly):
        counts["poly.mul.term_pairs"] += len(a.terms) * len(b.terms)


def _count_exact_divide(counts, args, result):
    if result is not None:
        counts["poly.exact_divide.hits"] += 1


def _count_rref(counts, args, result):
    rows = args[0]
    counts["ideals.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    counts["ideals.rref.rank"] += len(result[0])


COUNTERS = {
    "poly.mul": _count_mul,
    "poly.exact_divide": _count_exact_divide,
    "ideals.rref": _count_rref,
}
COUNT_NAMES = ("poly.mul.term_pairs", "poly.exact_divide.hits", "ideals.rref.cells", "ideals.rref.rank")


def _diffalg_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "diffalg" or name.startswith("diffalg.")]


class Tracer:
    """Context manager that records spans while the library is patched.

    ``stats`` maps a span name to ``[calls, total_s, self_s]``; ``edges``
    maps ``(parent, child)`` span names to a call count, with ``None`` as the
    parent of a top-level span; ``counts`` holds the exact work counters.
    """

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}
        self.stats.update({STEP_PREFIX + name: [0, 0.0, 0.0] for name in cli.SUITE_NAMES})
        self.edges = {}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        # One frame per open span: [name, time covered by wrapped children].
        self._stack = [[None, 0.0]]
        self._saved = []

    def wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        edges = self.edges
        counts = self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                edge = (parent[0], name)
                edges[edge] = edges.get(edge, 0) + 1
            if count is not None:
                count(counts, args, result)
            return result

        return span

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap_suite(self, suite, build):
        name = STEP_PREFIX + suite
        build_span = self.wrap(name, build)

        def traced_build(cfg, rng):
            return [(label, self.wrap(name, thunk)) for label, thunk in build_span(cfg, rng)]

        return traced_build

    def __enter__(self):
        modules = _diffalg_modules()
        try:
            for name, (owner, attr) in SPANS.items():
                original = vars(owner)[attr]
                wrapper = self.wrap(name, original)
                # Aliases such as __rmul__ = __mul__ and by-name imports in
                # other modules all bind the same object.
                owners = [owner] if isinstance(owner, type) else modules
                for target in owners:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._replace(target, key, wrapper)
            for suite, build in list(cli.SUITES.items()):
                self._saved.append((cli.SUITES, suite, build))
                cli.SUITES[suite] = self._wrap_suite(suite, build)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        """Put every patched binding back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def metrics(self):
        """Per-layer metrics of everything recorded, by name."""
        out = {}
        for name, (calls, _total, self_s) in self.stats.items():
            if not name.startswith(STEP_PREFIX):
                out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        out.update(self.counts)
        attempts = self.stats["poly.exact_divide"][0]
        hits = self.counts["poly.exact_divide.hits"]
        out["poly.exact_divide.hit_ratio"] = hits / attempts if attempts else 0.0
        return out

    def dump(self):
        """Everything recorded, as plain JSON-ready data."""
        return {
            "top_level_s": self._stack[0][1],
            "spans": {
                name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in self.stats.items()
            },
            "edges": [
                {"parent": parent, "child": child, "calls": calls}
                for (parent, child), calls in sorted(self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
            ],
            "counts": dict(self.counts),
        }
