"""Per-layer tracing for the matguard benchmark, from outside the package.

Hooks replace a function under the name through which its consumer looks
it up (``matguard.sweep.guardian_evaluate``, not
``matguard.representations.guardian_evaluate``), so the library is traced
without editing it.  Modules are fetched with ``importlib.import_module``
because the package attribute ``matguard.sweep`` is the *function* that
shadows the module.  A hook whose target no longer exists marks its layer
missing; metrics that depend on a missing layer are reported as null.

Each span adds its duration to the inclusive time of its layer (outermost
span of a layer only, so recursion is not double counted) and to the
child time of its parent; self time is duration minus child time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter

# (consumer module, attribute, layer)
HOOKS = (
    ("matguard.cli", "load_matrix", "io.load"),
    ("matguard.cli", "_read_json_document", "io.load"),
    ("matguard.cli", "dumps_canonical", "io.serialize"),
    ("matguard.cli", "guardian_evaluate", "representations.guardian"),
    ("matguard.cli", "sweep", "sweep.sweep"),
    ("matguard.cli", "run_suite", "verify.run_suite"),
    ("matguard.sweep", "guardian_evaluate", "sweep.guardian"),
    ("matguard.sweep", "refine_crossing", "sweep.refine"),
    ("matguard.sweep", "spectrum", "core.oracle"),
    ("matguard.representations", "apply_rho", "representations.build_rho"),
    ("matguard.representations", "det_signed_log", "core.det"),
    ("matguard.representations", "is_hurwitz", "core.oracle"),
    ("matguard.representations", "kron_sum_self", "kron.build"),
    ("matguard.representations", "add_compound", "compound.add2_build"),
    ("matguard.representations", "lower_schlaflian", "schlaflian.build"),
    ("matguard.representations", "bialternate_sum_self", "bialternate.build"),
    ("matguard.verify", "apply_rho", "representations.build_rho"),
    ("matguard.verify", "mult_compound", "compound.mult"),
    ("matguard.compound", "mult_compound", "compound.mult"),
    ("matguard.compound", "add_compound", "compound.add2_build"),
    ("matguard.bialternate", "bialternate_sum_self", "bialternate.build"),
    ("matguard.ode", "add_compound", "compound.add2_build"),
    ("matguard.ode", "mult_compound", "compound.mult"),
    ("matguard.ode", "lower_schlaflian", "schlaflian.build"),
)

CLI_CHILDREN = ("io.load", "io.serialize", "representations.guardian",
                "sweep.sweep", "verify.run_suite")
GUARDIAN_CHILDREN = ("representations.build_rho", "core.det", "core.oracle")


class Tracer:
    def __init__(self):
        self.stack = []  # child seconds of each open span
        self.open = Counter()
        self.seconds = Counter()  # inclusive, outermost span of a layer
        self.self_seconds = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.guardian_n = []  # input size of each open guardian evaluation
        self.missing = set()

    def call(self, layer, fn, *args, **kwargs):
        self.stack.append(0.0)
        self.open[layer] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            child = self.stack.pop()
            self.open[layer] -= 1
            if self.stack:
                self.stack[-1] += duration
            self.calls[layer] += 1
            self.self_seconds[layer] += duration - child
            if not self.open[layer]:
                self.seconds[layer] += duration

    def _wrap(self, layer, fn):
        if layer == "core.det":
            return functools.wraps(fn)(functools.partial(self._det, fn))
        if layer in ("representations.guardian", "sweep.guardian"):
            return functools.wraps(fn)(functools.partial(self._guardian, layer, fn))
        if layer == "representations.build_rho":
            return functools.wraps(fn)(functools.partial(self._build_rho, fn))
        if layer == "sweep.sweep":
            return functools.wraps(fn)(functools.partial(self._sweep, fn))
        return functools.wraps(fn)(functools.partial(self.call, layer, fn))

    def _guardian(self, layer, fn, *args, **kwargs):
        if layer == "sweep.guardian":
            self.counts["sweep.guardian_evals"] += 1
            if self.open["sweep.refine"]:
                self.counts["sweep.refine_evals"] += 1
        self.guardian_n.append(len(args[1] if len(args) > 1 else kwargs["a"]))
        try:
            return self.call("representations.guardian", fn, *args, **kwargs)
        finally:
            self.guardian_n.pop()

    def _det(self, fn, *args, **kwargs):
        # det(A) is the factor whose size equals the guardian input's; the
        # rho sizes n^2, C(n,2), C(n+1,2) differ from n for every n != 3.
        m = len(args[0] if args else kwargs["a"])
        if self.guardian_n and m == self.guardian_n[-1]:
            return self.call("core.det_a", fn, *args, **kwargs)
        self.counts["core.det_rho_m3"] += m**3  # an integer, so per-op ratios repeat exactly
        return self.call("core.det_rho", fn, *args, **kwargs)

    def _build_rho(self, fn, *args, **kwargs):
        rho = self.call("representations.build_rho", fn, *args, **kwargs)
        self.counts["representations.rho_bytes"] += 8 * rho.shape[0] * rho.shape[1]
        return rho

    def _sweep(self, fn, *args, **kwargs):
        result = self.call("sweep.sweep", fn, *args, **kwargs)
        self.counts["sweep.events_found"] += len(result.crossings) + len(result.touches)
        return result

    @contextlib.contextmanager
    def installed(self, hooks=HOOKS):
        """Patch every available hook; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, layer in hooks:
                try:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.add(layer)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def metrics(self, ops: int) -> dict:
        """Per-op layer metrics: {name: (value or None, unit)}."""
        s, c, n = self.seconds, self.counts, self.calls

        def ms(seconds):
            return seconds * 1e3 / ops

        det_rho_s = s["core.det_rho"]
        gflop = 2 * c["core.det_rho_m3"] / 3e9  # LU of an m x m matrix: 2m^3/3 flop
        table = {
            "core.det_rho_ms": (("core.det",), ms(det_rho_s), "ms/op"),
            "core.det_rho_calls": (("core.det",), n["core.det_rho"] / ops, "count/op"),
            "core.det_rho_gflop": (("core.det",), 2 * c["core.det_rho_m3"] / ops / 3e9,
                                   "gflop/op"),
            "core.det_rho_gflops_rate": (("core.det",), gflop / det_rho_s if det_rho_s else 0.0,
                                         "gflop/s"),
            "core.det_a_ms": (("core.det",), ms(s["core.det_a"]), "ms/op"),
            "core.oracle_ms": (("core.oracle",), ms(s["core.oracle"]), "ms/op"),
            "core.oracle_calls": (("core.oracle",), n["core.oracle"] / ops, "count/op"),
            "kron.build_ms": (("kron.build",), ms(s["kron.build"]), "ms/op"),
            "compound.add2_build_ms": (("compound.add2_build",),
                                       ms(s["compound.add2_build"]), "ms/op"),
            "compound.mult_ms": (("compound.mult",), ms(s["compound.mult"]), "ms/op"),
            "schlaflian.build_ms": (("schlaflian.build",), ms(s["schlaflian.build"]), "ms/op"),
            "bialternate.build_ms": (("bialternate.build",), ms(s["bialternate.build"]),
                                     "ms/op"),
            "representations.build_rho_ms": (("representations.build_rho",),
                                             ms(s["representations.build_rho"]), "ms/op"),
            "representations.rho_bytes": (("representations.build_rho",),
                                          c["representations.rho_bytes"] / ops, "bytes/op"),
            "representations.guardian_self_ms": (
                ("representations.guardian",) + GUARDIAN_CHILDREN,
                ms(self.self_seconds["representations.guardian"]), "ms/op"),
            "representations.guardian_calls": (("representations.guardian",),
                                               n["representations.guardian"] / ops, "count/op"),
            "sweep.grid_ms": (("sweep.sweep", "sweep.refine"),
                              ms(s["sweep.sweep"] - s["sweep.refine"]), "ms/op"),
            "sweep.refine_ms": (("sweep.refine",), ms(s["sweep.refine"]), "ms/op"),
            "sweep.guardian_evals": (("sweep.guardian",),
                                     c["sweep.guardian_evals"] / ops, "count/op"),
            # midpoint evaluations: refine evaluates both ends once, then bisects
            "sweep.bisect_steps": (
                ("sweep.guardian", "sweep.refine"),
                (c["sweep.refine_evals"] - 2 * n["sweep.refine"]) / ops, "count/op"),
            "sweep.events_found": (("sweep.sweep",), c["sweep.events_found"] / ops,
                                   "count/op"),
            "io.load_ms": (("io.load",), ms(s["io.load"]), "ms/op"),
            "io.serialize_ms": (("io.serialize",), ms(s["io.serialize"]), "ms/op"),
            "cli.self_ms": (CLI_CHILDREN, ms(self.self_seconds["cli"]), "ms/op"),
        }
        return {name: (None if self.missing.intersection(deps) else value, unit)
                for name, (deps, value, unit) in table.items()}
