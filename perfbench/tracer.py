"""Span and counter recorder that wraps the library's public functions.

The recorder patches functions from outside: each wrapped function is
replaced in its defining module and under every alias another
``obstructions`` module imported it by (``obstructions.cli`` imports most of
them by name), so both CLI calls and intra-module calls such as
``density -> one_variable_measure`` open a span. Fine-grained helpers
(``unit_phase``, ``PolySeqSpec.value_at``, ``lp_norm``, ...) stay unwrapped.

Spans are kept in memory as (name, start, end, parent). A span's self time is
its duration minus the durations of its direct children. The recorder keeps
one call stack, so it assumes wrapped functions are entered from one thread;
the traced runs use ``--threads 1``.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
import time

# (module, qualified attribute) pairs that get a span, named "<module>.<attr>"
TRACED = {
    "cli": ("main",),
    "patterns": ("bertrand_prime", "thin_pattern", "elementary_pattern",
                 "PolySeqSpec.values", "pattern_gap", "build_nets",
                 "scale_for_budget", "verify_hitting_net",
                 "verify_hitting_sampled", "find_hitter", "calibrate_sampled"),
    "torus": ("max_circular_gap", "exact_discrepancy", "grid_discrepancy",
              "weyl_sum", "erdos_turan_bound"),
    "annuli": ("members", "one_variable_measure", "density",
               "sample_lp_sphere", "reduction_coefficients",
               "reduce_to_polynomial", "no_copy_check"),
    "lpgeom": ("clarkson_check", "recover_line", "cross_configuration",
               "equally_spaced_obstruction", "sign_axis_deduction",
               "copy_sampler_check"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_net(c, args, kwargs, result, seconds):
    pattern = _arg(args, kwargs, 0, "pattern")
    c["patterns.net.cells"] += result.tested
    c["patterns.net.points"] += result.tested * pattern.n
    c["patterns.net.slack"] += result.slack
    c["patterns.net.epsilon_guaranteed"] += result.epsilon_guaranteed


def _count_sampled(c, args, kwargs, result, seconds):
    pattern = _arg(args, kwargs, 0, "pattern")
    c["patterns.sampled.points"] += result.tested * pattern.n


def _count_values(c, args, kwargs, result, seconds):
    c["patterns.PolySeqSpec.values.points"] += len(result)


def _count_et(c, args, kwargs, result, seconds):
    points = _arg(args, kwargs, 0, "points")
    c["torus.et.terms"] += len(points) * _arg(args, kwargs, 1, "cutoff")


def _count_weyl(c, args, kwargs, result, seconds):
    c["torus.weyl.terms"] += _arg(args, kwargs, 1, "n_terms")


def _count_members(c, args, kwargs, result, seconds):
    parity = _arg(args, kwargs, 0, "spec").parity
    c[f"annuli.members.{parity}.points"] += len(result)
    c[f"annuli.members.{parity}.busy_s"] += seconds


def _count_measure(c, args, kwargs, result, seconds):
    # computed from the inputs, not observed inside the kernel
    p, R = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 2, "R")
    c["annuli.measure.pieces"] += math.floor((R / 2.0) ** p) + 2


def _count_nocopy(c, args, kwargs, result, seconds):
    c["annuli.nocopy.placements"] += result.placements_total
    c["annuli.nocopy.route_mismatches"] += result.route_mismatches


COUNTERS = {
    "patterns.verify_hitting_net": _count_net,
    "patterns.verify_hitting_sampled": _count_sampled,
    "patterns.PolySeqSpec.values": _count_values,
    "torus.erdos_turan_bound": _count_et,
    "torus.weyl_sum": _count_weyl,
    "annuli.members": _count_members,
    "annuli.one_variable_measure": _count_measure,
    "annuli.no_copy_check": _count_nocopy,
}


class Recorder:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counters = collections.Counter()
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if count is not None:
                count(self.counters, args, kwargs, result, end - start)
            return result

        return traced

    def install(self):
        """Patch every traced function wherever an obstructions module holds it."""
        holders = [m for key, m in sys.modules.items()
                   if key == "obstructions" or key.startswith("obstructions.")]
        for module_name, attrs in TRACED.items():
            module = sys.modules[f"obstructions.{module_name}"]
            for attr in attrs:
                owner, _, leaf = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                original = getattr(target, leaf)
                wrapped = self._wrap(f"{module_name}.{attr}", original)
                places = [(target, leaf)] + [
                    (m, key) for m in holders if m is not target
                    for key, value in vars(m).items() if value is original]
                for obj, key in places:
                    setattr(obj, key, wrapped)
                    self._restore.append((obj, key, original))

    def uninstall(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def totals(self):
        """Per span name: (busy seconds, self seconds, calls)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy = collections.Counter()
        own = collections.Counter()
        calls = collections.Counter()
        for (name, start, end, _), children in zip(self.spans, child_time):
            busy[name] += end - start
            own[name] += end - start - children
            calls[name] += 1
        return busy, own, calls
