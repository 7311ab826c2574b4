"""Per-layer tracing from outside the package.

The tracer replaces public functions of hzreach's modules with wrappers,
under the name each caller looks the function up by (``reach.union`` as
well as ``estimate.union``), and restores them afterwards.  Every wrapped
call leaves one span in memory: name, start, end and the span that caused
it.  Inclusive and self time per function name come from the spans when
the run ends; observers add counters such as LP sizes or pruned pieces.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent span index or -1]
        self.counters: dict = defaultdict(int)
        self._stack: list = []
        self._patches: list = []

    def install(self, targets) -> None:
        """targets: (module, attribute, span name, observer or None) tuples.

        A function the module no longer has is skipped; its metrics read 0.
        """
        for module, attr, name, observe in targets:
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(name, original, observe))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """{name.calls, name.s, name.self_s} per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
        out.update(self.counters)
        return dict(out)


# ---------------------------------------------------------------------------
# Observers: (counters, positional args, result) -> None


def _lp_size(counters, prefix, args):
    c, A = args[0], args[1]
    if A is not None:
        counters[f"{prefix}.cells"] += len(A) * len(c)


def _observe_lp(counters, args, result):
    _lp_size(counters, "lp.solve_box_lp", args)
    if result.status == "infeasible":
        counters["lp.solve_box_lp.infeasible"] += 1


def _observe_milp(counters, args, result):
    _lp_size(counters, "lp.solve_box_milp", args)


def _observe_is_empty(counters, args, result):
    if result:
        counters["oracle.is_empty.empty"] += 1


def _observe_in_weights(counters, args, result):
    counters["estimate.in.residual_max"] = max(
        counters["estimate.in.residual_max"], result.residual
    )
    counters["estimate.in.cond_max"] = max(
        counters["estimate.in.cond_max"], result.condition
    )


def ident_targets() -> list:
    """Identification, traced during the in-process set-up."""
    from hzreach import cli, ident

    return [
        (ident, "identify_models", "ident.identify_models", None),
        (ident, "identify_models_from_outputs", "ident.identify_models_from_outputs", None),
        (cli, "identify_models_from_outputs", "ident.identify_models_from_outputs", None),
    ]


def layer_targets() -> list:
    """lp, oracle, setops, reach and estimate, traced during one timed round."""
    from hzreach import estimate, lp, oracle, reach

    targets = [
        (lp, "solve_box_lp", "lp.solve_box_lp", _observe_lp),
        (lp, "solve_box_milp", "lp.solve_box_milp", _observe_milp),
        (oracle, "is_empty", "oracle.is_empty", _observe_is_empty),
        (estimate, "solve_in_weights", "estimate.solve_in_weights", _observe_in_weights),
    ]
    for attr in ("support", "interval_hull", "membership", "sample", "feasible_assignments"):
        targets.append((oracle, attr, f"oracle.{attr}", None))
    for module in (reach, estimate):
        targets.append((module, "union", "setops.union", None))
        targets.append((module, "make_family", "reach.make_family", None))
        targets.append((module, "reach_step", "reach.reach_step", None))
    targets.append((reach, "matzono_times_set", "setops.matzono_times_set", None))
    for attr in ("time_update", "rm_bound_policy", "update_rm", "update_in", "update_gi"):
        targets.append((estimate, attr, f"estimate.{attr}", None))
    return targets
