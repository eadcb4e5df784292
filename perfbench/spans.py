"""Spans around polariton_lab's public functions, recorded from outside the package.

A ``Tracer`` replaces module-level bindings of chosen functions with
wrappers that append one span per call: ``[name, start, end, parent,
counts]``, where ``parent`` is the index of the enclosing span (or None)
and ``counts`` holds work counts computed from the call's arguments.  The
package binds names with ``from .x import y``, so every loaded
``polariton_lab`` module's binding is replaced, not only the defining
module's attribute.  Spans stay in memory until the caller writes them.

``layer_metrics`` reduces one traced run's spans to the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from time import perf_counter

PACKAGE = "polariton_lab"
LAYERS = ("config", "runner", "variance", "kernels", "quadrature", "lattice")
POINT_SPANS = ("variance.readout_variances", "variance.memory_variances")
SWEEP_SPANS = ("lattice.integrate_stacked", "lattice.transfer_adjoint_apply",
               "lattice.build_transfer_matrix")


def _shape(x) -> tuple[int, ...]:
    return tuple(getattr(x, "shape", ()))


def _broadcast_size(*arrays) -> int:
    shapes = [_shape(a) for a in arrays]
    ndim = max(len(s) for s in shapes)
    dims = []
    for axis in range(-ndim, 0):
        sizes = [s[axis] for s in shapes if len(s) >= -axis]
        dims.append(max(sizes) if 0 not in sizes else 0)
    return math.prod(dims)


def _cells(grid) -> int:
    return grid.n_time * grid.n_space


def _dim(n_time: int, n_space: int) -> int:
    return 2 * n_time + 2 * n_space


def _rule_order(rule) -> int:
    if rule is None:
        return sys.modules[f"{PACKAGE}.quadrature"].DEFAULT_ORDER
    return rule.order


# Work counts per span name, computed from the bound arguments (and, for
# panel_nodes, the returned node array).  A count nested under a span that
# already carries the same key is not added again (see _count).
COUNTERS = {
    "kernels.kernel_cross_scaled":
        lambda a, r: {"kernels.cross_evals": _broadcast_size(a["x"], a["t"])},
    "kernels.kernel_self_scaled":
        lambda a, r: {"kernels.self_evals": _broadcast_size(a["u"])},
    "quadrature.panel_nodes":
        lambda a, r: {"quadrature.nodes": _broadcast_size(r[0])},
    "quadrature.prefix_integrals":
        lambda a, r: {"quadrature.nodes": (len(a["edges"]) - 1) * _rule_order(a["rule"])},
    "lattice.integrate_stacked":
        lambda a, r: {"lattice.cell_updates":
                      _cells(a["grid"]) * math.prod(_shape(a["u"])[2:])},
    "lattice.transfer_adjoint_apply":
        lambda a, r: {"lattice.cell_updates":
                      _cells(a["grid"]) * math.prod(_shape(a["y"])[1:])},
    "lattice.build_transfer_matrix":
        lambda a, r: {
            "lattice.cell_updates":
                _cells(a["grid"]) * _dim(a["grid"].n_time, a["grid"].n_space),
            "lattice.matrix_bytes_computed":
                8 * _dim(a["grid"].n_time, a["grid"].n_space) ** 2,
        },
    "lattice.symplectic_form":
        lambda a, r: {"lattice.matrix_bytes_computed":
                      8 * _dim(a["n_time"], a["n_space"]) ** 2},
}


def layer_functions() -> dict:
    """Every public function defined in a layer module, keyed to its span name."""
    targets = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                targets[obj] = f"{layer}.{name}"
    return targets


def entry_functions() -> dict:
    """The two calls the end-to-end metrics need: config parse and run."""
    config = sys.modules[f"{PACKAGE}.config"]
    runner = sys.modules[f"{PACKAGE}.runner"]
    return {config.parse_config: "config.parse_config", runner.run: "runner.run"}


class Tracer:
    """Records spans for calls through the bindings it has replaced."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = counter(bound.arguments, result)
            return result

        return wrapper

    def install(self, targets: dict) -> None:
        """Replace every package-module binding of each function in ``targets``."""
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = union_length(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
        )
        out.append(end - start - covered)
    return out


def _ancestors(spans, i):
    parent = spans[i][3]
    while parent is not None:
        yield parent
        parent = spans[parent][3]


def _outermost(spans, match) -> list:
    """Spans that match and have no matching ancestor."""
    return [s for i, s in enumerate(spans)
            if match(s) and not any(match(spans[a]) for a in _ancestors(spans, i))]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def total(spans, names) -> float:
    """Time covered by spans with these names, nested repeats counted once."""
    names = set(names)
    return sum(s[2] - s[1] for s in _outermost(spans, lambda s: s[0] in names))


def _count(spans, key) -> int:
    return sum(s[4][key] for s in _outermost(spans, lambda s: bool(s[4]) and key in s[4]))


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run.

    Returns (scalars, samples): scalars are totals for this run; samples
    are per-call durations that the caller pools across runs into
    percentiles.
    """
    selfs = self_times(spans)

    def layer_self(layer):
        return sum(t for s, t in zip(spans, selfs) if _layer(s[0]) == layer)

    point_idx = [i for i, s in enumerate(spans) if s[0] in POINT_SPANS]
    kernel_points = matrix_points = 0
    for p in point_idx:
        below = [s[0] for i, s in enumerate(spans) if p in _ancestors(spans, i)]
        kernel_points += any(_layer(n) == "kernels" for n in below)
        matrix_points += "lattice.transfer_adjoint_apply" in below
    cell_updates = _count(spans, "lattice.cell_updates")
    sweep_s = total(spans, SWEEP_SPANS)
    quadrature_s = sum(s[2] - s[1] for s in
                       _outermost(spans, lambda s: _layer(s[0]) == "quadrature"))
    scalars = {
        "config.parse_s": total(spans, ["config.parse_config"]),
        "variance.self_s": layer_self("variance"),
        "variance.kernel_route_points": kernel_points,
        "variance.matrix_route_points": matrix_points,
        "kernels.cross_evals": _count(spans, "kernels.cross_evals"),
        "kernels.self_evals": _count(spans, "kernels.self_evals"),
        "kernels.cross_s": total(spans, ["kernels.kernel_cross_scaled"]),
        "kernels.self_s": total(spans, ["kernels.kernel_self_scaled"]),
        "kernels.output_field_s": total(spans, ["kernels.output_field"]),
        "kernels.output_spin_s": total(spans, ["kernels.output_spin"]),
        "quadrature.nodes": _count(spans, "quadrature.nodes"),
        "quadrature.s": quadrature_s,
        "lattice.cell_updates": cell_updates,
        "lattice.cell_updates_per_s": cell_updates / sweep_s if sweep_s > 0 else 0.0,
        "lattice.adjoint_apply_calls": sum(
            s[0] == "lattice.transfer_adjoint_apply" for s in spans),
        "lattice.integrate_s": total(spans, ["lattice.integrate"]),
        "lattice.build_transfer_matrix_s": total(spans, ["lattice.build_transfer_matrix"]),
        "lattice.symplectic_residual_s": total(spans, ["lattice.symplectic_residual"]),
        "lattice.matrix_bytes_computed": _count(spans, "lattice.matrix_bytes_computed"),
        "runner.self_s": layer_self("runner"),
        "runner.write_s": total(spans, ["runner.write_csv"]),
    }
    samples = {
        "variance.point_s": [spans[i][2] - spans[i][1] for i in point_idx],
        "lattice.adjoint_apply_s": [s[2] - s[1] for s in spans
                                    if s[0] == "lattice.transfer_adjoint_apply"],
        "runner.oracle_profile_s": [s[2] - s[1] for s in spans
                                    if s[0] == "runner.oracle_kernel_deviation"],
    }
    return scalars, samples
