"""Self-time arithmetic and work-count formulas of the benchmark's spans."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from polariton_lab import kernels, lattice, quadrature
from polariton_lab.model import Grid, canonical_params


def test_union_length_merges_overlaps_and_skips_empty():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (5.0, 5.0)]) == 3.0
    assert spans.union_length([(2.0, 3.0), (0.0, 1.0), (1.0, 2.0)]) == 3.0


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        ["a", 0.0, 10.0, None, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 3.0, 6.0, 0, None],    # overlaps b: together they cover [1, 6]
        ["d", 9.0, 12.0, 0, None],   # ends past a: only [9, 10] is a's
        ["e", 2.0, 3.0, 1, None],    # grandchild: b's time, not a's
    ]
    assert spans.self_times(recorded) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_nested_counts_are_not_added_twice():
    recorded = [
        ["quadrature.prefix_integrals", 0.0, 1.0, None, {"quadrature.nodes": 128}],
        ["quadrature.panel_nodes", 0.1, 0.2, 0, {"quadrature.nodes": 128}],
        ["quadrature.panel_nodes", 2.0, 3.0, None, {"quadrature.nodes": 64}],
    ]
    scalars, _ = spans.layer_metrics(recorded)
    assert scalars["quadrature.nodes"] == 192
    assert scalars["quadrature.s"] == pytest.approx(2.0)


@pytest.fixture
def tracer():
    import polariton_lab.cli  # noqa: F401  (load every layer module)
    t = spans.Tracer()
    t.install(spans.layer_functions())
    yield t
    t.uninstall()


def test_uninstall_restores_the_original_bindings():
    import polariton_lab.variance as variance
    original = variance.transfer_adjoint_apply
    t = spans.Tracer()
    t.install(spans.layer_functions())
    assert variance.transfer_adjoint_apply is not original
    t.uninstall()
    assert variance.transfer_adjoint_apply is original


def test_cell_update_counts_on_a_16x16_grid(tracer):
    grid = Grid(16, 16)
    dim = 2 * 16 + 2 * 16
    params = canonical_params(1.0, 10.0, 0.3, 0.3)
    lattice.transfer_adjoint_apply(params, grid, np.ones(dim))
    lattice.transfer_adjoint_apply(params, grid, np.ones((dim, 3)))
    lattice.build_transfer_matrix(params, grid)
    lattice.integrate_stacked(params, grid, np.ones((2, 16, 5)), np.ones((2, 16, 5)))
    scalars, samples = spans.layer_metrics(tracer.spans)
    assert scalars["lattice.cell_updates"] == 16 * 16 * (1 + 3 + dim + 5)
    assert scalars["lattice.adjoint_apply_calls"] == 2
    assert len(samples["lattice.adjoint_apply_s"]) == 2
    assert scalars["lattice.matrix_bytes_computed"] == 8 * dim * dim
    assert scalars["lattice.cell_updates_per_s"] > 0


def test_kernel_eval_counts_on_a_16x16_grid(tracer):
    rule = quadrature.PanelRule()
    edges = np.arange(17) / 16
    nodes, _ = quadrature.panel_nodes(edges, rule)          # 16 panels x 8 nodes
    centers = (np.arange(16) + 0.5) / 16
    kernels.kernel_cross_scaled(1.5, centers[:, None], nodes.ravel()[None, :])
    kernels.kernel_cross_scaled(1.5, 0.5, centers)
    kernels.kernel_self_scaled(1.5, centers[:, None] - nodes.ravel()[None, :])
    quadrature.prefix_integrals(np.cos, edges, rule)
    scalars, _ = spans.layer_metrics(tracer.spans)
    assert scalars["kernels.cross_evals"] == 16 * 16 * 8 + 16
    assert scalars["kernels.self_evals"] == 16 * 16 * 8
    assert scalars["quadrature.nodes"] == 2 * 16 * 8


def test_benchmark_spec_names_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
