"""Test for the self-contained CLI demo command."""

import warnings

from repro.cli import main
from repro.core import KSpin, fit_cost_model
from repro.datasets import WorkloadGenerator
from repro.distance import DijkstraOracle
from repro.graph import perturbed_grid_network
from repro.lowerbound import AltLowerBounder

from tests.test_kspin_queries import make_dataset


def test_demo_runs_and_reports_all_queries(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "restaurant OR takeaway" in out
    assert "thai AND restaurant" in out
    assert "top-3 by weighted distance" in out
    # The disjunctive 1NN on the Figure-1 world is the 3-keyword object.
    assert "[(4, 1.0)]" in out


def test_package_callers_raise_no_deprecation_warning(capsys):
    """``repro demo`` and the cost-model fit go through ``execute``."""
    grid = perturbed_grid_network(6, 6, seed=5)
    dataset = make_dataset(grid, seed=5, object_fraction=0.4, vocabulary=8)
    kspin = KSpin(
        grid,
        dataset,
        oracle=DijkstraOracle(grid),
        lower_bounder=AltLowerBounder(grid, num_landmarks=4),
        rho=3,
    )
    workload = WorkloadGenerator(grid, dataset, seed=5).queries(2, 6, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert main(["demo"]) == 0
        fit_cost_model(kspin, workload, k=3)
