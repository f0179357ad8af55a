"""Every experiment of ``repro.experiments.EXPERIMENTS`` at its documented
scale: the paper's tables, figures and ablations, and the extensions."""

import pytest

from repro.experiments import EXPERIMENTS


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_paper_shape(experiment, name):
    experiment(EXPERIMENTS[name])
