import numpy as np
import pytest

import marginleak as ml

# The acceptance criteria print one "ACCEPTANCE ..." line each.  pytest
# captures them, so they are collected here and repeated in the summary of
# every run, passing or failing, not only in the sections of failed tests.
_acceptance_lines = []


def pytest_runtest_logreport(report):
    if report.when == "call":
        _acceptance_lines.extend(
            line for line in report.capstdout.splitlines() if line.startswith("ACCEPTANCE")
        )


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def symmetric_pair_run():
    """One well-trained run on {(-1, -1), (+1, +1)}, shared across tests."""
    data = ml.LabeledDataset(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]))
    cfg = ml.TrainConfig(
        width=8,
        loss_kind="exponential",
        init_scale=1e-2,
        learning_rate=1e-2,
        lr_growth=1.02,
        max_steps=4000,
        loss_target=1e-8,
        kkt_residual_target=1e-3,
        rng_seed=1,
        checkpoint_every=100,
    )
    net, trace = ml.train(data, cfg)
    return data, cfg, net, trace
