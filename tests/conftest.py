import numpy as np
import pytest

from autoeda import synth
from autoeda.tabular import ColumnKind, Dataset
from autoeda.train import STREAM_SYNTH, derive_rng


@pytest.fixture
def toy() -> Dataset:
    """Ten rows, one column of each kind, with nulls sprinkled in."""
    rows = [
        ["red", 1.0, "alpha one"],
        ["red", 2.0, "beta two"],
        ["blue", 2.0, "gamma three"],
        ["blue", None, "alpha four"],
        ["blue", 3.0, None],
        ["green", 3.0, "delta five"],
        ["green", 3.0, "epsilon six"],
        ["red", 5.0, "alpha seven"],
        [None, 5.0, "zeta eight"],
        ["red", 8.0, "eta nine"],
    ]
    return Dataset("toy", [("color", ColumnKind.CATEGORICAL),
                           ("score", ColumnKind.NUMERIC),
                           ("note", ColumnKind.TEXT)], rows)


@pytest.fixture(scope="session")
def synthetic_bundle():
    """One seeded synthetic dataset with its patterns, graph and sessions."""
    rng = derive_rng(11, STREAM_SYNTH, 1)
    patterns = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, rng)
    dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, patterns, rng,
                                      cap=2, n_edges=3)
    dataset = synth.populate_rows(synth.DEFAULT_SCHEMA, patterns, dag, 1000,
                                  5.0, rng, name="ds1")
    trajectories = synth.generate_expert_trajectories(
        dataset, patterns, dag, derive_rng(11, 5, 1), n_trajectories=8)
    return dataset, patterns, dag, trajectories


@pytest.fixture(scope="session")
def synthetic_dataset(synthetic_bundle) -> Dataset:
    return synthetic_bundle[0]


@pytest.fixture(scope="session")
def fd_gradient():
    """Central finite differences of `loss_fn` over every coordinate of
    `net.flat`, perturbed in place and restored."""
    def gradient(net, loss_fn, h=1e-5):
        flat = net.flat
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn()
            flat[i] = orig - h
            lo = loss_fn()
            flat[i] = orig
            grad[i] = (hi - lo) / (2 * h)
        return grad
    return gradient
