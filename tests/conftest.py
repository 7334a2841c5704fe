"""Session set-up: where hypothesis keeps its caches, the test corpus (see
corpus.py) and what is derived from it."""

import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from corpus import build_corpus, hidden_variable_models, polytope_or_message, upto
from qlogic import states


def pytest_configure(config):
    """Keep hypothesis's caches out of the checkout.

    Hypothesis writes its character map and the constants it reads from
    the source under ./.hypothesis unless told otherwise; this points it at
    a temporary directory for the session, before any strategy runs.
    """
    home = tempfile.TemporaryDirectory(prefix="qlogic-hypothesis-")
    set_hypothesis_home_dir(home.name)
    config.add_cleanup(home.cleanup)


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def polytopes(corpus):
    """Maps each corpus algebra to its StatePolytope, or to the EmptyStateSpace
    message."""
    return {
        alg: polytope_or_message(states.enumerate_vertex_states, alg)
        for _, _, alg in corpus
    }


@pytest.fixture(scope="session")
def models(corpus):
    """(model, polytope) for the catalog's witness algebras and for the first
    100 of each of fuzz seeds 1, 7 and 202, which their first 291, 309 and
    301 draws hold; the pastings' are left out, as they more than treble the
    hidden-variable oracles' time."""
    caps = {"fuzz(1, 500, 10)": 291, "fuzz(7, 500, 10)": 309, "fuzz(202, 500, 10)": 301}
    return hidden_variable_models(upto(corpus, caps={**caps, "fuzz": 0, "pastings": 0}))
