"""Session fixtures: the test corpus (see corpus.py) and what is derived from it."""

import pytest

from corpus import build_corpus, hidden_variable_models, polytope_or_message, upto
from qlogic import states


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def polytopes(corpus):
    """Maps each corpus algebra to its StatePolytope, or to the EmptyStateSpace
    message, with the state carrier cap lifted for the padded grids."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states, "MAX_STATE_CARRIER", 64)
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
