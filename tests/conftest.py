import random

import pytest

from corpus import make_corpus, make_even_loop_corpus, random_query


@pytest.fixture(scope="session")
def corpus200():
    """200 seeded OLON-free probabilistic programs with paired queries."""
    programs = make_corpus(seed=20240, count=200)
    rng = random.Random(4711)
    return [(p, random_query(rng, p)) for p in programs]


@pytest.fixture(scope="session")
def even_loop_corpus():
    """240 seeded (program, query) pairs with even loops over negation, so
    that worlds can have several answer sets and intervals need not be
    points (every world in corpus200 has exactly one answer set)."""
    return make_even_loop_corpus(seed=9090, count=240)
