import pytest

from gluecheck.finset import dualize, fixture_family, random_gluing, tcirc_a, tcirc_c, tstar

CORPUS_SEEDS = tuple(range(200))
PROPERTY_INPUTS = ("example1", "example2", "example3") + tuple(f"seed{n}" for n in range(100))


@pytest.fixture(scope="session")
def corpus():
    """Random gluings with their dualized families, shared across suites."""
    return [(g, dualize(g)) for g in (random_gluing(seed) for seed in CORPUS_SEEDS)]


@pytest.fixture(scope="session")
def example1():
    return dualize(tstar())


@pytest.fixture(scope="session")
def example2():
    return dualize(tcirc_a())


@pytest.fixture(scope="session")
def example3():
    return dualize(tcirc_c())


@pytest.fixture(scope="session")
def fresh_families():
    """(name, family) for the example families and the duals of
    ``random_gluing`` seeds 0-99, for the property tests.  They are built
    apart from ``corpus``, so the caches they fill are not the ones the
    timed acceptance criteria read."""
    return [
        (name, dualize(random_gluing(int(name[len("seed"):]))) if name.startswith("seed")
         else fixture_family(name))
        for name in PROPERTY_INPUTS
    ]
