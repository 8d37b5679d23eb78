import pytest

from picodim import CodimEngine, catalog_algebra


@pytest.fixture(scope="session")
def engine_for():
    """Session-shared codimension engines so their ranks and column spaces are reused."""
    cache = {}

    def get(name: str) -> CodimEngine:
        if name not in cache:
            cache[name] = CodimEngine(catalog_algebra(name))
        return cache[name]

    return get
