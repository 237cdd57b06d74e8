import random

import pytest

from bell_lab.search import SearchMode, SearchSpec, random_model
from tests_support import PRESETS

CAMPAIGN_SEED = 20260822


def campaign_models(count: int, seed: int = CAMPAIGN_SEED, max_cardinality: int = 4):
    """Seeded stream of random models with per-axis cardinality <= max."""
    rng = random.Random(seed)
    models = []
    for _ in range(count):
        cards = tuple(rng.randint(1, max_cardinality) for _ in range(6))
        spec = SearchSpec(cardinalities=cards, mode=SearchMode.RANDOM)
        models.append(random_model(spec, rng))
    return models


@pytest.fixture(scope="session")
def small_campaign():
    return campaign_models(150)


@pytest.fixture
def singleton():
    return PRESETS["singleton"]()


@pytest.fixture
def singleton_flip():
    return PRESETS["singleton_flip"]()


@pytest.fixture
def perfect():
    return PRESETS["perfect_correlation"]()


@pytest.fixture
def noisy():
    return PRESETS["noisy_readout"]()


@pytest.fixture
def random7():
    return PRESETS["random_seed7"]()
