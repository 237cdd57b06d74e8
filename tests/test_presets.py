import random

from bell_lab.models import save_model, validate_model
from bell_lab.search import SearchMode, SearchSpec, random_model
from tests_support import PRESET_DIR, PRESETS


def test_catalog_keys_frozen():
    expected = ["noisy_readout", "perfect_correlation", "random_seed7", "singleton", "singleton_flip"]
    assert sorted(p.stem for p in PRESET_DIR.glob("*.json")) == expected
    assert sorted(PRESETS) == expected


def test_all_presets_valid():
    for load in PRESETS.values():
        assert validate_model(load()) == []


def test_random_seed7_is_generator_output(tmp_path):
    # Pins the generator's stream at seed 7 and the save format, byte for byte.
    spec = SearchSpec((2,) * 6, SearchMode.RANDOM)
    path = tmp_path / "random_seed7.json"
    save_model(random_model(spec, random.Random(7)), path)
    assert path.read_bytes() == (PRESET_DIR / "random_seed7.json").read_bytes()
