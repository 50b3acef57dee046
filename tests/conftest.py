import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("suite", deadline=None, derandomize=True,
                          max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def standard_corpus():
    import oracles

    return oracles.standard_cases()
