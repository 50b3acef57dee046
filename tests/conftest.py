import importlib
import pkgutil
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


@pytest.fixture
def walks(monkeypatch):
    """Counts the calls of the parse walkers `_lz_walk` and `_joint_walk`.

    Every srlz module is imported and each of its bindings of either name is
    wrapped, so a walk counts whichever module calls it: the `_lz_walk` inside
    a `_joint_walk` counts too.
    """
    import srlz

    calls = {"_lz_walk": 0, "_joint_walk": 0}

    def counting(name, real):
        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        return wrapper

    for info in pkgutil.iter_modules(srlz.__path__):
        mod = importlib.import_module(f"srlz.{info.name}")
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    return calls
