"""The package names that the benchmark's traced replay (bench/tracing.py)
wraps or calls all exist, so a change to src/ that renames or drops one
fails here rather than in ``bench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    saved_path, had_reference = list(sys.path), "reference" in sys.modules
    sys.path.insert(0, str(BENCH))  # tracing.py imports bench/reference.py
    try:
        spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        if not had_reference:
            sys.modules.pop("reference", None)


def test_traced_layers_exist(tracing):
    for module, attr, name in tracing.SPANS + tracing.COUNTERS:
        assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr}"


def test_direct_calls_exist(tracing):
    # the replay clears the progression caches before each call, and the
    # charpoly probe builds and solves transfer matrices itself
    assert callable(tracing.oracle.all_progressions.cache_clear)
    assert callable(tracing.oracle.progression_masks.cache_clear)
    assert callable(tracing.bounds.lambda_max_by_charpoly)
    assert callable(tracing.bounds.transfer_matrix)
