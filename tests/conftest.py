import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """One directory for every example of a property test: each writes its file afresh."""
    return tmp_path_factory.mktemp("fuzz")
