import sys
from pathlib import Path

import pytest

from choquetlike import GridSpec, cli

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def suite_grids(monkeypatch, capsys):
    """``suite_grids(suite, *flags)``: the set of ``(kind, m)`` grids that
    ``verify --suite suite --n 2`` builds through ``cli.GridSpec``. Each
    check runs on the m=1 grid of its kind instead, so any m is cheap."""
    def run(suite, *flags):
        built = set()

        def record(kind, m, *args, **kwargs):
            built.add((kind, m))
            return GridSpec(kind, 1, *args, **kwargs)
        monkeypatch.setattr(cli, "GridSpec", record)
        assert cli.main(["verify", "--suite", suite, "--n", "2", *flags]) in (0, 3)
        capsys.readouterr()
        return built
    return run
