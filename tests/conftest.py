import multiprocessing

import pytest

from bridgeqa.config import load_config
from bridgeqa.pipeline import run_all
from bridgeqa.tinywiki import fixture_config, write_fixture


@pytest.fixture(autouse=True)
def no_live_child_processes():
    """Fail a test that leaves a multiprocessing child running; the child is
    stopped first, so the leak does not spread to later tests."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join()
    assert not leaked, f"child processes left running: {leaked}"


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tinywiki")
    write_fixture(directory, seed=7)
    return directory


@pytest.fixture(scope="session")
def mini_run(tmp_path_factory, fixture_dir):
    """A complete but barely-trained pipeline run (2 epochs everywhere), for
    structural tests that need every artifact present."""
    out = tmp_path_factory.mktemp("mini_run")
    cfg = load_config(None, fixture_config(fixture_dir, out, bridge_epochs=2, reader_epochs=2))
    run_all(cfg)
    return cfg


@pytest.fixture
def loop_widths(monkeypatch):
    """Record, per cell kind, the batch width of every recurrent time loop
    run (each call of its forward kernel)."""
    from bridgeqa.numcore import cells

    widths = {kind: [] for kind in cells._KINDS}
    for kind, (names, n_sigmoid, forward, backward_kernel) in list(cells._KINDS.items()):

        def counted(A, W_rec, H, kind=kind, forward=forward):
            widths[kind].append(A.shape[1])
            return forward(A, W_rec, H)

        monkeypatch.setitem(cells._KINDS, kind, (names, n_sigmoid, counted, backward_kernel))
    return widths
