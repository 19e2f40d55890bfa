"""A child never outlives the runner's interest in it."""

from httpdrive import Child


def test_close_stops_the_child_group_and_waits_for_it():
    child = Child(["-c", "import time; print('UP', flush=True); time.sleep(600)"])
    try:
        assert "UP" in child.read_line("UP")
        assert child.peak_rss_mb() > 0
    finally:
        child.close()
    assert child.process.poll() is not None
    child.close()  # closing twice is harmless


def test_a_child_that_dies_early_is_reported():
    import pytest

    with Child(["-c", "raise SystemExit(3)"]) as child:
        with pytest.raises(RuntimeError, match="exited"):
            child.read_line("READY")
