"""The timing scripts under tools/ run, and compare two trees in one process."""

import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def draw_bench(monkeypatch):
    # step_bench pins OPENBLAS_NUM_THREADS as it loads; later tests see the
    # environment as it was
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import draw_bench

    monkeypatch.setattr(draw_bench, "GRID", {(100, 10): 1, (3 * 2**30, 3): 1})
    monkeypatch.setattr(draw_bench, "REPEATS", 3)
    return draw_bench


def test_draw_bench_times_this_tree(draw_bench, capsys):
    draw_bench.main([])
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["100,10", "3221225472,3"]
    assert all(len(point["runs"]) == 3 and point["median_us"] > 0 for point in out.values())


def test_draw_bench_pairs_against_another_tree(draw_bench, capsys):
    # the other tree is this one, loaded again under another module name
    draw_bench.main(["--against", str(ROOT / "src")])
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["100,10", "3221225472,3"]
    for point in out.values():
        assert set(point) == {"this", "other", "median_ratio", "lower_in"}
        assert point["this"]["q1_us"] <= point["this"]["median_us"] <= point["this"]["q3_us"]
        assert len(point["other"]["runs"]) == 3 and point["lower_in"].endswith(" of 3")
