"""The timing scripts under tools/ run, and compare two trees in one process."""

import json
import os
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def step_bench(monkeypatch):
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import step_bench

    # one toy shape that still passes a two-weight regularizer and a cache flag
    shape = (dict(n=12, d=3, family="logistic", seed=1, reg=("elastic_net", 1e-3, 1e-3)),
             dict(alpha=1.0, batch_size=3, cache_checkpoint_grads=True), 40)
    monkeypatch.setattr(step_bench, "SHAPES", {"12x3 toy": shape})
    monkeypatch.setattr(step_bench, "REPEATS", 3)
    return step_bench


def test_step_bench_times_this_tree(step_bench, capsys):
    step_bench.main([])
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["openblas_threads", "12x3 toy"] and out["openblas_threads"] == 1
    assert len(out["12x3 toy"]["runs"]) == 3 and out["12x3 toy"]["median_us"] > 0


def test_step_bench_pairs_against_another_tree(step_bench, capsys):
    step_bench.main(["--against", str(ROOT / "src")])
    point = json.loads(capsys.readouterr().out)["12x3 toy"]
    assert set(point) == {"this", "other", "median_ratio", "lower_in"}
    assert point["other"]["q1_us"] <= point["other"]["median_us"] <= point["other"]["q3_us"]
    assert len(point["this"]["runs"]) == 3 and point["lower_in"].endswith(" of 3")


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


@pytest.fixture
def scan_bench(monkeypatch):
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import scan_bench

    monkeypatch.setattr(scan_bench, "GRID_STEP", 0.5)
    monkeypatch.setattr(scan_bench, "T_MAX", 40)
    monkeypatch.setattr(scan_bench, "REPEATS", 3)
    return scan_bench


SCANS = ["certificate", "growth alpha=0.5", "growth alpha=1", "fault xi=2"]


def test_scan_bench_times_this_tree(scan_bench, capsys):
    scan_bench.main([])
    out = json.loads(capsys.readouterr().out)
    assert list(out) == SCANS
    assert all(len(point["runs"]) == 3 and point["median_ns"] > 0 for point in out.values())


def test_scan_bench_pairs_against_another_tree(scan_bench, capsys):
    scan_bench.main(["--against", str(ROOT / "src")])
    out = json.loads(capsys.readouterr().out)
    assert list(out) == SCANS
    for point in out.values():
        assert set(point) == {"this", "other", "median_ratio", "lower_in"}
        assert point["this"]["q1_ns"] <= point["this"]["median_ns"] <= point["this"]["q3_ns"]
        assert len(point["other"]["runs"]) == 3 and point["lower_in"].endswith(" of 3")


def test_scan_bench_exits_one_when_the_reports_differ(scan_bench, capsys, tmp_path):
    # the other tree certifies c <= 5.5 where this one certifies c <= 5
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "katyusha_h", other / "katyusha_h")
    schedule = other / "katyusha_h" / "schedule.py"
    schedule.write_text(schedule.read_text().replace("C_MAX = 5.0", "C_MAX = 5.5"))
    with pytest.raises(SystemExit, match="report differently on certificate, fault xi=2"):
        scan_bench.main(["--against", str(other)])
    assert list(json.loads(capsys.readouterr().out)) == SCANS
