from xml.etree import ElementTree

import numpy as np
import pytest

from doslab import svgplot

from .conftest import rng
from .oracles import polyline_points_loop


def random_series(seed, ylog):
    """A few series of random length, spanning many magnitudes; log charts
    also get nonpositive values, which they drop."""
    gen = rng(seed)
    series = []
    for i in range(int(gen.integers(1, 5))):
        n = int(gen.integers(1, 300))
        xs = np.sort(gen.uniform(-5.0, 50.0, n))
        ys = gen.choice([-1.0, 1.0], n) * 10.0 ** gen.uniform(-12.0, 12.0, n)
        if not ylog:
            ys = ys * gen.uniform(0.0, 1.0)
        series.append((f"s{i}", xs, ys))
    return series


@pytest.mark.parametrize("ylog", [False, True], ids=["linear", "log"])
@pytest.mark.parametrize("seed", range(10))
def test_chart_bytes_match_point_loop(tmp_path, monkeypatch, seed, ylog):
    series = random_series(seed, ylog)
    svgplot.line_chart(tmp_path / "got.svg", series, title="t", ylog=ylog)
    monkeypatch.setattr(svgplot, "_polyline_points", polyline_points_loop)
    svgplot.line_chart(tmp_path / "want.svg", series, title="t", ylog=ylog)
    got = (tmp_path / "got.svg").read_bytes()
    assert got == (tmp_path / "want.svg").read_bytes()
    assert got.count(b"<polyline") == len(series)


@pytest.mark.parametrize("xs, ys", [
    ([0.0], [0.0]),                            # one point
    ([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]),        # flat, zero-width axes
    ([-1e-300, 0.0, 1e300], [-0.0, 5e-324, 1.0]),
])
def test_edge_series_match_point_loop(tmp_path, monkeypatch, xs, ys):
    svgplot.line_chart(tmp_path / "got.svg", [("s", xs, ys)])
    monkeypatch.setattr(svgplot, "_polyline_points", polyline_points_loop)
    svgplot.line_chart(tmp_path / "want.svg", [("s", xs, ys)])
    assert (tmp_path / "got.svg").read_bytes() \
        == (tmp_path / "want.svg").read_bytes()


def test_text_is_escaped(tmp_path):
    labels = ["x < y & z", "a<b & c", "t [s] > 0", "u & v"]
    svgplot.line_chart(tmp_path / "chart.svg", [(labels[1], [0, 1], [1, 2])],
                       title=labels[0], xlabel=labels[2], ylabel=labels[3])
    root = ElementTree.parse(tmp_path / "chart.svg").getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert all(label in texts for label in labels)
