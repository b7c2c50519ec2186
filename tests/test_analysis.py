import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from paretoreg.analysis import (
    KNEE_DISTANCE_THRESHOLD,
    criteria_scan,
    hs_plot,
    kappa_metric,
    knee_point,
    os_plot,
)
from paretoreg.data import Dataset, EvaluatedModel, ObjectiveVector
from paretoreg.moga import GAConfig, Snapshot, run_moga
from paretoreg.pareto import Frontier


def simple(c, e, k=12):
    mask = np.zeros(k, dtype=bool)
    mask[:c] = True
    return EvaluatedModel(
        mask=mask,
        objective=ObjectiveVector(complexity=c, error=float(e)),
        intercept=0.0,
        coefficients=np.zeros(c),
    )


def frontier_of(points, k=12):
    return Frontier.from_models([simple(c, e, k) for c, e in points])


def chord_distance(points, idx):
    """Point-to-chord distance on min-max normalised axes, derived
    directly from the two-point line formula."""
    cs = np.array([p[0] for p in points], dtype=float)
    es = np.array([p[1] for p in points], dtype=float)
    x = (cs - cs[0]) / (cs[-1] - cs[0])
    y = (es - es[-1]) / (es[0] - es[-1])
    x0, y0, x1, y1 = x[0], y[0], x[-1], y[-1]
    num = abs((x1 - x0) * (y0 - y[idx]) - (x0 - x[idx]) * (y1 - y0))
    return num / math.hypot(x1 - x0, y1 - y0)


class TestKneePoint:
    def test_sharp_corner(self):
        pts = [(0, 1.0), (1, 0.1), (5, 0.05)]
        res = knee_point(frontier_of(pts))
        assert res.complexity == 1
        assert res.pronounced
        assert abs(res.distance - chord_distance(pts, 1)) < 1e-12

    def test_picks_largest_deviation(self):
        pts = [(0, 100.0), (1, 10.0), (2, 9.0), (3, 8.5)]
        res = knee_point(frontier_of(pts))
        assert res.complexity == 1
        assert abs(res.distance - chord_distance(pts, 1)) < 1e-12

    def test_straight_line_not_pronounced_tie_to_smallest(self):
        # every point sits on the chord: all distances zero, the tie
        # resolves to the first interior complexity
        res = knee_point(frontier_of([(0, 3.0), (1, 2.0), (2, 1.0), (3, 0.0)]))
        assert res.distance < 1e-12
        assert not res.pronounced
        assert res.complexity == 1

    def test_endpoints_excluded(self):
        # interior points hug the chord; the endpoints deviate only in
        # the sense of defining it, so the weak interior point still wins
        pts = [(0, 10.0), (1, 6.7), (2, 3.4), (3, 0.1)]
        res = knee_point(frontier_of(pts))
        assert res.complexity in (1, 2)

    def test_threshold_boundary(self):
        assert KNEE_DISTANCE_THRESHOLD == pytest.approx(0.02)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            knee_point(frontier_of([(0, 2.0), (1, 1.0)]))


def ref_aic(mse, k_eff, n):
    return 2 * k_eff / n + math.log(mse)


def ref_bic(mse, k_eff, n):
    return k_eff * math.log(n) / n + math.log(mse)


class TestCriteriaScan:
    def test_rows_match_reference_formulas(self):
        pts = [(0, 1.0), (1, 0.5), (2, 0.45), (3, 0.44), (4, 0.435)]
        scan = criteria_scan(frontier_of(pts), n=100)
        for row, (c, mse) in zip(scan.rows, pts):
            assert row.complexity == c
            assert abs(row.aic - ref_aic(mse, c + 1, 100)) < 1e-12
            assert abs(row.bic - ref_bic(mse, c + 1, 100)) < 1e-12

    def test_argmins_match_brute_force(self):
        pts = [(0, 1.0), (1, 0.5), (2, 0.45), (3, 0.44), (4, 0.435)]
        scan = criteria_scan(frontier_of(pts), n=100)
        want_aic = min(pts, key=lambda p: ref_aic(p[1], p[0] + 1, 100))[0]
        want_bic = min(pts, key=lambda p: ref_bic(p[1], p[0] + 1, 100))[0]
        assert scan.aic_argmin == want_aic
        assert scan.bic_argmin == want_bic
        # the heavier penalty stops earlier on this frontier
        assert scan.bic_argmin < scan.aic_argmin

    def test_zero_error_rows_have_no_criteria(self):
        f = frontier_of([(0, 1.0), (1, 0.0)])
        scan = criteria_scan(f, n=30)
        assert scan.rows[1].aic is None and scan.rows[1].bic is None
        assert scan.aic_argmin == 0  # only the finite row competes

    def test_rounding_level_errors_have_no_criteria(self):
        # p > n: complexity 7 interpolates the 8 rows; its residual is
        # rounding, which the kernel reports as an error of exactly 0
        gen = np.random.default_rng(0)
        X = gen.standard_normal((8, 12))
        y = gen.standard_normal(8)
        data = Dataset(X=X, y=y, names=tuple(f"x{i}" for i in range(12)))
        frontier = run_moga(data, GAConfig(iterations=300, seed=0)).frontier
        assert frontier.complexities == tuple(range(8))
        assert frontier.at_complexity(7).objective.error == 0.0
        scan = criteria_scan(frontier, data.n)
        for row in scan.rows:
            assert (row.aic is None) == (row.complexity >= 7)
            assert (row.bic is None) == (row.complexity >= 7)
        finite = [r for r in scan.rows if r.aic is not None]
        assert scan.aic_argmin == min(finite, key=lambda r: r.aic).complexity
        assert scan.bic_argmin == min(finite, key=lambda r: r.bic).complexity
        assert scan.aic_argmin < 7 and scan.bic_argmin < 7

    def test_single_model_frontier(self):
        scan = criteria_scan(frontier_of([(2, 0.7)]), n=20)
        assert scan.aic_argmin == 2 and scan.bic_argmin == 2

    def test_empty_frontier_rejected(self):
        with pytest.raises(ValueError):
            criteria_scan(Frontier(models=()), n=10)


def eval_model(mask_bits, intercept, coefs, error):
    mask = np.array(mask_bits, dtype=bool)
    return EvaluatedModel(
        mask=mask,
        objective=ObjectiveVector(complexity=int(mask.sum()), error=error),
        intercept=intercept,
        coefficients=np.array(coefs, dtype=float),
    )


class TestKappaMetric:
    def test_hand_computed_average(self):
        f1 = Frontier.from_models(
            [
                eval_model([True, False], 0.5, [2.0], 5.0),
                eval_model([True, True], 0.0, [1.0, 1.0], 4.0),
            ]
        )
        d1 = Dataset(
            X=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            y=np.array([1.0, 2.0, 3.0]),
            names=("a", "b"),
        )
        # scores: mask {a}: preds (2.5, .5, 2.5) -> mse 4.75/3
        #         mask {a,b}: preds (1, 1, 2)    -> mse 2/3
        f2 = Frontier.from_models([eval_model([False, True], 1.0, [3.0], 2.0)])
        d2 = Dataset(
            X=np.array([[2.0, 2.0], [1.0, 0.0]]),
            y=np.array([7.0, 1.0]),
            names=("a", "b"),
        )
        got = kappa_metric([f1, f2], [d1, d2], 1, 2)
        want = ((4.75 / 3 + 2.0 / 3) / 2 + 0.0) / 2
        assert abs(got - want) < 1e-12

    def test_band_filters_models(self):
        f1 = Frontier.from_models(
            [
                eval_model([True, False], 0.5, [2.0], 5.0),
                eval_model([True, True], 0.0, [1.0, 1.0], 4.0),
            ]
        )
        d1 = Dataset(
            X=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            y=np.array([1.0, 2.0, 3.0]),
            names=("a", "b"),
        )
        got = kappa_metric([f1], [d1], 2, 2)
        assert abs(got - 2.0 / 3) < 1e-12

    def test_errors(self):
        f = Frontier.from_models([eval_model([True, False], 0.0, [1.0], 1.0)])
        d = Dataset(
            X=np.array([[1.0, 2.0], [3.0, 4.0]]),
            y=np.array([0.0, 1.0]),
            names=("a", "b"),
        )
        with pytest.raises(ValueError):
            kappa_metric([], [], 0, 1)
        with pytest.raises(ValueError):
            kappa_metric([f], [d, d], 0, 1)
        with pytest.raises(ValueError):
            kappa_metric([f], [d], 2, 1)
        with pytest.raises(ValueError):
            kappa_metric([f], [d], 2, 2)  # nothing in band
        d3 = Dataset(
            X=np.ones((2, 3)), y=np.array([0.0, 1.0]), names=("a", "b", "c")
        )
        with pytest.raises(ValueError):
            kappa_metric([f], [d3], 1, 1)


class TestOSPlot:
    def test_csv_rows_and_roundtrip(self):
        f = frontier_of([(0, 2.0), (1, 0.5), (3, 0.25)])
        snap = Snapshot(generation=5, complexities=(2, 2, 4), errors=(1.0, 1.5, 0.8))
        plot = os_plot(f, snapshots=[snap])
        lines = plot.csv.strip().split("\n")
        assert lines[0] == "series,complexity,error"
        assert len(lines) == 1 + 3 + 3
        assert plot.series_names == ("gen 5", "frontier")
        for line in lines[1:]:
            series, c, e = line.split(",")
            assert series in plot.series_names
            int(c)
            assert float(e) == float(repr(float(e)))

    def test_svg_structure(self):
        f = frontier_of([(0, 2.0), (1, 0.5), (3, 0.25)])
        plot = os_plot(f)
        root = ET.fromstring(plot.svg)
        assert root.tag.endswith("svg")
        ns = "{http://www.w3.org/2000/svg}"
        circles = root.findall(f"{ns}circle")
        assert len(circles) == 3
        assert len(root.findall(f"{ns}polyline")) == 1
        texts = [t.text for t in root.findall(f"{ns}text")]
        assert "frontier" in texts

    def test_single_point_has_no_polyline(self):
        plot = os_plot(frontier_of([(1, 0.5)]))
        assert "polyline" not in plot.svg

    def test_log_y_requires_positive(self):
        with pytest.raises(ValueError):
            os_plot(frontier_of([(0, 1.0), (1, 0.0)]), log_y=True)
        plot = os_plot(frontier_of([(0, 100.0), (1, 0.01)]), log_y=True)
        assert "log10 error" in plot.svg

    def test_empty_frontier_rejected(self):
        with pytest.raises(ValueError):
            os_plot(Frontier(models=()))


def masked(bits, error):
    mask = np.array([b == "1" for b in bits])
    return EvaluatedModel(
        mask=mask,
        objective=ObjectiveVector(complexity=int(mask.sum()), error=error),
        intercept=0.0,
        coefficients=np.zeros(int(mask.sum())),
    )


class TestHSPlot:
    def build(self):
        models = [
            masked("00100", 3.0),
            masked("10100", 2.0),
            masked("10101", 1.0),
        ]
        return Frontier.from_models(models)

    def test_matrix_and_row_order(self):
        plot = hs_plot(self.build(), ("a", "b", "c", "d", "e"))
        # c enters first, then a, then e: rows sorted by first appearance
        assert plot.row_names == ("c", "a", "e")
        assert plot.complexities == (1, 2, 3)
        np.testing.assert_array_equal(
            plot.matrix,
            np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=bool),
        )

    def test_text_cells(self):
        plot = hs_plot(self.build(), ("a", "b", "c", "d", "e"))
        lines = plot.text.strip().split("\n")
        assert lines[0].startswith("variable")
        rows = [ln.split("|")[1].replace(" ", "") for ln in lines[2:]]
        assert rows == ["xxx", ".xx", "..x"]

    def test_first_seen_ties_break_by_name(self):
        models = [masked("01010", 2.0), masked("11011", 1.0)]
        plot = hs_plot(Frontier.from_models(models), ("p", "q", "r", "s", "t"))
        # q and s tie at complexity 2; alphabetical order settles it
        assert plot.row_names == ("q", "s", "p", "t")

    def test_range_restriction(self):
        plot = hs_plot(self.build(), ("a", "b", "c", "d", "e"), complexity_range=(2, 3))
        assert plot.complexities == (2, 3)
        assert plot.row_names == ("a", "c", "e")

    def test_svg_grid(self):
        plot = hs_plot(self.build(), ("a", "b", "c", "d", "e"))
        root = ET.fromstring(plot.svg)
        ns = "{http://www.w3.org/2000/svg}"
        rects = root.findall(f"{ns}rect")
        assert len(rects) == 1 + 3 * 3  # background + grid cells

    def test_errors(self):
        with pytest.raises(ValueError):
            hs_plot(self.build(), ("a", "b"))
        with pytest.raises(ValueError):
            hs_plot(self.build(), ("a", "b", "c", "d", "e"), complexity_range=(9, 9))
