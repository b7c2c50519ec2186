import numpy as np
import pytest

from paretoreg.data import (
    Dataset,
    EvaluatedModel,
    ObjectiveVector,
    load_csv,
    mask_complexity,
    mask_from_string,
    mask_to_string,
    save_csv,
)


class TestMasks:
    def test_round_trip(self):
        for bits in ("0", "1", "01011", "1" * 40):
            assert mask_to_string(mask_from_string(bits)) == bits

    def test_from_string_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mask_from_string("")
        with pytest.raises(ValueError):
            mask_from_string("0121")

    def test_complexity(self):
        assert mask_complexity(mask_from_string("00000")) == 0
        assert mask_complexity(mask_from_string("01011")) == 3
        assert mask_complexity(mask_from_string("01011"), count_intercept=True) == 4

    def test_accepts_int_arrays(self):
        assert mask_complexity(np.array([0, 1, 1])) == 2
        with pytest.raises(ValueError):
            mask_complexity(np.array([0, 2, 1]))


class TestDataset:
    def test_basic_properties(self):
        d = Dataset(X=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], y=[1.0, 2.0, 3.0], names=["a", "b"])
        assert d.n == 3 and d.k == 2
        assert d.X.flags.f_contiguous
        assert not d.X.flags.writeable
        assert not d.y.flags.writeable

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Dataset(X=[[1.0], [2.0]], y=[1.0], names=["a"])  # length mismatch
        with pytest.raises(ValueError):
            Dataset(X=[[1.0], [2.0]], y=[1.0, 2.0], names=["a", "b"])
        with pytest.raises(ValueError):
            Dataset(X=[[1.0], [2.0]], y=[1.0, 2.0], names=["a"], target_name="a")
        with pytest.raises(ValueError):
            Dataset(X=[[1.0, 2.0], [3.0, 4.0]], y=[1.0, 2.0], names=["a", "a"])
        with pytest.raises(ValueError):
            Dataset(X=[[np.inf], [2.0]], y=[1.0, 2.0], names=["a"])

    def test_validate_mask(self):
        d = Dataset(X=[[1.0, 2.0], [3.0, 4.0]], y=[1.0, 2.0], names=["a", "b"])
        out = d.validate_mask([True, False])
        assert out.dtype == np.bool_
        with pytest.raises(ValueError):
            d.validate_mask([True])


class TestEvaluatedModel:
    def test_consistency_checks(self):
        m = EvaluatedModel(
            mask=np.array([True, False, True]),
            objective=ObjectiveVector(2, 1.5),
            intercept=0.5,
            coefficients=np.array([1.0, -2.0]),
        )
        assert m.complexity == 2 and m.error == 1.5
        assert m.selected_names(["a", "b", "c"]) == ("a", "c")
        assert m.mask_key() == np.array([True, False, True]).tobytes()

    def test_mismatches_rejected(self):
        with pytest.raises(ValueError):
            EvaluatedModel(
                mask=np.array([True, False]),
                objective=ObjectiveVector(2, 1.0),
                intercept=0.0,
                coefficients=np.array([1.0]),
            )
        with pytest.raises(ValueError):
            EvaluatedModel(
                mask=np.array([True, False]),
                objective=ObjectiveVector(1, 1.0),
                intercept=0.0,
                coefficients=np.array([1.0, 2.0]),
            )


class TestCsv:
    def _write(self, path, text):
        path.write_text(text)
        return str(path)

    def test_round_trip_exact(self, tmp_path):
        gen = np.random.default_rng(3)
        d = Dataset(
            X=gen.standard_normal((5, 3)) * 1e-7,
            y=gen.standard_normal(5) * 1e8,
            names=["alpha", "beta", "gamma"],
            target_name="resp",
        )
        path = tmp_path / "data.csv"
        save_csv(d, str(path))
        back = load_csv(str(path), "resp")
        assert back.names == d.names
        assert back.target_name == "resp"
        np.testing.assert_array_equal(back.X, d.X)
        np.testing.assert_array_equal(back.y, d.y)

    def test_save_is_deterministic(self, tmp_path):
        gen = np.random.default_rng(4)
        d = Dataset(X=gen.standard_normal((4, 2)), y=gen.standard_normal(4), names=["a", "b"])
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        save_csv(d, str(p1))
        save_csv(d, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_headerless_auto_names(self, tmp_path):
        path = self._write(tmp_path / "plain.csv", "1,2,3\n4,5,6\n7,8,9\n")
        d = load_csv(path, "x3", header=False)
        assert d.names == ("x1", "x2")
        np.testing.assert_array_equal(d.y, [3.0, 6.0, 9.0])

    def test_missing_target(self, tmp_path):
        path = self._write(tmp_path / "t.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="target"):
            load_csv(path, "zz")

    def test_duplicate_columns(self, tmp_path):
        path = self._write(tmp_path / "t.csv", "a,a,y\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(path, "y")

    def test_too_few_rows(self, tmp_path):
        path = self._write(tmp_path / "t.csv", "a,y\n1,2\n")
        with pytest.raises(ValueError, match="2 data rows"):
            load_csv(path, "y")

    def test_bad_cell_reports_location(self, tmp_path):
        path = self._write(tmp_path / "t.csv", "a,y\n1,2\nfoo,4\n")
        with pytest.raises(ValueError, match=r"line 3.*'a'"):
            load_csv(path, "y")

    def test_empty_cell_reports_location(self, tmp_path):
        path = self._write(tmp_path / "t.csv", "a,y\n1,2\n,4\n")
        with pytest.raises(ValueError, match=r"empty cell at line 3"):
            load_csv(path, "y")

    def test_ragged_row(self, tmp_path):
        path = self._write(tmp_path / "t.csv", "a,y\n1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path, "y")

    def test_non_finite_rejected(self, tmp_path):
        path = self._write(tmp_path / "t.csv", "a,y\n1,2\ninf,4\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(str(tmp_path / "nope.csv"), "y")

    def test_scientific_notation(self, tmp_path):
        path = self._write(tmp_path / "t.csv", "a,y\n1e-3,2\n-2.5E+2,4\n")
        d = load_csv(path, "y")
        np.testing.assert_allclose(d.X[:, 0], [1e-3, -250.0])
