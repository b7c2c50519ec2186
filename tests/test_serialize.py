import json
import math

import numpy as np
import pytest

from paretoreg.baselines import Trajectory
from paretoreg.data import (
    EvaluatedModel,
    ObjectiveVector,
    mask_from_string,
    mask_to_string,
)
from paretoreg.moga import Snapshot
from paretoreg.pareto import Frontier
from paretoreg.serialize import (
    FRONTIER_SCHEMA,
    frontier_csv,
    frontier_from_dict,
    frontier_to_dict,
    read_frontier_json,
    snapshots_csv,
    snapshots_from_csv,
    trajectory_csv,
    trajectory_to_dict,
    truth_to_dict,
    write_frontier_json,
)
from paretoreg.simdata import gen_additive


def model(bits, error, intercept, coefs):
    mask = np.array([b == "1" for b in bits])
    return EvaluatedModel(
        mask=mask,
        objective=ObjectiveVector(complexity=int(mask.sum()), error=error),
        intercept=intercept,
        coefficients=np.array(coefs, dtype=np.float64),
    )


@pytest.fixture
def awkward_frontier():
    # values chosen to expose any formatting loss: shortest-repr floats,
    # huge and tiny magnitudes, negative intercepts
    return Frontier.from_models(
        [
            model("0000", 1.0 / 3.0, 1e300, []),
            model("0100", 0.1 + 0.2, -math.pi, [5e-324]),
            model("0110", 1e-300, 0.0, [1.0 / 7.0, -2.5e108]),
        ]
    )


NAMES = ("a", "b", "c", "d")


class TestFrontierDocRoundTrip:
    def test_dict_round_trip_is_exact(self, awkward_frontier):
        doc = frontier_to_dict(
            awkward_frontier,
            NAMES,
            target="y",
            n=77,
            config={"seed": 3, "iterations": 10},
            stats={"evaluations": 123},
        )
        back = frontier_from_dict(json.loads(json.dumps(doc)))
        assert back.names == NAMES
        assert back.target == "y"
        assert back.n == 77
        assert back.config == {"seed": 3, "iterations": 10}
        assert back.stats == {"evaluations": 123}
        assert len(back.frontier) == len(awkward_frontier)
        for got, want in zip(back.frontier, awkward_frontier):
            assert got.objective == want.objective  # bit-for-bit floats
            assert got.intercept == want.intercept
            assert np.array_equal(got.mask, want.mask)
            assert got.coefficients.tolist() == want.coefficients.tolist()

    def test_file_round_trip(self, awkward_frontier, tmp_path):
        path = tmp_path / "frontier.json"
        doc = frontier_to_dict(awkward_frontier, NAMES, "y", 10, {}, {})
        write_frontier_json(str(path), doc)
        text = path.read_text()
        assert text.endswith("\n")
        assert '"schema"' in text
        back = read_frontier_json(str(path))
        assert [m.objective for m in back.frontier] == [
            m.objective for m in awkward_frontier
        ]

    def test_variables_follow_mask(self, awkward_frontier):
        doc = frontier_to_dict(awkward_frontier, NAMES, "y", 10, {}, {})
        assert doc["models"][2]["variables"] == ["b", "c"]
        assert doc["models"][2]["mask"] == "0110"
        assert doc["schema"] == FRONTIER_SCHEMA

    def test_unknown_schema_rejected(self, awkward_frontier):
        doc = frontier_to_dict(awkward_frontier, NAMES, "y", 10, {}, {})
        doc["schema"] = "something/9"
        with pytest.raises(ValueError):
            frontier_from_dict(doc)

    @pytest.mark.parametrize("drop", ["models", "data", "mask", "coefficients"])
    def test_missing_field_rejected_by_name(self, awkward_frontier, drop):
        doc = frontier_to_dict(awkward_frontier, NAMES, "y", 10, {}, {})
        if drop in doc:
            del doc[drop]
        else:
            del doc["models"][1][drop]
        with pytest.raises(ValueError, match=f"no '{drop}' field"):
            frontier_from_dict(doc)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("models", lambda doc: doc.update(models=None)),
            ("mask", lambda doc: doc["models"][1].update(mask=5)),
            ("error", lambda doc: doc["models"][0].update(error=None)),
            ("coefficients", lambda doc: doc["models"][2].update(coefficients="1,2")),
            ("data", lambda doc: doc.update(data=None)),
            ("names", lambda doc: doc["data"].update(names=3)),
            ("n", lambda doc: doc["data"].update(n=None)),
            ("config", lambda doc: doc.update(config=None)),
        ],
    )
    def test_wrong_field_type_rejected_by_name(self, awkward_frontier, field, edit):
        doc = frontier_to_dict(awkward_frontier, NAMES, "y", 10, {}, {})
        edit(doc)
        with pytest.raises(ValueError, match=f"frontier field '{field}' is malformed"):
            frontier_from_dict(doc)

    @pytest.mark.parametrize("names", [NAMES[:3], NAMES + ("e",)])
    def test_names_must_match_mask_length(self, awkward_frontier, names):
        doc = frontier_to_dict(awkward_frontier, NAMES, "y", 10, {}, {})
        doc["data"]["names"] = list(names)
        with pytest.raises(ValueError, match=f"{len(names)} names for masks of length 4"):
            frontier_from_dict(doc)


class TestFrontierCsv:
    def test_rows_parse_and_round_trip(self, awkward_frontier):
        text = frontier_csv(awkward_frontier, NAMES)
        lines = text.strip().split("\n")
        assert lines[0] == "complexity,error,intercept,mask,variables,coefficients"
        assert len(lines) == 1 + len(awkward_frontier)
        for line, m in zip(lines[1:], awkward_frontier):
            c, err, b0, mask_s, variables, coefs = line.split(",")
            assert int(c) == m.objective.complexity
            assert float(err) == m.objective.error
            assert float(b0) == m.intercept
            assert np.array_equal(mask_from_string(mask_s), m.mask)
            got_coefs = [float(v) for v in coefs.split(";") if v]
            assert got_coefs == m.coefficients.tolist()


class TestTrajectorySerialisation:
    def build(self):
        steps = (
            model("1000", 2.0, 0.1, [1.0]),
            model("1100", 1.0, 0.2, [1.0, 2.0]),
        )
        return Trajectory(method="forward", steps=steps, final=steps[-1])

    def test_dict_layout(self):
        doc = trajectory_to_dict(self.build(), NAMES)
        assert doc["schema"] == "paretoreg-trajectory/1"
        assert doc["method"] == "forward"
        assert [d["complexity"] for d in doc["steps"]] == [1, 2]
        assert doc["final"]["mask"] == "1100"

    def test_csv_layout(self):
        text = trajectory_csv(self.build(), NAMES)
        lines = text.strip().split("\n")
        assert lines[0] == "step,complexity,error,mask,variables"
        assert lines[1].startswith("1,1,")
        assert lines[2].startswith("2,2,")
        assert lines[2].endswith("1100,a;b")


class TestTruthSerialisation:
    def test_round_trip(self):
        _, truth = gen_additive(5, seed=2, noise_sd=0.35)
        doc = json.loads(json.dumps(truth_to_dict(truth)))
        assert doc["schema"] == "paretoreg-truth/1"
        assert tuple(doc["terms"]) == truth.names
        assert tuple(doc["space_names"]) == truth.space_names
        assert doc["coefficients"] == truth.coefficients.tolist()
        assert doc["intercept"] == truth.intercept
        assert doc["noise_sd"] == truth.noise_sd
        assert doc["mask"] == mask_to_string(truth.mask)


class TestSnapshotsCsv:
    def test_round_trip(self):
        snaps = (
            Snapshot(generation=0, complexities=(1, 2), errors=(0.5, 1.0 / 3.0)),
            Snapshot(generation=10, complexities=(3,), errors=(1e-17,)),
        )
        text = snapshots_csv(snaps)
        lines = text.strip().split("\n")
        assert lines[0] == "generation,complexity,error"
        assert len(lines) == 4
        back = snapshots_from_csv(text)
        assert back == snaps

    def test_empty(self):
        assert snapshots_from_csv(snapshots_csv(())) == ()

    @pytest.mark.parametrize("bad", ["0,2", "0,2,0.5,7", "0,two,0.5"])
    def test_malformed_row_names_its_line(self, bad):
        text = f"generation,complexity,error\n0,1,0.75\n{bad}\n"
        with pytest.raises(ValueError, match=f"snapshots line 3: .*{bad!r}"):
            snapshots_from_csv(text)
