import pytest

from fairflow import NEG_INF, POS_INF, ProblemFormatError
from fairflow.jsonio import parse_flow, parse_problem, problem_to_json

from conftest import build


def asym_document():
    return {
        "nodes": 3,
        "supply": [-3, 0, 3],
        "edges": [
            {"tail": 0, "head": 1, "lower": 0, "upper": 3, "inF": True},
            {"tail": 0, "head": 1, "lower": 0, "upper": 1, "inF": True},
            {"tail": 1, "head": 2, "lower": 0, "upper": 4, "inF": False},
        ],
    }


class TestParse:
    def test_basic(self):
        problem = parse_problem(asym_document())
        assert problem.node_count == 3
        assert problem.focus == {0, 1}
        assert problem.cost is None

    def test_infinities(self):
        doc = asym_document()
        doc["edges"][0]["lower"] = "-inf"
        doc["edges"][2]["upper"] = "+inf"
        problem = parse_problem(doc)
        assert problem.lower[0] == NEG_INF
        assert problem.upper[2] == POS_INF

    def test_cost_default_zero(self):
        doc = asym_document()
        doc["edges"][1]["cost"] = 7
        problem = parse_problem(doc)
        assert problem.cost == (0, 7, 0)

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d.pop("nodes"), "nodes"),
            pytest.param(lambda d: d.update(nodes=0), "nodes", id="nodes-not-positive"),
            (lambda d: d.update(edges={}), "edges"),
            (lambda d: d["edges"].__setitem__(1, [0, 1]), "edges[1]"),
            (lambda d: d.update(supply=[1, 2]), "supply"),
            (lambda d: d.update(supply=[1, 1, 1]), "supply"),
            (lambda d: d["edges"][0].update(tail=9), "edges[0].tail"),
            (lambda d: d["edges"][1].update(lower="+inf"), "edges[1].lower"),
            (lambda d: d["edges"][2].update(upper="-inf"), "edges[2].upper"),
            (lambda d: d["edges"][0].update(lower=5), "edges[0].lower"),
            (lambda d: d["edges"][0].update(inF=1), "edges[0].inF"),
            (lambda d: d["edges"][2].update(cost=1.5), "edges[2].cost"),
        ],
    )
    def test_errors_name_first_bad_field(self, mutate, field):
        doc = asym_document()
        mutate(doc)
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(doc)
        assert err.value.field == field


    @pytest.mark.parametrize("document", [[], "nodes", 3, None])
    def test_document_must_be_an_object(self, document):
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(document)
        assert err.value.field == "$"


class TestRoundTrip:
    def test_problem(self, asym):
        assert parse_problem(problem_to_json(asym)) == asym

    def test_problem_with_infinities_and_costs(self):
        problem = build(
            3,
            [(0, 1), (1, 2)],
            ["-inf", 0],
            [4, "+inf"],
            [0, 0, 0],
            focus=[0],
            cost=[2, -1],
        )
        assert parse_problem(problem_to_json(problem)) == problem


class TestParseFlow:
    def test_bare_list(self):
        assert parse_flow([1, 2, 3], 3) == (1, 2, 3)

    def test_wrapped(self):
        assert parse_flow({"values": [1, 2]}, 2) == (1, 2)

    def test_wrong_length(self):
        with pytest.raises(ProblemFormatError):
            parse_flow([1], 2)
