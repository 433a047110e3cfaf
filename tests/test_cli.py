import json

import pytest

from fairflow import cli
from fairflow.cli import main
from fairflow.core import replace
from fairflow.errors import InternalCertificateFailure
from fairflow.jsonio import problem_to_json

from conftest import build, subcommands


@pytest.fixture
def asym_file(tmp_path, asym):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(problem_to_json(asym)))
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path):
    problem = build(2, [(0, 1)], [0], [1], [-2, 2], focus=[0])
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(problem_to_json(problem)))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path, triangle_unbounded):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(problem_to_json(triangle_unbounded)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_decmin(self, capsys, asym_file):
        code, out, _ = run(capsys, "decmin", asym_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["values"] == [2, 1, 3]
        assert payload["F_profile_sorted_desc"] == [2, 1]

    def test_decmin_trace(self, capsys, asym_file):
        code, out, _ = run(capsys, "decmin", asym_file, "--trace")
        payload = json.loads(out)
        assert code == 0
        assert payload["rounds"][0]["beta"] == 2

    def test_feasible(self, capsys, asym_file):
        code, out, _ = run(capsys, "feasible", asym_file)
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_feasible_infeasible_exit_code(self, capsys, infeasible_file):
        code, out, _ = run(capsys, "feasible", infeasible_file)
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "infeasible"
        assert payload["violating_set"] == [1]
        assert payload["deficiency"] == 1

    def test_violating_set(self, capsys, infeasible_file):
        code, out, _ = run(capsys, "violating-set", infeasible_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["set"] == [1] and payload["deficiency"] == 1

    def test_beta(self, capsys, asym_file):
        code, out, _ = run(capsys, "beta", asym_file, "--trace")
        payload = json.loads(out)
        assert code == 0
        assert payload["beta"] == 2
        assert payload["level_set"] == [0]
        assert payload["nd_trace"]["mu_min"] == 1

    def test_narrow_box_trace(self, capsys, asym_file):
        code, out, _ = run(capsys, "narrow-box", asym_file, "--trace")
        assert code == 0
        first, last = json.loads(out)["rounds"]
        assert (first["beta"], first["level_set"], first["narrowed"]) == (2, [0], [0])
        assert first["chain"] == [[1, 2]]
        assert first["nd_trace"] == {
            "iterations": [{"mu": 0, "argmax": [1, 2], "p": 1, "b": 1}],
            "mu_min": 1,
        }
        assert (last["beta"], last["chain"], last["removed_tight"]) == (None, None, [1])
        assert "nd_trace" not in last

    def test_narrow_box(self, capsys, asym_file):
        code, out, _ = run(capsys, "narrow-box", asym_file)
        payload = json.loads(out)
        assert code == 0
        assert payload["f_star"] == [1, 1, 0]
        assert payload["g_star"] == [2, 1, 4]

    def test_cheapest_decmin(self, capsys, tmp_path, asym):
        priced = replace(asym, cost=(1, 0, 0))
        path = tmp_path / "priced.json"
        path.write_text(json.dumps(problem_to_json(priced)))
        code, out, _ = run(capsys, "cheapest-decmin", str(path))
        payload = json.loads(out)
        assert code == 0
        assert payload["values"] == [2, 1, 3]
        assert payload["cost"] == 2

    def test_incmax(self, capsys, asym_file):
        code, out, _ = run(capsys, "incmax", asym_file)
        payload = json.loads(out)
        assert code == 0
        assert sorted(payload["F_profile_sorted_desc"], reverse=True) == [2, 1]

    def test_exists_no_decmin(self, capsys, triangle_file):
        code, out, _ = run(capsys, "exists", triangle_file)
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "no-decmin"
        assert len(payload["witness_circuit"]) == 3

    def test_exists_ok(self, capsys, asym_file):
        code, out, _ = run(capsys, "exists", asym_file)
        assert code == 0
        assert json.loads(out)["exists"] is True

    def test_decmin_on_unbounded_problem(self, capsys, triangle_file):
        code, out, _ = run(capsys, "decmin", triangle_file)
        assert code == 1
        assert json.loads(out)["status"] == "no-decmin"

    def test_verify_roundtrip(self, capsys, tmp_path, asym_file):
        code, out, _ = run(capsys, "decmin", asym_file)
        flow_path = tmp_path / "flow.json"
        flow_path.write_text(out)
        code, out, _ = run(capsys, "verify", asym_file, "--flow", str(flow_path))
        payload = json.loads(out)
        assert code == 0
        assert payload["decmin"] is True
        assert payload["potential"]
        assert payload["levels"]

    def test_verify_rejects_unfair_flow(self, capsys, tmp_path, asym_file):
        flow_path = tmp_path / "bad.json"
        flow_path.write_text(json.dumps({"values": [3, 0, 3]}))
        code, out, _ = run(capsys, "verify", asym_file, "--flow", str(flow_path))
        payload = json.loads(out)
        assert code == 0
        assert payload["decmin"] is False
        assert payload["improving_circuit"]

    def test_oracle_enumerate(self, capsys, asym_file):
        code, out, _ = run(capsys, "oracle", "enumerate", asym_file)
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 2

    def test_oracle_decmin_with_limits(self, capsys, asym_file):
        code, out, _ = run(
            capsys, "oracle", "decmin", asym_file, "--limits", "max_box_width=10"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["F_profile_sorted_desc"] == [2, 1]

    def test_report_csv(self, capsys, asym_file):
        code, out, _ = run(capsys, "report", asym_file)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "round,beta,L_size,L_prime_size,F_remaining,chain_depth"
        assert lines[1].startswith("0,2,1,1,")


class TestErrors:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "decmin", "/nonexistent.json")
        assert code == 2
        assert "input" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "decmin", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_bad_field_named(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nodes": 2, "supply": [0, 0], "edges": [
            {"tail": 0, "head": 5, "lower": 0, "upper": 1, "inF": False}
        ]}))
        code, out, err = run(capsys, "decmin", str(path))
        assert code == 2
        assert "edges[0].head" in err
        assert json.loads(out)["status"] == "error"

    def test_determinism(self, capsys, asym_file):
        _, first, _ = run(capsys, "decmin", asym_file, "--trace")
        _, second, _ = run(capsys, "decmin", asym_file, "--trace")
        assert first == second

    @pytest.mark.parametrize("limit", ["max_edges", "depth=3", "max_edges=x"])
    def test_malformed_limits_are_input_errors(self, capsys, asym_file, limit):
        code, out, err = run(capsys, "oracle", "decmin", asym_file, "--limits", limit)
        assert code == 2
        assert json.loads(out)["status"] == "error"
        assert "--limits" in err

    def test_oracle_limit_error_is_input_error(self, capsys, tmp_path):
        problem = build(2, [(0, 1)], [0], [9], [0, 0])
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(problem_to_json(problem)))
        code, out, err = run(capsys, "oracle", "enumerate", str(path))
        assert code == 2
        assert json.loads(out)["status"] == "error"


class TestExitCodes:
    @pytest.mark.parametrize(
        "command", ["feasible", "decmin", "narrow-box", "cheapest-decmin", "report", "incmax"]
    )
    def test_infeasible_problem_exits_1_with_certificate(self, capsys, infeasible_file, command):
        # incmax solves the mirror problem but reports the input's set
        code, out, _ = run(capsys, command, infeasible_file)
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "infeasible"
        assert payload["violating_set"] == [1]
        assert payload["deficiency"] == 1
        assert payload["message"] == "no feasible flow: set [1] has deficiency 1"

    @pytest.mark.parametrize("command", ["decmin", "incmax"])
    def test_infeasible_problem_with_a_circuit_exits_1_as_infeasible(
        self, capsys, tmp_path, command
    ):
        # node 0 has no edge to send its unit on; the focus self-loop also
        # closes an unboundedness circuit, but infeasibility is reported
        problem = build(2, [(0, 0)], ["-inf"], ["+inf"], [-1, 1], focus=[0])
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(problem_to_json(problem)))
        code, out, _ = run(capsys, command, str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "infeasible"
        assert payload["violating_set"] == [1]
        assert payload["deficiency"] == 1

    def test_beta_on_infinite_focus_bound_is_input_error(self, capsys, tmp_path):
        problem = build(2, [(0, 1)], [0], ["+inf"], [-1, 1], focus=[0])
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps(problem_to_json(problem)))
        code, _, err = run(capsys, "beta", str(path))
        assert code == 2
        assert "edges[0]" in err

    def test_verify_infeasible_flow_is_input_error(self, capsys, tmp_path, asym_file):
        flow_path = tmp_path / "infeasible.json"
        flow_path.write_text(json.dumps({"values": [3, 1, 3]}))
        code, _, err = run(capsys, "verify", asym_file, "--flow", str(flow_path))
        assert code == 2
        assert "flow" in err and "not feasible" in err

    @pytest.mark.parametrize("role", ["problem", "flow"])
    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"[" * 100_000], ids=["undecodable", "deeply-nested"]
    )
    def test_unreadable_file_is_input_error(self, capsys, tmp_path, asym_file, role, content):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        if role == "problem":
            code, out, err = run(capsys, "decmin", str(path))
        else:
            code, out, err = run(capsys, "verify", asym_file, "--flow", str(path))
        assert code == 2
        assert "internal-error" not in out
        assert json.loads(out)["status"] == "error"
        assert str(path) in err

    @pytest.mark.parametrize(
        "error", [InternalCertificateFailure("broken chain"), ValueError("no path")]
    )
    def test_solver_failure_is_internal_error(self, capsys, monkeypatch, asym_file, error):
        def fail(problem):
            raise error

        monkeypatch.setattr(cli, "narrow_box", fail)
        code, out, err = run(capsys, "narrow-box", asym_file)
        assert code == 3
        assert json.loads(out)["status"] == "internal-error"
        assert type(error).__name__ in err


ROUNDS = [
    {
        "round": 0, "beta": 2, "level_set": [0], "narrowed": [0], "focus_next": [1],
        "removed_tight": [], "chain": [[1, 2]],
        "nd_trace": {"iterations": [{"mu": 0, "argmax": [1, 2], "p": 1, "b": 1}], "mu_min": 1},
    },
    {
        "round": 1, "beta": None, "level_set": [], "narrowed": [], "focus_next": [],
        "removed_tight": [1], "chain": None,
    },
]
FAIR = {"status": "ok", "values": [2, 1, 3], "F_profile_sorted_desc": [2, 1]}
CIRCUIT = [
    {"tail": 0, "head": 1, "origin": 0, "reversed": False},
    {"tail": 1, "head": 2, "origin": 1, "reversed": False},
    {"tail": 2, "head": 0, "origin": 2, "reversed": False},
]

# (argv, exit code, stdout): a dict is printed as `json.dumps(..., indent=2)`
# plus a newline, a str verbatim; file names resolve in the `golden` fixture
GOLDEN = [
    (["feasible", "asym"], 0,
     {"status": "ok", "values": [3, 0, 3], "F_profile_sorted_desc": [3, 0]}),
    (["violating-set", "asym"], 0, {"status": "ok", "set": [0, 1, 2], "deficiency": 0}),
    (["beta", "asym"], 0,
     {"status": "ok", "beta": 2, "level_set": [0], "removed_tight_edges": [],
      "clamped_upper": [2, 1, 4]}),
    (["narrow-box", "asym"], 0, {"status": "ok", "f_star": [1, 1, 0], "g_star": [2, 1, 4]}),
    (["decmin", "asym"], 0, FAIR),
    (["cheapest-decmin", "asym"], 0, {**FAIR, "cost": 0}),
    (["incmax", "asym"], 0, FAIR),
    (["exists", "asym"], 0, {"status": "ok", "exists": True}),
    (["report", "asym"], 0,
     "round,beta,L_size,L_prime_size,F_remaining,chain_depth\n0,2,1,1,1,1\n1,,0,0,0,0\n"),
    (["cheapest-decmin", "priced"], 0, {**FAIR, "cost": 2}),
    (["verify", "asym", "--flow", "fair"], 0,
     {"status": "ok", "decmin": True, "potential": [[0, -1, 0], [0, 0, 0], [0, 0, 0]],
      "levels": [2, 1, 0]}),
    (["verify", "asym", "--flow", "unfair"], 0,
     {"status": "ok", "decmin": False, "improving_circuit": [
         {"tail": 0, "head": 1, "forward": True, "origin": 1},
         {"tail": 1, "head": 0, "forward": False, "origin": 0},
     ]}),
    (["oracle", "enumerate", "asym"], 0,
     {"status": "ok", "count": 2, "flows": [[2, 1, 3], [3, 0, 3]]}),
    (["oracle", "decmin", "asym", "--limits", "max_box_width=10"], 0,
     {"status": "ok", "F_profile_sorted_desc": [2, 1], "flows": [[2, 1, 3]]}),
    (["beta", "asym", "--trace"], 0,
     {"status": "ok", "beta": 2, "level_set": [0], "removed_tight_edges": [],
      "clamped_upper": [2, 1, 4], "nd_trace": ROUNDS[0]["nd_trace"]}),
    (["narrow-box", "asym", "--trace"], 0,
     {"status": "ok", "f_star": [1, 1, 0], "g_star": [2, 1, 4], "rounds": ROUNDS}),
    (["decmin", "asym", "--trace"], 0, {**FAIR, "rounds": ROUNDS}),
    (["cheapest-decmin", "asym", "--trace"], 0, {**FAIR, "cost": 0, "rounds": ROUNDS}),
    (["feasible", "infeasible"], 1,
     {"status": "infeasible", "message": "no feasible flow: set [1] has deficiency 1",
      "violating_set": [1], "deficiency": 1}),
    (["decmin", "infeasible"], 1,
     {"status": "infeasible", "message": "no feasible flow: set [1] has deficiency 1",
      "violating_set": [1], "deficiency": 1}),
    (["exists", "triangle"], 1,
     {"status": "no-decmin", "message": "no dec-min flow exists", "witness_circuit": CIRCUIT}),
    (["decmin", "triangle"], 1,
     {"status": "no-decmin", "message": "no dec-min flow exists", "witness_circuit": CIRCUIT}),
    (["decmin", "malformed"], 2,
     {"status": "error", "message": "edges[0].head: node id 5 out of range"}),
]
TRACING = ["beta", "narrow-box", "decmin", "cheapest-decmin"]
# the other commands, with the arguments each needs besides the problem file
UNTRACED = [
    ["feasible"], ["violating-set"], ["incmax"], ["exists"], ["report"],
    ["verify", "--flow", "fair"], ["oracle", "enumerate"],
]


@pytest.fixture
def golden(tmp_path, asym, asym_file, infeasible_file, triangle_file):
    """Name -> path of every file the golden invocations read."""
    files = {"asym": asym_file, "infeasible": infeasible_file, "triangle": triangle_file}
    documents = {
        "priced": problem_to_json(replace(asym, cost=(1, 0, 0))),
        "fair": {"values": [2, 1, 3]},
        "unfair": {"values": [3, 0, 3]},
        "malformed": {"nodes": 2, "supply": [0, 0], "edges": [
            {"tail": 0, "head": 5, "lower": 0, "upper": 1, "inF": False}
        ]},
    }
    for name, document in documents.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(document))
    return files


class TestGolden:
    """Exact stdout, stderr and exit code of every kept invocation."""

    @pytest.mark.parametrize(
        "argv, code, stdout", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
    )
    def test_output_is_pinned(self, capsys, golden, argv, code, stdout):
        argv = [golden.get(arg, arg) for arg in argv]
        expected = stdout if isinstance(stdout, str) else json.dumps(stdout, indent=2) + "\n"
        stderr = "error: edges[0].head: node id 5 out of range\n" if code == 2 else ""
        assert run(capsys, *argv) == (code, expected, stderr)

    def test_every_command_is_pinned(self):
        commands = {argv[0] for argv, _, _ in GOLDEN}
        assert commands == set(subcommands(cli.build_parser()))
        assert {argv[0] for argv, _, _ in GOLDEN if "--trace" in argv} == set(TRACING)
        assert commands == set(TRACING) | {argv[0] for argv in UNTRACED}

    @pytest.mark.parametrize("argv", UNTRACED, ids=lambda argv: argv[0])
    def test_trace_is_a_usage_error_where_nothing_is_traced(self, capsys, golden, argv):
        err = usage_error(capsys, [golden.get(arg, arg) for arg in [*argv, "asym", "--trace"]])
        assert "unrecognized arguments: --trace" in err

    @pytest.mark.parametrize("argv", [[c] for c in TRACING] + UNTRACED, ids=lambda argv: argv[0])
    @pytest.mark.parametrize(
        "given, message",
        [(["--input", "asym"], "unrecognized arguments: --input"), ([], "required: input")],
        ids=["input-flag", "missing-file"],
    )
    def test_problem_file_is_one_required_positional(self, capsys, golden, argv, given, message):
        err = usage_error(capsys, [golden.get(arg, arg) for arg in [*argv, *given]])
        assert message in err


def usage_error(capsys, argv):
    """argparse's stderr for argv, which must exit 2 with nothing on stdout."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    return captured.err
