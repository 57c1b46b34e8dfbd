from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import DATA_DIR, SUITE_DIR
from ice.bench import BenchSpec, run_bench
from ice.cli import main
from ice.consolidate import DEMONSTRATIONS
from ice.engine import RunConfig, RunMode
from ice.errors import HttpBackendError, PlanParseError, TaskAborted
from ice.llm import LlmBackend
from ice.memory import ExperienceMemory
from ice.pipeline import dumps_pipeline, pipeline_from_dict
from ice.trajectory import Step, StepOutcome, Trajectory, TrajectoryStatus, write_trajectory_log
from helpers import g, scripted

SCENARIO = str(SUITE_DIR / "scenario.json")
TRAIN_TASKS = sorted(str(p) for p in (SUITE_DIR / "tasks").glob("train_*.json"))
TEST_TASK = str(SUITE_DIR / "tasks" / "test_solar_markets.json")


def test_usage_error_exits_one(capsys):
    assert main([]) == 1
    assert main(["bench"]) == 1  # --config is required
    capsys.readouterr()


def test_train_writes_memory_and_reports(tmp_path, capsys):
    memory_path = tmp_path / "memory.json"
    out_path = tmp_path / "train.json"
    code = main([
        "train", *TRAIN_TASKS[:2],
        "--backend", f"scripted:{SCENARIO}",
        "--memory", str(memory_path),
        "--out", str(out_path),
    ])
    assert code == 0
    capsys.readouterr()
    snapshot = json.loads(memory_path.read_text())
    kinds = [r["kind"] for r in snapshot["records"]]
    assert kinds.count("pipeline") >= 1 and kinds.count("workflow") >= 1
    report = json.loads(out_path.read_text())
    assert len(report["reports"]) == 2 and report["failures"] == []


def test_train_with_no_tasks_is_a_clean_empty_run(tmp_path, capsys):
    memory_path = tmp_path / "memory.json"
    code = main([
        "train",
        "--backend", f"scripted:{SCENARIO}",
        "--memory", str(memory_path),
        "--out", str(tmp_path / "out.json"),
    ])
    assert code == 0
    capsys.readouterr()
    assert json.loads(memory_path.read_text())["records"] == []


def test_train_rerun_with_same_inputs_is_byte_identical(tmp_path, capsys):
    paths = []
    for name in ("a", "b"):
        memory_path = tmp_path / f"memory_{name}.json"
        main([
            "train", *TRAIN_TASKS,
            "--backend", f"scripted:{SCENARIO}",
            "--memory", str(memory_path),
            "--out", str(tmp_path / f"out_{name}.json"),
        ])
        paths.append(memory_path)
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_against_a_scenario_without_a_matching_rule_exits_three(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text("[]")
    code = main(["train", TRAIN_TASKS[0], "--backend", f"scripted:{scenario}",
                 "--out", str(tmp_path / "out.json")])
    assert code == 3
    capsys.readouterr()


def test_run_against_a_scenario_without_a_matching_rule_exits_three(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text("[]")
    code = main(["run", str(SUITE_DIR / "tasks" / "test_solar_markets.json"),
                 "--backend", f"scripted:{scenario}"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: backend failure: ")


def aborted_by(cause):
    error = TaskAborted("task stopped")
    error.__cause__ = cause
    return error


@pytest.mark.parametrize("error, code", [
    (PlanParseError("repair limit exhausted: the backend reply names no subgoals"), 2),
    (aborted_by(HttpBackendError("status 503")), 3),
], ids=["parse-error-mentioning-backend", "aborted-by-http-error"])
def test_train_exit_code_follows_the_error_type(tmp_path, capsys, monkeypatch, error, code):
    def failing_run_task(*args, **kwargs):
        raise error

    monkeypatch.setattr("ice.cli.run_task", failing_run_task)
    assert main(["train", TRAIN_TASKS[0], "--backend", f"scripted:{SCENARIO}",
                 "--out", str(tmp_path / "out.json")]) == code
    capsys.readouterr()


MALFORMED_TASKS = {
    "no-goal": {"id": "t"},
    "list": [],
    "integer-milestone": {"id": "t", "goal": "g", "milestones": {"a": [5]}},
    "string-milestones": {"id": "t", "goal": "g", "milestones": {"a": "file_exists:x"}},
    "unparseable-milestone": {"id": "t", "goal": "g", "milestones": {"a": ["bogus"]}},
    "custom-milestone": {"id": "t", "goal": "g", "milestones": {"a": ["custom:has_notes"]}},
    "integer-env-setup-entry": {"id": "t", "goal": "g", "env_setup": [5]},
    "string-file-entry": {"id": "t", "goal": "g", "env_setup": [{"file": "x"}]},
}


@pytest.mark.parametrize("doc", list(MALFORMED_TASKS.values()), ids=list(MALFORMED_TASKS))
def test_run_of_a_malformed_task_file_exits_one(tmp_path, capsys, doc):
    path = tmp_path / "task.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--backend", f"scripted:{SCENARIO}"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("dataset, records, shape", [
    ("documents", 5, "a list of strings"),
    ("documents", ["a", 5], "a list of strings"),
    ("products", ["A"], "an object"),
    ("reviews", "A: good", "an object"),
], ids=["integer-documents", "documents-holding-an-integer", "list-of-products",
        "string-reviews"])
def test_run_of_a_task_whose_tool_dataset_has_another_shape_exits_one(
        tmp_path, capsys, dataset, records, shape):
    """The suite's solar-markets task with its dataset fixture replaced; with
    ``documents`` 5 its first search used to end in a TypeError."""
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(records))
    task = json.loads(Path(TEST_TASK).read_text(encoding="utf-8"))
    task["env_setup"] = [{"dataset": dataset, "fixture": fixture.name}]
    path = tmp_path / "task.json"
    path.write_text(json.dumps(task))
    assert main(["run", str(path), "--backend", f"scripted:{SCENARIO}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {fixture}: env_setup dataset {dataset!r} must be {shape}\n"


MALFORMED_SCENARIOS = {
    "object": {},
    "integer-rule": [5],
    "rule-without-a-response": [{"match": "x"}],
    "integer-match": [{"match": 5, "response": "r"}],
    "unbalanced-regex": [{"match": "(", "response": "r", "regex": True}],
    "string-max-uses": [{"match": "", "response": "r", "max_uses": "2"}],
}


@pytest.mark.parametrize("doc", list(MALFORMED_SCENARIOS.values()),
                         ids=list(MALFORMED_SCENARIOS))
def test_run_against_a_malformed_scenario_exits_one_before_any_backend_call(
        tmp_path, capsys, monkeypatch, doc):
    def no_call(*args):
        raise AssertionError("the backend was called")

    monkeypatch.setattr("ice.llm.ScriptedBackend._complete", no_call)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert main(["run", TEST_TASK, "--backend", f"scripted:{scenario}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {scenario}: ")
    assert len(captured.err.splitlines()) == 1


def test_train_with_a_malformed_later_task_file_makes_no_backend_call(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "task.json"
    backend = scripted([])
    monkeypatch.setattr("ice.cli.build_backend", lambda spec: backend)
    # a dataset is checked when the task's environment is built, which ice
    # train does for every task before the first runs
    (tmp_path / "five.json").write_text("5")
    integer_documents = {"id": "t", "goal": "g",
                         "env_setup": [{"dataset": "documents", "fixture": "five.json"}]}
    memory = tmp_path / "memory.json"
    for name, doc in [("unparseable-milestone", MALFORMED_TASKS["unparseable-milestone"]),
                      ("integer-env-setup-entry", MALFORMED_TASKS["integer-env-setup-entry"]),
                      ("integer-documents", integer_documents)]:
        path.write_text(json.dumps(doc))
        assert main(["train", TRAIN_TASKS[0], str(path), "--backend", f"scripted:{SCENARIO}",
                     "--memory", str(memory), "--out", str(tmp_path / "out.json")]) == 1, name
        assert capsys.readouterr().err.startswith("error: "), name
        assert sum(backend.calls.values()) == 0, name
        assert not memory.exists(), name


@pytest.mark.parametrize("command, mode", [
    (["run", TEST_TASK], RunMode.EXPLOIT),
    (["train", TRAIN_TASKS[0]], RunMode.TRAIN),
], ids=["run", "train"])
@pytest.mark.parametrize("flags, expected", [
    ([], RunConfig()),
    (["--planning-ice", "--execution-ice", "--threshold-pipeline", "0.5",
      "--threshold-workflow", "0.25", "--max-react-steps", "3"],
     RunConfig(planning_ice=True, execution_ice=True, pipeline_threshold=0.5,
               workflow_threshold=0.25, max_react_steps=3)),
], ids=["omitted", "given"])
def test_run_flags_reach_the_run_config(capsys, monkeypatch, command, mode, flags, expected):
    seen = []

    def recording_run_task(task, memory, backend, config, environment=None):
        seen.append(config)
        raise TaskAborted("stopped after the config was seen")

    monkeypatch.setattr("ice.cli.run_task", recording_run_task)
    main([*command, "--backend", f"scripted:{SCENARIO}", *flags])
    capsys.readouterr()
    assert seen == [replace(expected, mode=mode)]


def test_run_single_task_in_exploit_mode(tmp_path, capsys):
    memory_path = tmp_path / "memory.json"
    main(["train", *TRAIN_TASKS, "--backend", f"scripted:{SCENARIO}",
          "--memory", str(memory_path)])
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    code = main([
        "run", str(SUITE_DIR / "tasks" / "test_solar_markets.json"),
        "--backend", f"scripted:{SCENARIO}",
        "--memory", str(memory_path),
        "--planning-ice", "--execution-ice",
        "--out", str(report_path),
    ])
    assert code == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["counters"]["all"] == 7
    assert all(o["method"] == "pipeline" for o in report["outcomes"])


def test_bench_command_writes_reports_and_is_deterministic(tmp_path, capsys):
    outs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        code = main(["bench", "--config", str(SUITE_DIR / "bench.json"),
                     "--out", str(out_dir)])
        assert code == 0
        outs.append(out_dir)
    captured = capsys.readouterr()
    assert "planning_execution" in captured.out
    for filename in ("bench_report.json", "bench_table.txt",
                     "memory_standard.json", "memory_planning_execution.json"):
        assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()
    report = json.loads((outs[0] / "bench_report.json").read_text())
    assert report["failures"] == []
    by_name = {a["arm"]["name"]: a["metrics"] for a in report["arms"]}
    assert by_name["standard"]["api_calls_all"] == 110
    assert by_name["planning_execution"]["api_calls_all"] == 38
    result = run_bench(BenchSpec.from_file(SUITE_DIR / "bench.json"))
    assert len(result.arms) == 6
    for arm in result.arms:
        expected = json.dumps(arm.memory_snapshot, indent=2, ensure_ascii=False) + "\n"
        written = (outs[0] / f"memory_{arm.arm.name}.json").read_bytes()
        assert written == expected.encode("utf-8")


def test_bench_against_missing_scenario_exits_three(tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "backend": "scripted:missing.json",
        "train_tasks": [], "test_tasks": [],
        "arms": [{"name": "only"}],
    }))
    assert main(["bench", "--config", str(config)]) == 3
    capsys.readouterr()


MALFORMED_BENCH_SPECS = {
    "empty-object": {},
    "list": [],
    "arm-without-a-name": {"backend": "scripted:scenario.json", "arms": [{"planning_ice": True}]},
    "threshold-above-one": {"backend": "scripted:scenario.json", "arms": [{"name": "a"}],
                            "pipeline_threshold": 1.5},
    "duplicate-arm-names": {"backend": "scripted:scenario.json",
                            "arms": [{"name": "a"}, {"name": "a", "planning_ice": True}]},
    "arm-name-with-a-slash": {"backend": "scripted:scenario.json", "arms": [{"name": "x/y"}]},
    "arm-name-with-a-nul": {"backend": "scripted:scenario.json", "arms": [{"name": "x\0y"}]},
}


@pytest.mark.parametrize("doc", list(MALFORMED_BENCH_SPECS.values()),
                         ids=list(MALFORMED_BENCH_SPECS))
def test_bench_of_a_malformed_spec_exits_one_before_any_arm_runs(
        tmp_path, capsys, monkeypatch, doc):
    def no_arm(*args):
        raise AssertionError("an arm ran")

    monkeypatch.setattr("ice.bench.run_arm", no_arm)
    config = tmp_path / "bench.json"
    config.write_text(json.dumps(doc))
    assert main(["bench", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {config}: ")
    assert len(captured.err.splitlines()) == 1


def test_bench_with_a_malformed_task_file_exits_one_before_any_backend_call(
        tmp_path, capsys, monkeypatch):
    """The file used to be read only when an arm reached it: with it last in
    the suite's test tasks, ``ice bench`` spent 911 calls, failed all six
    arms and exited 3."""
    calls = []
    complete = LlmBackend.complete

    def counted_complete(self, request):
        calls.append(request.tag)
        return complete(self, request)

    monkeypatch.setattr(LlmBackend, "complete", counted_complete)
    malformed = tmp_path / "malformed_task.json"
    malformed.write_text('{"id": "t"}')
    doc = json.loads((SUITE_DIR / "bench.json").read_text())
    doc["backend"] = f"scripted:{SCENARIO}"
    for key in ("train_tasks", "test_tasks"):
        doc[key] = [str(SUITE_DIR / path) for path in doc[key]]
    doc["test_tasks"].append(str(malformed))
    config = tmp_path / "bench.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {malformed}: ")
    assert len(captured.err.splitlines()) == 1
    assert calls == []
    assert not out.exists()


def demo_log(tmp_path):
    demo = DEMONSTRATIONS[0]
    traj = Trajectory(goal_id=g("1"))
    for tool, args, output in demo.tool_records:
        traj.record_step(Step(0, "t", tool, args, output, StepOutcome.OK))
    traj.finalize(TrajectoryStatus.SUCCESS)
    path = tmp_path / "trajectory.json"
    write_trajectory_log(str(path), traj, description=demo.query)
    return path


def test_consolidate_command_reproduces_the_golden_pipeline(tmp_path, capsys):
    log_path = demo_log(tmp_path)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps([{
        "match": f"Query: {DEMONSTRATIONS[0].query}",
        "response": json.loads(dumps_pipeline(DEMONSTRATIONS[0].pipeline)),
    }]))
    out = tmp_path / "pipeline.json"
    code = main(["consolidate", str(log_path),
                 "--backend", f"scripted:{scenario}", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    golden = (DATA_DIR / "pipelines" / "example_1.json").read_bytes()
    assert out.read_bytes() == golden
    # the emitted document revalidates clean
    from ice.pipeline import validate_document
    assert validate_document(json.loads(out.read_text())) == []


def test_consolidate_malformed_log_reports_line_number(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"goal_id": "1",\n  "steps": [oops]\n}')
    code = main(["consolidate", str(path), "--backend", "scripted:unused.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 2" in err


MALFORMED_LOGS = {
    "list": "[]",
    "integer-goal-id": '{"goal_id": 5}',
    "malformed-goal-id": '{"goal_id": "x-y"}',
    "integer-steps": '{"goal_id": "1", "steps": 5}',
    "step-without-a-tool-name": '{"goal_id": "1", "steps": [{"thought": "t"}]}',
    "deeply-nested": "[" * 100_000,
}


@pytest.mark.parametrize("text", list(MALFORMED_LOGS.values()), ids=list(MALFORMED_LOGS))
def test_consolidate_of_a_log_of_the_wrong_shape_exits_one(tmp_path, capsys, monkeypatch, text):
    backend = scripted([])
    monkeypatch.setattr("ice.cli.build_backend", lambda spec: backend)
    path = tmp_path / "log.json"
    path.write_text(text)
    assert main(["consolidate", str(path), "--backend", f"scripted:{SCENARIO}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert len(err.splitlines()) == 1
    assert sum(backend.calls.values()) == 0


def test_consolidate_backend_that_never_converges_exits_three(tmp_path, capsys):
    log_path = demo_log(tmp_path)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps([{"match": "", "response": "never json"}]))
    code = main(["consolidate", str(log_path), "--backend", f"scripted:{scenario}"])
    assert code == 3
    capsys.readouterr()


@pytest.fixture()
def trained_memory(tmp_path):
    memory_path = tmp_path / "memory.json"
    main(["train", *TRAIN_TASKS[:1], "--backend", f"scripted:{SCENARIO}",
          "--memory", str(memory_path)])
    return memory_path


def test_memory_list_prints_one_row_per_record(trained_memory, capsys):
    assert main(["memory", "list", "--memory", str(trained_memory)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    snapshot = json.loads(trained_memory.read_text())
    assert len(lines) == len(snapshot["records"]) == 4
    assert any("workflow" in line for line in lines)


def test_memory_list_with_query_shows_similarity(trained_memory, capsys):
    assert main(["memory", "list", "--memory", str(trained_memory),
                 "--query", "Collect background facts about solar markets"]) == 0
    out = capsys.readouterr().out
    assert "sim=" in out


def test_memory_show_prints_schema_json(trained_memory, capsys):
    assert main(["memory", "show", "1", "--memory", str(trained_memory)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"pipeline_name", "pipeline_purpose", "nodes", "edges"}


def test_memory_show_unknown_record_exits_one(trained_memory, capsys):
    assert main(["memory", "show", "999", "--memory", str(trained_memory)]) == 1
    capsys.readouterr()


def test_memory_export_round_trips(trained_memory, tmp_path, capsys):
    out_dir = tmp_path / "exported"
    assert main(["memory", "export", "--memory", str(trained_memory),
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    memory = ExperienceMemory.load(str(trained_memory))
    exported = sorted(out_dir.glob("pipeline_*.json"))
    pipelines = memory.records()
    assert len(exported) == 3
    for path in exported:
        record_id = int(path.stem.split("_")[1])
        stored = memory.get(record_id)
        assert path.read_text() == dumps_pipeline(pipeline_from_dict(stored.payload))


@pytest.mark.parametrize("command", [["show", "1"], ["export"]], ids=["show", "export"])
def test_memory_command_on_a_stored_pipeline_that_does_not_parse_exits_one(
        tmp_path, capsys, command):
    path = tmp_path / "memory.json"
    path.write_text(json.dumps({"version": 2, "dimension": 256, "records": [
        {"id": 1, "kind": "pipeline", "key_text": "k", "embedding": [],
         "payload": {"nodes": [], "edges": []}}]}))
    assert main(["memory", *command, "--memory", str(path),
                 "--out", str(tmp_path / "exported")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("snapshot", [
    [],
    {"version": 2, "records": []},
    {"version": 2, "dimension": 256, "records": [{"id": 1}]},
    {"version": 2, "dimension": 256, "records": [
        {"id": [1], "kind": "workflow", "key_text": "k", "embedding": [],
         "payload": {"entries": []}}]},
    {"version": 2, "dimension": 256, "records": 5},
], ids=["list", "no-dimension", "no-kind", "list-id", "records-not-a-list"])
def test_memory_list_of_a_snapshot_of_the_wrong_shape_exits_one(tmp_path, capsys, snapshot):
    path = tmp_path / "memory.json"
    path.write_text(json.dumps(snapshot))
    assert main(["memory", "list", "--memory", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: snapshot ")


def _one_workflow_snapshot(tmp_path, key_text):
    path = tmp_path / "memory.json"
    path.write_text(json.dumps({"version": 2, "dimension": 256, "records": [
        {"id": 1, "kind": "workflow", "key_text": key_text, "embedding": [],
         "payload": {"entries": []}}]}))
    return str(path)


def test_memory_list_of_a_record_with_an_empty_key_text_exits_zero(tmp_path, capsys):
    assert main(["memory", "list", "--memory", _one_workflow_snapshot(tmp_path, "")]) == 0
    assert capsys.readouterr().out == "   1  workflow  \n"


def test_memory_list_of_a_record_with_an_integer_key_text_exits_one(tmp_path, capsys):
    assert main(["memory", "list", "--memory", _one_workflow_snapshot(tmp_path, 5)]) == 1
    assert capsys.readouterr().err.startswith("error: snapshot record 1 has a key_text ")


# each command reads the file {bad}; {task} is a task file whose one dataset
# fixture is {bad}
def test_memory_list_of_a_deeply_nested_file_exits_one(tmp_path, capsys):
    path = tmp_path / "memory.json"
    path.write_text("[" * 100_000)
    assert main(["memory", "list", "--memory", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: nests too deeply")


READS_OF_A_JSON_FILE = {
    "task-file": ["run", "{bad}", "--backend", f"scripted:{SCENARIO}"],
    "scenario": ["run", TEST_TASK, "--backend", "scripted:{bad}"],
    "bench-spec": ["bench", "--config", "{bad}"],
    "memory-list": ["memory", "list", "--memory", "{bad}"],
    "fixture": ["run", "{task}", "--backend", f"scripted:{SCENARIO}"],
}


def _run_on_a_bad_file(tmp_path, monkeypatch, reader, text):
    """Run the command of ``reader`` on a file holding ``text``, failing on
    any backend call; return the exit code and the file's path."""
    def no_call(*args):
        raise AssertionError("the backend was called")

    monkeypatch.setattr("ice.llm.ScriptedBackend._complete", no_call)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"id": "t", "goal": "g",
                                "env_setup": [{"dataset": "d", "fixture": bad.name}]}))
    command = [arg.format(bad=bad, task=task) for arg in READS_OF_A_JSON_FILE[reader]]
    return main(command), bad


@pytest.mark.parametrize("reader", list(READS_OF_A_JSON_FILE))
def test_a_file_nested_too_deeply_for_the_json_decoder_exits_one_before_any_backend_call(
        tmp_path, capsys, monkeypatch, reader):
    code, nested = _run_on_a_bad_file(tmp_path, monkeypatch, reader, "[" * 100_000)
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: {nested}: nests too deeply")
    assert "Traceback" not in err


@pytest.mark.parametrize("reader", list(READS_OF_A_JSON_FILE))
def test_a_file_that_is_not_json_exits_one_with_an_error_line_naming_it(
        tmp_path, capsys, monkeypatch, reader):
    code, bad = _run_on_a_bad_file(tmp_path, monkeypatch, reader, "{")
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: {bad}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["run", "{dir}", "--backend", f"scripted:{SCENARIO}"],
    ["run", TEST_TASK, "--backend", f"scripted:{SCENARIO}", "--memory", "{dir}"],
    ["memory", "export", "--memory", "{snapshot}", "--out", "{snapshot}"],
    ["memory", "show", "--memory", "{snapshot}"],
    ["bench", "--config", "{spec}", "--out", "{spec}"],
], ids=["directory-task-file", "directory-memory", "export-out-an-existing-file",
        "show-without-an-id", "bench-out-an-existing-file"])
def test_a_file_system_fault_or_a_missing_id_exits_one_with_an_error_line(
        tmp_path, capsys, command):
    spec = tmp_path / "bench.json"
    spec.write_text(json.dumps({"backend": f"scripted:{SCENARIO}", "arms": [{"name": "a"}]}))
    paths = {"dir": str(tmp_path), "snapshot": _one_workflow_snapshot(tmp_path, "k"),
             "spec": str(spec)}
    assert main([arg.format(**paths) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in err
