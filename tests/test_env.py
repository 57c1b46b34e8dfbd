from __future__ import annotations

import json

import pytest

from ice.env import (
    SimulatedEnvironment,
    ToolSpec,
    build_environment,
    builtin_toolkit,
    evaluate_milestones,
    parse_predicate,
)
from ice.errors import BadPredicate, UnknownTool
from ice.trajectory import StepOutcome

SWITCH_FIXTURE = {"W003247136": "response 1", "W003247137": "whatever"}


def make_env(products=None, reviews=None, documents=None, files=None):
    env = SimulatedEnvironment(tools=builtin_toolkit())
    if products is not None:
        env.world.datasets["products"] = products
    if reviews is not None:
        env.world.datasets["reviews"] = reviews
    if documents is not None:
        env.world.datasets["documents"] = documents
    if files:
        env.world.files.update(files)
    return env


def test_missing_product_reproduces_supported_product_error():
    env = make_env(products=SWITCH_FIXTURE)
    output, outcome = env.invoke(
        "RapidAPIEnv_rapi_wayfair_products_detail", {"sku": "W003247135"}
    )
    assert outcome is StepOutcome.TOOL_ERROR
    assert output == (
        "fail. Can not find product W003247135. "
        "Supported product: W003247136, W003247137, ..."
    )


def test_known_product_returns_fixture_record():
    env = make_env(products={"W003247135": "response1"})
    output, outcome = env.invoke(
        "RapidAPIEnv_rapi_wayfair_products_detail", {"sku": "W003247135"}
    )
    assert (output, outcome) == ("response1", StepOutcome.OK)


def test_write_then_file_exists_predicate():
    env = make_env()
    env.invoke("FileSystemEnv_write_to_file",
               {"filepath": "notes.txt", "content": "hello"})
    assert evaluate_milestones(["file_exists:notes.txt"], env)
    assert evaluate_milestones(["file_contains:notes.txt:hello"], env)
    assert not evaluate_milestones(["file_contains:notes.txt:absent"], env)


def test_read_file_round_trip_and_missing_file_error():
    env = make_env()
    env.invoke("FileSystemEnv_write_to_file", {"filepath": "a.txt", "content": "x"})
    output, outcome = env.invoke("FileSystemEnv_read_file", {"filepath": "a.txt"})
    assert (output, outcome) == ("x", StepOutcome.OK)
    output, outcome = env.invoke("FileSystemEnv_read_file", {"filepath": "b.txt"})
    assert outcome is StepOutcome.TOOL_ERROR
    assert "b.txt" in output


def test_keyword_search_over_documents():
    env = make_env(documents=["solar markets are growing", "wind is strong"])
    output, outcome = env.invoke("SearchEnv_keyword_search", {"query": "solar markets"})
    assert (output, outcome) == ("solar markets are growing", StepOutcome.OK)
    output, _ = env.invoke("SearchEnv_keyword_search", {"query": "nuclear"})
    assert output == "No results for nuclear."


def test_missing_required_argument_is_tool_error_naming_the_arg():
    env = make_env()
    for tool in builtin_toolkit():
        output, outcome = env.invoke(tool.name, {})
        assert outcome is StepOutcome.TOOL_ERROR
        first_arg = next(iter(tool.schema))
        assert first_arg in output


def test_wrong_argument_type_is_tool_error():
    env = make_env(products={})
    output, outcome = env.invoke(
        "RapidAPIEnv_rapi_wayfair_products_detail", {"sku": 42}
    )
    assert outcome is StepOutcome.TOOL_ERROR
    assert "sku" in output


def test_unknown_tool_raises():
    env = make_env()
    with pytest.raises(UnknownTool):
        env.invoke("NoSuchEnv_tool", {})


def test_invocation_log_counts_every_call():
    env = make_env(products={})
    env.invoke("RapidAPIEnv_rapi_wayfair_products_detail", {"sku": "nope"})
    env.invoke("FileSystemEnv_write_to_file", {"filepath": "f", "content": "c"})
    env.invoke("FileSystemEnv_write_to_file", {})
    assert len(env.world.invocation_log) == 3
    outcomes = [r.outcome for r in env.world.invocation_log]
    assert outcomes == [StepOutcome.TOOL_ERROR, StepOutcome.OK, StepOutcome.TOOL_ERROR]


def test_replaying_a_recorded_log_reproduces_the_world_digest():
    fixtures = {"products": {"A": "1"}, "reviews": {"A": "r"}}
    script = [
        ("RapidAPIEnv_rapi_wayfair_products_detail", {"sku": "A"}),
        ("RapidAPIEnv_rapi_wayfair_reviews_list", {"sku": "A"}),
        ("FileSystemEnv_write_to_file", {"filepath": "out.txt", "content": "1 r"}),
        ("RapidAPIEnv_rapi_wayfair_products_detail", {"sku": "B"}),
    ]

    def run():
        env = SimulatedEnvironment(tools=builtin_toolkit())
        env.world.datasets.update(json.loads(json.dumps(fixtures)))
        for tool, args in script:
            env.invoke(tool, args)
        return env.world

    assert run() == run()


# -- milestone predicates --------------------------------------------------------


def test_tool_called_predicate_counts_clean_calls_only():
    env = make_env(products={"A": "1"})
    env.invoke("RapidAPIEnv_rapi_wayfair_products_detail", {"sku": "missing"})
    assert not evaluate_milestones(
        ["tool_called:RapidAPIEnv_rapi_wayfair_products_detail"], env
    )
    env.invoke("RapidAPIEnv_rapi_wayfair_products_detail", {"sku": "A"})
    assert evaluate_milestones(
        ["tool_called:RapidAPIEnv_rapi_wayfair_products_detail"], env
    )
    assert not evaluate_milestones(
        ["tool_called:RapidAPIEnv_rapi_wayfair_products_detail:2"], env
    )


def test_zero_predicates_hold_vacuously():
    assert evaluate_milestones([], make_env())


def test_unparseable_predicate_raises():
    for bad in ("file_exists", "nonsense:x", "tool_called:", "file_contains:only_path",
                "custom:has_notes"):
        with pytest.raises(BadPredicate):
            parse_predicate(bad)


def test_random_predicate_sets_match_direct_evaluation():
    env = make_env(products={"A": "1"})
    env.invoke("RapidAPIEnv_rapi_wayfair_products_detail", {"sku": "A"})
    env.invoke("FileSystemEnv_write_to_file", {"filepath": "x.txt", "content": "data"})
    checks = {
        "file_exists:x.txt": True,
        "file_exists:y.txt": False,
        "file_contains:x.txt:dat": True,
        "file_contains:x.txt:zzz": False,
        "tool_called:FileSystemEnv_write_to_file": True,
        "tool_called:SearchEnv_keyword_search": False,
    }
    import random

    rng = random.Random(13)
    keys = list(checks)
    for _ in range(40):
        subset = rng.sample(keys, rng.randint(0, len(keys)))
        assert evaluate_milestones(subset, env) == all(checks[k] for k in subset)


# -- env_setup loader ---------------------------------------------------------------


def test_build_environment_with_inline_and_fixture_datasets(tmp_path):
    fixture = tmp_path / "fixtures" / "docs.json"
    fixture.parent.mkdir()
    fixture.write_text(json.dumps(["doc one", "doc two"]), encoding="utf-8")
    env = build_environment(
        [
            {"dataset": "products", "records": {"A": "1"}},
            {"dataset": "documents", "fixture": "fixtures/docs.json"},
            {"file": {"path": "seed.txt", "content": "seeded"}},
        ],
        base_dir=tmp_path,
    )
    assert env.world.datasets["products"] == {"A": "1"}
    assert env.world.datasets["documents"] == ["doc one", "doc two"]
    assert env.world.files["seed.txt"] == "seeded"
    assert set(env.tool_names()) == {t.name for t in builtin_toolkit()}


def test_build_environment_checks_the_datasets_the_builtin_tools_read():
    for entry, shape in [({"dataset": "documents", "records": {"a": "b"}}, "a list of strings"),
                         ({"dataset": "documents", "records": [None]}, "a list of strings"),
                         ({"dataset": "products", "records": "A"}, "an object"),
                         ({"dataset": "reviews", "records": []}, "an object")]:
        with pytest.raises(ValueError) as caught:
            build_environment([entry])
        assert str(caught.value) == f"env_setup dataset {entry['dataset']!r} must be {shape}"
    env = build_environment([{"dataset": "documents", "records": []},
                             {"dataset": "notes", "records": 5}])
    assert env.world.datasets == {"documents": [], "notes": 5}


def test_build_environment_rejects_unknown_entries():
    with pytest.raises(ValueError):
        build_environment([{"mystery": 1}])
    with pytest.raises(ValueError):
        build_environment([{"dataset": "x"}])


def test_environments_share_no_tool_table_and_no_world():
    """Environments start from one tool table built at import; a tool
    registered, or a file written, in one reaches no other environment and
    not ``builtin_toolkit``."""
    names = [tool.name for tool in builtin_toolkit()]
    first = build_environment([{"file": {"path": "seed.txt", "content": "seeded"}}])
    second = build_environment([])
    first.register(ToolSpec("ExtraEnv_echo", {}, lambda args, world: "echo"))
    first.register(ToolSpec(names[0], {}, lambda args, world: "replaced"))
    first.invoke("FileSystemEnv_write_to_file", {"filepath": "a.txt", "content": "a"})
    assert first.invoke("ExtraEnv_echo", {}) == ("echo", StepOutcome.OK)
    with pytest.raises(UnknownTool):
        second.invoke("ExtraEnv_echo", {})
    assert second.world.files == {} and second.world.invocation_log == []
    assert second.tool_names() == names
    assert first.invoke(names[0], {})[0] == "replaced"
    assert second.invoke(names[0], {"sku": "A"})[1] is StepOutcome.TOOL_ERROR
    toolkit = builtin_toolkit()
    toolkit.clear()
    assert [tool.name for tool in builtin_toolkit()] == names
    assert build_environment([]).tool_names() == names
