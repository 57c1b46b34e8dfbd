"""Task runtime.

One ``TaskRunner`` owns a single task run: it asks the backend for an initial
plan (with a retrieved workflow as an in-context reference when planning
exploitation is on), walks the leaves depth-first, serves each leaf either by
executing a retrieved pipeline automaton or by a step-wise ReACT loop, splits
or extends the plan when a leaf fails, and, in training mode, consolidates
and stores what the run learned.

A leaf counts as completed only when its run ended explicitly (terminate
signal or the automaton's End node) and its milestones hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, NamedTuple

from .consolidate import (
    consolidate_pipeline,
    consolidate_workflows,
    encode_json,
    extract_json_document,
    workflow_to_dict,
)
from .env import (
    MilestoneChecks,
    SimulatedEnvironment,
    build_environment,
    evaluate_milestones,
    is_setup_entry,
)
from .errors import (
    BackendError,
    IceError,
    InvalidGoal,
    PipelineRunFailed,
    PipelineSchemaError,
    PlanParseError,
    RectifyParseError,
    StepParseError,
    TaskAborted,
    UnknownTool,
    read_json,
)
from .llm import CallTag, LlmBackend, complete_parsed, counters_delta
from .memory import (
    ExperienceMemory,
    MemoryRecord,
    RecordKind,
    pipeline_key,
    workflow_key,
)
from .pipeline import (
    NodeType,
    PipelineAutomaton,
    pipeline_from_dict,
    pipeline_to_dict,
    validate_pipeline,
)
from .plan import Goal, GoalId, GoalStatus, PlanTree, RectificationKind, new_plan
from .trajectory import (
    Step,
    StepOutcome,
    Trajectory,
    TrajectoryStatus,
    investigate_trajectories,
)

__all__ = [
    "RunMode",
    "RunConfig",
    "ExecutionMethod",
    "SubgoalOutcome",
    "TaskSpec",
    "TaskRunReport",
    "TaskRunner",
    "run_task",
    "DEFAULT_RETRIEVAL_THRESHOLD",
    "DEFAULT_MAX_REACT_STEPS",
    "MAX_RECTIFICATIONS_PER_GOAL",
]

#: After this many rectification attempts a failed goal is abandoned.
MAX_RECTIFICATIONS_PER_GOAL = 2

#: Hard cap on rectification rounds across a whole task run. Per-goal budgets
#: alone cannot bound a run: every rectification may introduce fresh goals
#: with fresh budgets, so a backend that keeps splitting would grow the tree
#: forever.
MAX_RECTIFICATIONS_PER_TASK = 12

# the members the loops below read, read once: every read through an Enum class
# goes through the Python-level hook of ``EnumType.__getattr__``, and ``.value``
# is a property over the field ``_value_``
_END, _TOOL_SERVER, _TOOL_ERROR = NodeType.END, NodeType.TOOL_SERVER, StepOutcome.TOOL_ERROR
_SUCCESS, _FAILURE = TrajectoryStatus.SUCCESS, TrajectoryStatus.FAILURE


class RunMode(str, Enum):
    TRAIN = "train"
    EXPLOIT = "exploit"


class ExecutionMethod(str, Enum):
    PIPELINE = "pipeline"
    REACT = "react"


#: Cosine similarity a stored record must reach to be reused.
DEFAULT_RETRIEVAL_THRESHOLD = 0.85

#: Tool steps a ReACT loop may take before its leaf fails.
DEFAULT_MAX_REACT_STEPS = 8


@dataclass
class RunConfig:
    planning_ice: bool = False
    execution_ice: bool = False
    mode: RunMode = RunMode.EXPLOIT
    pipeline_threshold: float = DEFAULT_RETRIEVAL_THRESHOLD
    workflow_threshold: float = DEFAULT_RETRIEVAL_THRESHOLD
    max_react_steps: int = DEFAULT_MAX_REACT_STEPS

    def __post_init__(self) -> None:
        # a bool is an int, but no threshold and no count
        for name in ("pipeline_threshold", "workflow_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if type(self.max_react_steps) is not int or self.max_react_steps < 1:
            raise ValueError(
                f"max_react_steps must be a positive integer, got {self.max_react_steps!r}")


@dataclass
class SubgoalOutcome:
    goal_id: GoalId
    method: ExecutionMethod
    trajectory: Trajectory
    pipeline_used: str | None
    success: bool

    def __post_init__(self) -> None:
        if self.method is ExecutionMethod.PIPELINE and self.pipeline_used is None:
            raise ValueError("pipeline outcomes must name the pipeline used")

    def to_dict(self) -> dict[str, Any]:
        return {
            "goal_id": self.goal_id.render(),
            "method": self.method.value,
            "pipeline_used": self.pipeline_used,
            "success": self.success,
            "trajectory": self.trajectory.to_dict(),
        }


@dataclass
class TaskSpec:
    """One task file: an id, the user goal, environment fixtures, and optional
    per-subgoal milestone overrides keyed by subgoal description.

    Every override is parsed when the spec is made, so a bad predicate raises
    ``BadPredicate`` (a ``ValueError``) here rather than when its subgoal is
    judged."""

    task_id: str
    goal: str
    env_setup: list[dict[str, Any]] = field(default_factory=list)
    milestones: dict[str, list[str]] = field(default_factory=dict)
    base_dir: Path | None = None

    def __post_init__(self) -> None:
        checked, checks = {}, MilestoneChecks()
        for description, milestones in self.milestones.items():
            try:
                checked[description] = _milestone_list(milestones, checks)
            except ValueError as exc:
                exc.args = (f"subgoal {description!r}: {exc}",)
                raise
        self.milestones = checked

    @classmethod
    def from_file(cls, path: str | Path) -> "TaskSpec":
        path = Path(path)
        doc = read_json(path)
        if not (isinstance(doc, dict)
                and isinstance(doc.get("id"), str)
                and isinstance(doc.get("goal"), str)
                and isinstance(doc.get("env_setup", []), list)
                and all(map(is_setup_entry, doc.get("env_setup", [])))
                and isinstance(doc.get("milestones", {}), dict)):
            raise ValueError(
                f"{path}: a task file is an object with a string id and goal, an "
                "env_setup list of dataset or file entries and a milestones object")
        try:
            return cls(
                task_id=doc["id"],
                goal=doc["goal"],
                env_setup=doc.get("env_setup", []),
                milestones=doc.get("milestones", {}),
                base_dir=path.parent,
            )
        except ValueError as exc:
            exc.args = (f"{path}: {exc}",)
            raise


@dataclass
class TaskRunReport:
    task_id: str
    plan: PlanTree
    outcomes: list[SubgoalOutcome]
    counters: dict[str, Any]
    rectifications: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "task_id": self.task_id,
            "plan": self.plan.to_dict(),
            "outcomes": [o.to_dict() for o in self.outcomes],
            "counters": self.counters,
            "rectifications": self.rectifications,
        }


def _stored_pipeline(payload: dict[str, Any]) -> PipelineAutomaton | None:
    """The automaton of a stored payload, or None when the payload does not
    parse or validate. Every hit on the record shares the automaton; walking
    it never changes it. ``pipeline_from_dict`` and ``validate_pipeline`` are
    looked up in this module on every call."""
    try:
        automaton = pipeline_from_dict(payload)
    except PipelineSchemaError:
        return None
    return None if validate_pipeline(automaton) else automaton


# -- prompt rendering ----------------------------------------------------------

PLANNING_SYSTEM = (
    "You are the planner of a tool-using agent. Decompose the goal into a short "
    "ordered list of concrete subgoals that tools can accomplish. Reply with JSON "
    'of the form {"subgoals": [{"description": "...", "milestones": ["..."]}]} '
    "and nothing else."
)

RECTIFY_SYSTEM = (
    "You repair the plan of a tool-using agent after a subgoal failed its "
    "milestones. Either split the failed subgoal into smaller child subgoals or "
    "add new sibling subgoals after an existing one. Reply with JSON of the form "
    '{"actions": [{"kind": "split", "target": "<goal id>", "subgoals": '
    '[{"description": "...", "milestones": ["..."]}]}, {"kind": "add", "after": '
    '"<goal id>", "subgoals": [...]}]} and nothing else.'
)

REACT_SYSTEM = (
    "You operate tools step by step to finish one subgoal. Reply with JSON: "
    'either {"thought": "...", "tool_name": "...", "tool_args": {...}} to invoke '
    'a tool, or {"thought": "...", "terminate": true} once the subgoal is complete.'
)

PIPELINE_PARAM_SYSTEM = (
    "You fill in the arguments for the next tool call of a stored pipeline. "
    "Reply with one JSON object holding exactly the tool arguments."
)

PIPELINE_CHOICE_SYSTEM = (
    "You choose which outgoing edge of a stored pipeline to follow next, "
    "guided by the edge comments. Reply with the edge_name of exactly one "
    "offered edge."
)


def _render_workflow_reference(title: str, hit: tuple[MemoryRecord, float]) -> str:
    record, _ = hit
    payload = record.payload
    lines = [f"{title} (similar past goal: {payload['source_description']}):"]
    for i, entry in enumerate(payload.get("entries", []), start=1):
        milestones = "; ".join(entry.get("milestones", [])) or "none"
        lines.append(f"  {i}. {entry['description']} | milestones: {milestones}")
    return "\n".join(lines)


def render_plan_prompt(goal: str, reference: tuple[MemoryRecord, float] | None) -> str:
    if reference is None:
        return f"Goal: {goal}\nNo reference workflow available."
    return f"Goal: {goal}\n" + _render_workflow_reference("Reference workflow", reference)


def render_react_step(step: Step) -> str:
    return (f"Step {step.index}: {step.tool_name}({encode_json(step.tool_args)}) -> "
            f"[{step.outcome._value_}] {step.tool_output}")


def render_react_prompt(goal: Goal, step_lines: list[str]) -> str:
    """The ReACT prompt over the lines ``render_react_step`` rendered, each once."""
    return "\n".join([
        f"Subgoal: {goal.description}",
        f"Completed steps: {len(step_lines)}",
        f"Milestones: {'; '.join(goal.milestones) or 'none'}",
        *step_lines,
    ])


# -- reply parsing ---------------------------------------------------------------


def parse_plan_reply(text: str,
                     checks: MilestoneChecks | None = None) -> list[tuple[str, list[str]]]:
    doc = extract_json_document(text)
    subgoals = doc.get("subgoals")
    if not isinstance(subgoals, list):
        raise ValueError('the reply needs a "subgoals" list')
    return _parse_subgoals(subgoals, checks)


def _milestone_list(value: Any, checks: MilestoneChecks) -> list[str]:
    """A copy of ``value`` when it is a list of milestone texts that each parse
    into ``checks``; otherwise ``ValueError`` (``BadPredicate`` for a text)."""
    if not isinstance(value, list) or any(not isinstance(m, str) for m in value):
        raise ValueError("milestones must be a list of strings")
    for milestone in value:
        checks[milestone]
    return list(value)


def _parse_subgoals(items: list[Any],
                    checks: MilestoneChecks | None) -> list[tuple[str, list[str]]]:
    checks = MilestoneChecks() if checks is None else checks
    parsed = []
    for item in items:
        if not isinstance(item, dict) or not isinstance(item.get("description"), str):
            raise ValueError("every subgoal needs a string description")
        parsed.append((item["description"], _milestone_list(item.get("milestones", []), checks)))
    return parsed


@dataclass(frozen=True)
class RectifyAction:
    kind: RectificationKind
    anchor: GoalId  # split target, or the goal the additions follow
    subgoals: tuple[tuple[str, list[str]], ...]


def parse_rectify_reply(text: str, checks: MilestoneChecks | None = None) -> list[RectifyAction]:
    doc = extract_json_document(text)
    raw_actions = doc.get("actions")
    if not isinstance(raw_actions, list) or not raw_actions:
        raise ValueError('the reply needs a non-empty "actions" list')
    actions = []
    for raw in raw_actions:
        if not isinstance(raw, dict):
            raise ValueError("every action must be an object")
        kind = raw.get("kind")
        if kind == "split":
            anchor = raw.get("target")
        elif kind == "add":
            anchor = raw.get("after")
        else:
            raise ValueError(f"unknown action kind {kind!r}")
        if not isinstance(anchor, str):
            raise ValueError("actions must name a goal id")
        subgoals = raw.get("subgoals")
        if not isinstance(subgoals, list) or not subgoals:
            raise ValueError("actions need a non-empty subgoals list")
        parsed = _parse_subgoals(subgoals, checks)
        try:
            anchor_id = GoalId.parse(anchor)
        except InvalidGoal as exc:
            raise ValueError(str(exc)) from exc
        actions.append(
            RectifyAction(
                kind=RectificationKind(kind),
                anchor=anchor_id,
                subgoals=tuple(parsed),
            )
        )
    return actions


class ReactAction(NamedTuple):
    thought: str
    terminate: bool
    tool_name: str
    tool_args: dict[str, Any]


def parse_react_reply(text: str) -> ReactAction:
    doc = extract_json_document(text)
    thought = doc.get("thought", "")
    if doc.get("terminate") is True:
        return ReactAction(thought, True, "", {})
    tool_name = doc.get("tool_name")
    tool_args = doc.get("tool_args", {})
    if not isinstance(tool_name, str) or not tool_name:
        raise ValueError("the reply needs a tool_name or terminate=true")
    if not isinstance(tool_args, dict):
        raise ValueError("tool_args must be an object")
    return ReactAction(thought, False, tool_name, tool_args)


# -- the runner ------------------------------------------------------------------


class TaskRunner:
    """Executes one task end to end against a memory, backend, and environment."""

    def __init__(
        self,
        task: TaskSpec,
        memory: ExperienceMemory,
        backend: LlmBackend,
        config: RunConfig,
        environment: SimulatedEnvironment | None = None,
    ) -> None:
        self.task = task
        self.memory = memory
        self.backend = backend
        self.config = config
        self.environment = environment or build_environment(
            task.env_setup, task.base_dir
        )
        self.tree: PlanTree | None = None
        self.outcomes: list[SubgoalOutcome] = []
        self._checks = MilestoneChecks()  # each milestone text of the run, parsed once
        self._achieved: dict[tuple[int, ...], bool] = {}  # by ``GoalId.path``
        self._total_rectifications = 0

    # -- planning -----------------------------------------------------------

    def generate_initial_plan(self) -> PlanTree:
        reference = None
        if self.config.planning_ice:
            reference = self.memory.retrieve(
                RecordKind.WORKFLOW, self.task.goal, self.config.workflow_threshold
            )
        user = render_plan_prompt(self.task.goal, reference)
        subgoals = complete_parsed(
            self.backend, PLANNING_SYSTEM,
            user,
            CallTag.PLANNING,
            lambda text: parse_plan_reply(text, self._checks),
            PlanParseError,
        )
        self.tree = new_plan(self.task.goal, subgoals)
        return self.tree

    def rectify_plan(self, failed: GoalId) -> PlanTree:
        assert self.tree is not None
        goal = self.tree.find(failed)
        if failed.is_root:
            raise ValueError("the root goal cannot be rectified")
        if goal.status is not GoalStatus.FAILURE:
            raise ValueError("only failed goals are rectified")
        parent = self.tree.parent_of(failed)

        sections = [
            f"Failed subgoal: {goal.description}",
            f"Goal id: {failed.render()}",
            f"Parent goal: {parent.description}",
        ]
        if self.config.planning_ice:
            for title, query in (
                ("Reference workflow for the failed subgoal", goal.description),
                ("Reference workflow for the parent goal", parent.description),
            ):
                hit = self.memory.retrieve(
                    RecordKind.WORKFLOW, query, self.config.workflow_threshold
                )
                if hit is not None:
                    sections.append(_render_workflow_reference(title, hit))
        if len(sections) == 3:
            sections.append("No reference workflows available.")

        def apply_actions(tree: PlanTree, actions: list[RectifyAction]) -> None:
            for action in actions:
                if action.kind is RectificationKind.SPLIT:
                    tree.split_goal(action.anchor, list(action.subgoals))
                else:
                    anchor = action.anchor
                    for subgoal in action.subgoals:
                        tree.add_goal(anchor, subgoal)
                        anchor = tree.log[-1].introduced[0]

        def parse_and_stage(text: str) -> list[RectifyAction]:
            actions = parse_rectify_reply(text, self._checks)
            # dry-run on a copy so a half-applicable reply cannot corrupt the
            # live tree before the repair re-prompt
            try:
                apply_actions(self.tree.copy(), actions)
            except IceError as exc:
                raise ValueError(str(exc)) from exc
            return actions

        actions = complete_parsed(
            self.backend, RECTIFY_SYSTEM,
            "\n".join(sections),
            CallTag.PLANNING,
            parse_and_stage,
            RectifyParseError,
        )
        apply_actions(self.tree, actions)
        return self.tree

    # -- milestone judging ----------------------------------------------------

    def _goal_milestones(self, goal: Goal) -> list[str]:
        override = self.task.milestones.get(goal.description)
        return list(override) if override is not None else list(goal.milestones)

    # -- execution ------------------------------------------------------------

    def handle_subgoal(self, goal: Goal) -> SubgoalOutcome:
        """Serve one leaf: a retrieved pipeline when execution exploitation is
        on and similarity clears the threshold, otherwise a ReACT loop. A
        pipeline that fails mid-run falls back to a fresh ReACT attempt for
        the whole subgoal; calls from both attempts stay counted. A stored
        pipeline is parsed and checked once per record, and one that fails
        either check falls back to ReACT without a backend call."""
        if self.config.execution_ice:
            key = pipeline_key(goal.description, self._goal_milestones(goal))
            hit = self.memory.retrieve(
                RecordKind.PIPELINE, key, self.config.pipeline_threshold
            )
            pipeline = None
            if hit is not None:
                pipeline = hit[0].derived("pipeline", _stored_pipeline)
            if pipeline is not None:
                try:
                    traj, ok = self.run_pipeline(pipeline, goal)
                    return SubgoalOutcome(
                        goal_id=goal.id,
                        method=ExecutionMethod.PIPELINE,
                        trajectory=traj,
                        pipeline_used=pipeline.pipeline_name,
                        success=ok,
                    )
                except PipelineRunFailed:
                    pass
        traj = self.react_loop(goal)
        return SubgoalOutcome(
            goal_id=goal.id,
            method=ExecutionMethod.REACT,
            trajectory=traj,
            pipeline_used=None,
            success=traj.final_status is _SUCCESS,
        )

    def react_loop(self, goal: Goal) -> Trajectory:
        traj = Trajectory(goal_id=goal.id)
        step_lines: list[str] = []
        terminated = False
        tag, max_steps = CallTag.TOOL_HANDLING, self.config.max_react_steps
        while len(traj.steps) < max_steps:
            action = complete_parsed(self.backend, REACT_SYSTEM, render_react_prompt(
                goal, step_lines), tag, parse_react_reply, StepParseError)
            if action.terminate:
                terminated = True
                break
            try:
                output, outcome = self.environment.invoke(
                    action.tool_name, action.tool_args
                )
            except UnknownTool:
                output = f"tool error: unknown tool {action.tool_name}"
                outcome = _TOOL_ERROR
            step_lines.append(render_react_step(traj.record_step(Step(
                len(traj.steps) + 1, action.thought, action.tool_name, action.tool_args,
                output, outcome))))
        ok = terminated and evaluate_milestones(
            self._goal_milestones(goal), self.environment, self._checks
        )
        traj.finalize(_SUCCESS if ok else _FAILURE)
        return traj

    def run_pipeline(
        self, pipeline: PipelineAutomaton, goal: Goal
    ) -> tuple[Trajectory, bool]:
        """Walk the automaton from Start. The automaton must be valid
        (``validate_pipeline`` finds nothing); the walk does not check it.

        Arriving at a tool node costs one backend call to fill the tool's
        arguments (guided by the comments of the edge just taken); leaving a
        node with several outgoing edges costs one backend call to choose an
        edge by name. The walk succeeds when it reaches End; dead ends and
        exhausted repair budgets raise ``PipelineRunFailed``.
        """
        traj = Trajectory(goal_id=goal.id)
        outputs: list[str] = []
        table, current = pipeline.walk_table, pipeline.start_node()
        incoming: tuple[str, ...] = ()
        for _ in range(len(pipeline.nodes) + len(pipeline.edges) + 1):
            if current.node_type is _END:
                ok = evaluate_milestones(
                    self._goal_milestones(goal), self.environment, self._checks)
                traj.finalize(_SUCCESS if ok else _FAILURE)
                return traj, ok
            if current.node_type is _TOOL_SERVER:
                args = self._pipeline_args(pipeline, current, goal, incoming, outputs)
                try:
                    output, outcome = self.environment.invoke(current.tool_name, args)
                except UnknownTool as exc:
                    raise PipelineRunFailed(str(exc)) from exc
                traj.record_step(Step(
                    len(traj.steps) + 1,
                    f"pipeline {pipeline.pipeline_name}: node {current.node_name}",
                    current.tool_name, args, output, outcome))
                outputs.append(output)
            out_edges = table[current.node_name][1]
            if not out_edges:
                raise PipelineRunFailed(f"dead end at node {current.node_name!r}")
            if len(out_edges) == 1:
                edge = out_edges[0]
            else:
                edge = self._choose_edge(pipeline, current, out_edges, outputs)
            incoming = edge.comments
            current = table[edge.to_node][0]
        raise PipelineRunFailed("the walk did not terminate")  # pragma: no cover

    def _pipeline_args(
        self,
        pipeline: PipelineAutomaton,
        node,
        goal: Goal,
        incoming: tuple[str, ...],
        outputs: list[str],
    ) -> dict[str, Any]:
        prior = "\n".join(f"  {i}. {out}" for i, out in enumerate(outputs, 1)) or "  none"
        user = (
            f"Pipeline node: {pipeline.pipeline_name} / {node.node_name}\n"
            f"Subgoal: {goal.description}\n"
            f"Tool: {node.tool_name}\n"
            f"Transition notes: {'; '.join(incoming) or 'none'}\n"
            f"Prior outputs:\n{prior}"
        )
        return complete_parsed(
            self.backend, PIPELINE_PARAM_SYSTEM,
            user,
            CallTag.TOOL_HANDLING,
            extract_json_document,
            PipelineRunFailed,
        )

    def _choose_edge(self, pipeline, node, out_edges, outputs):
        options = "\n".join(
            f"  - {e.edge_name} (to {e.to_node}): {'; '.join(e.comments) or 'no comments'}"
            for e in out_edges
        )
        user = (
            f"Choose the next edge after node: {pipeline.pipeline_name} / {node.node_name}\n"
            f"Last output: {outputs[-1] if outputs else 'none'}\n"
            f"Options:\n{options}"
        )

        def parse_choice(text: str):
            stripped = text.strip().strip('"')
            for edge in out_edges:
                if stripped == edge.edge_name:
                    return edge
            try:
                doc = extract_json_document(text)
                named = doc.get("edge") or doc.get("edge_name")
                for edge in out_edges:
                    if edge.edge_name == named:
                        return edge
            except ValueError:
                pass
            mentioned = [e for e in out_edges if e.edge_name in text]
            if len(mentioned) == 1:
                return mentioned[0]
            raise ValueError(
                "the reply must name exactly one offered edge_name"
            )

        return complete_parsed(
            self.backend, PIPELINE_CHOICE_SYSTEM,
            user,
            CallTag.TOOL_HANDLING,
            parse_choice,
            PipelineRunFailed,
        )

    # -- plan walking -----------------------------------------------------------

    def _run_children(self, parent: Goal) -> bool:
        # rectifications may insert children anywhere, before the running one
        # too: run the first child not in ``_achieved`` until none is left;
        # each ``_achieve`` records its goal, so every goal runs once
        while True:
            pending = next((child for child in parent.children
                            if child.id.path not in self._achieved), None)
            if pending is None:
                return all(self._achieved[child.id.path] for child in parent.children)
            self._achieve(pending)

    def _achieve(self, goal: Goal) -> bool:
        if goal.children:
            if goal.status is GoalStatus.PENDING:
                goal.set_status(GoalStatus.IN_PROGRESS)
            ok = self._run_children(goal)
            if goal.status is GoalStatus.IN_PROGRESS:
                goal.set_status(GoalStatus.SUCCESS if ok else GoalStatus.FAILURE)
            self._achieved[goal.id.path] = ok
            return ok
        return self._execute_leaf(goal)

    def _execute_leaf(self, goal: Goal) -> bool:
        goal.set_status(GoalStatus.IN_PROGRESS)
        outcome = self.handle_subgoal(goal)
        self.outcomes.append(outcome)
        goal.set_status(GoalStatus.SUCCESS if outcome.success else GoalStatus.FAILURE)
        # a goal is executed once, so its rectification count is local
        achieved = outcome.success
        attempts = 0
        while (
            not achieved
            and not goal.id.is_root
            and attempts < MAX_RECTIFICATIONS_PER_GOAL
            and self._total_rectifications < MAX_RECTIFICATIONS_PER_TASK
        ):
            attempts += 1
            self._total_rectifications += 1
            logged_before = len(self.tree.log)
            try:
                self.rectify_plan(goal.id)
            except RectifyParseError:
                break
            events = self.tree.log[logged_before:]
            if any(
                ev.kind is RectificationKind.SPLIT and ev.target == goal.id
                for ev in events
            ):
                # the fresh children now carry the work; the goal stays failed
                achieved = self._run_children(goal)
            if not achieved and any(
                ev.kind is RectificationKind.ADD for ev in events
            ):
                # bypass: new siblings continue the parent's work, so this
                # failure no longer blocks the parent (the siblings still
                # have to succeed on their own)
                achieved = True
        self._achieved[goal.id.path] = achieved
        return achieved

    # -- full run -----------------------------------------------------------------

    def run(self) -> TaskRunReport:
        before = self.backend.counters.snapshot()
        try:
            self.generate_initial_plan()
            self._achieve(self.tree.root)
            if self.config.mode is RunMode.TRAIN:
                self._consolidate_and_store()
        except BackendError as exc:
            raise TaskAborted(f"backend failure: {exc}") from exc
        after = self.backend.counters.snapshot()
        return TaskRunReport(
            task_id=self.task.task_id,
            plan=self.tree,
            outcomes=self.outcomes,
            counters=counters_delta(before, after),
            rectifications=len(self.tree.log),
        )

    def _consolidate_and_store(self) -> None:
        # a goal that failed and was split is no longer a leaf; its stale
        # trajectory must not reach the leaf-only investigation
        trajectories = {outcome.goal_id: outcome.trajectory for outcome in self.outcomes}
        leaf_trajectories = [
            trajectories[leaf.id]
            for leaf in self.tree.leaves()
            if leaf.id in trajectories
        ]
        # every record is consolidated before any is stored, so a task whose
        # consolidation fails leaves the memory as it was
        records = []
        for traj in investigate_trajectories(self.tree, leaf_trajectories):
            goal = self.tree.find(traj.goal_id)
            automaton = consolidate_pipeline(traj, goal, self.backend)
            records.append((
                RecordKind.PIPELINE,
                pipeline_key(goal.description, self._goal_milestones(goal)),
                pipeline_to_dict(automaton),
            ))
        records.extend(
            (RecordKind.WORKFLOW, workflow_key(workflow.source_description),
             workflow_to_dict(workflow))
            for workflow in consolidate_workflows(self.tree) if workflow.entries
        )
        for record in records:
            self.memory.store(*record)


def run_task(
    task: TaskSpec,
    memory: ExperienceMemory,
    backend: LlmBackend,
    config: RunConfig,
    environment: SimulatedEnvironment | None = None,
) -> TaskRunReport:
    return TaskRunner(task, memory, backend, config, environment).run()
