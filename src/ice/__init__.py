"""Experience-consolidating runtime for hierarchical tool-using agents.

The package tracks plan trees and tool-call trajectories while tasks run,
consolidates finished runs into linear workflows and executable pipeline
automata, stores both in an embedding-similarity memory, and exploits them on
later tasks to cut backend calls and raise completion. A scripted backend and
a simulated tool environment make every mechanism verifiable offline.
"""

from .consolidate import (
    Workflow,
    WorkflowEntry,
    consolidate_pipeline,
    consolidate_workflows,
)
from .engine import (
    ExecutionMethod,
    RunConfig,
    RunMode,
    SubgoalOutcome,
    TaskRunner,
    TaskRunReport,
    TaskSpec,
    run_task,
)
from .env import SimulatedEnvironment, ToolSpec, WorldState, builtin_toolkit
from .llm import (
    CallTag,
    CompletionRequest,
    HttpChatBackend,
    LlmBackend,
    Message,
    Role,
    ScriptedBackend,
    ScriptedScenario,
)
from .memory import (
    Embedding,
    ExperienceMemory,
    LocalDeterministicEmbedder,
    MemoryRecord,
    RecordKind,
    pipeline_key,
    workflow_key,
)
from .pipeline import (
    NodeType,
    PipelineAutomaton,
    PipelineEdge,
    PipelineNode,
    Violation,
    validate_pipeline,
)
from .plan import Goal, GoalId, GoalStatus, PlanTree, RectificationEvent, new_plan
from .trajectory import (
    Step,
    StepOutcome,
    Trajectory,
    TrajectoryStatus,
    investigate_trajectories,
)

__version__ = "0.1.0"
