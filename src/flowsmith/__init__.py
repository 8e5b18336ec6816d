"""flowsmith: a deterministic, structure-driven workflow orchestration engine.

The engine builds atomic agents from goal-to-procedure pairs, composes
candidate workflows for unseen goals through retrieval, recursive
decomposition, and a concat/branch/nest splicing algebra, repairs
failed candidates via structural hypotheses, and regulates the agent
pool with life-value dynamics.  A synthetic corpus generator and an
evaluation harness reproduce the structural benchmarking protocol at
desk scale.  Everything is seed-deterministic.
"""

from .agents import (
    AgentNetwork,
    AgentStats,
    AtomicAgent,
    ChangeLog,
    LifeConfig,
    Outcome,
    build_agents,
    compatibility,
    eliminate_and_refresh,
    retrieve,
    select,
    selection_probabilities,
    update_life,
)
from .corpus import (
    CorpusProfile,
    CorpusRecord,
    PlantedSubflowSpec,
    default_profile,
    generate,
    make_novel_goals,
    split,
)
from .errors import (
    BadPath,
    ConfigError,
    DecompositionFailure,
    DuplicateGoal,
    EmptyGoal,
    EngineError,
    InfeasibleProfile,
    InvalidWorkflow,
    MissingOracle,
    NoEligibleAgent,
    NotAFailure,
    RejectedRepair,
)
from .evaluation import (
    ExperimentConfig,
    MetricsReport,
    ablate,
    pass_at_k,
    reuse_efficiency,
    run_experiment,
)
from .goals import Goal, schema_compat, similarity
from .orchestrator import (
    EpisodeResult,
    Expanded,
    Resolved,
    SolveConfig,
    Verdict,
    compose,
    decompose,
    solve,
    verify,
)
from .repair import FailureHypothesis, diagnose, repair_loop
from .repair import apply as apply_repair
from .workflow import (
    Branch,
    Nest,
    Predicate,
    Sequence,
    StructMetrics,
    TaskNode,
    Workflow,
    apply_edits,
    branch,
    concat,
    diff,
    find_subflows,
    flatten,
    metrics,
    nest,
    structurally_equal,
    validate,
)

__version__ = "0.1.0"
