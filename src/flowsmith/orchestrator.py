"""The solve loop: recursive decomposition, composition, verification.

A goal resolves to an agent above the retrieval threshold that leaves
no goal token to another agent.  Anything else is split by greedy token
set-cover over the active pool, each part decomposed recursively (at
most ``MAX_DEPTH`` levels), and the parts composed left to right;
``agents`` answers every read of the pool.
The candidate is then verified either against the expected workflow
(oracle mode: it passes exactly when its edit script is empty) or
against the goal's declared interface (goal-anchored mode: its output
coverage must reach ``eta``).

Every stage reads its settings from one ``SolveConfig``, which raises
ConfigError when it is built with a bad value.  Its ``hypothesis``
switch covers both kinds of structural hypothesis: with it off, an
unmatched goal is not split and a failed candidate is not repaired.

``solve`` is the one place a decomposition failure ends a rank: the
episode becomes an early failure and keeps the ranks already run.  It
records each rank as one ``Rank``: the final candidate and verdict, the
repairs, the repair loop's stop reason and the outcomes.  Each candidate
is verified once, and a failing verdict is handed to the repair loop as
it is.

A decomposition is *forced* when no goal in it had two or more agents to
select from.  Within an episode membership is fixed, lives only fall (a
pass ends it), and a retrieved agent's weight, life times compatibility,
is above zero while its life is and the input gate admits it (its
similarity exceeds theta).  So while every leaf agent of a forced tree
lives (or with scale control off, which reads no life), the next rank
would decompose the same tree, and in an episode that does not repair
``solve`` reuses it with its candidate, verdict and blame; every other
rank decomposes, composes and verifies afresh.  Within a rank the repair
loop never decomposes the episode's own goal: a Nest of it wraps the
candidate being repaired.  A verdict refers to the candidate it judged,
which walks for its dead-node ratio when the ratio is first read: by
``_outcomes`` for a passing rank, inside the episode, and by ``to_doc``
for every other recorded rank.  So a candidate whose verdict is
discarded for a repaired one never walks, and ranks that share a
candidate walk it once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Union

from . import workflow as wf
from .agents import (
    AgentNetwork,
    AtomicAgent,
    Outcome,
    apply_stats,
    compatibility,
    cover_split,
    is_novel,
    resolves,
    retrieve,
    select,
    update_life,
)
from .errors import (ConfigError, DecompositionFailure, MissingOracle, NoEligibleAgent, is_int,
                     is_number)
# ``similarity`` is unused here; the benchmark tracer counts its calls
# at this module attribute (perfbench/spans.py, COUNT_SITES).
from .goals import Goal, similarity
from .seeds import derive_seed

# Levels of recursive splitting before a decomposition gives up.
MAX_DEPTH = 8

# Verification modes: against the expected workflow, or against the goal's interface.
MODES = ("oracle", "goal_anchored")


@dataclass(frozen=True)
class Resolved:
    goal: Goal
    agent: AtomicAgent


@dataclass(frozen=True)
class Expanded:
    goal: Goal
    children: tuple["DecompositionTree", ...]


DecompositionTree = Union[Resolved, Expanded]


# The switches an ablation can turn off; each is a ``SolveConfig`` field.
ABLATABLE = ("scale_control", "verification", "hypothesis", "input_goal", "output_goal")


@dataclass(frozen=True)
class SolveConfig:
    theta: float = 0.8
    eta: float = 0.95  # goal-anchored pass threshold
    k: int = 5
    repair_budget: int = 5
    mode: str = "oracle"
    seed: int = 0
    verification: bool = True
    hypothesis: bool = True
    scale_control: bool = True
    input_goal: bool = True
    output_goal: bool = True

    def __post_init__(self):
        for name in ("theta", "eta"):
            value = getattr(self, name)
            if not is_number(value) or not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a number in [0, 1], got {value!r}")
        if not is_int(self.k) or self.k < 1:
            raise ConfigError(f"k must be an integer >= 1, got {self.k!r}")
        if not is_int(self.repair_budget) or self.repair_budget < 0:
            raise ConfigError(f"repair_budget must be an integer >= 0, got {self.repair_budget!r}")
        if not is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {list(MODES)}, got {self.mode!r}")
        for name in ABLATABLE:
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be a bool, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class Verdict:
    """``workflow`` is the candidate judged, whose dead-node ratio the
    verdict reports; a verdict without one reports 0.0.  The candidate
    walks for the ratio when it is first read (module docstring)."""

    passed: bool
    score: float
    mode: str
    edit_script: wf.EditScript = ()
    missing_outputs: frozenset[str] = frozenset()
    workflow: wf.Workflow | None = field(default=None, compare=False, repr=False)

    @property
    def dead_node_ratio(self) -> float:
        return 0.0 if self.workflow is None else self.workflow.dead_node_ratio

    def to_doc(self) -> dict:
        return {
            "passed": self.passed,
            "score": self.score,
            "mode": self.mode,
            "edit_count": len(self.edit_script),
            "missing_outputs": sorted(self.missing_outputs),
            "dead_node_ratio": round(self.dead_node_ratio, 9),
        }


@dataclass
class RepairRecord:
    """One applied repair; ``agent`` is the agent whose procedure it spliced in."""

    hypothesis: str
    location: wf.Path
    action: str
    agent: AtomicAgent | None
    score: float

    def to_doc(self) -> dict:
        return {
            "hypothesis": self.hypothesis,
            "location": list(self.location),
            "action": self.action,
            "agent_id": self.agent.agent_id if self.agent is not None else None,
            "score": self.score,
        }


# The keys of an outcome's document, in field order.
_OUTCOME_FIELDS = tuple(f.name for f in fields(Outcome))


@dataclass(slots=True)
class Rank:
    """One rank of an episode: its final candidate and verdict, the repairs
    that led there, why the repair loop stopped (None when it did not
    run) and the outcome issued to each agent."""

    candidate: wf.Workflow
    verdict: Verdict
    repairs: tuple[RepairRecord, ...] = ()
    stop: str | None = None
    outcomes: tuple[tuple[AtomicAgent, Outcome], ...] = ()


@dataclass
class EpisodeResult:
    goal_id: str
    ranks: list[Rank]
    steps: int
    seed: int
    early_failure: bool = False

    @property
    def candidates(self) -> list[tuple[wf.Workflow, Verdict]]:
        """Each rank's (candidate, verdict), a read-only view of ``ranks``."""
        return [(rank.candidate, rank.verdict) for rank in self.ranks]

    def passed_rank(self) -> int | None:
        return next((n for n, rank in enumerate(self.ranks, start=1) if rank.verdict.passed), None)

    def to_doc(self, docs: "dict | None" = None) -> dict:
        """The episode's document; ``docs`` is ``workflow.node_to_doc``'s table."""
        return {
            "goal_id": self.goal_id,
            "seed": self.seed,
            "early_failure": self.early_failure,
            "steps": self.steps,
            "candidates": [
                {"workflow": wf.to_doc(rank.candidate, docs), "verdict": rank.verdict.to_doc()}
                for rank in self.ranks
            ],
            "repairs": [r.to_doc() for rank in self.ranks for r in rank.repairs],
            "outcomes": [
                [agent.agent_id, {**{name: getattr(o, name) for name in _OUTCOME_FIELDS},
                                  "p_redundant": round(o.p_redundant, 9)}]
                for rank in self.ranks for agent, o in rank.outcomes
            ],
        }


# --- decomposition ------------------------------------------------------------


def decompose(net: AgentNetwork, goal: Goal, config: SolveConfig,
              rng: random.Random, contested: list[Goal] | None = None) -> DecompositionTree:
    """Resolve the goal by an agent above theta that ``resolves`` it, else split.

    With hypotheses off an unmatched goal raises DecompositionFailure
    instead of splitting: proposing a subgoal structure is itself a
    structural hypothesis.  A goal whose split is one part with its own
    token set also raises at once: retrieval, compatibility and selection
    read only tokens, scope and life, so recursing into that part would
    fail the same way at every level until the depth budget.  It appends
    to ``contested``, if given, each goal that had two or more agents to
    select from.
    """
    return _decompose_goal(net, config, rng, contested, goal, 1, goal.input_schema)[0]


def _decompose_goal(net: AgentNetwork, config: SolveConfig, rng: random.Random,
                    contested: list[Goal] | None, g: Goal, depth: int,
                    scope: frozenset[str]) -> tuple[DecompositionTree, frozenset[str]]:
    # ``g``'s tree at ``depth`` under the fields in ``scope``, and the fields it produces.
    weighted = [(agent, compatibility(agent, score, scope, input_gate=config.input_goal))
                for agent, score in retrieve(net, g, config.theta) if resolves(net, g, agent)]
    if contested is not None and len(weighted) > 1:
        contested.append(g)
    if weighted:
        try:
            chosen = select(weighted, rng, use_life=config.scale_control)
        except NoEligibleAgent:
            chosen = None
        if chosen is not None:
            return Resolved(g, chosen), chosen.procedure.produced
    if not config.hypothesis:
        raise DecompositionFailure(
            f"no agent above threshold resolves goal {g.id!r} and structural "
            "splitting is disabled"
        )
    if depth >= MAX_DEPTH:
        raise DecompositionFailure(f"depth budget exhausted at goal {g.id!r}")
    parts = cover_split(net, g)
    if len(parts) == 1 and parts[0].tokens == g.tokens:
        raise DecompositionFailure(f"goal {g.id!r} splits into itself")
    children: list[DecompositionTree] = []
    produced: frozenset[str] = frozenset()
    for part in parts:
        child, out = _decompose_goal(net, config, rng, contested, part, depth + 1,
                                     scope | produced)
        children.append(child)
        produced = produced | out
    return Expanded(g, tuple(children)), produced


def tree_leaves(tree: DecompositionTree) -> list[Resolved]:
    if isinstance(tree, Resolved):
        return [tree]
    out: list[Resolved] = []
    for child in tree.children:
        out.extend(tree_leaves(child))
    return out


def compose(tree: DecompositionTree) -> wf.Workflow:
    """Left-to-right fold of the procedures of the leaves' agents.

    A non-root Expanded node marks a recursive sub-decomposition and is
    wrapped in a Nest under its goal id; the root composes flat.  The
    result re-declares its inputs from the composed goal's interface.
    """
    result = _compose_node(tree, True)
    return result.replace(
        declared_inputs=tree.goal.input_schema,
        id=f"cand-{tree.goal.id}",
        goal_id=tree.goal.id,
    )


def _compose_node(node: DecompositionTree, is_root: bool) -> wf.Workflow:
    if isinstance(node, Resolved):
        return node.agent.procedure
    acc = wf.concat(*[_compose_node(child, False) for child in node.children])
    if not is_root:
        acc = wf.nest(acc, (), node.goal.id, acc)
    return acc


# --- verification ---------------------------------------------------------------


def verify(candidate: wf.Workflow, target, config: SolveConfig = SolveConfig()) -> Verdict:
    """Oracle mode passes exactly when the edit script is empty; goal-anchored
    mode scores output coverage against the goal, zeroed when any task
    input stays unbound under the goal's inputs, and passes at ``config.eta``.
    The verdict reports the candidate's dead-node ratio, which the candidate
    computes when it is first read; with ``config.output_goal`` off the
    goal-anchored verdict reports 0.0."""
    if config.mode == "oracle":
        if not isinstance(target, wf.Workflow):
            raise MissingOracle("oracle-mode verification needs an expected workflow")
        script = wf.diff(candidate, target)
        return Verdict(
            passed=not script, score=0.0 if script else 1.0, mode="oracle",
            edit_script=script, workflow=candidate,
        )
    if not isinstance(target, Goal):
        raise ValueError("goal-anchored verification needs a Goal target")
    unbound = bool(wf.dataflow_violations(candidate.root, target.input_schema))
    produced = candidate.produced
    required = target.output_schema
    if config.output_goal:
        missing = required - produced
        score = (len(required & produced) / len(required)) if required else 1.0
    else:
        missing = frozenset()
        score = 1.0
    if unbound:
        score = 0.0
    return Verdict(
        passed=score >= config.eta, score=score, mode="goal_anchored",
        missing_outputs=frozenset(missing), workflow=candidate if config.output_goal else None,
    )


# --- the episode loop ------------------------------------------------------------


def _localize_fault(verdict: Verdict, tree: DecompositionTree) -> AtomicAgent | None:
    """Map the first oracle edit to the agent owning that top-level slot.

    A resolved root part owns one slot per top-level child of its
    procedure, a split one its Nest slot (blamed on its first leaf), and
    the last part any slot past the end.  ``verdict`` must be that of the
    candidate composed from ``tree``: a repair shifts or folds the slots.
    """
    if not verdict.edit_script:
        return None
    path = verdict.edit_script[0].path
    index = path[0] if path else 0
    parts = tree.children if isinstance(tree, Expanded) else (tree,)
    for part in parts:
        if isinstance(part, Resolved):
            agent, width = part.agent, len(wf.child_list(part.agent.procedure.root))
        else:
            agent, width = tree_leaves(part)[0].agent, 1
        index -= width
        if index < 0:
            return agent
    return agent


def _outcomes(net: AgentNetwork, goal: Goal, candidate: wf.Workflow,
              path_agents: list[AtomicAgent], verdict: Verdict,
              blamed: AtomicAgent | None) -> list[tuple[AtomicAgent, Outcome]]:
    """Each distinct path agent, in first-occurrence order, with its outcome.

    A pass rewards every agent, for reuse when another goal solved the
    same shape before (this goal is then recorded).  A failure fails the
    blamed agent, and drifts every agent when the output drift passes the
    threshold; drift is 0.0 unless a goal-anchored score lies strictly
    between 0 and 1, so the required outputs are not empty.
    """
    agents = dict.fromkeys(path_agents)
    if verdict.passed:
        solvers = net.solved_shapes.setdefault(wf.shape_signature(candidate), set())
        outcome = Outcome(r_correct=1, r_reuse=int(any(g != goal.id for g in solvers)),
                          r_general=int(is_novel(net, goal)),
                          p_redundant=verdict.dead_node_ratio)
        solvers.add(goal.id)
        return [(agent, outcome) for agent in agents]
    drift = 0.0
    if verdict.mode == "goal_anchored" and 0.0 < verdict.score < 1.0:
        produced, required = candidate.produced, goal.output_schema
        drift = 1.0 - len(produced & required) / len(produced | required)
    drifted = drift > net.config.drift_threshold
    return [(agent, Outcome(p_fail=int(agent is blamed), p_drift=int(drifted)))
            for agent in agents if agent is blamed or drifted]


def solve(net: AgentNetwork, goal: Goal, config: SolveConfig,
          expected: wf.Workflow | None = None) -> EpisodeResult:
    """Decompose, compose, verify, and repair up to k ranked candidates.

    Every rank draws from its own derived seed, so the rank-1 candidate
    is identical for any k.  A DecompositionFailure ends the episode as an
    early failure that keeps the ranks already run, with hypotheses on or
    off.  A failed candidate goes to the repair loop only when
    hypotheses are enabled and the repair budget is positive.  Without
    verification one candidate is composed and scored, with no reward or
    penalty.  ``_outcomes`` decides each rank's outcomes, and one loop
    issues them: through ``update_life``, or with scale control off
    through ``apply_stats``, which counts without touching life.  The
    fault is localized in the composed candidate, before any repair,
    because the decomposition tree's parts fill its top-level slots.
    Each rank appends one ``Rank`` to the episode.

    In an episode that will not repair, a rank that would repeat a forced
    tree (module docstring) skips ``decompose`` and takes the last rank's
    tree, candidate, verdict and blamed agent, since ``compose`` and
    ``verify`` are pure in the tree and the target; every rank of an
    episode that repairs decomposes with its own seeded rng.
    """
    from .repair import repair_loop  # deferred to avoid an import cycle

    target = expected if config.mode == "oracle" else goal
    if config.mode == "oracle" and expected is None:
        raise MissingOracle(f"no expected workflow supplied for goal {goal.id!r}")

    episode = EpisodeResult(goal_id=goal.id, ranks=[], steps=0, seed=config.seed)
    repairs = config.hypothesis and config.repair_budget >= 1
    reuse = False  # whether the last rank's tree, candidate, verdict and blame stand
    for rank in range(1, config.k + 1):
        if not reuse or config.scale_control and any(agent.life <= 0.0 for agent in leaf_agents):
            rng = random.Random(derive_seed(config.seed, goal.id, rank))
            contested: list[Goal] = []
            try:
                tree = decompose(net, goal, config, rng, contested)
            except DecompositionFailure:
                episode.early_failure = True
                break
            reuse = not (contested or repairs)
            leaf_agents = [leaf.agent for leaf in tree_leaves(tree)]
            candidate = compose(tree)
            verdict = verify(candidate, target, config)
            blamed = _localize_fault(verdict, tree)
        episode.steps += len(leaf_agents)
        trace, stop = [], None
        if not config.verification:
            episode.ranks.append(Rank(candidate, verdict))
            break

        if not verdict.passed and repairs:
            candidate, verdict, trace, stop = repair_loop(
                net, goal, candidate, verdict, target, config, rng)
            episode.steps += len(trace)
        path_agents = leaf_agents + [record.agent for record in trace if record.agent is not None]
        outcomes = _outcomes(net, goal, candidate, path_agents, verdict, blamed)
        for agent, outcome in outcomes:
            if config.scale_control:
                update_life(agent, outcome, net.config)
            else:
                apply_stats(agent, outcome)
        episode.ranks.append(Rank(candidate, verdict, tuple(trace), stop, tuple(outcomes)))
        if verdict.passed:
            break
    return episode
