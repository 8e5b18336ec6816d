"""Atomic agents and the self-regulating agent pool.

Each agent pairs one goal with the minimal workflow that fulfills it
and a scalar life value.  The pool supports threshold retrieval,
compatibility-weighted probabilistic selection, life updates from
execution outcomes, and periodic elimination / refresh against an
archive.  It is the only module that reads the pool lists and their
indexes: the solve stack asks ``retrieve``, ``resolves``,
``cover_split``, ``is_novel``, ``best_producers`` and ``goal_named``,
and every read breaks ties by ascending agent id.

``AgentNetwork`` keeps two indexes beside its lists: ``by_token``
(goal token -> active agents) and ``training_tokens`` (the training
goals' token sets).  The network builds them when ``build_agents``
makes it, and ``eliminate_and_refresh``, the one place the active list
changes, updates ``by_token`` for each agent it archives, revives or
spawns.  ``retrieve``, ``resolves``, ``cover_split`` and ``is_novel``
answer from them, so an episode touches only the agents that share a
token with the goal.

The answers of ``retrieve`` (per goal token set and theta) and of
``cover_split`` (per goal token set) depend only on which agents are
active, so the network keeps them in ``read_memo`` and answers a
repeated question from there.  ``_index`` and ``_unindex``, which every
change of membership goes through, clear it; a split that fails is
never kept.  On a run of novel goals built from a small pool most
questions repeat: the benchmark's ``repair`` workload asks about 9,000
retrievals of 1,120 token sets.

``best_producers`` and ``goal_named`` serve only repairs and still scan
the active list, and so does the refresh that re-covers the training
goals: every ``refresh_period``-th ``eliminate_and_refresh`` compares
each training goal with the active agents, about 0.46 s at 1,600
agents and 10.7 s at 6,400 (``bench/pool_scale.py``,
``BENCH_15.json``).  Most of those pairs share no token, and
``similarity`` answers them without building a set.  The pass stays a
scan until ROADMAP item 1b lands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import workflow as wf
from .errors import (ConfigError, DecompositionFailure, DuplicateGoal, InvalidWorkflow,
                     NoEligibleAgent, is_int, is_number)
from .goals import Goal, schema_compat, similarity


@dataclass
class AgentStats:
    successes: int = 0
    failures: int = 0

    def success_ratio(self) -> float:
        total = self.successes + self.failures
        return self.successes / total if total else 0.0


@dataclass(frozen=True)
class LifeConfig:
    """Life dynamics knobs; defaults keep a fresh agent alive through two failures."""

    l_init: float = 10.0
    l_max: float = 100.0
    alphas: tuple[float, float, float] = (3.0, 1.0, 2.0)
    betas: tuple[float, float, float] = (4.0, 2.0, 1.0)
    drift_threshold: float = 0.5
    refresh_period: int = 10

    def __post_init__(self):
        # Config files give ints and lists: store floats and tuples, so a
        # report echoes one form whatever the file held.
        for name in ("l_init", "l_max", "drift_threshold"):
            if not is_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a number, got {getattr(self, name)!r}")
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("alphas", "betas"):
            value = getattr(self, name)
            if (not isinstance(value, (list, tuple)) or len(value) != 3
                    or not all(is_number(w) and w >= 0 for w in value)):
                raise ConfigError(f"{name} must hold three non-negative numbers, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        if not 0 < self.l_init <= self.l_max:
            raise ConfigError("l_init must lie in (0, l_max]")
        if not is_int(self.refresh_period) or self.refresh_period < 1:
            raise ConfigError(f"refresh_period must be an integer >= 1, got {self.refresh_period!r}")


@dataclass(frozen=True)
class Outcome:
    """One execution event: unit reward flags plus graded penalties.

    ``r_correct`` (verified success) and ``p_fail`` (execution failure)
    are mutually exclusive by definition.
    """

    r_correct: int = 0
    r_reuse: int = 0
    r_general: int = 0
    p_fail: int = 0
    p_drift: int = 0
    p_redundant: float = 0.0

    def __post_init__(self):
        if self.r_correct and self.p_fail:
            raise ValueError("r_correct and p_fail are mutually exclusive")
        if not 0.0 <= self.p_redundant <= 1.0:
            raise ValueError("p_redundant must lie in [0, 1]")


@dataclass(eq=False)
class AtomicAgent:
    """A mutable pool member: it compares and hashes by identity."""

    agent_id: str
    goal: Goal
    procedure: wf.Workflow
    life: float
    stats: AgentStats = field(default_factory=AgentStats)

    @classmethod
    def from_pair(cls, goal: Goal, procedure: wf.Workflow, config: LifeConfig,
                  agent_id: str | None = None) -> "AtomicAgent":
        report = wf.validate(procedure)
        if not report.ok:
            raise InvalidWorkflow(
                f"procedure for goal {goal.id!r}: " + "; ".join(report.violations)
            )
        return cls(
            agent_id=agent_id or goal.id,
            goal=goal,
            procedure=procedure,
            life=config.l_init,
        )


@dataclass
class ChangeLog:
    archived: list[str] = field(default_factory=list)
    revived: list[str] = field(default_factory=list)
    spawned: list[str] = field(default_factory=list)


@dataclass
class AgentNetwork:
    active: list[AtomicAgent]
    archive: list[AtomicAgent]
    epoch: int
    config: LifeConfig
    training: list[tuple[Goal, wf.Workflow]] = field(default_factory=list)
    solved_shapes: dict = field(default_factory=dict)
    by_token: dict[str, set[AtomicAgent]] = field(init=False, repr=False)
    training_tokens: set[frozenset[str]] = field(init=False, repr=False)
    # ("retrieve", tokens, theta) or ("cover_split", tokens) -> the answer
    read_memo: dict[tuple, list] = field(init=False, repr=False)

    def __post_init__(self):
        self.by_token = {}
        self.read_memo = {}
        for agent in self.active:
            _index(self, agent)
        self.training_tokens = {goal.tokens for goal, _ in self.training}


def _index(net: AgentNetwork, agent: AtomicAgent) -> None:
    net.read_memo.clear()
    for token in agent.goal.tokens:
        net.by_token.setdefault(token, set()).add(agent)


def _unindex(net: AgentNetwork, agent: AtomicAgent) -> None:
    net.read_memo.clear()
    for token in agent.goal.tokens:
        net.by_token[token].discard(agent)


def _holders(net: AgentNetwork, tokens) -> set[AtomicAgent]:
    """The active agents whose goals hold any of ``tokens``.  The set
    iterates in no fixed order, so every caller imposes its own."""
    return set().union(*(net.by_token.get(token, ()) for token in tokens))


def build_agents(dataset: list[tuple[Goal, wf.Workflow]],
                 config: LifeConfig | None = None) -> AgentNetwork:
    """One agent per (goal, procedure) pair; by construction each trained
    goal retrieves its own procedure with similarity exactly 1.0."""
    config = config or LifeConfig()
    seen: set[str] = set()
    agents: list[AtomicAgent] = []
    for goal, procedure in dataset:
        if goal.id in seen:
            raise DuplicateGoal(f"goal id {goal.id!r} appears twice")
        seen.add(goal.id)
        agents.append(AtomicAgent.from_pair(goal, procedure, config))
    return AgentNetwork(
        active=agents,
        archive=[],
        epoch=0,
        config=config,
        training=list(dataset),
    )


def retrieve(net: AgentNetwork, goal: Goal, theta: float) -> list[tuple[AtomicAgent, float]]:
    """Active agents with similarity strictly above theta, best first.

    Ties break by ascending agent id; archived agents never appear.  Only
    agents sharing a token with the goal are scored: the rest score 0.0,
    which is never above theta.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    key = ("retrieve", goal.tokens, theta)
    scored = net.read_memo.get(key)
    if scored is None:
        scored = []
        for agent in _holders(net, goal.tokens):
            score = similarity(agent.goal, goal)
            if score > theta:
                scored.append((agent, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0].agent_id))
        net.read_memo[key] = scored
    return list(scored)


def resolves(net: AgentNetwork, goal: Goal, agent: AtomicAgent) -> bool:
    """True when no active agent holds a token of ``goal`` that ``agent``'s
    goal lacks, which would make that part of the goal another agent's."""
    return not any(net.by_token.get(token) for token in goal.tokens - agent.goal.tokens)


def cover_split(net: AgentNetwork, goal: Goal) -> list[Goal]:
    """Greedy set-cover of the goal's tokens by active agents' goal tokens.

    Largest remaining overlap wins, ties by ascending agent id; the pick
    order is the subgoal order.  DecompositionFailure if a token has no cover.
    The agents holding a residual token are those of the goal's holders
    that still meet the residual, so the holders are gathered once.
    """
    key = ("cover_split", goal.tokens)
    parts = net.read_memo.get(key)
    if parts is None:
        residual = set(goal.tokens)
        holders = _holders(net, residual)
        parts = []
        while residual:
            holders = [a for a in holders if not a.goal.tokens.isdisjoint(residual)]
            if not holders:
                raise DecompositionFailure(
                    f"tokens {sorted(residual)} of goal {goal.id!r} are not coverable"
                )
            best = min(holders, key=lambda a: (-len(a.goal.tokens & residual), a.agent_id))
            parts.append(best.goal)
            residual -= best.goal.tokens
        net.read_memo[key] = parts
    return list(parts)


def is_novel(net: AgentNetwork, goal: Goal) -> bool:
    """True when no training goal matches at similarity 1.0, which only an
    equal token set reaches."""
    return goal.tokens not in net.training_tokens


def best_producers(net: AgentNetwork, fields: frozenset[str]) -> list[tuple[AtomicAgent, float]]:
    """(agent, share) for the active agents tied at the top share of ``fields``
    their goals output, in id order for ``select``; [] when none outputs any."""
    scored = [(agent, len(agent.goal.output_schema & fields) / len(fields))
              for agent in sorted(net.active, key=lambda a: a.agent_id)] if fields else []
    best = max((score for _, score in scored), default=0.0)
    return [(agent, score) for agent, score in scored if best > 0.0 and score == best]


def goal_named(net: AgentNetwork, goal_id: str) -> Goal | None:
    """The goal of the lowest-id active agent whose goal has this id, if any."""
    named = [agent for agent in net.active if agent.goal.id == goal_id]
    return min(named, key=lambda a: a.agent_id).goal if named else None


def compatibility(agent: AtomicAgent, familiarity: float, available_inputs: frozenset[str],
                  input_gate: bool = True) -> float:
    """Schema gate times an even blend of familiarity (the retrieval score) and success prior."""
    if input_gate and not schema_compat(available_inputs, agent.goal):
        return 0.0
    return 0.5 * familiarity + 0.5 * agent.stats.success_ratio()


def _weights(candidates: list[tuple[AtomicAgent, float]], use_life: bool) -> list[float]:
    weights = [max(0.0, (agent.life if use_life else 1.0) * gamma)
               for agent, gamma in candidates]
    if sum(weights) <= 0.0:
        raise NoEligibleAgent("all selection weights are zero")
    return weights


def select(candidates: list[tuple[AtomicAgent, float]], rng: random.Random,
           use_life: bool = True) -> AtomicAgent:
    """Sample an agent with probability proportional to life * gamma.

    Zero-weight candidates carry exactly zero probability.  With
    ``use_life`` off (scale-control ablation) weights are gamma alone.
    """
    if not candidates:
        raise NoEligibleAgent("empty candidate list")
    weights = _weights(candidates, use_life)
    draw = rng.random() * sum(weights)
    acc = 0.0
    for (agent, _), weight in zip(candidates, weights):
        acc += weight
        if draw < acc:
            return agent
    # Unreachable except for float round-off on the last boundary.
    for (agent, _), weight in zip(reversed(candidates), reversed(weights)):
        if weight > 0.0:
            return agent
    raise NoEligibleAgent("all selection weights are zero")


def selection_probabilities(candidates: list[tuple[AtomicAgent, float]],
                            use_life: bool = True) -> list[float]:
    weights = _weights(candidates, use_life)
    total = sum(weights)
    return [w / total for w in weights]


def apply_stats(agent: AtomicAgent, outcome: Outcome) -> None:
    agent.stats.successes += outcome.r_correct
    agent.stats.failures += outcome.p_fail


def update_life(agent: AtomicAgent, outcome: Outcome, config: LifeConfig) -> float:
    """Clamp(L + rewards - penalties, 0, L_max); stats counters track the flags."""
    a1, a2, a3 = config.alphas
    b1, b2, b3 = config.betas
    gain = a1 * outcome.r_correct + a2 * outcome.r_reuse + a3 * outcome.r_general
    loss = b1 * outcome.p_fail + b2 * outcome.p_drift + b3 * outcome.p_redundant
    agent.life = min(config.l_max, max(0.0, agent.life + gain - loss))
    apply_stats(agent, outcome)
    return agent.life


def eliminate_and_refresh(net: AgentNetwork) -> ChangeLog:
    """Archive dead agents; every refresh_period epochs, re-cover training goals.

    A coverage hole (a training goal with no active similarity-1.0 agent)
    is filled by reviving the archived agent with the best success ratio,
    ties by id, else by spawning a fresh agent from the training pair.
    The periodicity check uses the pre-increment epoch.
    """
    log = ChangeLog()
    survivors = []
    for agent in net.active:
        if agent.life <= 0.0:
            _unindex(net, agent)
            net.archive.append(agent)
            log.archived.append(agent.agent_id)
        else:
            survivors.append(agent)
    net.active = survivors

    if net.epoch % net.config.refresh_period == 0:
        for goal, procedure in net.training:
            covered = any(
                similarity(agent.goal, goal) == 1.0 for agent in net.active
            )
            if covered:
                continue
            matching = [
                agent for agent in net.archive
                if similarity(agent.goal, goal) == 1.0
            ]
            if matching:
                matching.sort(key=lambda a: (-a.stats.success_ratio(), a.agent_id))
                chosen = matching[0]
                net.archive.remove(chosen)
                chosen.life = net.config.l_init
                _index(net, chosen)
                net.active.append(chosen)
                log.revived.append(chosen.agent_id)
            else:
                spawned = AtomicAgent.from_pair(
                    goal, procedure, net.config,
                    agent_id=f"{goal.id}@e{net.epoch}",
                )
                _index(net, spawned)
                net.active.append(spawned)
                log.spawned.append(spawned.agent_id)
    net.epoch += 1
    return log
