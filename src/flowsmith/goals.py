"""Goal descriptors, similarity scoring, and schema compatibility.

Similarity is Jaccard over descriptor token sets: symmetric, bounded
to [0, 1], and exactly 1.0 for identical non-empty token sets.
Disjoint token sets (most pairs the refresh pass compares) score 0.0
after one ``isdisjoint`` and equal ones 1.0, with no set built; any
other pair builds only the intersection and counts the union as
``|x| + |y| - |x & y|``, which is exact, so every score is bit-identical
to ``|x & y| / |x | y|``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyGoal, name_list, name_set


@dataclass(frozen=True)
class Goal:
    """A goal: identifier, descriptor tokens, and an input/output field interface.

    ``subgoal_template`` is the ground-truth decomposition (ordered part
    goal ids).  It exists for the corpus generator and test oracles only;
    solver-facing loaders strip it.
    """

    id: str
    tokens: frozenset[str]
    input_schema: frozenset[str] = frozenset()
    output_schema: frozenset[str] = frozenset()
    subgoal_template: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("goal id must be non-empty")
        object.__setattr__(self, "tokens", frozenset(self.tokens))
        if not self.tokens:
            raise EmptyGoal(f"goal {self.id!r} has an empty token set")
        object.__setattr__(self, "input_schema", frozenset(self.input_schema))
        object.__setattr__(self, "output_schema", frozenset(self.output_schema))
        if self.subgoal_template is not None:
            object.__setattr__(self, "subgoal_template", tuple(self.subgoal_template))


def similarity(a: Goal, b: Goal) -> float:
    """Jaccard score in [0, 1]; symmetric; 1.0 exactly for equal (never empty) token sets.

    Fast paths: disjoint token sets return 0.0 and equal ones 1.0 without
    building a set; otherwise only the intersection is built, and the
    union size is counted as ``len(x) + len(y) - shared``.
    """
    x, y = a.tokens, b.tokens
    if x.isdisjoint(y):
        return 0.0
    if x == y:
        return 1.0
    shared = len(x & y)
    return shared / (len(x) + len(y) - shared)


def schema_compat(producer_outputs, consumer: Goal) -> bool:
    """True iff every field the consumer requires is already available."""
    return consumer.input_schema <= frozenset(producer_outputs)


# --- goal documents -----------------------------------------------------------

ORACLE_SUBGOALS_KEY = "oracle_subgoals"


def goal_to_doc(goal: Goal) -> dict:
    doc = {
        "id": goal.id,
        "tokens": sorted(goal.tokens),
        "input_schema": sorted(goal.input_schema),
        "output_schema": sorted(goal.output_schema),
    }
    if goal.subgoal_template is not None:
        doc[ORACLE_SUBGOALS_KEY] = list(goal.subgoal_template)
    return doc


def goal_from_doc(doc: dict, strip_oracle: bool = False) -> Goal:
    template = None
    if not strip_oracle and ORACLE_SUBGOALS_KEY in doc:
        template = name_list(doc[ORACLE_SUBGOALS_KEY], ORACLE_SUBGOALS_KEY)
    return Goal(
        id=doc["id"],
        tokens=name_set(doc["tokens"], "tokens"),
        input_schema=name_set(doc.get("input_schema", ()), "input_schema"),
        output_schema=name_set(doc.get("output_schema", ()), "output_schema"),
        subgoal_template=template,
    )
