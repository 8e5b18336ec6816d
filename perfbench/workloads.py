"""The benchmark's workloads: each writes its input corpora from a seed.

Every workload runs the evaluation protocol as ``flowsmith eval`` does:
a training corpus and a file of novel composite goals go in, transcripts
and a report come out.  The workloads differ in pool size, goal shape
and repair budget, so that each one puts its weight on different layers
(see README.md for the layer map).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from flowsmith import corpus
from flowsmith.evaluation import ExperimentConfig

TRAIN_FRACTION = 0.8
K_LIST = (1, 3, 5)


def repair_profile(total: int) -> corpus.CorpusProfile:
    """Every flow has 2-5 tasks and three in four are nested, so composites
    built from them rarely come out right at rank 1 and need repair."""
    return corpus.CorpusProfile(
        total=total,
        node_histogram={2: 0.25, 3: 0.25, 4: 0.25, 5: 0.25},
        depth_histogram={0: 0.25, 1: 0.5, 2: 0.25},
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    records: int
    linear_goals: int
    nested_goals: int
    parts: tuple[int, int]
    repair_budget: int = 5
    profile: Callable[[int], corpus.CorpusProfile] = corpus.default_profile

    @property
    def pool_size(self) -> int:
        return round(TRAIN_FRACTION * self.records)

    @property
    def episodes(self) -> int:
        return self.linear_goals + self.nested_goals

    def goal_groups(self) -> list[tuple[str, int, int]]:
        """(structure, goal count, part count): each structure's goals split evenly
        over the part counts, so every seed gives the same mix of goal shapes."""
        lo, hi = self.parts
        sizes = range(lo, hi + 1)
        groups = []
        for structure, total in (("linear", self.linear_goals), ("nested", self.nested_goals)):
            for i, parts in enumerate(sizes):
                count = total // len(sizes) + (1 if i < total % len(sizes) else 0)
                groups.append((structure, count, parts))
        return groups

    def write_inputs(self, seed: int, directory: Path) -> tuple[Path, Path]:
        """Generate, split and compose goals from ``seed``; return (train, test) paths.

        The calls go through the ``corpus`` module's attributes so that a
        traced run sees them.
        """
        records = corpus.generate(self.profile(self.records), seed)
        train, _ = corpus.split(records, TRAIN_FRACTION, seed)
        goals = []
        for structure, count, parts in self.goal_groups():
            goals += corpus.make_novel_goals(train, seed, count, (parts, parts), structure,
                                             id_prefix=f"{structure}-{parts}")
        train_path, test_path = directory / "train.jsonl", directory / "test.jsonl"
        corpus.save_corpus(train, train_path)
        corpus.save_corpus(goals, test_path)
        return train_path, test_path

    def experiment(self, seed: int, train: Path, test: Path, directory: Path) -> ExperimentConfig:
        """The configuration ``flowsmith eval --budget <repair_budget>`` builds."""
        return ExperimentConfig(
            train_path=str(train),
            test_path=str(test),
            k_list=K_LIST,
            repair_budget=self.repair_budget,
            seed=seed,
            parallelism=1,
            report_path=str(directory / "report.json"),
            transcripts_path=str(directory / "transcripts.jsonl"),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan",
            why="600-agent pool, 100 novel goals of 2-3 parts, default configs: "
                "refresh coverage passes and retrieve scan the full pool",
            records=750, linear_goals=60, nested_goals=40, parts=(2, 3),
        ),
        Workload(
            name="repair",
            why="120-agent pool of nested 2-5 task flows, 1000 novel goals of 4-6 parts: "
                "nearly every rank-1 candidate is repaired, pool scans are cheap",
            records=150, linear_goals=500, nested_goals=500, parts=(4, 6),
            profile=repair_profile,
        ),
        Workload(
            name="churn",
            why="200-agent pool, 300 novel goals, repair budget 0: failed candidates are "
                "penalised, so agents are archived and revived hundreds of times per run",
            records=250, linear_goals=180, nested_goals=120, parts=(2, 3),
            repair_budget=0,
        ),
    )
}
