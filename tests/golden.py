"""Golden digests: the determinism contract as one fixed matrix of CLI runs.

The same seed and config must give byte-identical corpora, transcripts
and reports.  This script runs a fixed matrix through ``cli.main`` and
hashes what each run writes:

- a 200-record default-profile corpus at seed 7, split 160 / 40, and
  70 novel goals (35 linear, 35 nested) built from the train split;
- 35 more linear novel goals whose expected flows carry a guarded side
  path: a Branch, appended by ``branch``, that runs the workflow of the
  goal's lowest-id part when the first sorted output of that part's tasks
  exists.  Each is bucketed by the metrics of its branched flow, and
  ``eval`` runs on them, so the Branch handling of normalization, diff,
  binding, node documents and the MissingBranch repair is pinned end to end;
- on the held-out split and on the novel goals, in oracle and
  goal_anchored mode: plain ``eval``, ``ablate --disable`` for each
  ablatable component, ``eval --budget 0``, ``eval`` with a life
  ``--config`` file, and ``solve --k 3``;
- ``gen-corpus`` itself, plain and with ``--planted-length 3``;
- on the novel goals, ``eval --sweep 0,40,160`` with one worker process
  and with three, which must write the same files;
- ``eval --library`` with the planted corpus's ``planted_library``, its
  train split (0.8, seed 7) as both train and test corpus: the held-out
  split's two planted flows give a reuse_pct of 0, the train split's
  ten give one above 0.

Each run's digest is one sha256 over its output files (transcripts,
CSV, report) in that order, with the temporary directory replaced by a
fixed name in the report's config echo.

Usage, from the repository root (pytest is not needed):

    python tests/golden.py            # check against tests/golden_digests.json
    python tests/golden.py --write    # rewrite tests/golden_digests.json

A change that claims no behaviour change must leave the JSON file as it
is; one that changes behaviour on purpose rewrites it and lists every
changed key, old and new.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from flowsmith import cli  # noqa: E402
from flowsmith import corpus as cp  # noqa: E402
from flowsmith import workflow as wf  # noqa: E402
from flowsmith.evaluation import ABLATABLE  # noqa: E402

DIGESTS = Path(__file__).with_name("golden_digests.json")
SEED = "7"
LIFE = {"refresh_period": 100, "l_init": 2.0, "betas": [50, 2, 1]}
PLACEHOLDER = "<tmp>"


def _prepare(work: Path) -> dict[str, Path]:
    """Write the corpus, its split, the novel goals and the life config."""
    corpus_path = work / "corpus.jsonl"
    _main(["gen-corpus", "--n", "200", "--seed", SEED, "--out", str(corpus_path)])
    train, held_out = cp.split(cp.load_corpus(corpus_path), 0.8, seed=int(SEED))
    novel = (cp.make_novel_goals(train, seed=int(SEED), count=35, structure="linear")
             + cp.make_novel_goals(train, seed=int(SEED), count=35, structure="nested"))
    paths = {"corpus": corpus_path, "train": work / "train.jsonl",
             "heldout": work / "heldout.jsonl", "novel": work / "novel.jsonl",
             "branched": work / "branched.jsonl", "life": work / "life.json"}
    cp.save_corpus(train, paths["train"])
    cp.save_corpus(held_out, paths["heldout"])
    cp.save_corpus(novel, paths["novel"])
    cp.save_corpus(_branched_goals(train), paths["branched"])
    paths["life"].write_text(json.dumps(LIFE))
    return paths


def _branched_goals(train: list[cp.CorpusRecord]) -> list[cp.CorpusRecord]:
    """35 linear novel goals, each expected flow given a guarded side path
    that runs the workflow of its lowest-id part."""
    by_id = {record.goal.id: record for record in train}
    out = []
    for record in cp.make_novel_goals(train, seed=int(SEED), count=35, structure="linear",
                                      id_prefix="novel-branched"):
        part = by_id[min(record.goal.subgoal_template)].workflow
        key = min(field for task in wf.task_order(part.root) for field in task.output_schema)
        flow = wf.branch(record.workflow, wf.Predicate(key, "exists"), part)
        kind, size = cp.bucket_labels(wf.node_metrics(flow.root))
        out.append(cp.CorpusRecord(record.goal, flow, kind, size))
    return out


def _main(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"golden run failed with exit {code}: {' '.join(argv)}")


def _digest(files: list[Path], work: Path) -> str:
    sha = hashlib.sha256()
    for path in files:
        sha.update(path.read_bytes().replace(str(work).encode(), PLACEHOLDER.encode()))
    return sha.hexdigest()


def compute() -> dict[str, str]:
    """Run the matrix in a fresh temporary directory; key -> sha256."""
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="flowsmith-golden-") as tmp:
        work = Path(tmp)
        paths = _prepare(work)
        digests["gen-corpus"] = _digest([paths["corpus"]], work)
        planted = work / "planted.jsonl"
        _main(["gen-corpus", "--n", "200", "--seed", SEED, "--planted-length", "3",
               "--out", str(planted)])
        digests["gen-corpus-planted-3"] = _digest([planted], work)
        train = str(paths["train"])
        variants = [("eval", ["eval"]),
                    *((f"ablate-{name}", ["ablate", "--disable", name]) for name in ABLATABLE),
                    ("budget-0", ["eval", "--budget", "0"]),
                    ("life", ["eval", "--config", str(paths["life"])])]
        for split in ("heldout", "novel"):
            test = str(paths[split])
            for mode in ("oracle", "goal_anchored"):
                common = ["--train", train, "--mode", mode, "--seed", SEED]
                for name, head in variants:
                    digests[f"{split}/{mode}/{name}"] = _evaluate(
                        work, f"{split}-{mode}-{name}", head + common + ["--test", test])
                solved = work / f"{split}-{mode}-solve.jsonl"
                _main(["solve"] + common + ["--goals", test, "--k", "3", "--out", str(solved)])
                digests[f"{split}/{mode}/solve-k3"] = _digest([solved], work)
        for workers in ("1", "3"):
            digests[f"novel/oracle/sweep-parallelism-{workers}"] = _evaluate(
                work, f"sweep-{workers}",
                ["eval", "--train", train, "--test", str(paths["novel"]), "--seed", SEED,
                 "--sweep", "0,40,160", "--parallelism", workers])
        digests["branched/oracle/eval"] = _evaluate(
            work, "branched",
            ["eval", "--train", train, "--test", str(paths["branched"]), "--seed", SEED])
        planted_train = work / "planted-train.jsonl"
        cp.save_corpus(cp.split(cp.load_corpus(planted), 0.8, seed=int(SEED))[0], planted_train)
        profile = cp.default_profile(planted=cp.PlantedSubflowSpec(length=3, rate=0.2))
        library = work / "library.jsonl"
        library.write_text("".join(wf.canonical_json(wf.to_doc(pattern)) + "\n"
                                   for pattern in cp.planted_library(profile, int(SEED))))
        digests["planted-train/oracle/library"] = _evaluate(
            work, "library",
            ["eval", "--train", str(planted_train), "--test", str(planted_train), "--seed", SEED,
             "--library", str(library)])
    return digests


def _evaluate(work: Path, name: str, argv: list[str]) -> str:
    """Digest of the transcripts, CSV and report of one ``eval`` or ``ablate`` run."""
    out = [work / f"{name}.{ext}" for ext in ("jsonl", "csv", "json")]
    _main(argv + ["--transcripts", str(out[0]), "--csv", str(out[1]), "--report", str(out[2])])
    return _digest(out, work)


def mismatches(digests: dict[str, str]) -> list[str]:
    """Keys whose digest differs from the committed file, or that one side lacks."""
    golden = json.loads(DIGESTS.read_text())
    return sorted(key for key in golden.keys() | digests.keys()
                  if golden.get(key) != digests.get(key))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {DIGESTS.name} instead of checking it")
    args = parser.parse_args(argv)
    digests = compute()
    if args.write:
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {DIGESTS}")
        return 0
    bad = mismatches(digests)
    for key in bad:
        print(f"differs: {key}")
    print(f"{len(digests) - len(bad)} of {len(digests)} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
