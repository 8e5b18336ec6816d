import json

import pytest

from flowsmith import cli
from flowsmith import corpus as cp


@pytest.fixture()
def corpora(tmp_path):
    profile = cp.CorpusProfile(
        total=60,
        node_histogram={1: 0.6, 2: 0.25, 3: 0.15},
        depth_histogram={0: 0.85, 1: 0.15},
        tool_vocab_size=16,
    )
    records = cp.generate(profile, seed=5)
    novel = cp.make_novel_goals(records, seed=6, count=12, parts_range=(2, 2))
    train = tmp_path / "train.jsonl"
    test = tmp_path / "novel.jsonl"
    cp.save_corpus(records, train)
    cp.save_corpus(novel, test)
    return tmp_path, str(train), str(test)


# --- parse_args -------------------------------------------------------------------


def test_parse_gen_corpus_command():
    cmd = cli.parse_args(["gen-corpus", "--profile", "default", "--n", "2000",
                          "--seed", "7", "--out", "corpus.jsonl"])
    assert cmd.verb == "gen-corpus"
    assert cmd.options["n"] == 2000
    assert cmd.options["seed"] == 7
    assert cmd.options["out"] == "corpus.jsonl"


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["gen-corpus", "--n", "10"])
    assert err.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["gen-corpus", "--out", "x", "--bogus", "1"])
    assert err.value.code == 2


def test_config_file_supplies_defaults_and_flags_win(tmp_path, monkeypatch):
    config = tmp_path / "flowsmith.json"
    config.write_text(json.dumps({"theta": 0.6, "seed": 42}))
    monkeypatch.setenv(cli.DEFAULT_CONFIG_ENV, str(config))
    from_file = cli.parse_args(["eval", "--train", "a", "--test", "b", "--report", "r"])
    assert from_file.options["theta"] == 0.6
    assert from_file.options["seed"] == 42
    overridden = cli.parse_args(["eval", "--train", "a", "--test", "b", "--report", "r",
                                 "--theta", "0.9"])
    assert overridden.options["theta"] == 0.9


def test_unknown_config_key_is_a_usage_error(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"thetaa": 0.6}))
    code = cli.main(["eval", "--config", str(config), "--train", "a", "--test", "b",
                     "--report", "r"])
    assert code == 2


def test_builtin_defaults_fill_in(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # no flowsmith.json here
    cmd = cli.parse_args(["eval", "--train", "a", "--test", "b", "--report", "r"])
    assert cmd.options["theta"] == 0.8
    assert cmd.options["eta"] == 0.95
    assert tuple(cmd.options["k_list"]) == (1, 3, 5)


# --- dispatch ----------------------------------------------------------------------


def test_gen_corpus_and_eval_round_trip(corpora, capsys):
    tmp_path, train, test = corpora
    report = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    code = cli.main(["eval", "--train", train, "--test", test,
                     "--k", "1,3,5", "--seed", "7",
                     "--report", str(report), "--csv", str(csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "report written" in out
    doc = json.loads(report.read_text())
    assert doc["per_bucket"]
    lines = csv.read_text().splitlines()
    assert lines[0] == "bucket,k,value"
    assert len(lines) > 1


def test_gen_corpus_writes_deterministic_output(tmp_path, capsys):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    assert cli.main(["gen-corpus", "--n", "50", "--seed", "3", "--out", str(out_a)]) == 0
    assert cli.main(["gen-corpus", "--n", "50", "--seed", "3", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(out_a.read_text().splitlines()) == 50


def test_build_net_snapshot(corpora, capsys):
    tmp_path, train, _ = corpora
    out = tmp_path / "net.json"
    assert cli.main(["build-net", "--train", train, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["active"]) == 60


def test_solve_reports_pass_rate(corpora, capsys):
    tmp_path, train, test = corpora
    out = tmp_path / "episodes.jsonl"
    code = cli.main(["solve", "--train", train, "--goals", test, "--out", str(out),
                     "--seed", "7"])
    assert code == 0
    assert "pass@1=" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 12


def test_corrupt_corpus_line_exits_three(corpora, capsys):
    tmp_path, train, test = corpora
    broken = tmp_path / "broken.jsonl"
    lines = open(train).read().splitlines()
    lines[4] = "{oops"
    broken.write_text("\n".join(lines) + "\n")
    code = cli.main(["eval", "--train", str(broken), "--test", test,
                     "--report", str(tmp_path / "r.json")])
    assert code == 3
    assert "line 5" in capsys.readouterr().err


def test_missing_test_file_exits_two(corpora, capsys):
    tmp_path, train, _ = corpora
    code = cli.main(["eval", "--train", train, "--test", str(tmp_path / "gone.jsonl"),
                     "--report", str(tmp_path / "r.json")])
    assert code == 2


def test_ablate_hypothesis_reports_zero(corpora, capsys):
    tmp_path, train, test = corpora
    report = tmp_path / "ablate.json"
    code = cli.main(["ablate", "--disable", "hypothesis", "--train", train,
                     "--test", test, "--seed", "7", "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    for table in doc["per_bucket"].values():
        assert all(v == 0.0 for v in table.values())


def test_report_verb_reemits_csv(corpora, capsys):
    tmp_path, train, test = corpora
    report = tmp_path / "report.json"
    first = tmp_path / "first.csv"
    assert cli.main(["eval", "--train", train, "--test", test, "--seed", "7",
                     "--report", str(report), "--csv", str(first)]) == 0
    csv = tmp_path / "again.csv"
    assert cli.main(["report", "--report", str(report), "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "bucket,k,value" and len(lines) > 1
    assert csv.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("sweep", ["abc", "-5", "61", "100000"])
def test_bad_sweep_sizes_exit_two(corpora, capsys, sweep):
    tmp_path, train, test = corpora
    report = tmp_path / "sweep.json"
    code = cli.main(["eval", "--train", train, "--test", test, "--sweep", sweep,
                     "--report", str(report)])
    assert code == 2
    assert "sweep" in capsys.readouterr().err
    assert not report.exists()


def test_failed_run_leaves_no_partial_outputs(corpora):
    tmp_path, train, test = corpora
    report = tmp_path / "never.json"
    code = cli.main(["eval", "--train", train, "--test", str(tmp_path / "gone.jsonl"),
                     "--report", str(report)])
    assert code == 2
    assert not report.exists()


def test_same_argv_same_bytes(corpora):
    tmp_path, train, test = corpora
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    assert cli.main(["eval", "--train", train, "--test", test, "--seed", "9",
                     "--report", str(r1), "--transcripts", str(t1)]) == 0
    assert cli.main(["eval", "--train", train, "--test", test, "--seed", "9",
                     "--report", str(r2), "--transcripts", str(t2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()
