import json
from csv import reader as csv_reader

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


# Kills an agent on its first failure and revives nothing after epoch 0.
LIFE_CONFIG = {"refresh_period": 100, "l_init": 2.0, "betas": [50, 2, 1]}


def _life_file(tmp_path) -> str:
    path = tmp_path / "life.json"
    path.write_text(json.dumps(LIFE_CONFIG))
    return str(path)


# --- parse_args -------------------------------------------------------------------


def test_parse_gen_corpus_command():
    args = cli.parse_args(["gen-corpus", "--profile", "default", "--n", "2000",
                           "--seed", "7", "--out", "corpus.jsonl"])
    assert args.verb == "gen-corpus"
    assert args.n == 2000
    assert args.seed == 7
    assert args.out == "corpus.jsonl"


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["gen-corpus", "--n", "10"])
    assert err.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["gen-corpus", "--out", "x", "--bogus", "1"])
    assert err.value.code == 2


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    config = tmp_path / "flowsmith.json"
    config.write_text(json.dumps({"theta": 0.6, "seed": 42}))
    base = ["eval", "--train", "a", "--test", "b", "--report", "r", "--config", str(config)]
    from_file = cli.parse_args(base)
    assert from_file.theta == 0.6
    assert from_file.seed == 42
    overridden = cli.parse_args(base + ["--theta", "0.9"])
    assert overridden.theta == 0.9


def test_environment_and_working_directory_are_not_read(tmp_path, monkeypatch):
    argv = ["eval", "--train", "a", "--test", "b", "--report", "r"]
    defaults = (cli.BUILTIN_DEFAULTS["theta"], cli.BUILTIN_DEFAULTS["seed"])
    (tmp_path / "flowsmith.json").write_text(json.dumps({"theta": 0.75}))
    monkeypatch.chdir(tmp_path)
    args = cli.parse_args(argv)
    assert (args.theta, args.seed) == defaults
    named = tmp_path / "named.json"
    named.write_text(json.dumps({"seed": 99}))
    monkeypatch.setenv("FLOWSMITH_CONFIG", str(named))
    args = cli.parse_args(argv)
    assert (args.theta, args.seed) == defaults


def test_unknown_config_key_is_a_usage_error(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"thetaa": 0.6}))
    code = cli.main(["eval", "--config", str(config), "--train", "a", "--test", "b",
                     "--report", "r"])
    assert code == 2


def test_builtin_defaults_fill_in():
    args = cli.parse_args(["eval", "--train", "a", "--test", "b", "--report", "r"])
    assert args.theta == 0.8
    assert args.eta == 0.95
    assert tuple(args.k_list) == (1, 3, 5)


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


def test_solve_reports_pass_rate(corpora, capsys):
    tmp_path, train, test = corpora
    out = tmp_path / "episodes.jsonl"
    code = cli.main(["solve", "--train", train, "--goals", test, "--out", str(out),
                     "--seed", "7"])
    assert code == 0
    assert "pass@1=" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 12


@pytest.mark.parametrize("life", [False, True], ids=["defaults", "life-config"])
def test_solve_transcripts_equal_eval_transcripts(corpora, capsys, life):
    tmp_path, train, test = corpora
    extra = ["--budget", "0"] + (["--config", _life_file(tmp_path)] if life else [])
    solved, evaluated = tmp_path / "solve.jsonl", tmp_path / "eval.jsonl"
    assert cli.main(["solve", "--train", train, "--goals", test, "--k", "5",
                     "--out", str(solved)] + extra) == 0
    assert cli.main(["eval", "--train", train, "--test", test,
                     "--report", str(tmp_path / "r.json"),
                     "--transcripts", str(evaluated)] + extra) == 0
    assert solved.read_bytes() == evaluated.read_bytes()


def test_eval_life_config_changes_life_summary(corpora, capsys):
    tmp_path, train, test = corpora
    base = ["eval", "--train", train, "--test", test, "--budget", "0"]
    default, tuned = tmp_path / "default.json", tmp_path / "tuned.json"
    assert cli.main(base + ["--report", str(default)]) == 0
    assert cli.main(base + ["--report", str(tuned), "--config", _life_file(tmp_path)]) == 0
    default_doc = json.loads(default.read_text())
    tuned_doc = json.loads(tuned.read_text())
    assert tuned_doc["life_summary"] != default_doc["life_summary"]
    assert tuned_doc["config"]["life"]["refresh_period"] == 100


PROFILE = {"total": 20, "node_histogram": {"1": 1.0}, "depth_histogram": {"0": 1.0}}
SOLVE = ["solve", "--train", "{train}", "--goals", "{test}"]
EVAL = ["eval", "--train", "{train}", "--test", "{test}", "--report", "{out}"]


@pytest.mark.parametrize("input_doc, argv", [
    (None, ["gen-corpus", "--n", "0"]),
    ({**PROFILE, "node_histogram": {"1": 0.5, "2": 0.4}}, ["gen-corpus", "--profile", "{file}"]),
    ({k: v for k, v in PROFILE.items() if k != "total"}, ["gen-corpus", "--profile", "{file}"]),
    ([{"theta": 0.6}], ["gen-corpus", "--config", "{file}"]),
    ({"l_init": 200.0}, SOLVE + ["--config", "{file}"]),
    (None, SOLVE + ["--k", "0"]),
    (None, SOLVE + ["--theta", "2"]),
    (None, SOLVE + ["--mode", "goal_anchored", "--eta", "7"]),
    (None, SOLVE + ["--budget", "-3"]),
    ({"theta": "abc"}, SOLVE + ["--config", "{file}"]),
    ({"seed": "x"}, SOLVE + ["--config", "{file}"]),
    (None, ["gen-corpus", "--n", "10", "--planted-length", "7"]),
    ({"L_init": 5}, SOLVE + ["--config", "{file}"]),
    ({"alphas": [1, 2]}, SOLVE + ["--config", "{file}"]),
    ({"alphas": [1, 2, 3, 4]}, SOLVE + ["--config", "{file}"]),
    ({"refresh_period": 1.5}, SOLVE + ["--config", "{file}"]),
    ({"l_init": True}, SOLVE + ["--config", "{file}"]),
    (None, ["gen-corpus", "--n", "10", "--planted-rate", "0.5"]),
    ({**PROFILE, "total": 2.5}, ["gen-corpus", "--profile", "{file}"]),
    ({**PROFILE, "tool_vocab_size": 2.5}, ["gen-corpus", "--profile", "{file}"]),
    ({**PROFILE, "planted": {"length": 2.5, "rate": 0.5}}, ["gen-corpus", "--profile", "{file}"]),
    *(({"seed": seed}, ["gen-corpus", "--n", "10", "--config", "{file}"])
      for seed in ("7", True, 7.5, [1])),
    ({**PROFILE, "tool_vocab_size": 2},
     ["gen-corpus", "--profile", "{file}", "--planted-length", "3"]),
    (None, ["gen-corpus", "--n", "10", "--planted-length", "3", "--planted-rate", "2"]),
    ({**PROFILE, "node_histogram": {"1": 1.5, "2": -0.5}}, ["gen-corpus", "--profile", "{file}"]),
    ({**PROFILE, "node_histogram": {"0": 1.0}}, ["gen-corpus", "--profile", "{file}"]),
    ({**PROFILE, "depth_histogram": {"-1": 1.0}}, ["gen-corpus", "--profile", "{file}"]),
    ({**PROFILE, "node_histogram": {}}, ["gen-corpus", "--profile", "{file}"]),
    (None, EVAL + ["--k", "3,1"]),
    (None, EVAL + ["--k", "0"]),
    (None, EVAL + ["--k", ","]),
    (None, EVAL + ["--parallelism", "0"]),
    (None, EVAL + ["--library", "{gone}"]),
], ids=["zero-records", "histogram-sum", "missing-total", "config-array",
        "life-out-of-range", "k-zero", "theta-out-of-range", "eta-out-of-range",
        "negative-budget", "theta-not-a-number", "seed-not-a-number", "planted-length",
        "unknown-config-key", "two-alphas", "four-alphas", "fractional-refresh-period",
        "boolean-l-init", "planted-rate-alone", "fractional-total",
        "fractional-vocabulary", "fractional-planted-length", "string-corpus-seed",
        "boolean-corpus-seed", "fractional-corpus-seed", "array-corpus-seed",
        "planted-longer-than-vocabulary", "planted-rate-above-one", "negative-share",
        "zero-node-count", "negative-depth", "empty-node-histogram", "descending-k",
        "zero-k", "empty-k-list", "zero-parallelism", "missing-library"])
def test_bad_user_input_exits_two(corpora, capsys, input_doc, argv):
    tmp_path, train, test = corpora
    input_file = tmp_path / "input.json"
    input_file.write_text(json.dumps(input_doc))
    out = tmp_path / "out.jsonl"
    names = {"{file}": str(input_file), "{train}": train, "{test}": test, "{out}": str(out),
             "{gone}": str(tmp_path / "gone.jsonl")}
    if "{out}" not in argv:  # eval writes its report to {out}; the other verbs take --out
        argv = argv + ["--out", "{out}"]
    assert cli.main([names.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _assert_eval_config_exits_two(corpora, capsys, config_doc):
    tmp_path, train, test = corpora
    config, report = tmp_path / "cfg.json", tmp_path / "r.json"
    config.write_text(json.dumps(config_doc))
    assert cli.main(["eval", "--train", train, "--test", test, "--report", str(report),
                     "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not report.exists()


def test_config_k_list_of_strings_exits_two(corpora, capsys):
    _assert_eval_config_exits_two(corpora, capsys, {"k_list": "abc"})


def test_config_k_list_number_exits_two(corpora, capsys):
    _assert_eval_config_exits_two(corpora, capsys, {"k_list": 3})


@pytest.mark.parametrize("config_doc", [{"drift_threshold": float("nan")},
                                        {"l_max": float("inf")}],
                         ids=["nan-drift-threshold", "infinite-l-max"])
def test_config_non_finite_number_exits_two(corpora, capsys, config_doc):
    _assert_eval_config_exits_two(corpora, capsys, config_doc)


def _edited_line(line: str, edit) -> str:
    doc = json.loads(line)
    edit(doc)
    return json.dumps(doc)


def test_corrupt_corpus_line_exits_three(corpora, capsys):
    tmp_path, train, test = corpora
    lines = open(train).read().splitlines()

    def with_line(number, edit):
        return lines[:number - 1] + [_edited_line(lines[number - 1], edit)] + lines[number:]

    bound = next(n for n, line in enumerate(lines, 1)
                 if json.loads(line)["workflow"]["declared_inputs"])
    task = next(n for n, line in enumerate(lines, 1)
                if json.loads(line)["workflow"]["root"]["kind"] == "task")

    def listed(doc):  # a task whose inputs are ["a", "b"], declared as such
        doc["goal"]["input_schema"] = doc["workflow"]["declared_inputs"] = ["a", "b"]
        doc["workflow"]["root"]["input_schema"] = ["a", "b"]

    def stringed(doc):  # another goal with the same task, its inputs given as "ab"
        listed(doc)
        doc["goal"]["id"] = doc["workflow"]["goal_id"] = "g-string"
        doc["workflow"]["root"]["input_schema"] = "ab"

    string_after_list = ([_edited_line(lines[task - 1], listed),
                          _edited_line(lines[task - 1], stringed)]
                         + lines[:task - 1] + lines[task:])
    cases = [  # name, train lines, library lines, the line the error names (if any)
        ("bad-json", lines[:4] + ["{oops"] + lines[5:], None, 5),
        ("empty-tokens", with_line(3, lambda d: d["goal"].update(tokens=[])), None, 3),
        ("string-tokens", with_line(3, lambda d: d["goal"].update(tokens="abc")), None, 3),
        ("string-task-inputs",
         with_line(task, lambda d: d["workflow"]["root"].update(input_schema="ctx_01")),
         None, task),
        ("loop-node", with_line(3, lambda d: d["workflow"]["root"].update(kind="loop")),
         None, 3),
        ("repeated-record", lines[:3] + [lines[2]] + lines[3:], None, None),
        ("unbound-inputs", with_line(bound, lambda d: d["workflow"].update(declared_inputs=[])),
         None, None),
        ("empty-library-record", lines, ["{}"], 1),
        ("empty-goal-id", with_line(2, lambda d: d["goal"].update(id="")), None, 2),
        ("string-schema-after-list-schema", string_after_list, None, 2),
        ("number-tool-id", with_line(task, lambda d: d["workflow"]["root"].update(tool_id=5)),
         None, task),
        ("list-param",
         with_line(task, lambda d: d["workflow"]["root"].update(params={"x": [1]})),
         None, task),
    ]
    for name, train_lines, library_lines, line in cases:
        named = broken = tmp_path / f"{name}.jsonl"
        broken.write_text("\n".join(train_lines) + "\n")
        argv = ["eval", "--train", str(broken), "--test", test,
                "--report", str(tmp_path / "r.json")]
        if library_lines is not None:
            named = tmp_path / f"{name}-library.jsonl"
            named.write_text("\n".join(library_lines) + "\n")
            argv += ["--library", str(named)]
        assert cli.main(argv) == 3, name
        err = capsys.readouterr().err
        assert str(named) in err, name
        assert line is None or f"line {line}:" in err, name


def test_blank_lines_in_a_train_file_are_skipped(corpora):
    tmp_path, train, _ = corpora
    lines = open(train).read().splitlines()
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n" + "\n\n".join(lines[:3]) + "\n \t\n" + "\n".join(lines[3:]) + "\n\n")
    assert cp.load_corpus(spaced) == cp.load_corpus(train)


@pytest.mark.parametrize("flag", ["--train", "--test", "--library"])
def test_non_utf8_line_exits_three_naming_its_file_and_line(corpora, capsys, flag):
    tmp_path, train, test = corpora
    lines = open(test if flag == "--test" else train).read().splitlines()[:4]
    if flag == "--library":
        lines = [json.dumps(json.loads(line)["workflow"]) for line in lines]
    lines[1] = lines[1][:-1] + ', "caf\xe9": 0}'  # a Latin-1 byte: not UTF-8
    broken = tmp_path / "latin-1.jsonl"
    broken.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    files = {"--train": train, "--test": test, flag: str(broken)}
    argv = ["eval", "--report", str(tmp_path / "r.json")]
    for name, path in files.items():
        argv += [name, path]
    assert cli.main(argv) == 3
    label = "library" if flag == "--library" else "corpus"
    assert (f"corrupt {label} {str(broken)!r} line 2: UnicodeDecodeError: "
            in capsys.readouterr().err)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "infinity", "minus-infinity"])
def test_non_finite_task_param_exits_three_naming_its_line(corpora, capsys, value):
    # json reads NaN and Infinity tokens, which no written file may hold
    tmp_path, train, test = corpora
    lines = open(train).read().splitlines()
    task = next(n for n, line in enumerate(lines, 1)
                if json.loads(line)["workflow"]["root"]["kind"] == "task")
    lines[task - 1] = _edited_line(
        lines[task - 1], lambda doc: doc["workflow"]["root"]["params"].update(p=value))
    broken = tmp_path / "non-finite.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    code = cli.main(["eval", "--train", str(broken), "--test", test,
                     "--report", str(tmp_path / "r.json")])
    assert code == 3
    assert f"corrupt corpus {str(broken)!r} line {task}:" in capsys.readouterr().err


def _guarded(cond):  # the task, then the task again under a Branch on ``cond``
    return lambda root: {"kind": "seq", "children": [
        root, {"kind": "branch", "cond": cond, "then": root, "else": None}]}


def _nested(sub_goal_id):
    return lambda root: {"kind": "nest", "sub_goal_id": sub_goal_id, "body": root}


@pytest.mark.parametrize("wrap", [
    _guarded({"key": 5, "op": "exists"}),
    _guarded({"key": "k", "op": "equals", "value": float("nan")}),
    _guarded({"key": "k", "op": "equals", "value": [1, 2]}),
    _guarded({"key": "k", "op": "equals", "value": {"a": 1}}),
    _nested(7),
    _nested(["a"]),
], ids=["number-key", "nan-value", "list-value", "object-value",
        "number-sub-goal", "list-sub-goal"])
def test_ill_typed_branch_or_nest_field_exits_three_naming_its_line(corpora, capsys, wrap):
    tmp_path, train, test = corpora
    lines = open(train).read().splitlines()
    task = next(n for n, line in enumerate(lines, 1)
                if json.loads(line)["workflow"]["root"]["kind"] == "task")
    lines[task - 1] = _edited_line(
        lines[task - 1], lambda doc: doc["workflow"].update(root=wrap(doc["workflow"]["root"])))
    broken = tmp_path / "ill-typed.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    code = cli.main(["eval", "--train", str(broken), "--test", test,
                     "--report", str(tmp_path / "r.json")])
    assert code == 3
    assert f"corrupt corpus {str(broken)!r} line {task}:" in capsys.readouterr().err


def _oracle_subgoals(value):
    return lambda doc: doc["goal"].update(oracle_subgoals=value)


def _planted(value):
    return lambda doc: doc["oracle"].update(planted=value)


@pytest.mark.parametrize("edit", [
    _oracle_subgoals("abc"),
    _oracle_subgoals(["g00001", 7]),
    _planted([["1", [0]]]),
    _planted([[True, [0]]]),
    _planted([[0, "012"]]),
    _planted([[0, [2.9]]]),
    _planted("00"),
], ids=["string-subgoals", "number-subgoal", "string-planted-index", "bool-planted-index",
        "string-planted-path", "float-planted-step", "string-planted"])
def test_ill_typed_oracle_field_in_test_file_exits_three(corpora, capsys, edit):
    tmp_path, train, test = corpora
    lines = open(test).read().splitlines()
    lines[2] = _edited_line(lines[2], edit)
    broken = tmp_path / "broken-test.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    code = cli.main(["eval", "--train", train, "--test", str(broken),
                     "--report", str(tmp_path / "r.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert str(broken) in err and "line 3:" in err
    assert "oracle_subgoals" in err or "oracle.planted" in err


@pytest.mark.parametrize("key, value", [("kind", 5), ("size", [1])])
def test_ill_typed_bucket_in_test_file_exits_three(corpora, capsys, key, value):
    tmp_path, train, test = corpora
    lines = open(test).read().splitlines()
    lines[2] = _edited_line(lines[2], lambda doc: doc["bucket"].update({key: value}))
    broken = tmp_path / "broken-test.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    code = cli.main(["eval", "--train", train, "--test", str(broken),
                     "--report", str(tmp_path / "r.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert str(broken) in err and "line 3:" in err and f"bucket.{key}" in err


def _nested_root(doc: dict, root: dict, levels: int) -> str:
    """``doc`` as JSON text with ``root``, a node inside it, under ``levels``
    one-child Sequences."""
    inner = json.dumps(root)
    return json.dumps(doc).replace(
        inner, '{"kind": "seq", "children": [' * levels + inner + "]}" * levels, 1)


@pytest.mark.parametrize("case, code", [
    ("deep-corpus-line", 3), ("deep-library-line", 3), ("bracket-config", 2),
    ("bracket-report", 3), ("bracket-profile", 3), ("latin-1-config", 2)])
def test_input_file_too_deep_or_not_utf8_exits_as_a_file_that_is_not_json(corpora, capsys,
                                                                          case, code):
    # The code is the one its reader gives a file that is not JSON at all,
    # and the message names the file
    tmp_path, train, test = corpora
    lines = open(train).read().splitlines()
    named = tmp_path / "input"
    evaluate = ["eval", "--train", train, "--test", test, "--report", str(tmp_path / "r.json")]
    if case == "deep-corpus-line":
        doc = json.loads(lines[2])
        named.write_text("\n".join(lines[:2] + [_nested_root(doc, doc["workflow"]["root"], 600)]
                                   + lines[3:]))
        argv = ["eval", "--train", str(named), "--test", test,
                "--report", str(tmp_path / "r.json")]
    elif case == "deep-library-line":
        flow = json.loads(lines[0])["workflow"]
        named.write_text(_nested_root(flow, flow["root"], 600))
        argv = evaluate + ["--library", str(named)]
    elif case == "latin-1-config":
        named.write_bytes('{"theta": 0.5, "seed": "\xe9"}'.encode("latin-1"))
        argv = evaluate + ["--config", str(named)]
    else:
        named.write_text("[" * 100_000)
        argv = {"bracket-config": evaluate + ["--config", str(named)],
                "bracket-report": ["report", "--report", str(named),
                                   "--csv", str(tmp_path / "o.csv")],
                "bracket-profile": ["gen-corpus", "--profile", str(named),
                                    "--out", str(tmp_path / "c.jsonl")]}[case]
    assert cli.main(argv) == code
    assert str(named) in capsys.readouterr().err


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


def test_oracle_verdicts_do_not_read_eta(corpora, capsys):
    tmp_path, train, test = corpora
    tables = []
    for eta in ("0", "0.95"):
        csv = tmp_path / f"eta-{eta}.csv"
        assert cli.main(["eval", "--train", train, "--test", test, "--theta", "0.5",
                         "--eta", eta, "--report", str(tmp_path / f"eta-{eta}.json"),
                         "--csv", str(csv)]) == 0
        tables.append(csv.read_text())
    assert tables[0] == tables[1]


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


def test_report_verb_quotes_bucket_names_that_hold_csv_syntax(tmp_path, capsys):
    buckets = {"a,b": {"1": 0.5}, 'say "x"': {"1": 0.75}, "c\nd": {"1": 0.25}}
    report, csv = tmp_path / "report.json", tmp_path / "out.csv"
    report.write_text(json.dumps({"per_bucket": buckets}))
    assert cli.main(["report", "--report", str(report), "--csv", str(csv)]) == 0
    with csv.open(newline="") as handle:
        rows = list(csv_reader(handle))
    assert rows == [["bucket", "k", "value"], ["a,b", "1", "0.5"], ["c\nd", "1", "0.25"],
                    ['say "x"', "1", "0.75"]]


@pytest.mark.parametrize("doc", [[1], {"per_bucket": [1]}, {"per_bucket": {"a": 1}},
                                 {"per_bucket": {"a": {"x": 0.5}}}, {},
                                 {"per_bucket": {"a": {"1": "z"}}},
                                 {"per_bucket": {"a": {"1": float("nan")}}},
                                 {"per_bucket": {"a": {"1": True}}},
                                 {"per_bucket": {"a": {"1": 1.5}}},
                                 {"per_bucket": {"a": {"1": -0.5}}},
                                 {"per_bucket": {"a": {"0": 0.5}}},
                                 {"per_bucket": {"a": {"-1": 0.5}}}],
                         ids=["list", "bucket-list", "table-number", "bad-k", "no-table",
                              "string-value", "nan-value", "bool-value", "above-one",
                              "below-zero", "k-zero", "k-negative"])
def test_report_verb_rejects_malformed_report(tmp_path, capsys, doc):
    report, csv = tmp_path / "report.json", tmp_path / "out.csv"
    report.write_text(json.dumps(doc))  # json writes NaN as the bare token NaN
    assert cli.main(["report", "--report", str(report), "--csv", str(csv)]) == 3
    assert "malformed report" in capsys.readouterr().err
    assert not csv.exists()


@pytest.mark.parametrize("sweep", ["abc", "-5", "61", "100000", "5,5"])
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
