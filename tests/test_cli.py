"""End-to-end CLI runs against scripted mock backends."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from refinectl.bench import load_report
from refinectl.cli import main
from refinectl.controller import init, save_model

from conftest import StubController


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "controller.bin"
    save_model(path, init(3, 16, seed=0), metadata={"seed": 0, "loss": "cross_entropy"})
    return str(path)


def write_script(path, n_records, answer="7", tokens=6):
    responses = [{"text": f"... \\boxed{{{answer}}}", "confidences": [12.0] * tokens}
                 for _ in range(n_records)]
    path.write_text(json.dumps({"responses": responses}))
    return str(path)


def write_dataset(path, n=2):
    rows = [{"id": f"p{i}", "statement": f"question {i}", "answer": "7"}
            for i in range(n)]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return str(path)


def test_run_subcommand(tmp_path, capsys, model_file):
    script = write_script(tmp_path / "script.json", n_records=4)
    dataset = write_dataset(tmp_path / "problems.jsonl", n=2)
    log = tmp_path / "run.jsonl"
    code = main(["run", "--mock-script", script, "--problem-file", dataset,
                 "--model-file", model_file, "--max-iters", "2", "--log", str(log)])
    assert code == 0
    out = capsys.readouterr().out
    assert "p0:" in out and "p1:" in out
    assert log.exists()
    assert all(json.loads(line)["problem_id"] in ("p0", "p1")
               for line in log.read_text().splitlines())


def test_tree_subcommand(tmp_path, capsys, model_file):
    script = write_script(tmp_path / "script.json", n_records=8)
    dataset = write_dataset(tmp_path / "problems.jsonl", n=1)
    dump = tmp_path / "trees.jsonl"
    code = main(["tree", "--mock-script", script, "--problem-file", dataset,
                 "--model-file", model_file, "--warmup", "4", "--branch", "2",
                 "--depth", "0", "--vote", "majority", "--dump", str(dump)])
    assert code == 0
    record = json.loads(dump.read_text().splitlines()[0])
    assert len(record["nodes"]) == 4
    assert "early_stopped" in record


def test_bench_and_report_subcommands(tmp_path, capsys):
    script = write_script(tmp_path / "script.json", n_records=4)
    dataset = write_dataset(tmp_path / "problems.jsonl", n=2)
    out = tmp_path / "report.json"
    code = main(["bench", "--mock-script", script, "--dataset", dataset,
                 "--method", "majority_parallel", "--k", "2", "--seeds", "2",
                 "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["method"] == "majority_parallel"
    assert rows[0]["acc_mean"] == 100.0

    code = main(["report", "--in", str(out), "--format", "markdown"])
    assert code == 0
    text = capsys.readouterr().out
    assert "| majority_parallel |" in text


def test_bench_csv_output(tmp_path, capsys):
    script = write_script(tmp_path / "script.json", n_records=2)
    dataset = write_dataset(tmp_path / "problems.jsonl", n=2)
    out = tmp_path / "report.csv"
    main(["bench", "--mock-script", script, "--dataset", dataset,
          "--method", "pass1", "--seeds", "1", "--out", str(out)])
    header = out.read_text().splitlines()[0]
    assert header == "method,dataset,acc_mean,acc_std,tokens,time_s,iters_mean"


@pytest.mark.parametrize("command", ["run", "tree", "bench"])
@pytest.mark.parametrize("backend", [[], ["--endpoint", "http://127.0.0.1:9"], ["--model", "m"]],
                         ids=["none", "endpoint-only", "model-only"])
def test_backend_flags_required(tmp_path, capsys, model_file, command, backend):
    """A backend the flags do not name is a usage error, before any input
    is read: the bench dataset does not exist."""
    dataset = write_dataset(tmp_path / "problems.jsonl", n=1)
    argv = {"run": ["run", "--problem-file", dataset, "--model-file", model_file],
            "tree": ["tree", "--problem-file", dataset, "--model-file", model_file],
            "bench": ["bench", "--dataset", str(tmp_path / "none.jsonl"), "--method", "pass1"]}
    with pytest.raises(SystemExit) as exit_info:
        main([*argv[command], *backend])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: refinectl {command} ")
    assert err.endswith("need either --mock-script or both --endpoint and --model\n")


@pytest.mark.parametrize("method", ["corefine", "corefine_tree"])
def test_bench_refinement_without_model_file_is_a_usage_error(tmp_path, capsys, method):
    script = write_script(tmp_path / "script.json", n_records=2)
    dataset = write_dataset(tmp_path / "problems.jsonl", n=1)
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--mock-script", script, "--dataset", dataset,
              "--method", method, "--seeds", "1"])
    assert exit_info.value.code == 2
    assert "--model-file" in capsys.readouterr().err


def write_records(path, records):
    path.write_text(json.dumps({"responses": records}))
    return str(path)


BOXED = {"text": "... \\boxed{7}", "confidences": [12.0] * 6}
TRUNCATED = {"text": "...", "confidences": [12.0] * 5, "finish_reason": "length"}
FAILED = {"error": "boom"}


def test_run_reports_a_failed_problem_and_goes_on(tmp_path, capsys, model_file):
    # p1's first attempt is truncated and its retry fails: 5 tokens served
    script = write_records(tmp_path / "script.json", [BOXED, TRUNCATED, FAILED, BOXED])
    dataset = write_dataset(tmp_path / "problems.jsonl", n=3)
    log = tmp_path / "run.jsonl"
    code = main(["run", "--mock-script", script, "--problem-file", dataset,
                 "--model-file", model_file, "--max-iters", "1", "--log", str(log)])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "p1: failed: boom tokens=5"
    assert out[0].startswith("p0: answer='7'") and out[2].startswith("p2: answer='7'")
    assert [json.loads(line)["problem_id"] for line in log.read_text().splitlines()] == \
        ["p0", "p2"]


def test_tree_reports_a_failed_problem_and_goes_on(tmp_path, capsys, model_file):
    # every warmup slot of p1 fails, the first after a truncated attempt
    script = write_records(tmp_path / "script.json",
                           [BOXED, BOXED, TRUNCATED, FAILED, FAILED, BOXED, BOXED])
    dataset = write_dataset(tmp_path / "problems.jsonl", n=3)
    dump = tmp_path / "trees.jsonl"
    code = main(["tree", "--mock-script", script, "--problem-file", dataset,
                 "--model-file", model_file, "--warmup", "2", "--depth", "0",
                 "--dump", str(dump)])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "p1: failed: all warmup generations failed tokens=5"
    assert out[0].startswith("p0: answer='7'") and out[2].startswith("p2: answer='7'")
    assert [json.loads(line)["problem_id"] for line in dump.read_text().splitlines()] == \
        ["p0", "p2"]


def test_bench_runs_a_mixed_mode_dataset_without_a_mode_flag(tmp_path):
    script = write_records(tmp_path / "script.json", [
        BOXED, {"text": "weighing the choices...\nB", "confidences": [12.0] * 4}])
    dataset = tmp_path / "mixed.jsonl"
    dataset.write_text(json.dumps({"id": "m", "statement": "2+5?", "answer": "7"}) + "\n" +
                       json.dumps({"id": "q", "statement": "Which gene?", "answer": "BRCA2",
                                   "mode": "mcq", "choices": ["BRCA1", "BRCA2"]}) + "\n")
    out = tmp_path / "report.json"
    code = main(["bench", "--mock-script", script, "--dataset", str(dataset),
                 "--method", "pass1", "--seeds", "1", "--out", str(out)])
    assert code == 0
    row = json.loads(out.read_text())[0]
    assert row["acc_mean"] == 100.0 and row["tokens"] == 10


def record(answer, conf, n):
    """A constant-confidence response boxing ``answer`` (None: no box)."""
    text = "..." if answer is None else f"... \\boxed{{{answer}}}"
    return {"text": text, "confidences": [conf] * n}


def by_confidence(feature):
    """Mean trace confidence below 10 rethinks, below 14 switches approach,
    below 20 halts, and from 20 up refuses."""
    mean = feature.bins.mean()
    return 1 if mean < 10 else 2 if mean < 14 else 0 if mean < 20 else 3


@pytest.fixture
def confidence_controller(monkeypatch):
    monkeypatch.setattr("refinectl.cli.load_model",
                        lambda path: (StubController(fn=by_confidence, n_actions=4), {}))


RUN_SCRIPT = [
    record("5", 8.0, 4), record("7", 16.0, 6),                        # p0: halt
    TRUNCATED, FAILED,                                                # p1: failed
    record("3", 8.0, 2), record("{3}", 12.0, 3), record(" 3", 8.0, 2),  # p2: override
    record(None, 8.0, 1), record("4", 12.0, 2), record("6", 8.0, 3),  # p3: cap
    record("9", 24.0, 5),                                             # p4: refuse
]
RUN_STDOUT = """\
p0: answer='7' iterations=2 terminated_by=halt tokens=10
p1: failed: boom tokens=5
p2: answer='3' iterations=3 terminated_by=consistency_override tokens=7
p3: answer='6' iterations=3 terminated_by=max_iterations tokens=6
p4: answer=None iterations=1 terminated_by=refuse tokens=5
"""

TREE_SCRIPT = [
    record("7", 16.0, 2), record("7", 18.0, 3),                       # p0: early stop
    TRUNCATED, FAILED, FAILED,                                        # p1: failed
    record("4", 8.0, 1), record("5", 12.0, 2),                        # p2: both refine,
    record("5", 16.0, 1), record("4", 8.0, 2),                        # two children each
    record(None, 12.0, 3), record("5", 16.0, 4),
    record("2", 16.0, 1), record("1", 24.0, 1),                       # p3: halt, refuse
]
TREE_STDOUT = """\
p0: answer='7' nodes=2 terminated_by=early_stop tokens=5
p1: failed: all warmup generations failed tokens=5
p2: answer='5' nodes=6 terminated_by=max_depth tokens=13
p3: answer='2' nodes=2 terminated_by=early_stop tokens=2
"""


@pytest.mark.parametrize("command, script, flags, expected", [
    ("run", RUN_SCRIPT, ["--max-iters", "3"], RUN_STDOUT),
    ("tree", TREE_SCRIPT, ["--warmup", "2", "--branch", "2", "--depth", "1"], TREE_STDOUT),
], ids=["run", "tree"])
def test_run_and_tree_stdout_bytes(tmp_path, capsys, confidence_controller,
                                   command, script, flags, expected):
    """Every success and failed line, byte for byte, on a one-slot mock."""
    n = expected.count("\n")
    code = main([command, "--mock-script", write_records(tmp_path / "script.json", script),
                 "--problem-file", write_dataset(tmp_path / "problems.jsonl", n=n),
                 "--model-file", "unused.bin", *flags])
    assert code == 1
    assert capsys.readouterr().out == expected


REPORT_ROW = {"method": "pass1", "dataset": "d", "acc_mean": 50.0, "acc_std": 0.0,
              "tokens": 10, "time_s": 0.5, "iters_mean": 1.0}


@pytest.mark.parametrize("blob, message", [
    (b"{}", "a report is a JSON list of rows, not a dict"),
    (b"[1]", "row 0: TypeError: "),
    (json.dumps([REPORT_ROW, {k: v for k, v in REPORT_ROW.items() if k != "dataset"}]).encode(),
     "row 1: KeyError: 'dataset'"),
    (json.dumps([{**REPORT_ROW, "tokens": "many"}]).encode(),
     "row 0: ValueError: invalid literal for int() with base 10: 'many'"),
    (b"[", "invalid JSON: "),
], ids=["object", "number-row", "no-dataset", "bad-tokens", "not-json"])
def test_load_report_names_the_bad_row(blob, message):
    with pytest.raises(ValueError) as err:
        load_report(blob)
    assert str(err.value).startswith(message)


def bad_file(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    return str(path)


@pytest.mark.parametrize("case", ["report-object", "report-no-dataset", "report-dir",
                                  "problem-row", "problem-missing", "problem-dir",
                                  "problem-not-utf8", "dataset-not-utf8", "dataset-27-choices",
                                  "script-json", "script-shape", "script-dir",
                                  "model-blob", "model-missing", "model-dir", "model-sidecar"])
def test_a_bad_input_file_exits_2_with_one_line(tmp_path, capsys, model_file, case):
    script = write_script(tmp_path / "script.json", n_records=1)
    problems = write_dataset(tmp_path / "problems.jsonl", n=1)
    run = ["run", "--problem-file", problems, "--mock-script", script,
           "--model-file", model_file]
    bench = ["bench", "--method", "pass1", "--seeds", "1", "--mock-script", script,
             "--dataset"]
    row = {k: v for k, v in REPORT_ROW.items() if k != "dataset"}
    not_utf8 = b'\xff\xfe{"id": "p0"}\n'
    many_choices = json.dumps({"id": "q", "statement": "s", "answer": "c0", "mode": "mcq",
                               "choices": [f"c{i}" for i in range(27)]}).encode()
    # every case's files are written, so each case has files of its own
    sidecar_model = bad_file(tmp_path, "sidecar.bin", Path(model_file).read_bytes())
    bad_file(tmp_path, "sidecar.bin.json", b"{broken")
    argv = {
        "report-object": ["report", "--in", bad_file(tmp_path, "r1.json", b'{"rows": []}')],
        "report-no-dataset": ["report", "--in",
                              bad_file(tmp_path, "r2.json", json.dumps([row]).encode())],
        "report-dir": ["report", "--in", str(tmp_path)],
        "problem-row": run[:2] + [bad_file(tmp_path, "p.jsonl", b'{"id": "p0"}\n')] + run[3:],
        "problem-missing": run[:2] + [str(tmp_path / "none.jsonl")] + run[3:],
        "problem-dir": run[:2] + [str(tmp_path)] + run[3:],
        "problem-not-utf8": run[:2] + [bad_file(tmp_path, "p2.jsonl", not_utf8)] + run[3:],
        "dataset-not-utf8": bench + [bad_file(tmp_path, "d1.jsonl", not_utf8)],
        "dataset-27-choices": bench + [bad_file(tmp_path, "d2.jsonl", many_choices)],
        "script-json": run[:4] + [bad_file(tmp_path, "s1.json", b"{responses")] + run[5:],
        "script-shape": run[:4] + [bad_file(tmp_path, "s2.json", b'{"responses": 5}')] + run[5:],
        "script-dir": run[:4] + [str(tmp_path)] + run[5:],
        "model-blob": run[:6] + [bad_file(tmp_path, "m.bin", b"not a model")],
        "model-missing": run[:6] + [str(tmp_path / "none.bin")],
        "model-dir": run[:6] + [str(tmp_path)],
        "model-sidecar": run[:6] + [sidecar_model],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refinectl: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "bench"])
def test_a_script_row_of_the_wrong_type_exits_2_with_one_line(tmp_path, capsys, model_file,
                                                              command):
    script = write_records(tmp_path / "script.json",
                           [{"text": "x \\boxed{7}", "confidences": "abc"}])
    dataset = write_dataset(tmp_path / "problems.jsonl", n=1)
    argv = {"run": ["run", "--problem-file", dataset, "--model-file", model_file],
            "bench": ["bench", "--dataset", dataset, "--method", "pass1", "--seeds", "1"]}
    assert main([*argv[command], "--mock-script", script]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("refinectl: responses[0]: confidences is not a list of "
                            "numbers\n")


@pytest.mark.parametrize("row, message", [
    ({"text": "x \\boxed{7}", "confidences": [1.0], "logprobs": [[-0.5]]},
     "sets both confidences and logprobs"),
    ({"text": "x \\boxed{7}"}, "sets neither confidences nor logprobs, and no error"),
    ({"text": "x \\boxed{7}", "confidences": [float("nan")]}, "non-finite logprob in confidences"),
    ({"text": "x \\boxed{7}", "logprobs": [[-10 ** 400]]}, "non-finite logprob in logprobs"),
], ids=["both", "neither", "nan", "past-float-range"])
def test_a_script_row_that_cannot_be_served_exits_2_with_one_line(tmp_path, capsys, model_file,
                                                                  row, message):
    script = write_records(tmp_path / "script.json", [row])
    dataset = write_dataset(tmp_path / "problems.jsonl", n=1)
    assert main(["run", "--problem-file", dataset, "--model-file", model_file,
                 "--mock-script", script]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"refinectl: responses[0]: {message}\n"


# One flag of each class out of range: the tree's shape, the loop's cap, the
# sweep's spec and the sampling settings every command sends.
OUT_OF_RANGE = {
    "tree": [("--warmup", "0"), ("--branch", "0"), ("--depth", "-1")],
    "run": [("--max-iters", "0")],
    "bench": [("--keep-fraction", "2"), ("--keep-fraction", "0"), ("--seeds", "0"),
              ("--k", "0")],
    "gen": [("--logprobs", "0"), ("--max-tokens", "0"), ("--temperature", "-1"),
            ("--top-p", "0"), ("--top-p", "1.5")],
}


def flag_cases(flag_class: str, commands: list[str]):
    return [pytest.param(command, flag, value, id=f"{command}{flag}={value}")
            for command in commands for flag, value in OUT_OF_RANGE[flag_class]]


def assert_usage_error(tmp_path, capsys, model_file, command, flag, value):
    """``refinectl <command> <flag> <value>`` on valid input files stops at
    parse with status 2 and a usage line, before any input file is read."""
    script = write_script(tmp_path / "script.json", n_records=8)
    dataset = write_dataset(tmp_path / "problems.jsonl", n=1)
    argv = {"run": ["run", "--problem-file", dataset, "--model-file", model_file],
            "tree": ["tree", "--problem-file", dataset, "--model-file", model_file],
            "bench": ["bench", "--dataset", dataset, "--method", "pass1"]}[command]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--mock-script", script, flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: refinectl {command} ")
    assert f"refinectl {command}: error: " in captured.err


@pytest.mark.parametrize("command, flag, value", flag_cases("tree", ["tree"]))
def test_an_out_of_range_tree_flag_is_a_usage_error(tmp_path, capsys, model_file,
                                                     command, flag, value):
    assert_usage_error(tmp_path, capsys, model_file, command, flag, value)


@pytest.mark.parametrize("command, flag, value", flag_cases("run", ["run"]))
def test_an_out_of_range_loop_flag_is_a_usage_error(tmp_path, capsys, model_file,
                                                    command, flag, value):
    assert_usage_error(tmp_path, capsys, model_file, command, flag, value)


@pytest.mark.parametrize("command, flag, value", flag_cases("bench", ["bench"]))
def test_an_out_of_range_bench_flag_is_a_usage_error(tmp_path, capsys, model_file,
                                                     command, flag, value):
    assert_usage_error(tmp_path, capsys, model_file, command, flag, value)


@pytest.mark.parametrize("command, flag, value", flag_cases("gen", ["run", "tree", "bench"]))
def test_an_out_of_range_sampling_flag_is_a_usage_error(tmp_path, capsys, model_file,
                                                        command, flag, value):
    assert_usage_error(tmp_path, capsys, model_file, command, flag, value)


def test_a_value_error_while_running_is_not_a_usage_error(tmp_path, monkeypatch, model_file):
    """Only the configs' checks become usage errors: a ValueError from the
    run itself, a bug, still leaves main."""
    def broken(*args, **kwargs):
        raise ValueError("a bug")

    monkeypatch.setattr("refinectl.cli.run", broken)
    script = write_script(tmp_path / "script.json", n_records=2)
    dataset = write_dataset(tmp_path / "problems.jsonl", n=1)
    with pytest.raises(ValueError, match="a bug"):
        main(["run", "--mock-script", script, "--problem-file", dataset,
              "--model-file", model_file])
