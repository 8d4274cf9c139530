"""End-to-end CLI runs against scripted mock backends."""

from __future__ import annotations

import json

import pytest

from refinectl.cli import main
from refinectl.controller import init, save_model


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


def test_backend_flags_required(tmp_path, model_file):
    dataset = write_dataset(tmp_path / "problems.jsonl", n=1)
    with pytest.raises(SystemExit):
        main(["run", "--problem-file", dataset, "--model-file", model_file])


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
