from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from stc import cli
from stc.cli import main

COUNTER = {
    "threads": [{"id": 1, "fn": "counter_add", "init_state": 0}],
    "word": [1],
    "input": [10, 20, 30],
    "input_type": "int",
}

REPEATED = {
    "threads": [{"id": 1, "fn": "counter_add", "init_state": 0}],
    "word": [1, 1],
    "input": [10, 20],
    "input_type": "int",
}


@pytest.fixture
def counter_file(tmp_path):
    path = tmp_path / "counter.json"
    path.write_text(json.dumps(COUNTER), encoding="utf-8")
    return str(path)


@pytest.fixture
def repeated_file(tmp_path):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(REPEATED), encoding="utf-8")
    return str(path)


def test_run_seq_prints_result_json(counter_file, capsys):
    assert main(["run", counter_file, "--mode", "seq"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == '{"output":[10,21,32],"final_state":{"1":3}}'


def test_run_pipeline_identical_output(counter_file, capsys):
    main(["run", counter_file, "--mode", "seq"])
    seq = capsys.readouterr().out
    assert main(["run", counter_file, "--mode", "pipeline", "--workers", "4"]) == 0
    assert capsys.readouterr().out == seq


def test_run_auto_and_interleaved(counter_file, capsys):
    for mode in ("auto", "interleaved"):
        assert main(["run", counter_file, "--mode", mode]) == 0
        assert json.loads(capsys.readouterr().out)["output"] == [10, 21, 32]


def test_run_interleaved_rejects_repeated_word(repeated_file, capsys):
    assert main(["run", repeated_file, "--mode", "interleaved"]) == 2
    assert "letter 1" in capsys.readouterr().err


def test_run_pipeline_handles_repeated_word(repeated_file, capsys):
    assert main(["run", repeated_file, "--mode", "pipeline"]) == 0
    assert json.loads(capsys.readouterr().out)["output"] == [12, 24]


def test_run_missing_file_is_validation_exit(capsys):
    assert main(["run", "/nonexistent.json"]) == 2


def test_run_invalid_program_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"threads": [], "word": [5], "input": [], "input_type": "int"}')
    assert main(["run", str(path)]) == 2


def test_check_single_file_table(counter_file, capsys):
    assert main(["check", counter_file]) == 0
    out = capsys.readouterr().out
    assert "seq" in out and "pipeline@4" in out and "DIVERGES" not in out


CHAIN = {
    "threads": [
        {"id": 1, "fn": "counter_add", "init_state": 0},
        {"id": 2, "fn": "scale_by_state", "init_state": 3},
        {"id": 3, "fn": "add1_tick", "init_state": 0},
    ],
    "word": [1, 2, 3],
    "input": [1, 2, 3, 4],
    "input_type": "int",
}


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN), encoding="utf-8")
    return str(path)


def _table_rows(out):
    """(label, status) per row of a `stc check <file>` table."""
    lines = out.strip().splitlines()[3:]  # program, acyclic and hints lines
    return [tuple(line.split(None, 1)) for line in lines]


def test_check_table_lists_each_run_once(chain_file, capsys):
    assert main(["check", chain_file]) == 0
    rows = _table_rows(capsys.readouterr().out)
    assert [label for label, _ in rows] == [
        "seq", "interleaved", "auto@1", "auto@4",
        "pipeline@1", "pipeline@2", "pipeline@4", "pipeline@8",
    ]
    assert [status for _, status in rows] == ["reference"] + ["equal"] * 7


def test_mutated_check_reports_divergence_once(chain_file, capsys):
    assert main(["check", chain_file, "--mutate", "state-update-dropped"]) == 1
    rows = _table_rows(capsys.readouterr().out)
    labels = [label for label, _ in rows]
    assert len(labels) == len(set(labels))
    assert [s for _, s in rows if s.startswith("DIVERGES")] == ["DIVERGES at index 1"]
    # a planted fault acts only on a threaded plan: auto@1 runs seq's plan,
    # and auto@4, the first row with more than one worker, diverges
    assert rows[-1][0] == "auto@4"


def test_check_calls_share_no_state(chain_file, capsys):
    assert main(["check", chain_file, "--mutate", "state-update-dropped"]) == 1
    capsys.readouterr()
    assert main(["check", chain_file]) == 0
    assert "DIVERGES" not in capsys.readouterr().out


def test_run_calls_share_no_state(chain_file, capsys):
    assert main(["run", chain_file, "--mode", "pipeline"]) == 0
    first = capsys.readouterr().out
    assert main(["run", chain_file]) == 0
    assert capsys.readouterr().out == first


def test_check_fuzz_report(capsys):
    assert main(["check", "--fuzz", "--seed", "3", "--trials", "25"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 25 and doc["failed"] == 0


def test_check_fuzz_mutated_fails(capsys):
    rc = main(
        ["check", "--fuzz", "--seed", "11", "--trials", "500",
         "--mutate", "state-not-forwarded"]
    )
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["failed"] >= 1
    assert doc["failures"][0]["program"]  # replayable dump


def test_check_without_target_is_validation_error(capsys):
    assert main(["check"]) == 2


@pytest.mark.parametrize(
    "limit", [["--trials", "0"], ["--max-edges", "0"], ["--max-word-len", "-1"],
              ["--max-list-len", "0"]]
)
def test_check_fuzz_nonpositive_limits_are_validation_errors(limit, capsys):
    assert main(["check", "--fuzz", *limit]) == 2
    assert capsys.readouterr().err.startswith("validation error:")


DEEP = 3000


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(dict(
            COUNTER,
            threads=[{"id": 1, "fn": "delay_identity_ms", "params": {"type": "list(" * DEEP}}],
        )),
        json.dumps(dict(COUNTER, input=[])).replace("[]", "[" * DEEP + "]" * DEEP),
    ],
    ids=["port-type", "input"],
)
def test_deeply_nested_documents_are_validation_errors(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "nests" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(dict(COUNTER, input=[list(range(5000))])),
        json.dumps(dict(COUNTER, input=[])).replace("[]", "[" * 500 + "]" * 500),
    ],
    ids=["wide", "deep"],
)
def test_mistyped_literal_messages_are_bounded(tmp_path, capsys, text):
    path = tmp_path / "mistyped.json"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and err.count("\n") == 1
    assert "input[0]" in err and len(err.encode()) < 200


def test_overlong_int_literal_is_validation_error(tmp_path, capsys):
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(COUNTER).replace("10", "1" * 5000), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("validation error:")


@pytest.mark.parametrize("delay", ["NaN", "Infinity", "1e300"])
def test_unsleepable_delay_is_validation_error(tmp_path, capsys, delay):
    doc = dict(COUNTER, threads=[{"id": 1, "fn": "delay_identity_ms", "params": {"delay_ms": 0}}])
    path = tmp_path / "delay.json"
    path.write_text(json.dumps(doc).replace('"delay_ms": 0', f'"delay_ms": {delay}'), "utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: at threads[0].params.delay_ms:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("earlier, later", [(0, False), (1, True), (1.0, True)])
def test_bool_delay_is_rejected_after_an_equal_number(tmp_path, capsys, earlier, later):
    # False == 0 and True == 1 == 1.0 in Python: a thread built earlier
    # with the number must not let the bool through
    threads = [
        {"id": 1, "fn": "delay_identity_ms", "params": {"delay_ms": earlier}},
        {"id": 2, "fn": "delay_identity_ms", "params": {"delay_ms": later}},
    ]
    path = tmp_path / "delays.json"
    path.write_text(json.dumps(dict(COUNTER, threads=threads, word=[1, 2])), "utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("validation error: at threads[1].params.delay_ms:")
    # the same bool is rejected after the carrier fuzzer built zero delays
    from stc.harness import FuzzConfig, carrier_stream

    for _ in zip(range(20), carrier_stream(FuzzConfig(seed=3, trials=20))):
        pass
    assert main(["run", str(path)]) == 2


def test_module_entry_point_runs_cli(counter_file):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stc.cli", "run", counter_file],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"output":[10,21,32],"final_state":{"1":3}}'


def test_importing_the_cli_leaves_the_harness_unloaded(counter_file, tmp_path):
    # `stc run` must not compile the fuzzer, nor load `statistics` for
    # `stc bench`, `hashlib` for program digests, `argparse` for a plain
    # argv or `dataclasses` (with `inspect`) for its records, and a plan
    # that can start no thread, any mode on a CPU-only program, must not
    # load the threaded executors or `queue`: a fresh process pays for
    # every module it imports. A delay that sleeps blocks, so its plan at
    # two workers loads both. Modules a site hook loaded before `stc.cli`
    # do not count.
    delay_file = tmp_path / "delay.json"
    delay = dict(COUNTER, threads=[{"id": 1, "fn": "delay_identity_ms", "params": {"delay_ms": 1}}])
    delay_file.write_text(json.dumps(delay), encoding="utf-8")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    unwanted = ("{'stc.harness', 'statistics', 'hashlib', 'argparse', 'dataclasses', 'inspect'}"
                " & set(sys.modules) - before")
    threaded = "{'stc.parallel', 'queue'} & set(sys.modules) - before"
    run = "stc.cli.main(['run', sys.argv[{}], '--mode', '{}', '--workers', '2'])"
    runs = [(1, mode) for mode in ("seq", "interleaved", "pipeline", "auto")] + [(2, "auto")]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import stc.cli;"
         f" print(sorted({unwanted}), sorted({threaded}));"
         + "".join(
             f" {run.format(arg, mode)}; print(sorted({unwanted}), sorted({threaded}));"
             for arg, mode in runs
         ), counter_file, str(delay_file)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = '{"output":[10,21,32],"final_state":{"1":3}}'
    assert proc.stdout.splitlines() == ["[] []"] + [result, "[] []"] * 4 + [
        '{"output":[10,20,30],"final_state":{"1":null}}', "[] ['queue', 'stc.parallel']"
    ]


def test_a_bare_check_reads_its_argv_without_argparse(counter_file):
    # `stc check FILE` prints the same table whether or not argparse reads
    # its argv, and a fresh process running it never loads argparse
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import stc.cli;"
         " code = stc.cli.main(['check', sys.argv[1]]);"
         " print(code, sorted({'argparse'} & set(sys.modules) - before))", counter_file],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "program 27685d5565dc1a9e",
        "graph acyclic: false",
        "classification hints: ok",
        "seq          reference",
        "interleaved  equal",
        "auto@1       equal",
        "auto@4       equal",
        "pipeline@1   equal",
        "pipeline@2   equal",
        "pipeline@4   equal",
        "pipeline@8   equal",
        "0 []",
    ]


def _outcome(argv):
    """``main(argv)``'s exit code, or its ``SystemExit`` code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return ("SystemExit", exc.code)


# (argv with F for the program file, whether main reads it without argparse)
ARGV_TABLE = [
    (["run", "F"], True),
    (["run", "F", "--mode", "pipeline"], True),
    (["run", "F", "--workers", "2"], True),
    (["run", "F", "--mode", "auto", "--workers", "2"], True),
    (["run", "F", "--workers", "2", "--mode", "interleaved"], True),
    (["run", "--mode", "auto", "F"], True),
    (["run", "--workers", "3", "F", "--mode", "pipeline"], True),
    (["run", "F", "--mode=auto"], False),
    (["run", "F", "--mo", "seq"], False),
    (["run", "F", "--workers=2"], False),
    (["run", "F", "--workers", " 2"], True),
    (["run", "F", "--workers", "+2"], True),
    (["run", "F", "--mode", "pipeline", "--workers", "2_0"], True),
    (["run", "F", "--workers", "\u0662"], True),  # an Arabic-Indic 2
    (["run", "F", "--workers", "\u00b2"], False),  # '²'.isdigit(), but int() refuses it
    (["run", "F", "--workers", "x"], False),
    (["run", "F", "--mode", "auto", "--workers", "-1"], False),
    (["run", "F", "--mode", "auto", "--workers", "0"], True),
    (["run", "F", "--workers", ""], False),
    (["run", "F", "--mode", "seq", "--mode", "auto"], False),
    (["run", "F", "--workers", "2", "--workers", "3"], False),
    (["run", "--", "F"], False),
    (["run", "F", "--"], False),
    (["-h"], False),
    (["run", "-h"], False),
    (["run", "F", "--help"], False),
    (["run", "-x.json"], False),
    (["run", "missing.json"], True),
    (["run", "F", "extra"], False),
    (["run", "F", "--mode", "fast"], False),
    (["run", "F", "--mode"], False),
    (["run", "F", "--workers"], False),
    (["run"], False),
    ([], False),
    (["dot", "F"], False),
    (["check", "F"], True),
    (["check", "missing.json"], True),
    (["check", "-x.json"], False),
    (["check", "F", "--seed", "2"], False),
    (["check", "--trials", "3", "F"], False),
    (["check", "F", "extra"], False),
    (["check"], False),
    (["check", "-h"], False),
]


@pytest.mark.parametrize("argv, fast", ARGV_TABLE, ids=[" ".join(r[0]) for r in ARGV_TABLE])
def test_argv_matches_argparse(tmp_path, monkeypatch, capsys, counter_file, argv, fast):
    # main reads a plain `run` argv itself; whatever it reads must come
    # out byte for byte as argparse's parse followed by args.fn
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    (tmp_path / "-x.json").write_text(json.dumps(COUNTER), encoding="utf-8")
    argv = [counter_file if a == "F" else a for a in argv]
    read = cli._run_args(argv)
    assert (read is not None) is fast
    if fast:
        assert vars(read) == vars(cli._build_parser().parse_args(argv))
    got = (_outcome(argv), *capsys.readouterr())
    monkeypatch.setattr(cli, "_run_args", lambda argv: None)
    want = (_outcome(argv), *capsys.readouterr())
    assert got == want


@pytest.mark.parametrize("argv", [
    ["run", "F", "--workers", "2", "--mode", "auto"],
    ["run", "F", "--mode=x"],
])
def test_module_argv_matches_argparse(monkeypatch, capsys, counter_file, argv):
    # `python -m stc.cli` reads sys.argv (main(None)) the same way
    monkeypatch.setenv("COLUMNS", "80")
    argv = [counter_file if a == "F" else a for a in argv]
    monkeypatch.setattr(cli, "_run_args", lambda argv: None)
    want = (_outcome(argv), *capsys.readouterr())
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stc.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code = want[0][1] if isinstance(want[0], tuple) else want[0]
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, *want[1:])


BRANCH = {
    "threads": [
        {"id": 1, "fn": "branch_even"},
        {"id": 2, "fn": "scale_by_state", "init_state": 3},
        {"id": 3, "fn": "merge_sum"},
    ],
    "word": {"branch": {"producer": [1], "left": [2], "right": [], "consumer": [3]}},
    "input": [1, 2, 3],
    "input_type": "int",
}


@pytest.mark.parametrize("doc", [COUNTER, BRANCH], ids=["word", "branch"])
@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("mode", ["auto", "pipeline"])
def test_workers_below_one_are_validation_errors(tmp_path, capsys, doc, workers, mode):
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path), "--mode", mode, "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: workers must be a positive integer\n"


def test_bench_csv_shape(capsys):
    assert main(["bench", "--stages", "1", "--list-len", "2", "--delay-ms", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mode,stages,list_len,delay_ms,wall_ms"
    assert len(lines) == 3
    for line, mode in zip(lines[1:], ("seq", "pipeline")):
        cells = line.split(",")
        assert cells[0] == mode
        assert cells[1:4] == ["1", "2", "1"]
        assert float(cells[4]) > 0


@pytest.mark.parametrize(
    "workers, message",
    [("0", "workers must be a positive integer"), ("65", "workers must be at most 64")],
)
def test_bench_rejects_workers_before_any_output(capsys, workers, message):
    argv = ["bench", "--stages", "1", "--list-len", "2", "--delay-ms", "1", "--workers", workers]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: {message}\n"


def test_dot_output(counter_file, capsys):
    assert main(["dot", counter_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph {")
    assert '"int" -> "int" [label="1"];' in out


def test_dot_extended(counter_file, capsys):
    assert main(["dot", counter_file, "--extended"]) == 0
    assert "lift(1)" in capsys.readouterr().out


def test_runtime_errors_map_to_exit_3(monkeypatch, counter_file):
    from stc import cli
    from stc.errors import ExecutionError

    def boom(*args, **kwargs):
        raise ExecutionError("synthetic fault")

    monkeypatch.setattr(cli, "run_raw", boom)
    assert cli.main(["run", counter_file]) == 3
