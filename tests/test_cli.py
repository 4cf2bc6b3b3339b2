import hashlib
import json
import os
import subprocess
import sys

import pytest

from cqakit.cli import main
from cqakit.encoders import load_checkpoint, save_checkpoint
from cqakit.graph import layer_graphs, split_edges, synthetic_graph
from cqakit.linearize import Vocabulary
from cqakit.queries import parse_grounded, query_ids
from cqakit.sampler import Dataset, GroundedQueryRecord, Provenance, write_dataset
from cqakit.symbolic import answer_dnf, to_dnf
from cqakit.training import TrainConfig, train

from conftest import answer_set, stored_in_reverse


@pytest.fixture(scope="module")
def kg_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("kg")
    kg = synthetic_graph(60, 5, 400, seed=21)
    layers = split_edges(kg, (8, 1, 1), seed=21)
    prev = set()
    for name, layer in (("train", layers.train), ("valid", layers.valid), ("test", layers.test)):
        new = sorted(layer.edges - prev)
        (root / f"{name}.txt").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in new))
        prev = set(layer.edges)
    return root


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero():
    for argv in (["--help"], ["generate", "--help"], ["train", "--help"], ["eval", "--help"],
                 ["answer", "--help"], ["linearize", "--help"], ["inspect", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, "linearize", "--query", "(e,(1))", "--bogus")
    assert code == 1
    assert "usage error" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_linearize_golden(capsys):
    code, out, err = run(
        capsys, "linearize", "--query", "(p,(7),(u,(p,(3),(e,(12))),(p,(3),(e,(45)))))"
    )
    assert code == 0
    assert out.strip() == "[(][P][r7][(][U][(][P][r3][e12][)][(][P][r3][e45][)][)][)]"
    assert "config-hash:" in err


def test_linearize_bad_query_exits_two(capsys):
    code, _, err = run(capsys, "linearize", "--query", "(p,(e)")
    assert code == 2
    assert "error" in err


def test_answer_single_anchor(capsys, kg_dir):
    code, out, _ = run(capsys, "answer", "--kg", str(kg_dir), "--layer", "test", "--query", "(e,(5))")
    assert code == 0
    assert out.strip() == "5"


def test_answer_projection_sorted(capsys, kg_dir):
    code, out, _ = run(capsys, "answer", "--kg", str(kg_dir), "--query", "(n,(e,(5)))")
    assert code == 0
    ids = [int(x) for x in out.split()]
    assert ids == sorted(ids)
    assert len(ids) == 59 and 5 not in ids


@pytest.fixture(scope="module")
def growing_kg_dir(tmp_path_factory):
    """Valid and test files that add edges, so answers differ on every layer."""
    root = tmp_path_factory.mktemp("growing")
    for name, text in (("train", "0\t0\t1\n1\t1\t2\n"), ("valid", "0\t0\t2\n2\t1\t4\n"),
                       ("test", "0\t0\t3\n0\t0\t1\n3\t1\t4\n")):
        (root / f"{name}.txt").write_text(text)
    return root


@pytest.mark.parametrize("query", [
    "(p,(0),(e,(0)))",
    "(p,(1),(p,(0),(e,(0))))",
    "(n,(p,(1),(p,(0),(e,(0)))))",
    "(i,(p,(0),(e,(0))),(n,(p,(1),(e,(1)))))",
    "(p,(0),(e,(4)))",
])
@pytest.mark.parametrize("layer", ["train", "valid", "test"])
def test_answer_each_layer_matches_dnf_oracle(capsys, growing_kg_dir, layer, query):
    layers = layer_graphs(*(growing_kg_dir / f"{name}.txt" for name in ("train", "valid", "test")))
    expected = answer_dnf(layers.layer(layer), to_dnf(parse_grounded(query)))
    code, out, _ = run(capsys, "answer", "--kg", str(growing_kg_dir), "--layer", layer, "--query", query)
    assert code == 0
    assert [int(x) for x in out.split()] == sorted(expected)


def test_answer_layers_differ(growing_kg_dir):
    # the oracle test above reads each bit: the answers differ on every layer
    layers = layer_graphs(*(growing_kg_dir / f"{name}.txt" for name in ("train", "valid", "test")))
    dnf = to_dnf(parse_grounded("(p,(0),(e,(0)))"))
    assert [answer_dnf(layers.layer(n), dnf) for n in ("train", "valid", "test")] == [{1}, {1, 2}, {1, 2, 3}]


@pytest.mark.parametrize("flag,value,message", [
    ("--count", "-1", "per_type_count must be >= 0, got -1"),
    ("--max-retries", "0", "max_retries must be >= 1, got 0"),
])
def test_generate_bad_sampler_bounds_exit_two(capsys, kg_dir, tmp_path, flag, value, message):
    argv = ["generate", "--kg", str(kg_dir), "--types", "conj", "--count", "1", "--seed", "0",
            "--out", str(tmp_path / "d.jsonl"), flag, value]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert message in err and "Traceback" not in err


def test_negative_seed_exits_two_before_the_input_is_read(capsys, tmp_path):
    # neither the graph directory nor the dataset exists: the config is refused first
    code, out, err = run(capsys, "generate", "--kg", str(tmp_path / "absent"), "--types", "conj",
                         "--count", "1", "--seed", "-1", "--out", str(tmp_path / "d.jsonl"))
    assert code == 2 and out == ""
    assert "error: seed must be >= 0, got -1" in err and "Traceback" not in err
    code, out, err = run(capsys, "train", "--data", str(tmp_path / "absent.jsonl"),
                         "--out", str(tmp_path / "m.ckpt"), "--set", "seed=-1")
    assert code == 2 and out == ""
    assert "error: seed must be >= 0, got -1" in err and "Traceback" not in err
    assert not (tmp_path / "d.jsonl").exists() and not (tmp_path / "m.ckpt").exists()


def test_missing_kg_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "answer", "--kg", str(tmp_path), "--query", "(e,(1))")
    assert code == 2
    assert "missing triple file" in err


def test_generate_inspect_roundtrip(capsys, kg_dir, tmp_path):
    out_file = tmp_path / "ds.jsonl"
    code, out, _ = run(
        capsys, "generate", "--kg", str(kg_dir), "--types", "fol", "--count", "2",
        "--seed", "3", "--out", str(out_file),
    )
    assert code == 0
    assert "29 types" in out
    code, out, _ = run(capsys, "inspect", "--data", str(out_file))
    assert code == 0
    assert out.count("type (") == 29
    assert "answer-size histogram [train]" in out


def test_inspect_histogram_buckets(capsys, tmp_path):
    # answer-set sizes per record on the train, valid and test layers
    sizes = [(0, 1, 2), (1, 1, 4), (2, 3, 6), (3, 4, 8), (5, 7, 15), (9, 12, 16)]
    records = [
        GroundedQueryRecord("(p,(e))", query_ids(parse_grounded(f"(p,(0),(e,({i})))")),
                            *(answer_set(range(n)) for n in layer_sizes))
        for i, layer_sizes in enumerate(sizes)
    ]
    path = tmp_path / "ds.jsonl"
    write_dataset(Dataset({"(p,(e))": records}, Provenance("hist", 0, ""), 20, 1), path)
    code, out, _ = run(capsys, "inspect", "--data", str(path))
    assert code == 0
    assert out.splitlines()[-3:] == [
        "answer-size histogram [train]: 0:1 1:1 2-3:2 4-7:1 8-15:1",
        "answer-size histogram [valid]: 1:2 2-3:1 4-7:2 8-15:1",
        "answer-size histogram [test]: 2-3:1 4-7:2 8-15:2 16-31:1",
    ]


def test_inspect_refuses_mistyped_provenance(capsys, handmade_dataset):
    path = handmade_dataset(None, {"kg": ["x"], "seed": {"a": 1}, "config_hash": 7})
    code, out, err = run(capsys, "inspect", "--data", str(path))
    assert code == 2
    assert "header 'kg' is not a string" in err and out == ""


def test_generate_custom_type_file(capsys, kg_dir, tmp_path):
    tfile = tmp_path / "types.txt"
    tfile.write_text("(p,(e))\n# comment\n(u,(p,(e)),(p,(e)))\n")
    out_file = tmp_path / "ds.jsonl"
    code, out, _ = run(
        capsys, "generate", "--kg", str(kg_dir), "--types", str(tfile), "--count", "3",
        "--seed", "1", "--out", str(out_file),
    )
    assert code == 0
    assert "2 types" in out


def test_generate_repeated_type_exits_two(capsys, kg_dir, tmp_path):
    tfile = tmp_path / "types.txt"
    tfile.write_text("(p,(e))\n(u,(p,(e)),(p,(e)))\n(p, (e))\n")
    out_file = tmp_path / "d.jsonl"
    code, out, err = run(capsys, "generate", "--kg", str(kg_dir), "--types", str(tfile), "--count", "5",
                         "--seed", "0", "--out", str(out_file))
    assert code == 2 and out == "" and not out_file.exists()
    lines = [line for line in err.splitlines() if not line.startswith("config-hash:")]
    assert lines == ["error: query type (p,(e)) is listed more than once"]


def test_generate_type_file_nested_too_deeply_exits_two(kg_dir, tmp_path):
    # a fresh process, so the stack is as shallow as a user's: at this depth
    # the reader succeeds and the type printer used to overflow
    tfile = tmp_path / "types.txt"
    tfile.write_text("(p," * 480 + "(e)" + ")" * 480 + "\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "cqakit.cli", "generate", "--kg", str(kg_dir), "--types", str(tfile),
         "--count", "1", "--seed", "0", "--out", str(tmp_path / "d.jsonl")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = [line for line in proc.stderr.splitlines() if not line.startswith("config-hash:")]
    assert lines == [f"error: {tfile}:1: query nested too deeply"]


def test_generate_non_utf8_type_file_exits_two(capsys, kg_dir, tmp_path):
    tfile = tmp_path / "types.txt"
    tfile.write_bytes(b"(p,(e))\n\xff(p,(e))\n")
    code, out, err = run(capsys, "generate", "--kg", str(kg_dir), "--types", str(tfile), "--count", "1",
                         "--seed", "0", "--out", str(tmp_path / "d.jsonl"))
    assert code == 2 and out == ""
    lines = [line for line in err.splitlines() if not line.startswith("config-hash:")]
    assert len(lines) == 1 and lines[0].startswith(f"error: {tfile}: not UTF-8 text")


def test_train_eval_pipeline(capsys, kg_dir, tmp_path):
    data = tmp_path / "d.jsonl"
    ckpt = tmp_path / "m.ckpt"
    log = tmp_path / "train.log"
    report = tmp_path / "report.jsonl"
    code, _, _ = run(
        capsys, "generate", "--kg", str(kg_dir), "--types", "fol", "--count", "2",
        "--seed", "5", "--out", str(data),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "train", "--data", str(data), "--out", str(ckpt), "--log", str(log),
        "--set", "epochs=2", "--set", "d=16", "--set", "batch_size=64",
    )
    assert code == 0
    assert "checkpoint written" in out
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    assert [e["epoch"] for e in entries] == [0, 1]
    code, out, _ = run(
        capsys, "eval", "--ckpt", str(ckpt), "--data", str(data), "--mode", "both",
        "--out", str(report),
    )
    assert code == 0
    assert "mean_over_types" in out
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert {r["mode"] for r in rows} == {"entailment", "inference"}


def test_train_rejects_unknown_config_key(capsys, kg_dir, tmp_path):
    data = tmp_path / "d.jsonl"
    run(capsys, "generate", "--kg", str(kg_dir), "--types", str(write_line(tmp_path, "(p,(e))")),
        "--count", "1", "--seed", "0", "--out", str(data))
    code, _, err = run(
        capsys, "train", "--data", str(data), "--out", str(tmp_path / "x.ckpt"),
        "--set", "nonsense=1",
    )
    assert code == 2
    assert "unknown config key" in err


def write_line(tmp_path, text):
    p = tmp_path / "one_type.txt"
    p.write_text(text + "\n")
    return p


def test_threads_flag_rejected(capsys):
    code, out, err = run(capsys, "--threads", "1", "linearize", "--query", "(e,(0))")
    assert code == 1
    assert out == ""
    assert err.startswith("usage error")


def test_eval_checkpoint_without_table_exits_two(capsys, kg_dir, tmp_path):
    data, ckpt = tmp_path / "d.jsonl", tmp_path / "m.ckpt"
    assert main(["generate", "--kg", str(kg_dir), "--types", "conj", "--count", "1",
                 "--seed", "3", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(ckpt),
                 "--set", "epochs=1", "--set", "d=8", "--set", "arch=TreeLSTM"]) == 0
    meta, tensors = load_checkpoint(ckpt)
    del tensors["table"]
    save_checkpoint(ckpt, meta, tensors)
    capsys.readouterr()
    code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(data))
    assert code == 2
    assert "table" in err
    assert "Traceback" not in err and "mean_over_types" not in out


def test_negative_id_in_triple_file_exits_two(tmp_path, capsys):
    for name, text in (("train.txt", "0\t0\t1\n1\t0\t-3\n"), ("valid.txt", ""), ("test.txt", "")):
        (tmp_path / name).write_text(text)
    code, _, err = run(capsys, "answer", "--kg", str(tmp_path), "--layer", "test", "--query", "(p,(0),(e,(0)))")
    assert code == 2
    assert "negative entity id -3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("token", ["\u0663", "+2", "1_0", " 4", "007", "-3"])
def test_non_canonical_id_in_triple_file_exits_two(tmp_path, capsys, token):
    for name, text in (("train.txt", f"0\t0\t1\n1\t0\t{token}\n"), ("valid.txt", ""), ("test.txt", "")):
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "answer", "--kg", str(tmp_path), "--query", "(p,(0),(e,(0)))")
    assert code == 2 and out == ""
    assert f"{tmp_path / 'train.txt'}:2:" in err and "Traceback" not in err


def untrained_checkpoint(path, num_relations, num_entities):
    train(TrainConfig(d=8, epochs=0), Dataset(), Vocabulary(num_relations, num_entities)).save(path)
    return path


def test_eval_checkpoint_without_train_config_exits_two(capsys, handmade_dataset, tmp_path):
    ckpt = untrained_checkpoint(tmp_path / "m.ckpt", 1, 10)
    meta, tensors = load_checkpoint(ckpt)
    del meta["train_config"]
    save_checkpoint(ckpt, meta, tensors)
    code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(handmade_dataset()))
    assert code == 2
    assert "train_config" in err
    assert "Traceback" not in err and "mean_over_types" not in out


def test_eval_checkpoint_with_negative_step_exits_two(capsys, handmade_dataset, tmp_path):
    ckpt, data = untrained_checkpoint(tmp_path / "m.ckpt", 1, 10), handmade_dataset()
    assert run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(data))[0] == 0
    meta, tensors = load_checkpoint(ckpt)
    meta["step"] = -7
    save_checkpoint(ckpt, meta, tensors)
    code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(data))
    assert code == 2
    assert "'step' must be >= 0, found -7" in err
    assert "Traceback" not in err and "mean_over_types" not in out


def test_eval_universe_mismatch_exits_two(capsys, kg_dir, tmp_path):
    data = tmp_path / "d.jsonl"
    assert main(["generate", "--kg", str(kg_dir), "--types", "conj", "--count", "1",
                 "--seed", "3", "--out", str(data)]) == 0
    header = json.loads(data.read_text().splitlines()[0])
    assert header["num_entities"] == 60
    ckpt = untrained_checkpoint(tmp_path / "m.ckpt", header["num_relations"], 100)
    capsys.readouterr()
    code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(data))
    assert code == 2
    assert "dataset universe (60 entities" in err and "(100 entities" in err
    assert "Traceback" not in err and "mean_over_types" not in out


@pytest.mark.parametrize("command,record,header", [
    ("eval", {"test_answers": [4, 100000]}, None),
    ("eval", {"test_answers": 5}, None),
    ("train", {"test_answers": 5}, None),
    ("eval", ["a", "b"], None),
    ("eval", None, [1, 2]),
], ids=["answer-id-too-large", "answers-not-a-list", "train-answers-not-a-list", "record-not-object",
        "header-not-object"])
def test_malformed_dataset_exits_two(command, record, header, capsys, handmade_dataset, tmp_path):
    data = handmade_dataset(record, header)
    ckpt = tmp_path / "m.ckpt"
    if command == "eval":
        untrained_checkpoint(ckpt, 1, 10)
        argv = ["eval", "--ckpt", str(ckpt), "--data", str(data)]
    else:
        argv = ["train", "--data", str(data), "--out", str(ckpt), "--set", "epochs=1", "--set", "d=8"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert f"{data}:" in err
    assert "Traceback" not in err and out == ""


def test_eval_damaged_files_exit_two(capsys, handmade_dataset, tmp_path):
    data = handmade_dataset()
    ckpt = untrained_checkpoint(tmp_path / "m.ckpt", 1, 10)
    assert run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(data))[0] == 0
    good_ckpt, good_data = ckpt.read_bytes(), data.read_bytes()
    magic, manifest, payload = good_ckpt.split(b"\n", 2)
    entry = b'{"name":"table","offset":0}'
    for damaged_ckpt, damaged_data in (
        (good_ckpt[: len(good_ckpt) // 2], good_data),  # truncated checkpoint
        (b"\n".join([magic, b"5", payload]), good_data),  # manifest not an object
        (b"\n".join([magic, manifest.replace(b'"tensors":[', b'"tensors":[' + entry + b","), payload]),
         good_data),  # tensor entry without dtype, shape and size
        (stored_in_reverse(good_ckpt), good_data),  # tensors not in sorted-name order
        (good_ckpt, b"[1,2]\n"),  # dataset header not an object
        (good_ckpt, b"\xfe\xff garbage \x00\n"),  # dataset that is not UTF-8
    ):
        ckpt.write_bytes(damaged_ckpt)
        data.write_bytes(damaged_data)
        code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(data))
        assert code == 2, err
        assert err.count("error: ") == 1 and "Traceback" not in err and out == ""


@pytest.mark.parametrize("overrides,message", [
    (["arch=Transformer-APE", "heads=0"], "heads must be >= 1, got 0"),
    (["arch=LSTM", "layers=0"], "layers must be >= 1, got 0"),
    (["arch=LSTM", "adam_eps=0"], "adam_eps must be finite and above 0, got 0.0"),
    (["arch=LSTM", "batch_size=0"], "batch_size must be >= 1, got 0"),
    # (epoch + 1) % -1 == 0 would run the validation-swap eval every epoch
    (["arch=LSTM", "eval_every=-1"], "eval_every must be >= 0, got -1"),
], ids=["zero-heads", "zero-layers", "zero-adam-eps", "zero-batch-size", "negative-eval-every"])
def test_train_rejects_out_of_range_sizes(overrides, message, capsys, handmade_dataset, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    argv = ["train", "--data", str(handmade_dataset()), "--out", str(ckpt), "--set", "d=8"]
    for override in overrides:
        argv += ["--set", override]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert [line for line in err.splitlines() if not line.startswith("config-hash:")] == [f"error: {message}"]
    assert out == "" and not ckpt.exists()


def test_train_unknown_arch_exits_two_before_reading_data(capsys, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    code, out, err = run(capsys, "train", "--data", str(tmp_path / "missing.jsonl"), "--out", str(ckpt),
                         "--set", "arch=nope")
    assert code == 2
    assert "unknown architecture 'nope'" in err and "missing.jsonl" not in err
    assert "Traceback" not in err and out == "" and not ckpt.exists()


def test_train_universe_too_large_to_allocate_exits_two(capsys, tmp_path):
    # 10**15 entities ask for more than any address space holds, so the table's
    # allocation fails at once without touching memory
    data, ckpt = tmp_path / "huge.jsonl", tmp_path / "m.ckpt"
    header = {"format": "cqakit-dataset", "version": 1, "kg": "hand", "seed": 0, "config_hash": "deadbeef",
              "num_entities": 10**15, "num_relations": 1, "checksum": hashlib.sha256(b"").hexdigest(),
              "num_records": 0}
    data.write_text(json.dumps(header) + "\n")
    code, out, err = run(capsys, "train", "--data", str(data), "--out", str(ckpt), "--set", "d=8")
    assert code == 2
    assert err.count("error: ") == 1 and "Traceback" not in err
    assert out == "" and not ckpt.exists()


@pytest.mark.parametrize("query", ["(e,(01))", "(e,(١))", "(p,(0),　(e,(1)))"],
                         ids=["leading-zero", "non-ascii-digit", "non-ascii-space"])
def test_query_text_outside_grammar_exits_two(query, capsys, kg_dir):
    for argv in (["linearize", "--query", query], ["answer", "--kg", str(kg_dir), "--query", query]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "error:" in err and "Traceback" not in err


def test_linearize_validates_ids_against_kg(capsys, kg_dir):
    code, out, _ = run(capsys, "linearize", "--kg", str(kg_dir), "--query", "(p,(4),(e,(59)))")
    assert code == 0 and out.strip() == "[(][P][r4][e59][)]"
    code, out, err = run(capsys, "linearize", "--kg", str(kg_dir), "--query", "(p,(4),(e,(60)))")
    assert code == 2 and out == ""
    assert "entity id 60 out of range [0, 60)" in err


def test_non_utf8_triple_file_exits_two(tmp_path, capsys):
    for name, text in (("train.txt", b"0\t0\t1\n\xff\xfe\t0\t1\n"), ("valid.txt", b""), ("test.txt", b"")):
        (tmp_path / name).write_bytes(text)
    code, _, err = run(capsys, "answer", "--kg", str(tmp_path), "--query", "(p,(0),(e,(0)))")
    assert code == 2
    assert f"{tmp_path / 'train.txt'}: not UTF-8" in err
    assert "Traceback" not in err
