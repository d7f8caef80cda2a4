import argparse
import dataclasses
import inspect
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (checkpoint_parts, rewrite_checkpoint, save_dialogues_jsonl,
                     save_lexicon, save_manifest_checkpoint, seal_checkpoint,
                     split_gru)
from test_corpus import _second_turn_row
from test_metrics import _edit

from kgchat import cli
from kgchat.corpus import (SyntheticConfig, Vocabulary, generate_synthetic,
                           ingest, load_bundle, write_json)
from kgchat.kgraph import (KnowledgeGraph, Triple, load_triples_tsv,
                           save_triples_tsv)
from kgchat.metrics import (METRIC_NAMES, PerturbTurnEval, evaluate_report,
                            load_perturb_report, load_report)
from kgchat.qadpt import (Hyperparams, QadptModel, init_params,
                          load_checkpoint, make_examples, save_checkpoint)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    return tmp_path_factory.mktemp("cliws")


@pytest.fixture(scope="module")
def bundle_dir(ws):
    out = ws / "bundle"
    code = cli.main(["synth", "--out", str(out), "--n_people", "8",
                     "--n_places", "4", "--n_jobs", "3", "--n_turns", "150",
                     "--seed", "3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(ws, bundle_dir):
    out = ws / "run"
    code = cli.main(["train", "--bundle", str(bundle_dir), "--out", str(out),
                     "--hidden", "24", "--embed", "16", "--hops", "3",
                     "--epochs", "3", "--patience", "5", "--batch_size", "16",
                     "--seed", "1"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def seq_dir(ws, bundle_dir):
    out = ws / "seq"
    code = cli.main(["train", "--bundle", str(bundle_dir), "--out", str(out),
                     "--model", "seq2seq", "--hidden", "24", "--embed", "16",
                     "--epochs", "2", "--patience", "5", "--seed", "1"])
    assert code == 0
    return out


def test_synth_writes_bundle_and_config(bundle_dir):
    for name in ("turns.jsonl", "vocab.json", "graph.tsv", "config.json",
                 "oracle_paths.json"):
        assert (bundle_dir / name).exists(), name
    assert not (bundle_dir / "expected.json").exists()
    cfg = json.loads((bundle_dir / "config.json").read_text())
    assert cfg["command"] == "synth"
    assert cfg["config"]["n_people"] == 8
    bundle = load_bundle(bundle_dir)
    assert bundle.meta["n_turns"] == 150


def test_stats_writes_histograms(ws, bundle_dir, capsys):
    out = ws / "stats"
    assert cli.main(["stats", "--bundle", str(bundle_dir),
                     "--out", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "dialogues" in shown and "shortest-path histogram" in shown
    blob = json.loads((out / "stats.json").read_text())
    assert blob["n_turns"] == 150
    lines = (out / "path_hist.csv").read_text().strip().splitlines()
    assert lines[0] == "hops,pairs"
    assert lines[-1].startswith("unreachable,")


def test_stats_profile_comparison_reports_rows(bundle_dir, capsys):
    # synthetic corpus vs a released-corpus profile: every deviation is
    # its own row, and the command still exits 0
    assert cli.main(["stats", "--bundle", str(bundle_dir),
                     "--expect", "hgzhz"]) == 0
    shown = capsys.readouterr().out
    assert "MISMATCH" in shown
    assert "rows deviate" in shown


def test_train_artifacts(run_dir):
    assert (run_dir / "model.ckpt").exists()
    log_lines = (run_dir / "train_log.jsonl").read_text().strip().splitlines()
    assert log_lines
    rec = json.loads(log_lines[0])
    assert rec["epoch"] == 1
    cfg = json.loads((run_dir / "config.json").read_text())
    assert cfg["config"]["hidden"] == 24


def test_train_seq2seq_dispatch(seq_dir):
    model = load_checkpoint(seq_dir / "model.ckpt")
    assert model.kind == "seq2seq"
    assert "out_w" in model.params


def test_eval_writes_report_and_csv(ws, bundle_dir, run_dir):
    out = ws / "eval"
    assert cli.main(["eval", "--bundle", str(bundle_dir), "--checkpoint",
                     str(run_dir / "model.ckpt"), "--out", str(out)]) == 0
    blob = json.loads((out / "report.json").read_text())
    assert blob["kind"] == "qadpt"
    assert set(blob["metrics"]) == {"ppl", "kw_acc", "kw_acc_soft",
                                    "kw_generic", "generated_kw", "bleu2",
                                    "distinct", "unreachable_targets"}
    assert blob["config"]["split"] == "test"
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "metric,value"
    assert [l.split(",")[0] for l in lines[1:]] == list(METRIC_NAMES)


@pytest.mark.parametrize("flags", [[], ["--max_decode_len", "3"]],
                         ids=("all", "capped"))
def test_eval_files_are_the_report_writers_output(ws, bundle_dir, run_dir,
                                                   flags):
    out = ws / f"eval_files_{len(flags)}"
    assert cli.main(["eval", "--bundle", str(bundle_dir), "--checkpoint",
                     str(run_dir / "model.ckpt"), "--out", str(out),
                     *flags]) == 0
    cfg = json.loads((out / "config.json").read_text())["config"]
    bundle = load_bundle(bundle_dir)
    report = evaluate_report(load_checkpoint(run_dir / "model.ckpt"),
                             make_examples(bundle, bundle.split_turns("test")),
                             max_len=cfg["max_decode_len"], config=cfg)
    write_json(report.to_dict(), out / "direct.json")
    report.save_csv(out / "direct.csv")
    assert (out / "report.json").read_bytes() == \
        (out / "direct.json").read_bytes()
    assert (out / "metrics.csv").read_bytes() == \
        (out / "direct.csv").read_bytes()
    assert load_report(out / "report.json").metric_rows() == \
        report.metric_rows()


def test_eval_vocab_mismatch_is_data_error(ws, run_dir):
    other = ws / "other_bundle"
    assert cli.main(["synth", "--out", str(other), "--n_people", "6",
                     "--n_places", "3", "--n_jobs", "3", "--n_turns", "120",
                     "--seed", "4"]) == 0
    code = cli.main(["eval", "--bundle", str(other), "--checkpoint",
                     str(run_dir / "model.ckpt"), "--out", str(ws / "y")])
    assert code == 3


@pytest.mark.parametrize("mode", ["all", "last1", "last2"])
def test_perturb_report_and_determinism(ws, bundle_dir, run_dir, mode):
    out1, out2 = ws / f"p1_{mode}", ws / f"p2_{mode}"
    for out in (out1, out2):
        assert cli.main(["perturb", "--bundle", str(bundle_dir),
                         "--checkpoint", str(run_dir / "model.ckpt"),
                         "--out", str(out), "--mode", mode,
                         "--seed", "11"]) == 0
    blob = json.loads((out1 / "perturb.json").read_text())
    assert blob["mode"] == mode
    assert blob["n_turns"] + blob["n_skipped"] == len(blob["turns"])
    assert load_perturb_report(out1 / "perturb.json").to_dict() == blob
    for name in ("perturb.json", "diff.log"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    diff = (out1 / "diff.log").read_text().strip().splitlines()
    assert [line.split("\t")[:2] for line in diff] == [
        [t["turn_id"], "skipped" if t["skipped"] else "accurate"
         if t["accurate"] else "changed" if t["changed"] else "unchanged"]
        for t in blob["turns"]]


def test_perturb_seq2seq_never_changes(ws, bundle_dir, seq_dir):
    out = ws / "pseq"
    assert cli.main(["perturb", "--bundle", str(bundle_dir), "--checkpoint",
                     str(seq_dir / "model.ckpt"), "--out", str(out),
                     "--mode", "all", "--seed", "2"]) == 0
    blob = json.loads((out / "perturb.json").read_text())
    assert blob["change_rate"] == 0.0


def test_perturb_bad_mode_is_usage_error(ws, bundle_dir, run_dir):
    code = cli.main(["perturb", "--bundle", str(bundle_dir), "--checkpoint",
                     str(run_dir / "model.ckpt"), "--out", str(ws / "z"),
                     "--mode", "sideways"])
    assert code == 2


@pytest.mark.parametrize("command, split", [("eval", "bogus"),
                                            ("eval", "seed"),
                                            ("perturb", "bogus")])
def test_unknown_split_exits_2(ws, bundle_dir, run_dir, command, split):
    proc = subprocess.run(
        [sys.executable, "-m", "kgchat.cli", command, "--bundle",
         str(bundle_dir), "--checkpoint", str(run_dir / "model.ckpt"),
         "--out", str(ws / f"split_{command}_{split}"), "--split", split],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"unknown split {split!r}; choose from train, valid, test" \
        in proc.stderr


@pytest.mark.parametrize("command, cap", [("eval", "0"), ("eval", "-3"),
                                          ("perturb", "0"), ("chat", "-1")])
def test_decode_cap_below_one_exits_2(ws, bundle_dir, run_dir, capsys,
                                      command, cap):
    out = ws / f"cap_{command}_{cap}"
    argv = [command, "--bundle", str(bundle_dir), "--checkpoint",
            str(run_dir / "model.ckpt"), "--max_decode_len", cap]
    if command != "chat":
        argv += ["--out", str(out)]
    assert cli.main(argv) == 2
    assert f"usage error: max_decode_len must be >= 1, got {cap}" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--epochs", "0")])
def test_train_flags_that_cannot_train_exit_2(ws, capsys, flag, value):
    # the bundle does not exist: the flag is refused before it is read
    out = ws / f"notrain_{flag[2:]}_{value}"
    assert cli.main(["train", "--bundle", str(ws / "no_bundle"),
                     "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert "max_epochs" in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("max_epochs", 0)])
def test_checkpoint_hyper_that_cannot_train_exits_3(ws, bundle_dir, run_dir,
                                                    field, value):
    ckpt = ws / f"hyper_{field}_{value}.ckpt"
    shutil.copyfile(run_dir / "model.ckpt", ckpt)
    rewrite_checkpoint(ckpt, lambda h: h["hyper"].update({field: value}))
    out = ws / f"hyper_eval_{field}_{value}"
    proc = subprocess.run(
        [sys.executable, "-m", "kgchat.cli", "eval", "--bundle",
         str(bundle_dir), "--checkpoint", str(ckpt), "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert field in proc.stderr
    assert not out.exists()


def test_config_file_and_override_precedence(ws, bundle_dir):
    cfg_file = ws / "train.cfg"
    cfg_file.write_text("# comment\nhidden = 20\nepochs=2\npatience = 5\n")
    out = ws / "cfgrun"
    assert cli.main(["train", "--bundle", str(bundle_dir), "--out", str(out),
                     "--config", str(cfg_file), "--hidden", "12",
                     "--embed", "8"]) == 0
    resolved = json.loads((out / "config.json").read_text())["config"]
    assert resolved["hidden"] == 12      # CLI override wins
    assert resolved["epochs"] == 2       # file value kept
    model = load_checkpoint(out / "model.ckpt")
    assert model.hyper.hidden_dim == 12


def test_unknown_config_key_exits_2(ws, bundle_dir):
    # retired settings are unknown keys like any other
    for key in ("no_such_key", "post_renorm", "teacher_forcing",
                "prob_floor"):
        cfg_file = ws / f"bad_{key}.cfg"
        cfg_file.write_text(f"{key}=1\n")
        assert cli.main(["train", "--bundle", str(bundle_dir),
                         "--out", str(ws / "never"),
                         "--config", str(cfg_file)]) == 2
    assert not (ws / "never").exists()


@pytest.fixture(scope="module")
def raw_corpus(ws):
    """dialogues.jsonl, graph.tsv and aliases.tsv for `kgchat ingest`."""
    syn = generate_synthetic(SyntheticConfig(n_people=6, n_places=3, n_jobs=2,
                                             n_turns=100), seed=2)
    raw = ws / "raw"
    raw.mkdir()
    save_dialogues_jsonl(syn.raw_turns, raw / "dialogues.jsonl")
    save_triples_tsv(syn.graph, raw / "graph.tsv")
    save_lexicon(syn.lexicon, raw / "aliases.tsv")
    return raw


def _command_argv(command, out, raw_corpus, bundle_dir, run_dir) -> list:
    """`command` with its required arguments, writing under `out`."""
    ckpt = str(run_dir / "model.ckpt")
    return [command, *{
        "ingest": ["--dialogues", str(raw_corpus / "dialogues.jsonl"),
                   "--kg", str(raw_corpus / "graph.tsv"),
                   "--lexicon", str(raw_corpus / "aliases.tsv"),
                   "--out", str(out)],
        "stats": ["--bundle", str(bundle_dir), "--out", str(out)],
        "synth": ["--out", str(out), "--n_people", "6", "--n_places", "3",
                  "--n_jobs", "2", "--n_turns", "100"],
        "train": ["--bundle", str(bundle_dir), "--out", str(out),
                  "--hidden", "8", "--epochs", "1"],
        "eval": ["--bundle", str(bundle_dir), "--checkpoint", ckpt,
                 "--out", str(out)],
        "perturb": ["--bundle", str(bundle_dir), "--checkpoint", ckpt,
                    "--out", str(out)],
        "chat": ["--checkpoint", ckpt, "--bundle", str(bundle_dir)],
    }[command]]


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", [
    ("ingest", "hidden", "8"), ("stats", "lr", "-1"), ("stats", "hidden", "0"),
    ("synth", "split", "test"), ("train", "max_decode_len", "5"),
    ("train", "prob_floor", "1e-9"), ("train", "fine_tune", "1"),
    ("eval", "hops", "2"),
    ("eval", "hidden", "0"), ("eval", "model", "seq2seq"),
    ("eval", "metrics", "bleu2"), ("perturb", "metrics", "bleu2"),
    ("chat", "seed", "1")])
def test_key_the_command_does_not_read_exits_2(ws, raw_corpus, bundle_dir,
                                               run_dir, capsys, how, command,
                                               key, value):
    out = ws / f"unread_{command}_{key}_{how}"
    argv = _command_argv(command, out, raw_corpus, bundle_dir, run_dir)
    if how == "flag":
        argv += [f"--{key}", value]
    else:
        cfg_file = ws / f"unread_{command}_{key}.cfg"
        cfg_file.write_text(f"{key}={value}\n")
        argv += ["--config", str(cfg_file)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert key in err
    if how == "config":
        assert err == (f"usage error: {command} reads no config key "
                       f"{key!r} (in {cfg_file})\n")
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("command, key", [
    ("synth", "seed"), ("synth", "split_seed"), ("ingest", "split_seed"),
    ("train", "seed"), ("perturb", "seed")])
def test_negative_seed_exits_2(ws, raw_corpus, bundle_dir, run_dir, capsys,
                               how, command, key):
    """A negative seed or split_seed, from a flag or a config file, is a
    usage error of every command that reads the key, refused before the
    command writes anything."""
    out = ws / f"negative_{command}_{key}_{how}"
    argv = _command_argv(command, out, raw_corpus, bundle_dir, run_dir)
    _assert_refused(ws, capsys, argv, out, how, key, "-1",
                    f"{key} must be >= 0, got -1")


def _assert_refused(ws, capsys, argv, out, how, key, value, message):
    """`argv` with `key` set to `value` by a flag or a config file exits
    2 with `message` and writes nothing under `out`."""
    if how == "flag":
        argv = [*argv, f"--{key}", value]
    else:
        cfg_file = ws / f"refused_{out.name}.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        argv = [*argv, "--config", str(cfg_file)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("command, key, value, message", [
    ("synth", "tokenize", "bogus",
     "unknown tokenization mode 'bogus'; choose from word, char"),
    ("ingest", "tokenize", "Word",
     "unknown tokenization mode 'Word'; choose from word, char"),
    ("chat", "tokenize", "bogus",
     "unknown tokenization mode 'bogus'; choose from word, char"),
    ("ingest", "min_count", "0", "min_count must be >= 1, got 0"),
    ("synth", "min_count", "-3", "min_count must be >= 1, got -3"),
    ("eval", "split", "bogus",
     "unknown split 'bogus'; choose from train, valid, test"),
    ("perturb", "mode", "sideways",
     "unknown perturbation mode 'sideways'; choose from all, last1, last2"),
    ("eval", "max_decode_len", "0", "max_decode_len must be >= 1, got 0"),
    ("chat", "max_decode_len", "-1", "max_decode_len must be >= 1, got -1"),
], ids=("synth_tokenize", "ingest_tokenize", "chat_kg_tokenize",
        "ingest_min_count", "synth_min_count", "eval_split", "perturb_mode",
        "eval_max_decode_len", "chat_max_decode_len"))
def test_value_its_key_does_not_accept_exits_2(ws, raw_corpus, bundle_dir,
                                               run_dir, capsys, how, command,
                                               key, value, message):
    """Each key CONFIG_KEYS gives accepted values refuses any other, from
    a flag or a config file alike, before the command reads or writes
    anything. chat takes its graph from --kg here, where it tokenizes
    with the tokenize key."""
    out = ws / f"refused_{command}_{key}_{value}_{how}"
    if command == "chat":
        argv = ["chat", "--checkpoint", str(run_dir / "model.ckpt"),
                "--kg", str(raw_corpus / "graph.tsv")]
    else:
        argv = _command_argv(command, out, raw_corpus, bundle_dir, run_dir)
    _assert_refused(ws, capsys, argv, out, how, key, value, message)


def test_each_subcommand_takes_exactly_its_flags():
    """Each subcommand's options in order, a required one marked `*`."""
    expected = {
        "ingest": "--dialogues* --kg* --lexicon --out* --config --tokenize "
                  "--min_count --split_seed",
        "stats": "--bundle* --out --expect --config",
        "synth": "--out* --config --seed --tokenize --min_count --split_seed "
                 "--n_people --n_places --n_jobs --n_turns "
                 "--turns_per_dialogue --chitchat_rate",
        "train": "--bundle* --out* --config --model --hidden --embed --hops "
                 "--lr --batch_size --epochs --patience --clip_norm --seed",
        "eval": "--bundle* --checkpoint* --out* --config --split "
                "--max_decode_len",
        "perturb": "--bundle* --checkpoint* --out* --config --seed --split "
                   "--mode --max_decode_len",
        "chat": "--checkpoint* --kg --bundle --config --tokenize "
                "--max_decode_len",
    }
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(expected)
    for command, parser in subparsers.choices.items():
        shown = " ".join(a.option_strings[0] + "*" * a.required
                         for a in parser._actions
                         if a.option_strings != ["-h", "--help"])
        assert shown == expected[command], command


@pytest.mark.parametrize("command, flag, value", [
    ("ingest", "--min", "1"), ("stats", "--exp", "hgzhz"),
    ("synth", "--n_tu", "100"), ("train", "--epo", "1"),
    ("eval", "--max", "2"), ("perturb", "--mo", "last1"),
    ("chat", "--max", "2")])
def test_abbreviated_flag_exits_2(ws, raw_corpus, bundle_dir, run_dir, capsys,
                                  command, flag, value):
    """A flag is taken by its exact name only, as a config-file key is:
    a unique prefix of a flag is refused."""
    out = ws / f"abbrev_{command}"
    argv = _command_argv(command, out, raw_corpus, bundle_dir, run_dir)
    assert cli.main(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"unrecognized arguments: {flag} {value}" in err
    assert not out.exists()


def test_exact_flag_name_still_works(ws, bundle_dir, run_dir):
    out = ws / "exact_max_decode_len"
    assert cli.main(["eval", "--bundle", str(bundle_dir), "--checkpoint",
                     str(run_dir / "model.ckpt"), "--out", str(out),
                     "--max_decode_len", "2"]) == 0
    record = json.loads((out / "config.json").read_text())
    assert record["config"]["max_decode_len"] == 2


def test_artifacts_carry_exactly_the_commands_keys(ws, raw_corpus, bundle_dir,
                                                   run_dir):
    """config.json, and the report config of eval and perturb, hold the
    keys the command reads and nothing else; every config key is read by
    some command."""
    read = {key for keys in cli.COMMAND_KEYS.values() for key in keys}
    assert read == set(cli.CONFIG_KEYS)
    for command in cli.COMMAND_KEYS:
        if command == "chat":
            continue   # writes nothing
        out = ws / f"keys_{command}"
        assert cli.main(_command_argv(command, out, raw_corpus, bundle_dir,
                                      run_dir)) == 0, command
        record = json.loads((out / "config.json").read_text())
        assert record["command"] == command
        assert list(record["config"]) == list(cli.COMMAND_KEYS[command])
        report = {"eval": "report.json", "perturb": "perturb.json"}.get(command)
        if report:
            blob = json.loads((out / report).read_text())
            assert blob["config"] == record["config"], command


@pytest.mark.parametrize("flag, value", [
    ("--hidden", "0"), ("--embed", "-1"), ("--hops", "0"),
    ("--max_decode_len", "0"), ("--lr", "0"), ("--batch_size", "0"),
    ("--lr", "nan"), ("--lr", "inf"), ("--clip_norm", "nan"),
    ("--clip_norm", "inf")])
def test_out_of_range_hyperparameter_exits_2(ws, capsys, flag, value):
    # the bundle does not exist: settings are checked before it is
    # read, so the usage error is what surfaces. The decode cap is an
    # inference setting, so it goes to eval.
    out = ws / f"never_{flag[2:]}"
    argv = ["train", "--bundle", str(ws / "no_such_bundle"), "--out", str(out)]
    if flag == "--max_decode_len":
        argv = ["eval", "--bundle", str(ws / "no_such_bundle"), "--checkpoint",
                str(ws / "no_such.ckpt"), "--out", str(out)]
    assert cli.main([*argv, flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:"), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--chitchat_rate", "2"), ("--n_people", "0"), ("--n_turns", "0")])
def test_out_of_range_world_setting_exits_2(ws, capsys, flag, value):
    out = ws / f"never_synth_{flag[2:]}"
    assert cli.main(["synth", "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:"), err
    assert "Traceback" not in err
    assert not out.exists()


def test_synth_prints_no_drop_line_when_nothing_was_dropped(ws, capsys):
    out = ws / "synth_no_drop"
    assert cli.main(["synth", "--out", str(out), "--n_people", "6",
                     "--n_places", "3", "--n_jobs", "2",
                     "--n_turns", "100"]) == 0
    assert json.loads((out / "meta.json").read_text())[
        "dropped_scene_entities"] == 0
    assert "dropped" not in capsys.readouterr().out


def test_each_hyperparams_field_has_exactly_one_config_key():
    base = {key: cli.CONFIG_KEYS[key][1] for key in cli.COMMAND_KEYS["train"]}
    base["embed"] = base["hidden"]   # so that moving hidden moves one field
    default = cli.hyper_from_config(base)
    owners = {}
    for key in cli.COMMAND_KEYS["train"]:
        kind = cli.CONFIG_KEYS[key][0]
        if key == "model":
            value = "seq2seq"
        elif kind is str:
            value = base[key] + "_other"
        else:
            value = base[key] * 2 + 1 if kind is int else base[key] * 2
        hyper = cli.hyper_from_config({**base, key: value})
        moved = [f.name for f in dataclasses.fields(hyper)
                 if getattr(hyper, f.name) != getattr(default, f.name)]
        assert len(moved) == 1, (key, moved)
        assert getattr(hyper, moved[0]) == value, key
        owners.setdefault(moved[0], []).append(key)
    assert sorted(owners) == sorted(f.name for f in
                                    dataclasses.fields(Hyperparams))
    assert all(len(keys) == 1 for keys in owners.values()), owners


def test_config_defaults_are_their_owners_defaults():
    """The train keys' defaults build Hyperparams(), the synth world
    keys' defaults SyntheticConfig(), and the ingest keys' defaults are
    corpus.ingest's keyword defaults."""
    def defaults(keys):
        return {key: cli.CONFIG_KEYS[key][1] for key in keys}

    assert cli.hyper_from_config(defaults(cli.COMMAND_KEYS["train"])) == \
        Hyperparams()
    assert SyntheticConfig(**defaults(cli._WORLD_KEYS)) == SyntheticConfig()
    kwargs = {"tokenize": "mode", "min_count": "min_count",
              "split_seed": "split_seed"}
    assert set(kwargs) == set(cli.COMMAND_KEYS["ingest"])
    params = inspect.signature(ingest).parameters
    assert {kwargs[key]: value for key, value in
            defaults(cli.COMMAND_KEYS["ingest"]).items()} == \
        {name: params[name].default for name in kwargs.values()}


@pytest.mark.parametrize("name", ["config.json", "diff.log", "stats.json",
                                  "path_hist.csv", "oracle_paths.json"])
def test_failed_write_keeps_previous_file(tmp_path, name):
    turn = PerturbTurnEval(turn_id="t0", original=("a", "b"),
                           perturbed=("a", "c"), hypothesis=(), targets=(),
                           skipped=False, changed=True, accurate=False)
    if name == "config.json":
        args = argparse.Namespace(command="eval", out=str(tmp_path))
        write = lambda cfg: cli._write_config(cfg, args, tmp_path)
        good, bad = {"seed": 1}, {"seed": 1, "unencodable": object()}
    elif name == "diff.log":
        write = lambda turns: cli._write_diff_log(turns, tmp_path / name)
        # the second line fails after a first, different line was written
        good = [turn]
        bad = [dataclasses.replace(turn, turn_id="t1"),
               dataclasses.replace(turn, perturbed=("a", 7))]
    elif name == "path_hist.csv":
        write = lambda hist: cli._write_path_hist(hist, 2, tmp_path / name)
        # sorting the hop counts fails after the header row was written
        good, bad = {1: 5, 2: 3}, {1: 5, "2": 3}
    else:
        # stats writes stats.json and synth oracle_paths.json, each
        # through write_json
        write = lambda obj: write_json(obj, tmp_path / name)
        good, bad = {"t0": [1, 2]}, {"t1": [1, 2], "t2": object()}
    write(good)
    before = (tmp_path / name).read_bytes()
    with pytest.raises(TypeError):
        write(bad)
    assert (tmp_path / name).read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_malformed_config_line_exits_2(ws, bundle_dir):
    cfg_file = ws / "bad2.cfg"
    cfg_file.write_text("hidden\n")
    assert cli.main(["train", "--bundle", str(bundle_dir),
                     "--out", str(ws / "never2"),
                     "--config", str(cfg_file)]) == 2


@pytest.mark.parametrize("command, name, code", [
    ("stats", "graph.tsv", 3), ("ingest", "graph.tsv", 3),
    ("ingest", "aliases.tsv", 3), ("ingest", "dialogues.jsonl", 3),
    ("train", "run.cfg", 2),
], ids=("bundle_graph", "ingest_kg", "ingest_lexicon", "ingest_dialogues",
        "config_file"))
def test_non_utf8_input_exits_with_documented_code(tmp_path, raw_corpus,
                                                   bundle_dir, run_dir,
                                                   command, name, code):
    """A text input that is not UTF-8 is a data error (a usage error
    for a config file) naming the file, never a traceback."""
    src = tmp_path / "in"
    shutil.copytree(raw_corpus if command == "ingest" else bundle_dir, src)
    with open(src / name, "ab") as fh:
        fh.write(b"caf\xe9\tis\tnot utf-8\n")
    argv = _command_argv(command, tmp_path / "out", src, src, run_dir)
    if name == "run.cfg":
        argv += ["--config", str(src / name)]
    proc = subprocess.run([sys.executable, "-m", "kgchat.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{src / name}: " in proc.stderr


def test_unknown_flag_exits_2(bundle_dir):
    assert cli.main(["train", "--bundle", str(bundle_dir), "--out", "/tmp/n",
                     "--nonsense", "5"]) == 2


def test_missing_subcommand_exits_2():
    assert cli.main([]) == 2


def test_missing_bundle_exits_3(ws, run_dir):
    code = cli.main(["eval", "--bundle", str(ws / "does_not_exist"),
                     "--checkpoint", str(run_dir / "model.ckpt"),
                     "--out", str(ws / "q")])
    assert code == 3


def test_corrupt_checkpoint_exits_3(ws, bundle_dir):
    bad = ws / "bad.ckpt"
    bad.write_bytes(b"junk" * 10)
    code = cli.main(["eval", "--bundle", str(bundle_dir),
                     "--checkpoint", str(bad), "--out", str(ws / "r")])
    assert code == 3


def _run_refused(argv, why) -> None:
    """`kgchat *argv` in a subprocess exits 3 with `why` and no
    traceback."""
    proc = subprocess.run([sys.executable, "-m", "kgchat.cli", *argv],
                          input="where does anna live\n", capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert re.search(why, proc.stderr), proc.stderr


@pytest.mark.parametrize("head_len, cut, why", [
    (None, 8, "payload at offset .* is .* bytes"),
    (1 << 40, 0, "header at offset .* runs past the end of the file"),
], ids=["short_payload", "header_past_end"])
def test_sealed_checkpoint_of_the_wrong_length_exits_3(ws, bundle_dir, run_dir,
                                                       head_len, cut, why):
    """Under a valid digest, a short payload or a header length that runs
    past the end is refused as a data error."""
    bad = ws / f"length_{cut}.ckpt"
    header, payload = checkpoint_parts(run_dir / "model.ckpt")
    seal_checkpoint(bad, header, payload[:len(payload) - cut],
                    head_len=head_len)
    out = ws / f"length_{cut}_out"
    _run_refused(["eval", "--bundle", str(bundle_dir), "--checkpoint",
                  str(bad), "--out", str(out)], why)
    assert not out.exists()


def test_edited_checkpoint_exits_3(ws, bundle_dir, run_dir):
    """One changed header byte under the saved digest: exit 3."""
    blob = bytearray((run_dir / "model.ckpt").read_bytes())
    at = blob.index(b'"n_hops": 3')
    blob[at + len(b'"n_hops": ')] = ord("2")
    bad = ws / "edited.ckpt"
    bad.write_bytes(bytes(blob))
    out = ws / "edited_out"
    _run_refused(["eval", "--bundle", str(bundle_dir), "--checkpoint",
                  str(bad), "--out", str(out)], "checksum mismatch at offset 7")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "perturb", "chat"])
def test_non_finite_checkpoint_exits_3(ws, bundle_dir, run_dir, command):
    """A NaN weight under a valid digest is refused at load time as a
    data error, before anything is decoded or written."""
    bad = ws / f"nan_{command}.ckpt"
    shutil.copy(run_dir / "model.ckpt", bad)
    rewrite_checkpoint(bad, poison=("dec.w", float("nan")))
    out = ws / f"nan_{command}_out"
    argv = [command, "--bundle", str(bundle_dir), "--checkpoint", str(bad)]
    if command != "chat":
        argv += ["--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "kgchat.cli", *argv],
                          input="where does anna live\n", capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "param dec.w: non-finite" in proc.stderr
    assert not out.exists()


def _old_format_exits_3(ws, bundle_dir, run_dir, command, magic,
                        layout) -> None:
    """A checkpoint of an older format, `layout`'s view of the run's
    parameters under `magic`, is refused at offset 0 as a data error,
    before anything is decoded or written."""
    model = load_checkpoint(run_dir / "model.ckpt")
    name = magic.decode().strip()
    old = ws / f"{name}_{command}.ckpt"
    save_manifest_checkpoint(old, magic, model.hyper, model.vocab,
                             layout(model.params))
    out = ws / f"{name}_{command}_out"
    argv = [command, "--bundle", str(bundle_dir), "--checkpoint", str(old)]
    if command != "chat":
        argv += ["--out", str(out)]
    _run_refused(argv, "bad magic at offset 0")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "perturb", "chat"])
def test_format1_checkpoint_exits_3(ws, bundle_dir, run_dir, command):
    """Format 1: each GRU as nine per-gate tensors."""
    _old_format_exits_3(ws, bundle_dir, run_dir, command, b"QADPT1\n",
                        split_gru)


@pytest.mark.parametrize("command", ["eval", "perturb", "chat"])
def test_format2_checkpoint_exits_3(ws, bundle_dir, run_dir, command):
    """Format 2: the stacked GRU tensors, under a header with a manifest
    and a digest of the payload only."""
    _old_format_exits_3(ws, bundle_dir, run_dir, command, b"QADPT2\n", dict)


def _drop_speaker_on_line_2(text: str) -> str:
    lines = text.splitlines(keepends=True)
    row = json.loads(lines[1])
    del row["speaker"]
    lines[1] = json.dumps(row) + "\n"
    return "".join(lines)


def _corrupt_line_3(text: str) -> str:
    lines = text.splitlines(keepends=True)
    lines[2] = '{"turn_id": \n'
    return "".join(lines)


def _drop_line_1(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[1:])


_DEEP = "[" * 100_000   # nested past the interpreter's recursion limit


def _deep_subgraph_row(text: str) -> str:
    """Line 3 keeps its turn id, and its triples are _DEEP."""
    lines = text.splitlines(keepends=True)
    turn_id = json.dumps({"turn_id": json.loads(lines[2])["turn_id"]})
    lines[2] = f'{turn_id[:-1]}, "triples": {_DEEP}\n'
    return "".join(lines)


@pytest.mark.parametrize("name, corrupt, where", [
    ("turns.jsonl", _drop_speaker_on_line_2,
     "turns.jsonl: line 2: missing key 'speaker'"),
    ("subgraphs.jsonl", _corrupt_line_3, "subgraphs.jsonl: line 3:"),
    ("subgraphs.jsonl", _drop_line_1,
     "subgraphs.jsonl: no row for turn 'syn00000#0'"),
    ("vocab.json", lambda text: text[:len(text) // 2], "vocab.json:"),
    ("splits.json", lambda text: '{"train": []}', "splits.json: missing key"),
    ("splits.json", lambda text: _DEEP, "splits.json: maximum recursion"),
    ("subgraphs.jsonl", _deep_subgraph_row,
     "subgraphs.jsonl: line 3: maximum recursion"),
], ids=("turns", "subgraphs", "subgraph_missing", "vocab", "splits",
        "deep_splits", "deep_subgraph_row"))
def test_malformed_bundle_exits_3(tmp_path, bundle_dir, name, corrupt, where):
    bad = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bad)
    path = bad / name
    path.write_text(corrupt(path.read_text(encoding="utf-8")),
                    encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "kgchat.cli", "stats", "--bundle", str(bad)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert where in proc.stderr


@pytest.mark.parametrize("meta_agrees", [False, True],
                         ids=["meta_count", "stray_subgraph_row"])
@pytest.mark.parametrize("command", ["stats", "eval"])
def test_truncated_turns_file_exits_3(tmp_path, bundle_dir, run_dir, command,
                                      meta_agrees):
    """A turns.jsonl cut short, as an interrupted write leaves it, is
    refused by every command that loads the bundle: by meta.json's turn
    count, and, where meta.json is made to agree, by the subgraph rows
    whose turns are gone."""
    bad = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bad)
    turns = (bad / "turns.jsonl").read_text(encoding="utf-8").splitlines(
        keepends=True)
    kept = turns[:len(turns) * 9 // 10]
    (bad / "turns.jsonl").write_text("".join(kept), encoding="utf-8")
    if meta_agrees:
        meta = json.loads((bad / "meta.json").read_text(encoding="utf-8"))
        meta["n_turns"] = len(kept)
        (bad / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        why = ("subgraphs.jsonl: row for turn '.*', which turns.jsonl does "
               "not hold")
    else:
        why = (f"turns.jsonl holds {len(kept)} turns, meta.json says "
               f"{len(turns)}")
    out = tmp_path / "out"
    argv = _command_argv(command, out, tmp_path, bad, run_dir)
    if command == "eval":
        argv += ["--split", "test"]
    _run_refused(argv, why)
    assert not out.exists()


@pytest.mark.parametrize("command, where", [
    ("ingest", "dialogues.jsonl: line 2: invalid JSON (maximum recursion"),
    ("eval", "bad header contents: maximum recursion"),
], ids=("dialogues", "checkpoint_header"))
def test_deep_json_input_exits_3(tmp_path, raw_corpus, bundle_dir, run_dir,
                                 command, where):
    """JSON nested deeper than the parser can recurse, in ingest's
    dialogues or in a checkpoint header under a valid digest, is a data
    error, never a traceback. (Bundle files: test_malformed_bundle_exits_3.)"""
    src = tmp_path / "in"
    shutil.copytree(raw_corpus if command == "ingest" else bundle_dir, src)
    if command == "ingest":
        path = src / "dialogues.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = _DEEP + "\n"
        path.write_text("".join(lines), encoding="utf-8")
    else:
        _, payload = checkpoint_parts(run_dir / "model.ckpt")
        seal_checkpoint(src / "model.ckpt", _DEEP.encode(), payload)
    out = tmp_path / "out"
    _run_refused(_command_argv(command, out, src, src, src), re.escape(where))
    assert not out.exists()


_MISTYPED = {
    "vocab_relations": ("vocab.json",
                        _edit(lambda b: b.update(relations="friend_of")),
                        "vocab.json: 'relations' is not a list of strings"),
    "splits_valid": ("splits.json",
                     _edit(lambda b: b.update(valid=b["valid"][0])),
                     "splits.json: 'valid' is not a list of strings"),
    "turn_string": ("turns.jsonl",
                    _second_turn_row(lambda r: r.update(turn="1")),
                    "turns.jsonl: line 2: 'turn' is not an integer"),
    "message_text": ("turns.jsonl", _second_turn_row(
                        lambda r: r.update(message=" ".join(r["message"]))),
                     "turns.jsonl: line 2: 'message' is not a list"),
}


@pytest.mark.parametrize("command", ["stats", "train"])
@pytest.mark.parametrize("case", sorted(_MISTYPED))
def test_mistyped_bundle_file_exits_3(tmp_path, bundle_dir, capsys, command,
                                      case):
    name, corrupt, where = _MISTYPED[case]
    bad = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bad)
    path = bad / name
    path.write_text(corrupt(path.read_text(encoding="utf-8")),
                    encoding="utf-8")
    out = tmp_path / "out"
    extra = ["--epochs", "1"] if command == "train" else []
    code = cli.main([command, "--bundle", str(bad), "--out", str(out)] + extra)
    err = capsys.readouterr().err
    assert code == 3, err
    assert "Traceback" not in err
    assert where in err
    assert not out.exists()


# Corruptions of one subgraph row that indexing passes and building the
# row's graph rejects.
_ROW_CORRUPTIONS = {
    "two_fields": lambda obj: obj["triples"][0].pop(),
    "empty_field": lambda obj: obj["triples"][0].__setitem__(0, ""),
    "self_relation": lambda obj: obj["triples"][0].__setitem__(1, "<self>"),
    "broken_json": None,
}


def _corrupt_subgraph_row(src: Path, dst: Path, split: str, change) -> tuple:
    """Copy the bundle and corrupt the subgraph row of one turn, inside a
    multi-turn dialogue of `split`, that has triples: `change` edits the
    parsed row in place, or None cuts the row's JSON short. Return the
    row's line number and the edited row."""
    shutil.copytree(src, dst)
    dialogue = json.loads((dst / "splits.json").read_text())[split][0]
    path = dst / "subgraphs.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines)
             if json.loads(line)["turn_id"].startswith(dialogue + "#")
             and json.loads(line)["triples"])
    obj = json.loads(lines[n])
    if change is None:
        lines[n] = '{"turn_id": "' + obj["turn_id"] + '", "triples": [[\n'
    else:
        change(obj)
        lines[n] = json.dumps(obj) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return n + 1, obj


@pytest.mark.parametrize("how", sorted(_ROW_CORRUPTIONS))
def test_malformed_test_row_fails_eval(tmp_path, bundle_dir, run_dir, capsys,
                                       how):
    bad = tmp_path / "bundle"
    lineno, _ = _corrupt_subgraph_row(bundle_dir, bad, "test",
                                      _ROW_CORRUPTIONS[how])
    out = tmp_path / "eval"
    code = cli.main(["eval", "--bundle", str(bad), "--checkpoint",
                     str(run_dir / "model.ckpt"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "Traceback" not in err
    assert f"subgraphs.jsonl: line {lineno}:" in err
    assert not out.exists()


@pytest.mark.parametrize("how", sorted(_ROW_CORRUPTIONS))
def test_malformed_train_row_fails_only_what_reads_it(tmp_path, bundle_dir,
                                                      run_dir, capsys, how):
    bad = tmp_path / "bundle"
    lineno, _ = _corrupt_subgraph_row(bundle_dir, bad, "train",
                                      _ROW_CORRUPTIONS[how])
    code = cli.main(["eval", "--bundle", str(bad), "--checkpoint",
                     str(run_dir / "model.ckpt"), "--out",
                     str(tmp_path / "eval"), "--split", "test"])
    assert code == 0, capsys.readouterr().err
    capsys.readouterr()
    out = tmp_path / "stats"
    code = cli.main(["stats", "--bundle", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "Traceback" not in err
    assert f"subgraphs.jsonl: line {lineno}:" in err
    assert not out.exists()


def _not_three_strings(obj) -> str:
    return (f"'triples' holds {json.dumps(obj['triples'][0])}, "
            "not a list of three non-empty strings")


# Rows that parse and are indexed, but whose triples or entities are
# mistyped or absent from the bundle's graph: (edit, expected message).
_MISTYPED_ROWS = {
    "int_fields": (lambda obj: obj["triples"].__setitem__(0, [1, "r", 2]),
                   _not_three_strings),
    "string_triple": (lambda obj: obj["triples"].__setitem__(0, "abc"),
                      _not_three_strings),
    "two_fields": (lambda obj: obj["triples"][0].pop(), _not_three_strings),
    "unknown_triple": (lambda obj: obj["triples"][0].__setitem__(2, "Zed"),
                       lambda obj: f"triple {json.dumps(obj['triples'][0])} "
                                   "is not in graph.tsv"),
    "unknown_entity": (lambda obj: obj["entities"].append("Zed"),
                       lambda obj: "entity 'Zed' is not in the bundle's graph"),
    "entity_numbers": (lambda obj: obj["entities"].append(5),
                       lambda obj: "'entities' is not a list of strings"),
}


@pytest.mark.parametrize("how", sorted(_MISTYPED_ROWS))
def test_mistyped_subgraph_row_fails_stats(tmp_path, bundle_dir, capsys, how):
    change, message = _MISTYPED_ROWS[how]
    bad = tmp_path / "bundle"
    lineno, obj = _corrupt_subgraph_row(bundle_dir, bad, "train", change)
    out = tmp_path / "stats"
    code = cli.main(["stats", "--bundle", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "Traceback" not in err
    assert f"subgraphs.jsonl: line {lineno}: {message(obj)}\n" in err
    assert not out.exists()


def test_duplicate_subgraph_row_exits_3(tmp_path, bundle_dir, run_dir, capsys):
    bad = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bad)
    path = bad / "subgraphs.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines + lines[-1:]), encoding="utf-8")
    out = tmp_path / "eval"
    code = cli.main(["eval", "--bundle", str(bad), "--checkpoint",
                     str(run_dir / "model.ckpt"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert (f"subgraphs.jsonl: line {len(lines) + 1}: duplicate turn_id "
            f"{json.loads(lines[-1])['turn_id']!r}, first on line "
            f"{len(lines)}") in err
    assert not out.exists()


def _repeat_first_turn_id(path) -> str:
    """Append a copy of the first row of a JSONL turn file with a new
    message; returns the repeated turn id."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[0])
    row["message"] = (["hello"] if isinstance(row["message"], list)
                      else "hello")
    path.write_text("".join(lines) + json.dumps(row) + "\n",
                    encoding="utf-8")
    return f"{row['dialogue_id']}#{row['turn']}"


def test_ingest_repeated_turn_id_exits_3(tmp_path, raw_corpus, capsys):
    raw = tmp_path / "raw"
    shutil.copytree(raw_corpus, raw)
    tid = _repeat_first_turn_id(raw / "dialogues.jsonl")
    out = tmp_path / "bundle"
    code = cli.main(["ingest", "--dialogues", str(raw / "dialogues.jsonl"),
                     "--kg", str(raw / "graph.tsv"), "--lexicon",
                     str(raw / "aliases.tsv"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"repeated turn id {tid!r}" in err
    assert not out.exists()


def test_bundle_repeated_turn_id_exits_3(tmp_path, bundle_dir, run_dir, capsys):
    bad = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bad)
    tid = _repeat_first_turn_id(bad / "turns.jsonl")
    out = tmp_path / "eval"
    code = cli.main(["eval", "--bundle", str(bad), "--checkpoint",
                     str(run_dir / "model.ckpt"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"turns.jsonl: repeated turn id {tid!r}" in err
    assert not out.exists()


def test_train_on_unemittable_response_exits_3(tmp_path, bundle_dir):
    bad = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bad)
    first = json.loads((bad / "splits.json").read_text())["train"][0]
    path = bad / "turns.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    row = next(r for r in rows if r["dialogue_id"] == first)
    row["response"].insert(1, "<kb>")
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "kgchat.cli", "train", "--bundle", str(bad),
         "--out", str(out), "--epochs", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"turn {first}#{row['turn']}: response token '<kb>'" in proc.stderr
    assert not out.exists()


def _kgchat_lines(text: str, shell_vars: dict) -> list:
    """argv of every `kgchat ...` line, backslash continuations joined
    and shell variables substituted."""
    calls = []
    for line in text.replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("kgchat "):
            line = re.sub(r"\$\{?(\w+)\}?",
                          lambda m: shell_vars[m.group(1)], line)
            calls.append(shlex.split(line)[1:])
    return calls


def test_reproduce_script_invocations_parse():
    """Every scripted command line parses: scripts/reproduce.sh, the
    README quickstart, and the command shapes the benchmark runs."""
    root = Path(__file__).parents[1]
    script = _kgchat_lines((root / "scripts" / "reproduce.sh").read_text(),
                           {"OUT": "runs/repro", "SEED": "7", "MODEL": "qadpt",
                            "MODE": "last1"})
    assert [argv[0] for argv in script] == ["synth", "stats", "train", "train",
                                            "eval", "perturb"]
    readme = (root / "README.md").read_text()
    quickstart = readme.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    docs = _kgchat_lines(quickstart, {})
    assert [argv[0] for argv in docs] == ["synth", "train", "train", "eval",
                                          "perturb", "chat"]
    bench = [["synth", "--out", "prep/corpus", "--seed", "3", "--n_people",
              "8", "--n_places", "4", "--n_jobs", "3", "--n_turns", "150"],
             ["train", "--bundle", "prep/corpus", "--out", "prep/model",
              "--epochs", "15"],
             ["chat", "--checkpoint", "prep/model/model.ckpt",
              "--bundle", "prep/corpus"]]
    parser = cli.build_parser()
    for argv in script + docs + bench:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"invalid scripted command: kgchat "
                        f"{shlex.join(argv)}")


def test_readme_configuration_table_is_command_keys():
    """README's Configuration table lists, row by row, the subcommands
    and the keys each reads, as COMMAND_KEYS holds them."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [re.findall(r"`(\w+)`", line) for line in section.splitlines()
            if line.startswith("| `")]
    assert [(row[0], tuple(row[1:])) for row in rows] == \
        list(cli.COMMAND_KEYS.items())


def test_hop_sweep_script_smoke():
    root = Path(__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "hop_sweep.py"), "--hops", "1",
         "--people", "4", "--turns", "100", "--hidden", "4", "--epochs", "1"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines()
            if line.startswith("hops=")]
    assert len(rows) == 1 and rows[0].startswith("hops=1 ")


def test_train_determinism_bit_identical_checkpoints(ws, bundle_dir):
    outs = []
    for name in ("da", "db"):
        out = ws / name
        assert cli.main(["train", "--bundle", str(bundle_dir),
                         "--out", str(out), "--hidden", "16", "--embed", "12",
                         "--epochs", "2", "--patience", "5",
                         "--seed", "7"]) == 0
        outs.append(out)
    a = (outs[0] / "model.ckpt").read_bytes()
    b = (outs[1] / "model.ckpt").read_bytes()
    assert a == b


def test_eval_determinism_bit_identical_reports(ws, bundle_dir, run_dir):
    blobs = []
    for name in ("ea", "eb"):
        out = ws / name
        assert cli.main(["eval", "--bundle", str(bundle_dir), "--checkpoint",
                         str(run_dir / "model.ckpt"), "--out", str(out)]) == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# Chat REPL
#
# The golden scenario uses handcrafted parameters: everything zero
# except a strong controller bias, so the decoder deterministically
# emits the entity the walk lands on. Exact argmax, no BLAS noise:
# the transcript is stable across machines.


def _golden_checkpoint(ws) -> tuple:
    vocab = Vocabulary(generic=("hello", "yes"), entities=("a", "b", "c"),
                       relations=("q", "r"))
    hyper = Hyperparams(hidden_dim=4, embed_dim=4, n_hops=2, seed=0)
    params = {name: np.zeros_like(arr)
              for name, arr in init_params(hyper, vocab, seed=0).items()}
    params["phi_b"][0] = 5.0   # route nearly all mass to the entity branch
    model = QadptModel(hyper, vocab, params)
    ckpt = ws / "golden.ckpt"
    save_checkpoint(model, ckpt)
    kg = ws / "golden_graph.tsv"
    save_triples_tsv(KnowledgeGraph([Triple("a", "q", "b")],
                                    extra_entities=["c"]), kg)
    return ckpt, kg


SCRIPT = "\n".join([
    "a hello",
    "/swap a q b c",
    "a hello",
    "/swap a q b c",
    "/swap",
    "/unknown",
    "/quit",
]) + "\n"


def _run_chat(ckpt, kg) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "kgchat.cli", "chat", "--checkpoint",
         str(ckpt), "--kg", str(kg), "--max_decode_len", "4"],
        input=SCRIPT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_chat_golden_transcript(ws):
    ckpt, kg = _golden_checkpoint(ws)
    got = _run_chat(ckpt, kg)
    golden = (DATA / "chat_golden.txt").read_text()
    assert got == golden


def test_chat_swap_changes_the_reply(ws):
    ckpt, kg = _golden_checkpoint(ws)
    out = _run_chat(ckpt, kg)
    # before the swap the walk ends at b, afterwards at c
    assert "b b b b" in out
    assert "c c c c" in out
    assert "path: a -q-> b" in out
    assert "path: a -q-> c" in out
    # second /swap of the same triple fails, malformed commands get usage
    assert "no such triple" in out
    assert out.count(cli.CHAT_USAGE) >= 2   # banner plus the two rejects


def test_chat_after_a_swap_replies_as_a_fresh_chat_on_the_swapped_graph(
        ws, bundle_dir, run_dir, monkeypatch, capsys):
    """Each message binds its neighbourhood of the graph chat holds now:
    after a /swap of a triple on a reply's path, the replies and paths
    to the test split's messages are those of a new session started on
    the swapped graph, and some differ from the replies before it. The
    trained model's KB bias is raised so that its replies name
    entities."""
    messages = [" ".join(t.message) for t in
                load_bundle(bundle_dir).split_turns("test") if t.message]
    model = load_checkpoint(run_dir / "model.ckpt")
    model.params["phi_b"][0] = 5.0
    save_checkpoint(model, ws / "entity_replies.ckpt")

    def chat(graph_args, lines):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))
        assert cli.main(["chat", "--checkpoint",
                         str(ws / "entity_replies.ckpt"), "--max_decode_len",
                         "4", *graph_args]) == 0
        return capsys.readouterr().out

    before = chat(["--bundle", str(bundle_dir)], messages)
    hop = re.search(r"^  path: (\S+) -(\S+)-> (\S+)", before, re.M).groups()
    graph = load_triples_tsv(bundle_dir / "graph.tsv")
    victim = Triple(*hop)
    # a new tail that keeps the old one in the graph, so the swapped
    # graph.tsv holds the same entities as the graph chat edits
    new_tail = next(t.tail for t in sorted(graph.triples)
                    if t.relation == victim.relation and t.tail != victim.tail
                    and Triple(victim.head, victim.relation, t.tail)
                    not in graph.triples)
    swapped = KnowledgeGraph(graph.triples - {victim} |
                             {victim._replace(tail=new_tail)})
    assert swapped.entities == graph.entities
    save_triples_tsv(swapped, ws / "swapped.tsv")

    swap = f"/swap {' '.join(hop)} {new_tail}"
    session = chat(["--bundle", str(bundle_dir)], messages + [swap] + messages)
    done = f"swapped: {victim.head} -{victim.relation}-> {new_tail}\n"
    assert session.count(done) == 1
    after = session.split(done)[1]
    fresh = chat(["--kg", str(ws / "swapped.tsv")], messages)
    assert after == fresh.split("\n", 1)[1]
    assert after != before.split("\n", 1)[1]


def test_chat_eof_exits_cleanly(ws):
    ckpt, kg = _golden_checkpoint(ws)
    proc = subprocess.run(
        [sys.executable, "-m", "kgchat.cli", "chat", "--checkpoint",
         str(ckpt), "--kg", str(kg)],
        input="", capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0


def test_chat_bundle_malformed_graph_exits_3(tmp_path, bundle_dir, run_dir):
    bad = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bad)
    with open(bad / "graph.tsv", "a", encoding="utf-8") as fh:
        fh.write("only\ttwo\n")
    proc = subprocess.run(
        [sys.executable, "-m", "kgchat.cli", "chat", "--checkpoint",
         str(run_dir / "model.ckpt"), "--bundle", str(bad)],
        input="/quit\n", capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "graph.tsv: line" in proc.stderr
    assert proc.stdout == ""


def test_chat_bundle_meta_not_an_object_exits_3(tmp_path, bundle_dir,
                                                run_dir):
    """meta.json rewritten as a list of [key, value] pairs is refused,
    not read as the object it lists."""
    bad = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bad)
    meta = json.loads((bad / "meta.json").read_text(encoding="utf-8"))
    (bad / "meta.json").write_text(json.dumps(list(meta.items())),
                                   encoding="utf-8")
    _run_refused(["chat", "--checkpoint", str(run_dir / "model.ckpt"),
                  "--bundle", str(bad)], "meta.json: expected a JSON object")


@pytest.mark.parametrize("mode", [5, "bogus", None],
                         ids=("number", "bogus", "null"))
def test_unknown_meta_mode_exits_3_before_chat_starts(ws, bundle_dir, run_dir,
                                                      monkeypatch, capsys,
                                                      mode):
    """A meta.json `mode` that is no tokenizer mode is refused by chat
    --bundle before its banner, and by eval, naming meta.json."""
    bad = ws / f"meta_mode_{mode}"
    shutil.copytree(bundle_dir, bad)
    meta = json.loads((bad / "meta.json").read_text(encoding="utf-8"))
    write_json({**meta, "mode": mode}, bad / "meta.json")
    why = f"meta.json: unknown tokenization mode {mode!r}"
    monkeypatch.setattr("sys.stdin", io.StringIO("where does anna live\n"))
    ckpt = str(run_dir / "model.ckpt")
    for argv in (["chat", "--checkpoint", ckpt, "--bundle", str(bad)],
                 ["eval", "--checkpoint", ckpt, "--bundle", str(bad),
                  "--out", str(bad / "eval")]):
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and why in err, (argv[0], out, err)
    assert not (bad / "eval").exists()


def test_splits_that_do_not_partition_the_dialogues_exit_3(ws, bundle_dir,
                                                            run_dir, capsys):
    """eval refuses a bundle whose test split also names a training
    dialogue, instead of scoring that dialogue's turns."""
    bad = ws / "splits_overlap"
    shutil.copytree(bundle_dir, bad)
    splits = json.loads((bad / "splits.json").read_text(encoding="utf-8"))
    did = splits["train"][0]
    splits["test"].append(did)
    write_json(splits, bad / "splits.json")
    assert cli.main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                     "--bundle", str(bad), "--out", str(bad / "eval")]) == 3
    assert f"splits.json: dialogue {did!r} is named twice, in train and " \
        f"in test" in capsys.readouterr().err
    assert not (bad / "eval").exists()


def test_chat_bundle_reads_only_graph_and_meta(ws, tmp_path, monkeypatch,
                                               capsys):
    """chat --bundle reads the bundle's graph.tsv and takes the tokenizer
    mode from meta.json, word when there is none. A corrupt turns.jsonl
    fails the commands that read it, not chat."""
    ckpt, kg = _golden_checkpoint(ws)
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    shutil.copy(kg, bundle / "graph.tsv")
    write_json({"mode": "word"}, bundle / "meta.json")
    (bundle / "turns.jsonl").write_text("not json\n", encoding="utf-8")
    assert cli.main(["stats", "--bundle", str(bundle)]) == 3
    assert "turns.jsonl: line 1:" in capsys.readouterr().err

    def chat(*argv):
        monkeypatch.setattr("sys.stdin", io.StringIO("a hello\n/quit\n"))
        code = cli.main(["chat", "--checkpoint", str(ckpt), *argv])
        out, err = capsys.readouterr()
        assert code == 0, err
        return out

    word = chat("--kg", str(kg))
    char = chat("--kg", str(kg), "--tokenize", "char")
    assert "b b b b" in word and word != char
    assert chat("--bundle", str(bundle)) == word
    write_json({"mode": "char"}, bundle / "meta.json")
    assert chat("--bundle", str(bundle)) == char
    (bundle / "meta.json").unlink()
    assert chat("--bundle", str(bundle)) == word


@pytest.mark.parametrize("how", ["flag", "config", "kg"])
def test_chat_bundle_with_tokenize_or_kg_exits_2(ws, raw_corpus, bundle_dir,
                                                 monkeypatch, capsys, how):
    """chat --bundle takes its graph and tokenizer mode from the bundle:
    a tokenize key beside it, by flag or by config file (its default
    value too), or a --kg, exits 2 before chat reads anything, even a
    checkpoint that is not there."""
    argv = ["chat", "--checkpoint", str(ws / "no_such.ckpt"), "--bundle",
            str(bundle_dir)]
    message = ("chat --bundle takes the tokenizer mode from the bundle's "
               "meta.json; tokenize is set only with --kg")
    if how == "flag":
        argv += ["--tokenize", "char"]
    elif how == "config":
        cfg_file = ws / "chat_tokenize.cfg"
        cfg_file.write_text("tokenize = word\n")
        argv += ["--config", str(cfg_file)]
    else:
        argv += ["--kg", str(raw_corpus / "graph.tsv")]
        message = "chat takes --kg or --bundle, not both"
    monkeypatch.setattr("sys.stdin", io.StringIO("where does anna live\n"))
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_chat_requires_graph_source(ws):
    ckpt, _ = _golden_checkpoint(ws)
    assert cli.main(["chat", "--checkpoint", str(ckpt)]) == 3
