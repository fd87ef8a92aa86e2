"""End-to-end command-line contract: artifacts, determinism, error records."""

import json
import subprocess
import sys
import textwrap

import pytest

from isrlab import cli


def run(argv):
    return cli.main(argv)


def assert_printed_and_written(capsys, out, names):
    """stdout lists ``out / name`` for each of ``names`` in order, and those
    are the only files in ``out``."""
    assert capsys.readouterr().out.splitlines() == [str(out / name) for name in names]
    assert sorted(path.name for path in out.iterdir()) == sorted(names)


def save_enquirer(path, dim=8, vocab_size=8):
    """An untrained small enquirer checkpoint at ``path``; returns ``path``."""
    import numpy as np
    from isrlab.enquirer import EnquirerConfig, EnquirerModel
    EnquirerModel.init(EnquirerConfig(dim=dim, vocab_size=vocab_size, lstm_hidden=4,
                                      policy_hidden=4, value_hidden=4),
                       np.random.default_rng(0)).save(path)
    return path


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    code = run(["gen-corpus", "--out", str(path), "--train-speakers", "16",
                "--test-speakers", "6", "--vocab-size", "8", "--dim", "8",
                "--seed", "1"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def guesser_ckpt(corpus_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("guesser")
    code = run(["train-guesser", "--corpus", str(corpus_file), "--games", "3000",
                "--batch-size", "256", "--words", "2", "--guests", "4",
                "--dropout", "0", "--lr", "0.001", "--eval-games", "300",
                "--seed", "3", "--out-dir", str(out)])
    assert code == 0
    return out / "guesser.json"


class TestGenCorpus:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert run(["gen-corpus", "--out", str(path), "--seed", "1",
                        "--train-speakers", "4", "--test-speakers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.jsonl.config.json").read_bytes() == \
               (tmp_path / "b.jsonl.config.json").read_bytes()

    def test_default_flags_echo_vocab_and_dim(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        capsys.readouterr()
        assert run(["gen-corpus", "--out", str(path), "--train-speakers", "3",
                    "--test-speakers", "1"]) == 0
        assert_printed_and_written(capsys, tmp_path, ["c.jsonl", "c.jsonl.config.json"])
        header = json.loads(path.read_text().splitlines()[0])
        assert header["dimension"] == 32
        assert len(header["vocab"]) == 20

    def test_out_dir_is_a_usage_error(self, tmp_path):
        # the corpus and its sidecar are written beside --out
        with pytest.raises(SystemExit) as exc:
            run(["gen-corpus", "--out", str(tmp_path / "c.jsonl"),
                 "--out-dir", str(tmp_path / "elsewhere")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_no_path_is_printed_unless_every_artifact_is_written(self, tmp_path, capsys,
                                                                 monkeypatch):
        from isrlab import evaluation

        def fail(*args, **kwargs):
            raise OSError("disk full")
        monkeypatch.setattr(evaluation, "write_summary_json", fail)
        capsys.readouterr()
        assert run(["gen-corpus", "--out", str(tmp_path / "c.jsonl"),
                    "--train-speakers", "3", "--test-speakers", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "OSError", "message": "disk full"}
        assert [path.name for path in tmp_path.iterdir()] == ["c.jsonl"]

    def test_config_file_layer_and_flag_precedence(self, tmp_path):
        conf = tmp_path / "conf.txt"
        conf.write_text("vocab_size = 6\nseed = 9\n")
        path = tmp_path / "c.jsonl"
        assert run(["gen-corpus", "--out", str(path), "--config", str(conf),
                    "--seed", "2", "--train-speakers", "3",
                    "--test-speakers", "1"]) == 0
        header = json.loads(path.read_text().splitlines()[0])
        sidecar = json.loads((tmp_path / "c.jsonl.config.json").read_text())
        assert len(header["vocab"]) == 6          # from the config file
        assert sidecar["synth_config"]["seed"] == 2   # flag wins

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        conf = tmp_path / "conf.txt"
        conf.write_text("vocab_sise = 6\n")
        capsys.readouterr()
        assert run(["gen-corpus", "--out", str(tmp_path / "c.jsonl"),
                    "--config", str(conf)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValueError"
        assert record["message"] == f"{conf}: unknown key 'vocab_sise' for gen-corpus"
        assert not (tmp_path / "c.jsonl").exists()


class TestSettings:
    @pytest.mark.parametrize("argv, library_config", [
        (["gen-corpus", "--out", "c.jsonl"], ("corpus", "SynthConfig")),
        (["train-guesser", "--corpus", "c.jsonl"], ("guesser", "GuesserTrainConfig")),
        (["train-enquirer", "--corpus", "c.jsonl", "--guesser", "g.json"],
         ("enquirer", "PpoConfig")),
        (["eval", "--corpus", "c.jsonl", "--guesser", "g.json"],
         ("evaluation", "HeuristicConfig")),
        (["baseline-heuristic", "--corpus", "c.jsonl", "--guesser", "g.json"],
         ("evaluation", "HeuristicConfig")),
    ])
    def test_no_setting_flags_build_the_library_default(self, argv, library_config):
        import importlib
        module, name = library_config
        cls = getattr(importlib.import_module(f"isrlab.{module}"), name)
        _, config = cli._resolve(cli.build_parser().parse_args(argv))
        assert config == cls()

    def test_flags_fill_the_renamed_fields(self):
        ns = cli.build_parser().parse_args(
            ["eval", "--corpus", "c.jsonl", "--guesser", "g.json", "--games", "7",
             "--guests", "4", "--words", "2", "--eta", "9", "--curated-size", "5"])
        cfg, config = cli._resolve(ns)
        assert (config.eval_games, config.n_guests, config.word_budget,
                config.games_per_word, config.curated_size) == (7, 4, 2, 9, 5)
        assert cfg["games"] == 7 and cfg["seeds"] == "0"

    @pytest.mark.parametrize("command", ["train-guesser", "train-enquirer"])
    def test_corpus_is_parsed_once(self, corpus_file, guesser_ckpt, tmp_path,
                                   monkeypatch, command):
        from isrlab import corpus
        calls = []
        original = corpus.load_corpus

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(corpus, "load_corpus", counted)
        argv = {"train-guesser": ["--games", "64", "--batch-size", "32",
                                  "--eval-games", "20"],
                "train-enquirer": ["--guesser", str(guesser_ckpt), "--episodes", "20",
                                   "--horizon", "20", "--update-batch-size", "10",
                                   "--guests", "3", "--words", "2",
                                   "--eval-games", "20"]}[command]
        assert run([command, "--corpus", str(corpus_file), "--out-dir", str(tmp_path)]
                   + argv) == 0
        assert len(calls) == 1


class TestTrainGuesser:
    def test_emits_three_artifacts(self, corpus_file, tmp_path, capsys):
        capsys.readouterr()
        code = run(["train-guesser", "--corpus", str(corpus_file), "--games", "512",
                    "--batch-size", "256", "--words", "2", "--guests", "3",
                    "--eval-games", "100", "--seed", "3", "--out-dir", str(tmp_path)])
        assert code == 0
        assert_printed_and_written(
            capsys, tmp_path, ["guesser.json", "guesser_curve.csv", "guesser_summary.json"])

    def test_identical_invocations_are_bit_identical(self, corpus_file, tmp_path):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            code = run(["train-guesser", "--corpus", str(corpus_file), "--games",
                        "512", "--batch-size", "256", "--words", "2", "--guests",
                        "3", "--eval-games", "100", "--seed", "7", "--threads", "1",
                        "--out-dir", str(out)])
            assert code == 0
            outs.append(out)
        assert (outs[0] / "guesser.json").read_bytes() == \
               (outs[1] / "guesser.json").read_bytes()
        assert (outs[0] / "guesser_curve.csv").read_bytes() == \
               (outs[1] / "guesser_curve.csv").read_bytes()
        a = json.loads((outs[0] / "guesser_summary.json").read_text())
        b = json.loads((outs[1] / "guesser_summary.json").read_text())
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_reference_defaults_pin_against_the_config_file(self, corpus_file, tmp_path):
        conf = tmp_path / "conf.txt"
        conf.write_text("lr = 0.1\neval_every = 1\n")
        for pinned in (True, False):
            out = tmp_path / ("pinned" if pinned else "free")
            argv = ["train-guesser", "--corpus", str(corpus_file), "--games", "64",
                    "--batch-size", "32", "--eval-games", "50", "--config", str(conf),
                    "--out-dir", str(out)]
            assert run(argv + ["--reference-defaults"] * pinned) == 0
            config = json.loads((out / "guesser_summary.json").read_text())["config"]
            assert config["lr"] == (3e-4 if pinned else 0.1)
            assert config["eval_every"] == 1       # not a reference setting

    def test_config_value_of_the_wrong_type_is_named(self, corpus_file, tmp_path, capsys):
        conf = tmp_path / "conf.txt"
        conf.write_text("games = 1e5\n")
        capsys.readouterr()
        assert run(["train-guesser", "--corpus", str(corpus_file), "--config", str(conf),
                    "--out-dir", str(tmp_path)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValueError"
        assert record["message"] == f"{conf}: games = '1e5' is not a valid int"


class TestTrainEnquirer:
    def test_missing_guesser_flag_is_a_usage_error(self, corpus_file):
        with pytest.raises(SystemExit) as exc:
            run(["train-enquirer", "--corpus", str(corpus_file)])
        assert exc.value.code == 2

    def test_trains_and_emits_artifacts(self, corpus_file, guesser_ckpt, tmp_path, capsys):
        capsys.readouterr()
        code = run(["train-enquirer", "--corpus", str(corpus_file),
                    "--guesser", str(guesser_ckpt), "--episodes", "200",
                    "--horizon", "60", "--update-batch-size", "30",
                    "--words", "2", "--guests", "3", "--eval-games", "100",
                    "--seed", "0", "--out-dir", str(tmp_path)])
        assert code == 0
        assert_printed_and_written(
            capsys, tmp_path, ["enquirer.json", "enquirer_curve.csv", "enquirer_summary.json"])

    def test_dimension_mismatch_reports_error_record(self, guesser_ckpt, tmp_path,
                                                     capsys):
        other = tmp_path / "other.jsonl"
        assert run(["gen-corpus", "--out", str(other), "--dim", "4",
                    "--train-speakers", "6", "--test-speakers", "2",
                    "--vocab-size", "8"]) == 0
        capsys.readouterr()
        code = run(["train-enquirer", "--corpus", str(other),
                    "--guesser", str(guesser_ckpt), "--episodes", "50", "--guests", "2",
                    "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        record = json.loads(captured.err.strip())
        assert record["error"] == "ValueError"
        assert "dimension" in record["message"]


class TestCountRejections:
    @pytest.mark.parametrize("command, flag, field", [
        ("train-guesser", "--batch-size", "batch_size"),
        ("train-guesser", "--eval-every", "eval_every"),
        ("train-guesser", "--eval-games", "valid_games"),
        ("train-enquirer", "--episodes", "episodes"),
        ("train-enquirer", "--horizon", "horizon"),
        ("train-enquirer", "--update-batches", "update_batches"),
        ("train-enquirer", "--update-batch-size", "update_batch_size"),
        ("train-enquirer", "--eval-games", "eval_games")])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_count_below_one_is_named_before_any_artifact(
            self, corpus_file, guesser_ckpt, tmp_path, capsys, command, flag, field, value):
        out = tmp_path / "out"
        argv = [command, "--corpus", str(corpus_file), flag, value, "--out-dir", str(out)]
        if command == "train-enquirer":
            argv += ["--guesser", str(guesser_ckpt)]
        capsys.readouterr()
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "ValueError", "message": f"{field} must be at least 1, got {value}"}
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1", "-0.5"])
    def test_dropout_outside_unit_interval_is_named_before_any_artifact(
            self, corpus_file, tmp_path, capsys, value):
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(["train-guesser", "--corpus", str(corpus_file), "--dropout", value,
                    "--out-dir", str(out)]) == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "ValueError", "message": f"dropout must be in [0, 1), got {float(value)}"}
        assert not out.exists()


@pytest.mark.parametrize("sweep, grid, message", [
    ("guests", "0,5", "--grid values must be at least 1, got 0"),
    ("guests", "3,6", "--grid 6 exceeds the 5 speakers of the test split"),
    ("words", "2,9", "--grid 9 exceeds the 8 words of the vocabulary"),
    ("words", "-1", "--grid values must be at least 1, got -1")])
@pytest.mark.parametrize("checkpoint", ["trained", "missing"])
def test_bad_sweep_grid_named_before_any_checkpoint_or_artifact(
        corpus_file, guesser_ckpt, tmp_path, capsys, sweep, grid, message, checkpoint):
    # with a missing checkpoint, a rejection after reading it would be a
    # FileNotFoundError
    out = tmp_path / "out"
    guesser = guesser_ckpt if checkpoint == "trained" else tmp_path / "missing.json"
    capsys.readouterr()
    assert run(["eval", "--sweep", sweep, "--grid", grid, "--games", "50",
                "--corpus", str(corpus_file), "--guesser", str(guesser),
                "--out-dir", str(out)]) == 1
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "ValueError", "message": message}
    assert not out.exists()


# Every subcommand and policy that reads one of the flags filling a library
# field of another name (``cli._FIELD_NAMES``).  The corpus has 8 words and
# 22 speakers, 17 on the train side and 5 on the test side.
_FLAG_USES = {
    "dim": [["gen-corpus"]],
    "games": [["train-guesser"], ["eval"], ["eval", "--sweep", "words", "--grid", "1"]],
    "guests": [["train-guesser"], ["train-enquirer"], ["eval"],
               ["eval", "--policy", "heuristic"], ["eval", "--sweep", "words", "--grid", "1"],
               ["baseline-heuristic"]],
    "words": [["train-guesser"], ["train-enquirer"], ["eval"],
              ["eval", "--policy", "fixed", "--fixed-words", "0,1,2"],
              ["eval", "--policy", "heuristic"], ["eval", "--policy", "enquirer"],
              ["eval", "--sweep", "guests", "--grid", "3"], ["baseline-heuristic"]],
    "eta": [["eval", "--policy", "heuristic"], ["baseline-heuristic"]],
}
_FLAG_REJECTIONS = [
    (argv, flag, value, f"--{flag} must be at least 1, got {value}")
    for flag, uses in _FLAG_USES.items() for argv in uses for value in ("0", "-1")
] + [
    (argv, "words", "9", "--words 9 exceeds the 8 words of the vocabulary")
    for argv in _FLAG_USES["words"] if "fixed" not in argv
] + [
    (argv, "guests", "6", "--guests 6 exceeds the 5 speakers of the test split")
    for argv in _FLAG_USES["guests"]
] + [
    (argv, "guests", "18", "--guests 18 exceeds the 17 speakers of the train split")
    for argv in (["train-guesser"], ["train-enquirer"], ["eval", "--split", "train"])
] + [
    # eval's list flags, then the split flags under --split full
    (["eval"], "seeds", "x", "--seeds value 'x' is not an integer"),
    (["eval"], "seeds", "0,-1", "--seeds values must be at least 0, got -1"),
    (["eval", "--sweep", "words"], "grid", "1,y", "--grid value 'y' is not an integer"),
    (["eval", "--policy", "fixed"], "fixed-words", "1,z,3",
     "--fixed-words value 'z' is not an integer"),
] + [
    # corpus settings outside their range: NaN sharpness once wrote a world
    # in which no word was informative, and the noise scales were rejected
    # only after generating, naming no setting
    (["gen-corpus"], "sharpness", "nan", "sharpness must be a number, got nan"),
    (["gen-corpus"], "utterance-noise", "nan",
     "utterance_noise must be finite and at least 0, got nan"),
    (["gen-corpus"], "enrollment-noise", "inf",
     "enrollment_noise must be finite and at least 0, got inf"),
] + [
    # a curated list of no words, once rejected only after the guesser was read
    (argv, "curated-size", "0", "curated_size must be at least 1, got 0")
    for argv in (["eval", "--policy", "heuristic"], ["baseline-heuristic"])
] + [
    # training settings outside their range
    (["train-guesser"], "lr", "-0.001", "lr must be finite and positive, got -0.001"),
    (["train-enquirer"], "grad-clip", "-1", "grad_clip must be finite and positive, got -1.0"),
    (["train-enquirer"], "clip", "nan", "clip must be finite and positive, got nan"),
] + [
    ([command, "--split", "full"], flag, value,
     f"--{flag} needs --split train or test; it does nothing with --split full")
    for command in ("eval", "baseline-heuristic")
    for flag, value in (("train-fraction", "0.5"), ("split-seed", "3"))
]


@pytest.mark.parametrize("argv, flag, value, message", _FLAG_REJECTIONS,
                         ids=[" ".join([*argv, f"--{flag}", value])
                              for argv, flag, value, _ in _FLAG_REJECTIONS])
def test_rejected_flag_is_named_before_any_checkpoint_or_artifact(
        corpus_file, tmp_path, capsys, argv, flag, value, message):
    # the checkpoints do not exist: a rejection after reading one would be
    # a FileNotFoundError
    out, missing = tmp_path / "out", str(tmp_path / "missing.json")
    if argv[0] == "gen-corpus":
        argv = [*argv, "--out", str(out / "c.jsonl")]
    else:
        argv = [*argv, "--corpus", str(corpus_file), "--out-dir", str(out)]
    if argv[0] in ("train-enquirer", "eval", "baseline-heuristic"):
        argv += ["--guesser", missing]
    if "enquirer" in argv:      # --policy enquirer
        argv += ["--enquirer", missing]
    capsys.readouterr()
    assert run([*argv, f"--{flag}", value]) == 1
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "ValueError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("sweep, grid, flag", [("words", "2", "--words"),
                                                ("guests", "3", "--guests")])
def test_a_sweep_ignores_the_setting_its_grid_varies(corpus_file, guesser_ckpt, tmp_path,
                                                     sweep, grid, flag):
    assert run(["eval", "--corpus", str(corpus_file), "--guesser", str(guesser_ckpt),
                "--sweep", sweep, "--grid", grid, flag, "99", "--games", "20",
                "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("command, truncated", [
    ("eval", "guesser"), ("eval", "enquirer"), ("train-enquirer", "guesser"),
    ("baseline-heuristic", "guesser")])
def test_truncated_checkpoint_is_named_before_any_artifact(
        corpus_file, guesser_ckpt, tmp_path, capsys, command, truncated):
    checkpoints = {"guesser": guesser_ckpt,
                   "enquirer": save_enquirer(tmp_path / "enquirer.json")}
    bad = tmp_path / "truncated.json"
    bad.write_bytes(checkpoints[truncated].read_bytes()[:200])
    checkpoints[truncated] = bad
    out = tmp_path / "out"
    argv = [command, "--corpus", str(corpus_file), "--guesser", str(checkpoints["guesser"]),
            "--out-dir", str(out)]
    if command == "eval":
        argv += ["--policy", "enquirer", "--enquirer", str(checkpoints["enquirer"]),
                 "--games", "50"]
    capsys.readouterr()
    assert run(argv) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "CheckpointFormatError"
    assert record["message"].startswith(f"checkpoint {bad}: not valid JSON")
    assert not out.exists()


class TestEval:
    def test_random_policy_metrics(self, corpus_file, guesser_ckpt, tmp_path, capsys):
        capsys.readouterr()
        code = run(["eval", "--corpus", str(corpus_file), "--guesser",
                    str(guesser_ckpt), "--games", "400", "--guests", "3",
                    "--words", "2", "--seeds", "0,1", "--out-dir", str(tmp_path)])
        assert code == 0
        assert_printed_and_written(capsys, tmp_path, ["eval_metrics.csv", "eval_summary.json"])
        rows = (tmp_path / "eval_metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + 2      # header plus one row per seed
        summary = json.loads((tmp_path / "eval_summary.json").read_text())
        assert summary["aggregate"][0]["n_seeds"] == 2
        assert "corpus_fingerprint" in summary

    def test_word_sweep_row_count(self, corpus_file, guesser_ckpt, tmp_path, capsys):
        capsys.readouterr()
        code = run(["eval", "--corpus", str(corpus_file), "--guesser",
                    str(guesser_ckpt), "--sweep", "words", "--grid", "1,2,4",
                    "--games", "200", "--guests", "3", "--seeds", "0,1",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        assert_printed_and_written(capsys, tmp_path,
                                   ["sweep_words.csv", "sweep_words_summary.json"])
        rows = (tmp_path / "sweep_words.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 2   # grid points x seeds, random policy

    def test_diversity_of_a_fixed_policy_is_one(self, corpus_file, guesser_ckpt,
                                                tmp_path, capsys):
        capsys.readouterr()
        code = run(["eval", "--corpus", str(corpus_file), "--guesser",
                    str(guesser_ckpt), "--policy", "fixed", "--fixed-words", "1,3",
                    "--words", "2", "--guests", "3", "--games", "100",
                    "--diversity", "--diversity-games", "50",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        assert_printed_and_written(capsys, tmp_path, [
            "eval_metrics.csv", "eval_summary.json", "word_tuples.jsonl", "diversity.json"])
        report = json.loads((tmp_path / "diversity.json").read_text())
        assert report["omega"] == 1.0

    def test_oversized_guest_request_reports_clear_error(self, corpus_file,
                                                         guesser_ckpt, tmp_path,
                                                         capsys):
        capsys.readouterr()
        code = run(["eval", "--corpus", str(corpus_file), "--guesser",
                    str(guesser_ckpt), "--guests", "50", "--games", "100",
                    "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        record = json.loads(captured.err.strip())
        assert "guests" in record["message"] or "seat" in record["message"]

    def test_heuristic_diversity_curates_once_per_seed(self, corpus_file, guesser_ckpt,
                                                       tmp_path, monkeypatch):
        from isrlab import evaluation
        calls = []
        original = evaluation.heuristic_baseline

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result.curated)
            return result
        monkeypatch.setattr(evaluation, "heuristic_baseline", counted)
        code = run(["eval", "--corpus", str(corpus_file), "--guesser",
                    str(guesser_ckpt), "--policy", "heuristic", "--eta", "200",
                    "--curated-size", "3", "--games", "100", "--guests", "3",
                    "--words", "2", "--seeds", "0,1", "--diversity",
                    "--diversity-games", "40", "--out-dir", str(tmp_path)])
        assert code == 0
        assert len(calls) == 2
        lines = (tmp_path / "word_tuples.jsonl").read_text().splitlines()
        assert len(lines) == 40
        for line in lines:
            assert set(json.loads(line)["words"]) <= set(calls[0])

    @pytest.mark.parametrize("policy", ["random", "fixed", "heuristic", "enquirer"])
    def test_diversity_tuples_are_the_first_seeds_games(self, corpus_file, guesser_ckpt,
                                                        tmp_path, monkeypatch, policy):
        from isrlab import enquirer, evaluation, guesser
        from isrlab.corpus import load_corpus, split_speakers
        enquirer_path = save_enquirer(tmp_path / "enquirer.json")
        extra = {"random": [], "fixed": ["--fixed-words", "1,3,5,6"],
                 "heuristic": ["--eta", "200", "--curated-size", "4"],
                 "enquirer": ["--enquirer", str(enquirer_path)]}[policy]
        # each policy's evaluation, counted per call: none runs again for the tuples
        module, name = {"heuristic": (evaluation, "heuristic_baseline"),
                        "enquirer": (enquirer, "evaluate_enquirer")}.get(
                            policy, (guesser, "evaluate_guesser_words"))
        original, calls = getattr(module, name), []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
        out = tmp_path / "out"
        assert run(["eval", "--corpus", str(corpus_file), "--guesser", str(guesser_ckpt),
                    "--policy", policy, "--games", "100", "--guests", "3", "--words", "2",
                    "--seeds", "4,1", "--diversity", "--diversity-games", "30",
                    "--out-dir", str(out)] + extra) == 0
        assert len(calls) == 2
        _, test = split_speakers(load_corpus(corpus_file), 0.8, 0)
        model = guesser.GuesserModel.load(guesser_ckpt)
        if policy == "heuristic":
            played = original(model, test, evaluation.HeuristicConfig(
                games_per_word=200, curated_size=4, n_guests=3, word_budget=2,
                eval_games=100), 4).played.word_tuples
        elif policy == "enquirer":
            played = original(enquirer.EnquirerModel.load(enquirer_path), model, test,
                              3, 2, 100, 4).word_tuples
        else:
            pool = [1, 3, 5, 6] if policy == "fixed" else "random"
            played = original(model, test, 3, 2, pool, 100, 4).word_tuples
        lines = (out / "word_tuples.jsonl").read_text().splitlines()
        assert [json.loads(line)["words"] for line in lines] == played[:30].tolist()
        report = json.loads((out / "diversity.json").read_text())
        assert report["omega"] == evaluation.diversity_index(played[:30]).omega
        if policy == "fixed":   # four words in turn, two at a time
            assert report["omega"] < 1.0

    def test_enquirer_policy_without_enquirer_is_named_before_any_checkpoint(
            self, corpus_file, tmp_path, capsys):
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(["eval", "--corpus", str(corpus_file), "--guesser",
                    str(tmp_path / "missing.json"), "--policy", "enquirer",
                    "--out-dir", str(out)]) == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "ValueError", "message": "--policy enquirer requires --enquirer"}
        assert not out.exists()

    @pytest.mark.parametrize("mode", [["--policy", "enquirer"],
                                      ["--sweep", "words", "--grid", "2"]],
                             ids=["policy", "sweep"])
    @pytest.mark.parametrize("config, message", [
        ({"dim": 5}, "enquirer checkpoint dimension 5 does not match corpus dimension 8"),
        ({"vocab_size": 9}, "enquirer checkpoint vocabulary size 9 does not match "
                            "corpus vocabulary size 8")], ids=["dim", "vocab"])
    def test_enquirer_that_does_not_fit_the_corpus_is_named(
            self, corpus_file, guesser_ckpt, tmp_path, capsys, monkeypatch, mode, config,
            message):
        from isrlab import enquirer, evaluation
        for module, name in ((enquirer, "evaluate_enquirer"), (evaluation, "word_sweep")):
            monkeypatch.setattr(module, name,
                                lambda *args, **kwargs: pytest.fail("evaluation ran"))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(["eval", "--corpus", str(corpus_file), "--guesser", str(guesser_ckpt),
                    "--enquirer", str(save_enquirer(tmp_path / "e.json", **config)),
                    "--games", "50", "--out-dir", str(out)] + mode) == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("extra, flag, mode", [
        (["--include-heuristic"], "--include-heuristic", "--policy random"),
        (["--include-heuristic", "--sweep", "guests"], "--include-heuristic",
         "--sweep guests"),
        (["--fixed-words", "1,2"], "--fixed-words", "--policy random"),
        (["--fixed-words", "1,2", "--policy", "heuristic"], "--fixed-words",
         "--policy heuristic"),
        (["--sweep", "guests", "--policy", "heuristic", "--diversity"], "--policy",
         "--sweep guests"),
        (["--sweep", "words", "--policy", "random"], "--policy", "--sweep words"),
        (["--sweep", "words", "--diversity"], "--diversity", "--sweep words"),
        ([], "--grid", "--policy random"),
        (["--sweep", "guests", "--diversity-games", "50"], "--diversity-games",
         "--sweep guests"),
        (["--sweep", "guests", "--curated-size", "3"], "--curated-size", "--sweep guests"),
        (["--sweep", "words"], "--eta", "--sweep words"),
        (["--enquirer", "e.json"], "--enquirer", "--policy random"),
        (["--sweep", "guests", "--enquirer", "e.json"], "--enquirer", "--sweep guests"),
    ])
    def test_flag_its_mode_ignores_is_named(self, corpus_file, guesser_ckpt, tmp_path,
                                           capsys, extra, flag, mode):
        capsys.readouterr()
        code = run(["eval", "--corpus", str(corpus_file), "--guesser", str(guesser_ckpt),
                    "--grid", "2", "--games", "50", "--guests", "3", "--words", "2",
                    "--eta", "20", "--out-dir", str(tmp_path)] + extra)
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValueError"
        assert record["message"].startswith(flag + " ")
        assert record["message"].endswith(" " + mode)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra, message", [
        (["--diversity-games", "1"], "diversity_games must be at least 2, got 1"),
        ([], "--diversity-games 142 exceeds --games 50: the tuples are the first seed's games")],
        ids=["diversity-games", "games"])
    def test_diversity_setting_rejected_before_any_evaluation(
            self, corpus_file, guesser_ckpt, tmp_path, capsys, monkeypatch, extra, message):
        from isrlab import guesser
        monkeypatch.setattr(guesser, "evaluate_guesser_words",
                            lambda *args, **kwargs: pytest.fail("evaluation ran"))
        capsys.readouterr()
        code = run(["eval", "--corpus", str(corpus_file), "--guesser", str(guesser_ckpt),
                    "--games", "50", "--guests", "3", "--words", "2", "--diversity",
                    "--out-dir", str(tmp_path)] + extra)
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "ValueError", "message": message}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_unknown_split_is_named(self, corpus_file, guesser_ckpt, tmp_path, capsys, via):
        conf = tmp_path / "conf.txt"
        conf.write_text("split = valid\n")
        chosen = ["--split", "valid"] if via == "flag" else ["--config", str(conf)]
        capsys.readouterr()
        code = run(["eval", "--corpus", str(corpus_file), "--guesser", str(guesser_ckpt),
                    "--games", "50", "--out-dir", str(tmp_path)] + chosen)
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValueError"
        assert record["message"] == "unknown split 'valid': expected train, test or full"

    def test_eval_outputs_are_reproducible(self, corpus_file, guesser_ckpt, tmp_path):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            assert run(["eval", "--corpus", str(corpus_file), "--guesser",
                        str(guesser_ckpt), "--games", "300", "--guests", "3",
                        "--words", "2", "--seeds", "0", "--threads", "1",
                        "--out-dir", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "eval_metrics.csv").read_bytes() == \
               (outs[1] / "eval_metrics.csv").read_bytes()
        assert (outs[0] / "eval_summary.json").read_bytes() == \
               (outs[1] / "eval_summary.json").read_bytes()


class TestBaselineHeuristic:
    def test_emits_scores_and_summary(self, corpus_file, guesser_ckpt, tmp_path, capsys):
        capsys.readouterr()
        code = run(["baseline-heuristic", "--corpus", str(corpus_file),
                    "--guesser", str(guesser_ckpt), "--eta", "100",
                    "--curated-size", "3", "--guests", "3", "--words", "2",
                    "--eval-games", "200", "--seed", "0", "--out-dir", str(tmp_path)])
        assert code == 0
        assert_printed_and_written(capsys, tmp_path, ["heuristic_scores.csv", "heuristic.json"])
        payload = json.loads((tmp_path / "heuristic.json").read_text())
        assert len(payload["curated"]) == 3
        scores = (tmp_path / "heuristic_scores.csv").read_text().splitlines()
        assert len(scores) == 1 + 8     # header plus one row per word

    def test_dimension_mismatch_reports_error_record(self, guesser_ckpt, tmp_path,
                                                     capsys):
        other = tmp_path / "other.jsonl"
        assert run(["gen-corpus", "--out", str(other), "--dim", "4",
                    "--train-speakers", "6", "--test-speakers", "2",
                    "--vocab-size", "8"]) == 0
        capsys.readouterr()
        assert run(["baseline-heuristic", "--corpus", str(other),
                    "--guesser", str(guesser_ckpt), "--eta", "10", "--guests", "2",
                    "--out-dir", str(tmp_path)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError",
                          "message": "guesser checkpoint dimension 8 does not match "
                                     "corpus dimension 4"}
        assert not (tmp_path / "heuristic.json").exists()


class TestHelp:
    def test_every_subcommand_documents_defaults(self, capsys):
        for command in ("gen-corpus", "train-guesser", "train-enquirer", "eval",
                        "baseline-heuristic"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            assert "default:" in text

    def test_tagged_flags_are_exactly_the_pinned_ones(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")     # one line per help entry
        pinned = {"gen-corpus": (), "train-guesser": cli._TRAIN_GUESSER_REFERENCE,
                  "train-enquirer": cli._TRAIN_ENQUIRER_REFERENCE, "eval": (),
                  "baseline-heuristic": cli._HEURISTIC_REFERENCE}
        for command, keys in pinned.items():
            with pytest.raises(SystemExit):
                cli.main([command, "--help"])
            tagged, flags, option = set(), set(), None
            for line in capsys.readouterr().out.splitlines():
                if line.lstrip().startswith("--"):
                    option = line.split()[0]
                    flags.add(option)
                if "[reference setting]" in line:
                    tagged.add(option[2:].replace("-", "_"))
            assert tagged == set(keys), command
            assert ("--reference-defaults" in flags) == bool(keys), command

    def test_console_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "isrlab.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-corpus" in proc.stdout


class TestLazyPackage:
    def test_importing_the_cli_does_not_load_numpy(self):
        # --threads sets the BLAS thread variables in main(); numpy must not
        # have started its thread pool before then
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, isrlab.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts threads in /proc/self/task")
    def test_threads_flag_caps_blas(self, tmp_path):
        # the thread variables are cleared first, so only --threads can
        # keep BLAS from starting one thread per core when numpy loads
        script = textwrap.dedent("""
            import os, sys
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ.pop(var, None)
            from isrlab import cli
            code = cli.main(["gen-corpus", "--threads", "1", "--out", sys.argv[1],
                             "--train-speakers", "8", "--test-speakers", "2"])
            assert code == 0
            print(len(os.listdir("/proc/self/task")))
            """)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "c.jsonl")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "1"

    def test_threads_flag_sets_every_thread_variable(self, tmp_path):
        # OpenBLAS, OpenMP, MKL, numexpr and Apple's Accelerate each read
        # their own variable
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        script = textwrap.dedent(f"""
            import os, sys
            names = {names!r}
            for var in names:
                os.environ.pop(var, None)
            from isrlab import cli
            code = cli.main(["gen-corpus", "--threads", "1", "--out", sys.argv[1],
                             "--train-speakers", "8", "--test-speakers", "2"])
            assert code == 0
            print(*(os.environ.get(var) for var in names))
            """)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "c.jsonl")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == ["1"] * len(names)

    def test_every_exported_name_resolves(self):
        import isrlab
        for name in isrlab.__all__:
            assert getattr(isrlab, name).__module__.startswith("isrlab."), name
        with pytest.raises(AttributeError, match="no_such_name"):
            isrlab.no_such_name
