"""End-to-end command-line contract: artifacts, determinism, error records."""

import json
import subprocess
import sys
import textwrap

import pytest

from isrlab import cli


def run(argv):
    return cli.main(argv)


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

    def test_default_flags_echo_vocab_and_dim(self, tmp_path):
        path = tmp_path / "c.jsonl"
        assert run(["gen-corpus", "--out", str(path), "--train-speakers", "3",
                    "--test-speakers", "1"]) == 0
        header = json.loads(path.read_text().splitlines()[0])
        assert header["dimension"] == 32
        assert len(header["vocab"]) == 20

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
    def test_emits_three_artifacts(self, corpus_file, tmp_path):
        code = run(["train-guesser", "--corpus", str(corpus_file), "--games", "512",
                    "--batch-size", "256", "--words", "2", "--guests", "3",
                    "--eval-games", "100", "--seed", "3", "--out-dir", str(tmp_path)])
        assert code == 0
        for name in ("guesser.json", "guesser_curve.csv", "guesser_summary.json"):
            assert (tmp_path / name).exists(), name

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

    def test_trains_and_emits_artifacts(self, corpus_file, guesser_ckpt, tmp_path):
        code = run(["train-enquirer", "--corpus", str(corpus_file),
                    "--guesser", str(guesser_ckpt), "--episodes", "200",
                    "--horizon", "60", "--update-batch-size", "30",
                    "--words", "2", "--guests", "3", "--eval-games", "100",
                    "--seed", "0", "--out-dir", str(tmp_path)])
        assert code == 0
        for name in ("enquirer.json", "enquirer_curve.csv", "enquirer_summary.json"):
            assert (tmp_path / name).exists(), name

    def test_dimension_mismatch_reports_error_record(self, guesser_ckpt, tmp_path,
                                                     capsys):
        other = tmp_path / "other.jsonl"
        assert run(["gen-corpus", "--out", str(other), "--dim", "4",
                    "--train-speakers", "6", "--test-speakers", "2",
                    "--vocab-size", "8"]) == 0
        capsys.readouterr()
        code = run(["train-enquirer", "--corpus", str(other),
                    "--guesser", str(guesser_ckpt), "--episodes", "50",
                    "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        record = json.loads(captured.err.strip())
        assert record["error"] == "ValueError"
        assert "dimension" in record["message"]


class TestCountRejections:
    @pytest.mark.parametrize("command, flag, field", [
        ("train-guesser", "--games", "n_games"),
        ("train-guesser", "--batch-size", "batch_size"),
        ("train-guesser", "--eval-every", "eval_every"),
        ("train-guesser", "--eval-games", "valid_games"),
        ("train-guesser", "--guests", "n_guests"),
        ("train-guesser", "--words", "word_budget"),
        ("train-enquirer", "--episodes", "episodes"),
        ("train-enquirer", "--horizon", "horizon"),
        ("train-enquirer", "--update-batches", "update_batches"),
        ("train-enquirer", "--update-batch-size", "update_batch_size"),
        ("train-enquirer", "--guests", "n_guests"),
        ("train-enquirer", "--words", "word_budget")])
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


class TestEval:
    def test_random_policy_metrics(self, corpus_file, guesser_ckpt, tmp_path):
        code = run(["eval", "--corpus", str(corpus_file), "--guesser",
                    str(guesser_ckpt), "--games", "400", "--guests", "3",
                    "--words", "2", "--seeds", "0,1", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "eval_metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + 2      # header plus one row per seed
        summary = json.loads((tmp_path / "eval_summary.json").read_text())
        assert summary["aggregate"][0]["n_seeds"] == 2
        assert "corpus_fingerprint" in summary

    def test_word_sweep_row_count(self, corpus_file, guesser_ckpt, tmp_path):
        code = run(["eval", "--corpus", str(corpus_file), "--guesser",
                    str(guesser_ckpt), "--sweep", "words", "--grid", "1,2,4",
                    "--games", "200", "--guests", "3", "--seeds", "0,1",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "sweep_words.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 2   # grid points x seeds, random policy

    def test_diversity_of_a_fixed_policy_is_one(self, corpus_file, guesser_ckpt,
                                                tmp_path):
        code = run(["eval", "--corpus", str(corpus_file), "--guesser",
                    str(guesser_ckpt), "--policy", "fixed", "--fixed-words", "1,3",
                    "--words", "2", "--guests", "3", "--games", "100",
                    "--diversity", "--diversity-games", "50",
                    "--out-dir", str(tmp_path)])
        assert code == 0
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
    def test_emits_scores_and_summary(self, corpus_file, guesser_ckpt, tmp_path):
        code = run(["baseline-heuristic", "--corpus", str(corpus_file),
                    "--guesser", str(guesser_ckpt), "--eta", "100",
                    "--curated-size", "3", "--guests", "3", "--words", "2",
                    "--eval-games", "200", "--seed", "0", "--out-dir", str(tmp_path)])
        assert code == 0
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
                    "--guesser", str(guesser_ckpt), "--eta", "10",
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

    def test_every_exported_name_resolves(self):
        import isrlab
        for name in isrlab.__all__:
            assert getattr(isrlab, name).__module__.startswith("isrlab."), name
        with pytest.raises(AttributeError, match="no_such_name"):
            isrlab.no_such_name
