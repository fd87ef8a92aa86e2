"""Synthetic generator contract, interchange format, and split rules."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from isrlab.corpus import (Corpus, CorpusFormatError, SynthConfig,
                           corpus_fingerprint, generate_synthetic, load_corpus,
                           save_corpus, split_speakers, synthetic_split)


def small_config(**kw):
    base = dict(dimension=4, vocab_size=3, train_speakers=2, test_speakers=0,
                enrollments=3, sharpness=2.0, utterance_noise=0.5,
                enrollment_noise=0.3, seed=7)
    base.update(kw)
    return SynthConfig(**base)


class TestGenerator:
    def test_same_seed_is_bit_identical(self):
        a = generate_synthetic(small_config())
        b = generate_synthetic(small_config())
        assert np.array_equal(a.voice_prints, b.voice_prints)
        assert np.array_equal(a.utterances, b.utterances)
        assert a.vocab == b.vocab and a.speaker_ids == b.speaker_ids

    def test_different_seed_differs(self):
        a = generate_synthetic(small_config())
        b = generate_synthetic(small_config(seed=8))
        assert not np.array_equal(a.utterances, b.utterances)

    def test_noise_free_sharp_limit_collapses_to_prototype(self):
        # power-of-two enrollment count keeps the mean of identical vectors exact
        cfg = small_config(utterance_noise=0.0, enrollment_noise=0.0,
                           sharpness=np.inf, train_speakers=4, vocab_size=5,
                           enrollments=4)
        corpus = generate_synthetic(cfg)
        # recover the prototypes and queries from the documented draw order
        rng = np.random.default_rng(cfg.seed)
        z = rng.standard_normal((4, 4))
        rng.standard_normal((5, 4))           # anchors
        q = rng.standard_normal((5, 4))
        assert np.array_equal(corpus.voice_prints, z)
        align = z @ q.T
        for s in range(4):
            for w in range(5):
                if align[s, w] > 0:
                    assert np.array_equal(corpus.utterances[s, w], z[s])

    def test_matches_step_by_step_draw_trace(self):
        # independent recomputation of the documented draw order:
        # prototypes, anchors, queries, utterance noise, enrollment noise
        cfg = small_config()
        corpus = generate_synthetic(cfg)
        rng = np.random.default_rng(cfg.seed)
        s, v, d, m = 2, 3, 4, 3
        z = rng.standard_normal((s, d))
        u = rng.standard_normal((v, d))
        q = rng.standard_normal((v, d))
        eps = rng.standard_normal((s, v, d))
        eta = rng.standard_normal((s, m, d))
        for si in range(s):
            for wi in range(v):
                inner = sum(q[wi][j] * z[si][j] for j in range(d)) / np.sqrt(d)
                dd = 1.0 / (1.0 + np.exp(-cfg.sharpness * inner))
                expect = dd * z[si] + (1.0 - dd) * u[wi] + cfg.utterance_noise * eps[si, wi]
                assert np.allclose(corpus.utterances[si, wi], expect, atol=0, rtol=1e-15)
            enrolls = [z[si] + cfg.enrollment_noise * eta[si, mi] for mi in range(m)]
            assert np.allclose(corpus.voice_prints[si], np.mean(enrolls, axis=0),
                               atol=1e-12, rtol=0)

    def test_complete_utterance_matrix(self):
        corpus = generate_synthetic(small_config(train_speakers=5, vocab_size=4))
        assert corpus.utterances.shape == (5, 4, 4)
        for sid in corpus.speaker_ids:
            for wid in range(corpus.vocab_size):
                assert np.all(np.isfinite(corpus.utterance(sid, wid)))

    def test_cosine_to_prototype_increases_with_informativeness(self):
        # noise-free mixture with the anchor orthogonal to the prototype
        z = np.array([1.0, 0.0, 0.0])
        u = np.array([0.0, 2.0, 0.0])
        previous = -1.0
        for d in np.linspace(0.05, 1.0, 20):
            x = d * z + (1.0 - d) * u
            cos = x @ z / (np.linalg.norm(x) * np.linalg.norm(z))
            assert cos > previous
            previous = cos

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            small_config(vocab_size=1)
        with pytest.raises(ValueError):
            small_config(utterance_noise=-0.1)
        with pytest.raises(ValueError):
            small_config(enrollments=0)

    @pytest.mark.parametrize("field, value, message", [
        ("dimension", 0, "dimension must be at least 1, got 0"),
        ("train_speakers", 0, "train_speakers must be at least 1, got 0"),
        ("enrollments", -1, "enrollments must be at least 1, got -1"),
        ("test_speakers", -1, "test_speakers must be finite and at least 0, got -1"),
        ("utterance_noise", float("nan"), "utterance_noise must be finite and at least 0, got nan"),
        ("enrollment_noise", float("inf"),
         "enrollment_noise must be finite and at least 0, got inf"),
        ("vocab_size", 1, "vocab_size must be at least 2, got 1"),
        # a NaN sharpness once made every word exactly half informative
        ("sharpness", float("nan"), "sharpness must be a number, got nan")])
    def test_setting_outside_its_range_is_named(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{field: value})

    @pytest.mark.parametrize("sharpness", [np.inf, -np.inf, 0.0])
    def test_any_sharpness_but_nan_is_allowed(self, sharpness):
        assert small_config(sharpness=sharpness).sharpness == sharpness


class TestLookups:
    @pytest.mark.parametrize("lookup, message", [
        (lambda c: c.utterance(99, 0), "speaker 99 is not in the corpus"),
        (lambda c: c.voice_print(99), "speaker 99 is not in the corpus"),
        (lambda c: c.voice_print(True), "speaker id True is not an integer"),
        (lambda c: c.utterance(1.0, 0), "speaker id 1.0 is not an integer"),
        (lambda c: c.utterance(0, True), "word id True is not an integer"),
        (lambda c: c.utterance(0, 1.0), "word id 1.0 is not an integer"),
        (lambda c: c.utterance(0, 3), "word id 3 out of range [0, 3)")])
    def test_bad_lookup_named(self, lookup, message):
        corpus = generate_synthetic(small_config())
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lookup(corpus)

    def test_numpy_integer_ids_look_up(self):
        corpus = generate_synthetic(small_config())
        assert np.array_equal(corpus.utterance(np.int64(1), np.int32(2)),
                              corpus.utterance(1, 2))
        assert np.array_equal(corpus.voice_print(np.int32(1)), corpus.voice_print(1))


class TestSplit:
    def test_fraction_point_eight(self):
        corpus = generate_synthetic(small_config(train_speakers=10, vocab_size=3))
        train, test = split_speakers(corpus, 0.8, seed=1)
        assert train.n_speakers == 8 and test.n_speakers == 2
        assert not set(train.speaker_ids) & set(test.speaker_ids)
        assert train.split == "train" and test.split == "test"

    def test_same_seed_same_partition(self):
        corpus = generate_synthetic(small_config(train_speakers=10, vocab_size=3))
        a = split_speakers(corpus, 0.7, seed=9)
        b = split_speakers(corpus, 0.7, seed=9)
        assert a[0].speaker_ids == b[0].speaker_ids
        assert a[1].speaker_ids == b[1].speaker_ids

    def test_floor_with_minimum_one(self):
        corpus = generate_synthetic(small_config(train_speakers=10, vocab_size=3))
        train, test = split_speakers(corpus, 0.99, seed=0)
        assert train.n_speakers == 9 and test.n_speakers == 1

    def test_rows_follow_their_speakers(self):
        corpus = generate_synthetic(small_config(train_speakers=6, vocab_size=3))
        train, _ = split_speakers(corpus, 0.5, seed=3)
        for sid in train.speaker_ids:
            assert np.array_equal(train.voice_print(sid), corpus.voice_print(sid))
            assert np.array_equal(train.utterance(sid, 1), corpus.utterance(sid, 1))

    def test_degenerate_fractions_rejected(self):
        corpus = generate_synthetic(small_config(train_speakers=2, vocab_size=3))
        with pytest.raises(ValueError):
            split_speakers(corpus, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_speakers(corpus, 0.0, seed=0)
        with pytest.raises(ValueError, match="no test speakers"):
            # floor(0.9 * 2) = 1 train, but max(1, .) of a 1-speaker corpus
            split_speakers(Corpus(dimension=1, vocab=("a", "b"),
                                  speaker_ids=(0,),
                                  voice_prints=np.zeros((1, 1)),
                                  utterances=np.zeros((1, 2, 1))), 0.9, seed=0)

    def test_synthetic_split_counts(self):
        train, test = synthetic_split(small_config(train_speakers=8, test_speakers=2,
                                                   vocab_size=3))
        assert train.n_speakers == 8 and test.n_speakers == 2


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


HEADER = {"type": "header", "dimension": 3, "vocab": ["dark", "year"]}


def full_grid(n_speakers=2, dim=3, words=2):
    records = []
    for s in range(n_speakers):
        records.append({"type": "voiceprint", "speaker": s,
                        "embedding": [float(s), 1.0, 0.0][:dim]})
        for w in range(words):
            records.append({"type": "utterance", "speaker": s, "word": w,
                            "embedding": [float(s), float(w), 1.0][:dim]})
    return records


class TestInterchange:
    def test_explicit_voiceprints_identity_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [HEADER] + full_grid())
        corpus = load_corpus(path)
        assert corpus.vocab == ("dark", "year")
        assert np.array_equal(corpus.voice_print(1), [1.0, 1.0, 0.0])
        assert np.array_equal(corpus.utterance(0, 1), [0.0, 1.0, 1.0])

    def test_voiceprint_falls_back_to_enrollment_mean(self, tmp_path):
        path = tmp_path / "c.jsonl"
        header = {"type": "header", "dimension": 2, "vocab": ["dark", "year"]}
        records = [header,
                   {"type": "enrollment", "speaker": 0, "embedding": [1.0, 0.0]},
                   {"type": "enrollment", "speaker": 0, "embedding": [0.0, 1.0]},
                   {"type": "utterance", "speaker": 0, "word": 0, "embedding": [1.0, 1.0]},
                   {"type": "utterance", "speaker": 0, "word": 1, "embedding": [2.0, 2.0]}]
        write_jsonl(path, records)
        corpus = load_corpus(path)
        assert np.array_equal(corpus.voice_print(0), [0.5, 0.5])

    def test_missing_cell_named_in_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        header = {"type": "header", "dimension": 1, "vocab": ["a", "b", "c", "d"]}
        records = [header]
        for s in range(2):
            records.append({"type": "voiceprint", "speaker": s, "embedding": [0.0]})
            for w in range(4):
                if (s, w) == (1, 3):
                    continue
                records.append({"type": "utterance", "speaker": s, "word": w,
                                "embedding": [1.0]})
        write_jsonl(path, records)
        with pytest.raises(CorpusFormatError, match=r"\(1, 3\)"):
            load_corpus(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [HEADER,
                           {"type": "voiceprint", "speaker": 0, "embedding": [1.0, 2.0]}])
        with pytest.raises(CorpusFormatError, match="dimension"):
            load_corpus(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [HEADER] + full_grid()
        records.append({"type": "utterance", "speaker": 0, "word": 0,
                        "embedding": [9.0, 9.0, 9.0]})
        write_jsonl(path, records)
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(path)

    def test_speaker_without_print_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [HEADER,
                   {"type": "utterance", "speaker": 0, "word": 0, "embedding": [0.0] * 3},
                   {"type": "utterance", "speaker": 0, "word": 1, "embedding": [0.0] * 3}]
        write_jsonl(path, records)
        with pytest.raises(CorpusFormatError, match="neither voiceprint nor enrollment"):
            load_corpus(path)

    def test_header_required_first(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"type": "voiceprint", "speaker": 0, "embedding": [0.0]}])
        with pytest.raises(CorpusFormatError, match="header"):
            load_corpus(path)

    def test_record_before_the_header_named_by_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n\n" + json.dumps(VOICEPRINT) + "\n" + json.dumps(HEADER) + "\n")
        with pytest.raises(CorpusFormatError, match=r"^line 3: first record must be the header"):
            load_corpus(path)

    @pytest.mark.parametrize("vocab, word", [(["a", "a"], "'a' is repeated"),
                                             (["dark", "year", "dark"], "'dark' is repeated"),
                                             (["a", 2], "2 is not a string"),
                                             ([["a"], "b"], r"\['a'\] is not a string")])
    def test_bad_vocab_word_named(self, tmp_path, vocab, word):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{**HEADER, "vocab": vocab}] + full_grid())
        with pytest.raises(CorpusFormatError, match=rf"^line 1: vocab word {word}"):
            load_corpus(path)

    @pytest.mark.parametrize("records, message", [
        ([HEADER], r"^file has no speaker record$"),
        ([{**HEADER, "vocab": []}, full_grid()[0]], r"^line 1: field 'vocab' holds no word$")],
        ids=["header-only", "empty-vocab"])
    def test_no_speaker_or_no_word_named(self, tmp_path, records, message):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, records)
        with pytest.raises(CorpusFormatError, match=message):
            load_corpus(path)

    def test_round_trip_is_exact(self, tmp_path):
        corpus = generate_synthetic(small_config(train_speakers=3, vocab_size=4))
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert np.array_equal(loaded.voice_prints, corpus.voice_prints)
        assert np.array_equal(loaded.utterances, corpus.utterances)
        assert loaded.vocab == corpus.vocab

    def test_enrollment_round_trip_reproduces_prints(self, tmp_path):
        # prints omitted from the file; the loader must recompute the mean
        cfg = small_config(train_speakers=3, vocab_size=4)
        corpus = generate_synthetic(cfg)
        rng = np.random.default_rng(cfg.seed)
        z = rng.standard_normal((3, 4))
        rng.standard_normal((4, 4))
        rng.standard_normal((4, 4))
        rng.standard_normal((3, 4, 4))
        eta = rng.standard_normal((3, cfg.enrollments, 4))
        enrollments = z[:, None, :] + cfg.enrollment_noise * eta

        path = tmp_path / "c.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "header", "dimension": 4,
                                 "vocab": list(corpus.vocab)}) + "\n")
            for i, sid in enumerate(corpus.speaker_ids):
                for vec in enrollments[i]:
                    fh.write(json.dumps({"type": "enrollment", "speaker": sid,
                                         "embedding": vec.tolist()}) + "\n")
                for w in range(corpus.vocab_size):
                    fh.write(json.dumps({"type": "utterance", "speaker": sid, "word": w,
                                         "embedding": corpus.utterances[i, w].tolist()}) + "\n")
        loaded = load_corpus(path)
        assert np.allclose(loaded.voice_prints, corpus.voice_prints, atol=1e-12, rtol=0)


def _without(rec, field):
    return {k: v for k, v in rec.items() if k != field}


VOICEPRINT, UTTERANCE = full_grid()[:2]

# Each case replaces one line of [HEADER] + full_grid(): line 1 is the
# header, line 2 a voiceprint record, line 3 an utterance record; the
# error must name that line and the field.
MALFORMED = {
    "record-without-speaker": (2, _without(VOICEPRINT, "speaker"), "speaker"),
    "record-without-word": (3, _without(UTTERANCE, "word"), "word"),
    "header-without-dimension": (1, _without(HEADER, "dimension"), "dimension"),
    "array-record": (2, [0, 1.0, 0.0], "object"),
    "string-embedding": (2, {**VOICEPRINT, "embedding": "0.0 1.0 0.0"}, "embedding"),
    "nan-embedding": (3, {**UTTERANCE, "embedding": [0.0, float("nan"), 1.0]}, "embedding"),
    "infinite-speaker": (2, {**VOICEPRINT, "speaker": float("inf")}, "speaker"),
    "fractional-word": (3, {**UTTERANCE, "word": 1.7}, "word"),
    "fractional-dimension": (1, {**HEADER, "dimension": 2.9}, "dimension"),
    "boolean-speaker": (2, {**VOICEPRINT, "speaker": True}, "speaker"),
    "string-speaker": (2, {**VOICEPRINT, "speaker": "7"}, "speaker"),
    "padded-string-speaker": (2, {**VOICEPRINT, "speaker": " 7 "}, "speaker"),
    "string-word": (3, {**UTTERANCE, "word": "0"}, "word"),
    "string-dimension": (1, {**HEADER, "dimension": "4"}, "dimension"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_record_named_by_line_and_field(tmp_path, case):
    line, record, field = MALFORMED[case]
    records = [HEADER] + full_grid()
    records[line - 1] = record
    path = tmp_path / "c.jsonl"
    write_jsonl(path, records)   # json.dumps writes nan as the NaN literal
    with pytest.raises(CorpusFormatError, match=rf"^line {line}: .*{field}"):
        load_corpus(path)


@pytest.mark.parametrize("embedding, problem", [
    (["1.5", "2", "0"], "is not a list of numbers"),
    ([True, False, True], "is not a list of numbers"),
    ([1, None, 0], "is not a list of numbers"),
    ([1.0, 0.0, False], "is not a list of numbers"),
    ([10 ** 400, 0, 1], "holds an integer beyond the float range")],
    ids=["strings", "booleans", "null", "one-boolean", "huge-integer"])
def test_embedding_of_json_values_that_are_not_numbers_named(tmp_path, embedding, problem):
    # np.asarray(embedding, dtype=float) would read "1.5" and true as
    # numbers and null as nan, and raise OverflowError at 10 ** 400
    records = [HEADER] + full_grid()
    records[2] = {**UTTERANCE, "embedding": embedding}
    path = tmp_path / "c.jsonl"
    write_jsonl(path, records)
    with pytest.raises(CorpusFormatError, match=f"^line 3: field 'embedding' {problem}$"):
        load_corpus(path)


def test_invalid_utf8_named_by_line(tmp_path):
    lines = [json.dumps(r).encode("utf-8") for r in [HEADER] + full_grid()]
    lines[2] = lines[2].replace(b'"utterance"', b'"utter\xffance"')
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CorpusFormatError, match=r"^line 3: .*UTF-8"):
        load_corpus(path)


VALID_FILE = "".join(json.dumps(r) + "\n"
                     for r in [HEADER] + full_grid(n_speakers=3)).encode("utf-8")


@given(op=st.sampled_from(["replace", "delete", "insert"]),
       at=st.integers(0, len(VALID_FILE) - 1), byte=st.integers(0, 255))
@example(op="replace", at=len(VALID_FILE) // 2, byte=0xFF)   # not UTF-8
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_one_byte_mutation_loads_or_raises_format_error(tmp_path, op, at, byte):
    data = bytearray(VALID_FILE)
    if op == "replace":
        data[at] = byte
    elif op == "delete":
        del data[at]
    else:
        data.insert(at, byte)
    path = tmp_path / "c.jsonl"
    path.write_bytes(bytes(data))
    try:
        load_corpus(path)
    except CorpusFormatError:
        pass


class TestFingerprint:
    def test_stable_and_content_sensitive(self):
        a = generate_synthetic(small_config())
        b = generate_synthetic(small_config())
        c = generate_synthetic(small_config(seed=99))
        assert corpus_fingerprint(a) == corpus_fingerprint(b)
        assert corpus_fingerprint(a) != corpus_fingerprint(c)
