"""Embedding-space world the recognition game is played in.

A corpus holds, for every speaker, one utterance embedding per vocabulary
word plus a voice print (the mean of that speaker's enrollment vectors).
Corpora come from two places: a seeded synthetic generator whose word
informativeness varies per speaker, and a JSON Lines interchange file for
embeddings computed elsewhere.

Interchange format (UTF-8 JSON Lines):
  {"type": "header", "dimension": D, "vocab": [word strings]}
  {"type": "utterance", "speaker": int, "word": int, "embedding": [D floats]}
  {"type": "enrollment", "speaker": int, "embedding": [D floats]}
  {"type": "voiceprint", "speaker": int, "embedding": [D floats]}   (optional)

Every (speaker, word) cell must be present exactly once.  A speaker needs
either an explicit voiceprint record or at least one enrollment record;
with no explicit record the voice print is the mean of the enrollments.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import neural


class CorpusFormatError(ValueError):
    """Raised when an interchange file violates the corpus contract."""


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic world; see ``generate_synthetic``."""

    dimension: int = 32
    vocab_size: int = 20
    train_speakers: int = 200
    test_speakers: int = 60
    enrollments: int = 8
    sharpness: float = 3.0
    utterance_noise: float = 0.6
    enrollment_noise: float = 0.2
    seed: int = 0

    def __post_init__(self):
        neural.check_counts(self, "dimension", "train_speakers", "enrollments")
        for name in ("test_speakers", "utterance_noise", "enrollment_noise"):
            neural.check_positive(name, getattr(self, name), zero=True)
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be at least 2, got {self.vocab_size}")
        if math.isnan(self.sharpness):  # every word would be exactly half informative
            raise ValueError(f"sharpness must be a number, got {self.sharpness}")

    @property
    def total_speakers(self) -> int:
        return self.train_speakers + self.test_speakers


@dataclass(frozen=True)
class Corpus:
    """Immutable utterance matrix plus voice prints for a set of speakers.

    ``voice_prints[i]`` and ``utterances[i]`` belong to ``speaker_ids[i]``;
    speaker ids survive splits unchanged so disjointness stays checkable.
    """

    dimension: int
    vocab: tuple[str, ...]
    speaker_ids: tuple[int, ...]
    voice_prints: np.ndarray   # (S, D)
    utterances: np.ndarray     # (S, V, D)
    split: str = "full"

    def __post_init__(self):
        s, v, d = len(self.speaker_ids), len(self.vocab), self.dimension
        if self.voice_prints.shape != (s, d):
            raise ValueError(f"voice prints shape {self.voice_prints.shape} != ({s}, {d})")
        if self.utterances.shape != (s, v, d):
            raise ValueError(f"utterances shape {self.utterances.shape} != ({s}, {v}, {d})")
        if len(set(self.speaker_ids)) != s:
            raise ValueError("speaker ids must be unique")
        if not (np.all(np.isfinite(self.voice_prints)) and np.all(np.isfinite(self.utterances))):
            raise ValueError("corpus embeddings must be finite")
        self.voice_prints.setflags(write=False)
        self.utterances.setflags(write=False)
        object.__setattr__(self, "_row", {sid: i for i, sid in enumerate(self.speaker_ids)})

    @property
    def n_speakers(self) -> int:
        return len(self.speaker_ids)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def _speaker_row(self, speaker_id: int) -> int:
        check_integer(speaker_id, "speaker id")
        if speaker_id not in self._row:
            raise ValueError(f"speaker {speaker_id} is not in the corpus")
        return self._row[speaker_id]

    def voice_print(self, speaker_id: int) -> np.ndarray:
        return self.voice_prints[self._speaker_row(speaker_id)]

    def utterance(self, speaker_id: int, word_id: int) -> np.ndarray:
        row = self._speaker_row(speaker_id)
        check_integer(word_id, "word id")
        if not 0 <= word_id < self.vocab_size:
            raise ValueError(f"word id {word_id} out of range [0, {self.vocab_size})")
        return self.utterances[row, word_id]


def check_integer(value, name: str) -> None:
    # a bool is an int to Python, but as an id it is a slip
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} {value!r} is not an integer")


def check_fit(kind: str, config, corpus: Corpus) -> None:
    """Raise a ValueError naming both sizes unless the model of ``config``,
    named ``kind``, fits ``corpus``: its ``dim`` is the corpus dimension
    and its ``vocab_size``, if it has one, the corpus vocabulary size."""
    fits = [("dimension", config.dim, corpus.dimension)]
    if hasattr(config, "vocab_size"):
        fits.append(("vocabulary size", config.vocab_size, corpus.vocab_size))
    for what, have, want in fits:
        if have != want:
            raise ValueError(f"{kind} {what} {have} does not match corpus {what} {want}")


def generate_synthetic(config: SynthConfig) -> Corpus:
    """Build a corpus where word informativeness varies per speaker.

    Draw order, all from one generator seeded with ``config.seed``:
      1. speaker prototypes  z: (S, D) standard normal
      2. word anchors        u: (V, D) standard normal
      3. word queries        q: (V, D) standard normal
      4. utterance noise        (S, V, D) standard normal
      5. enrollment noise       (S, M, D) standard normal

    Per pair, informativeness ``d = sigmoid(sharpness * <q_w, z_s> / sqrt(D))``
    and the utterance is ``d * z_s + (1 - d) * u_w + utterance_noise * eps``.
    Informative words sound like the speaker, uninformative ones like the
    word itself, so which words are worth requesting depends on the speaker.
    The voice print is the mean of M noisy copies of the prototype.
    """
    d_dim = config.dimension
    n_speakers = config.total_speakers
    rng = np.random.default_rng(config.seed)
    prototypes = rng.standard_normal((n_speakers, d_dim))
    anchors = rng.standard_normal((config.vocab_size, d_dim))
    queries = rng.standard_normal((config.vocab_size, d_dim))
    utter_eps = rng.standard_normal((n_speakers, config.vocab_size, d_dim))
    enroll_eps = rng.standard_normal((n_speakers, config.enrollments, d_dim))

    alignment = prototypes @ queries.T / np.sqrt(d_dim)        # (S, V)
    with np.errstate(invalid="ignore"):
        logits = config.sharpness * alignment
        # inf * 0 alignment produces nan; call that exactly uninformative
        info = np.where(np.isnan(logits), 0.5, neural.sigmoid(logits))   # (S, V)
    utterances = (info[:, :, None] * prototypes[:, None, :]
                  + (1.0 - info)[:, :, None] * anchors[None, :, :]
                  + config.utterance_noise * utter_eps)
    enrollments = prototypes[:, None, :] + config.enrollment_noise * enroll_eps
    voice_prints = enrollments.mean(axis=1)

    vocab = tuple(f"w{i:02d}" for i in range(config.vocab_size))
    return Corpus(dimension=d_dim, vocab=vocab,
                  speaker_ids=tuple(range(n_speakers)),
                  voice_prints=voice_prints, utterances=utterances)


def split_speakers(corpus: Corpus, fraction: float,
                   seed: int) -> tuple[Corpus, Corpus]:
    """Random disjoint train/test partition of a corpus's speakers.

    Train gets ``max(1, floor(fraction * S))`` speakers, test the rest;
    either side ending up empty is an error.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    s = corpus.n_speakers
    n_train = max(1, int(np.floor(fraction * s)))
    if n_train >= s:
        raise ValueError(f"fraction {fraction} leaves no test speakers out of {s}")
    perm = np.random.default_rng(seed).permutation(s)
    train_rows = np.sort(perm[:n_train])
    test_rows = np.sort(perm[n_train:])

    def take(rows: np.ndarray, tag: str) -> Corpus:
        return Corpus(dimension=corpus.dimension, vocab=corpus.vocab,
                      speaker_ids=tuple(int(corpus.speaker_ids[r]) for r in rows),
                      voice_prints=corpus.voice_prints[rows].copy(),
                      utterances=corpus.utterances[rows].copy(), split=tag)

    return take(train_rows, "train"), take(test_rows, "test")


def synthetic_split(config: SynthConfig) -> tuple[Corpus, Corpus]:
    """Generate and partition in one go, sized by the config's two counts."""
    corpus = generate_synthetic(config)
    fraction = config.train_speakers / config.total_speakers
    return split_speakers(corpus, fraction, config.seed)


def save_corpus(corpus: Corpus, path) -> None:
    """Write the interchange file; voice prints are stored explicitly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "header", "dimension": corpus.dimension,
                             "vocab": list(corpus.vocab)}) + "\n")
        for i, sid in enumerate(corpus.speaker_ids):
            fh.write(json.dumps({"type": "voiceprint", "speaker": int(sid),
                                 "embedding": corpus.voice_prints[i].tolist()}) + "\n")
            for w in range(corpus.vocab_size):
                fh.write(json.dumps({"type": "utterance", "speaker": int(sid), "word": w,
                                     "embedding": corpus.utterances[i, w].tolist()}) + "\n")


def _field(rec: dict, name: str, line_no: int):
    if name not in rec:
        raise CorpusFormatError(f"line {line_no}: {rec.get('type')} record has no {name!r} field")
    return rec[name]


def _int_field(rec: dict, name: str, line_no: int) -> int:
    value = _field(rec, name, line_no)
    # int() would read true as 1, "7" as 7 and truncate 1.7 to 1
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise CorpusFormatError(f"line {line_no}: field {name!r} is not an integer: {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise CorpusFormatError(
            f"line {line_no}: field {name!r} is not an integer: {value!r}") from None


def load_corpus(path) -> Corpus:
    """Load and validate an interchange file.

    Rejections name what is wrong: a malformed record is named by its line
    and field, missing (speaker, word) cells are listed, as are dimension
    mismatches and speakers with no way to get a voice print.  Voice
    prints fall back to the mean of enrollment records when no explicit
    voiceprint record exists.
    """
    header = None
    utter: dict[tuple[int, int], np.ndarray] = {}
    prints: dict[int, np.ndarray] = {}
    enroll: dict[int, list[np.ndarray]] = {}
    speakers: set[int] = set()

    # an undecodable byte reads as a lone surrogate, caught on its own line
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise CorpusFormatError(f"line {line_no}: not valid UTF-8") from None
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {line_no}: invalid JSON ({exc})") from exc
            if not isinstance(rec, dict):
                raise CorpusFormatError(f"line {line_no}: record is not a JSON object")
            kind = rec.get("type")
            if kind == "header":
                if header is not None:
                    raise CorpusFormatError(f"line {line_no}: duplicate header")
                header = rec
                dimension = _int_field(rec, "dimension", line_no)
                vocab = _field(rec, "vocab", line_no)
                if dimension < 1:
                    raise CorpusFormatError(f"line {line_no}: field 'dimension' must be >= 1")
                if not isinstance(vocab, list):
                    raise CorpusFormatError(f"line {line_no}: field 'vocab' is not a list")
                if not vocab:
                    raise CorpusFormatError(f"line {line_no}: field 'vocab' holds no word")
                seen: set[str] = set()
                for word in vocab:
                    if not isinstance(word, str):
                        raise CorpusFormatError(
                            f"line {line_no}: vocab word {word!r} is not a string")
                    if word in seen:
                        raise CorpusFormatError(f"line {line_no}: vocab word {word!r} is repeated")
                    seen.add(word)
                continue
            if header is None:
                raise CorpusFormatError(f"line {line_no}: first record must be the header")
            if kind not in ("utterance", "enrollment", "voiceprint"):
                raise CorpusFormatError(f"line {line_no}: unknown record type {kind!r}")
            embedding = _field(rec, "embedding", line_no)
            if not neural.is_number_list(embedding):
                raise CorpusFormatError(
                    f"line {line_no}: field 'embedding' is not a list of numbers")
            if len(embedding) != dimension:
                raise CorpusFormatError(f"line {line_no}: embedding of length {len(embedding)}"
                                        f" does not match header dimension {dimension}")
            try:
                vec = np.asarray(embedding, dtype=np.float64)
            except OverflowError:
                raise CorpusFormatError(f"line {line_no}: field 'embedding' holds an integer "
                                        "beyond the float range") from None
            # v.v is finite unless an entry is nan or inf or the sum
            # overflows, which the exact test then clears; per record it is
            # several times cheaper than isfinite
            if not math.isfinite(vec @ vec) and not np.isfinite(vec).all():
                raise CorpusFormatError(f"line {line_no}: field 'embedding' holds a non-finite value")
            sid = _int_field(rec, "speaker", line_no)
            speakers.add(sid)
            if kind == "utterance":
                wid = _int_field(rec, "word", line_no)
                if not 0 <= wid < len(vocab):
                    raise CorpusFormatError(f"line {line_no}: word id {wid} out of range")
                if (sid, wid) in utter:
                    raise CorpusFormatError(f"line {line_no}: duplicate utterance cell ({sid}, {wid})")
                utter[(sid, wid)] = vec
            elif kind == "voiceprint":
                if sid in prints:
                    raise CorpusFormatError(f"line {line_no}: duplicate voiceprint for speaker {sid}")
                prints[sid] = vec
            else:
                enroll.setdefault(sid, []).append(vec)

    if header is None:
        raise CorpusFormatError("file has no header record")
    if not speakers:
        raise CorpusFormatError("file has no speaker record")
    vocab = tuple(vocab)
    speaker_ids = tuple(sorted(speakers))

    missing = [(sid, wid) for sid in speaker_ids for wid in range(len(vocab))
               if (sid, wid) not in utter]
    if missing:
        raise CorpusFormatError(f"missing utterance cells: {missing}")
    printless = [sid for sid in speaker_ids if sid not in prints and sid not in enroll]
    if printless:
        raise CorpusFormatError(
            f"speakers with neither voiceprint nor enrollment records: {printless}")

    voice_prints = np.stack([
        prints[sid] if sid in prints else np.mean(enroll[sid], axis=0)
        for sid in speaker_ids])
    utterances = np.stack([
        np.stack([utter[(sid, wid)] for wid in range(len(vocab))])
        for sid in speaker_ids])
    return Corpus(dimension=dimension, vocab=vocab,
                  speaker_ids=speaker_ids, voice_prints=voice_prints,
                  utterances=utterances)


def corpus_fingerprint(corpus: Corpus) -> str:
    """Content hash used to tag metrics files with their data provenance."""
    h = hashlib.sha256()
    h.update(json.dumps({"dimension": corpus.dimension, "vocab": list(corpus.vocab),
                         "speakers": list(corpus.speaker_ids),
                         "split": corpus.split}).encode())
    h.update(np.ascontiguousarray(corpus.voice_prints).tobytes())
    h.update(np.ascontiguousarray(corpus.utterances).tobytes())
    return h.hexdigest()
