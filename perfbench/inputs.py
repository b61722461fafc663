"""Input generators: every input the benchmark feeds gradus comes from here.

All generators draw from a ``numpy.random.Generator`` seeded by the
benchmark's ``--seed`` and take the loaded gradus modules as ``g``, so the
same seed always yields the same inputs.  Every piece passes
``validate_two_staff`` and round-trips through lmx before it is used.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

BASE_MEASURES = 8          # every repeated-measure piece starts from 8 bars of 4/4
REPEATS = (1, 2, 4, 8)     # long-scores sizes: 8, 16, 32 and 64 measures
TRANSPOSE = (-6, 6)        # the seed moves each piece by this many semitones at most

# ``gen-fixtures`` arguments (complexity, seed) of the 8-bar 4/4 base pieces.
# They are fixed, so every workload seed does the same amount of work: the
# seed transposes the pieces (timeline, codec and model costs do not depend
# on pitch) and draws the stage seeds, but never changes rhythm or size.
# LONG_BASES have 2880 and 3526 notes x distinct onset and offset times, the
# count an exact timeline's cost grows with.
LONG_BASES = ((0.3, 318), (0.45, 108))
ADAPT_HARD = ((0.9, 114), (0.9, 275), (0.9, 79), (0.9, 107))   # about 340 tokens
ADAPT_EASY = ((0.1, 49), (0.1, 114), (0.1, 35), (0.1, 57))     # about 130 tokens

DEMO_FIXTURE_SEED = 2026   # the ``gen-fixtures --seed`` of demos/06_cli_pipeline.sh


# ---------------------------------------------------------------------------
# Repeated-measure pieces

def base_piece(g, index: int, complexity: float, fixture_seed: int):
    """A fixture piece that must have BASE_MEASURES bars of 4/4."""
    piece = g.fixtures.generate_piece(index=index, complexity=complexity, seed=fixture_seed)
    if len(piece.measures) != BASE_MEASURES or piece.measures[0].time_sig != (4, 4):
        raise RuntimeError(f"fixture piece {fixture_seed} is no longer {BASE_MEASURES} bars of 4/4")
    return piece


def transpose(g, score, semitones: int):
    """The score with every pitch moved by ``semitones``, spelled with sharps."""
    def move(ev):
        if ev.pitch is None:
            return ev
        return replace(ev, pitch=g.score.Pitch.from_midi(ev.pitch.midi_number + semitones))
    return replace(score, measures=tuple(replace(m, events=tuple(move(ev) for ev in m.events))
                                         for m in score.measures))


def repeat_measures(score, k: int):
    """The score's measures played ``k`` times in a row.

    Attributes (key, time, clefs) stay on the very first measure only, as
    in a through-composed piece.  Fixture pieces never tie out of their
    last bar, so every tie chain stays intact.
    """
    period = score.total_duration
    measures = []
    for rep in range(k):
        offset = rep * period
        for m in score.measures:
            first = rep == 0
            measures.append(replace(
                m, index=len(measures), start=m.start + offset,
                events=tuple(replace(ev, onset=ev.onset + offset) for ev in m.events),
                time_sig=m.time_sig if first else None,
                key_fifths=m.key_fifths if first else None,
                clefs=m.clefs if first else (None, None)))
    return replace(score, measures=tuple(measures),
                   source_id=f"{score.source_id}x{k}")


def checked(g, score) -> list[str]:
    """The score's tokens, once it passes ``validate_two_staff`` and round-trips through lmx.

    Raises RuntimeError otherwise: the benchmark would be measuring an
    invalid input.
    """
    g.score.validate_two_staff(score)
    tokens = g.lmx.encode(score)
    decoded = g.lmx.decode(tokens)
    if g.lmx.encode(decoded) != tokens or decoded.total_duration != score.total_duration:
        raise RuntimeError(f"bad benchmark input: lmx round trip changed {score.source_id}")
    return tokens


def _shifts(seed: int, n: int) -> list[int]:
    drawn = np.random.default_rng(seed).integers(TRANSPOSE[0], TRANSPOSE[1] + 1, size=n)
    return [int(k) for k in drawn]


def long_scores_corpus(g, seed: int, bases: tuple[tuple[float, int], ...]) -> list:
    """Each base piece, transposed by the seed, at every size in REPEATS."""
    corpus = []
    for i, ((complexity, fixture_seed), shift) in enumerate(zip(bases, _shifts(seed, len(bases)))):
        base = transpose(g, base_piece(g, i, complexity, fixture_seed), shift)
        base = replace(base, source_id=f"ls{i:02d}")
        corpus.extend(repeat_measures(base, k) for k in REPEATS)
    for piece in corpus:
        checked(g, piece)
    return corpus


# ---------------------------------------------------------------------------
# Demo stage seeds

def demo_seeds(seed: int) -> dict[str, str]:
    """The demo chain's own stage seeds (profile noise, train, sample, fit-gnb).

    The workload seed draws them and the corpus stays the demo's, so the
    model, the variations and the calibration change with the seed while
    the amount of work stays within a few percent.
    """
    drawn = np.random.default_rng(seed).integers(2 ** 31, size=4)
    return dict(zip(("profile", "train", "sample", "gnb"), (str(int(s)) for s in drawn)))


# ---------------------------------------------------------------------------
# Adaptation pairs

# (hard repeats, easy repeats) per pair: sequences of about 1190, 600, 810
# and 870 tokens, so the two batches of 2 pad differently
ADAPT_LAYOUT = ((2, 4), (1, 2), (2, 1), (1, 4))
HARD_LEVEL, EASY_LEVEL = 8, 2


def adaptation_inputs(g, seed: int, layout: tuple[tuple[int, int], ...],
                      workdir: Path) -> dict:
    """Hard/easy variation streams, pairs and vocabulary for ``build-seqs``.

    Pair ``p`` repeats the ``p``-th hard and easy base pieces, each
    transposed by the seed.  Writes ``variations.jsonl``, ``pairs.jsonl``
    and ``vocab.txt`` under ``workdir`` and returns the pairs and token
    streams.
    """
    shifts = iter(_shifts(seed, 2 * len(layout)))
    variations, pairs = [], []
    for p, (k_hard, k_easy) in enumerate(layout):
        piece = f"al{p:02d}"
        hard = transpose(g, base_piece(g, p, *ADAPT_HARD[p]), next(shifts))
        easy = transpose(g, base_piece(g, p, *ADAPT_EASY[p]), next(shifts))
        streams = {
            f"{piece}.hard": checked(g, repeat_measures(hard, k_hard)),
            f"{piece}.easy": checked(g, repeat_measures(easy, k_easy)),
        }
        for var, tokens in streams.items():
            variations.append({"piece": piece, "var": var, "tokens": tokens,
                               "valid": True})
        pairs.append(g.mining.Pair(
            piece=piece, hard=f"{piece}.hard", easy=f"{piece}.easy",
            hard_level=HARD_LEVEL, easy_level=EASY_LEVEL,
            gap=HARD_LEVEL - EASY_LEVEL, sim=1.0))
    workdir.mkdir(parents=True, exist_ok=True)
    with open(workdir / "variations.jsonl", "w", encoding="utf-8") as fh:
        for row in variations:
            fh.write(json.dumps(row) + "\n")
    g.mining.save_pairs(str(workdir / "pairs.jsonl"), pairs)
    vocab = g.lmx.Vocabulary.from_corpus(row["tokens"] for row in variations)
    vocab.save(str(workdir / "vocab.txt"))
    return {"pairs": pairs, "tokens": {r["var"]: r["tokens"] for r in variations},
            "vocab": vocab}


def adaptation_prefix(g, vocab, pair, tokens: dict) -> list[int]:
    """``[LEVEL-h] hard [SEP] [LEVEL-e]``: the prompt to simplify one pair."""
    stream = ([g.lmx.LEVEL_TOKENS[pair.hard_level - 1]] + list(tokens[pair.hard])
              + [g.lmx.SEP, g.lmx.LEVEL_TOKENS[pair.easy_level - 1]])
    return vocab.encode_ids(stream)
