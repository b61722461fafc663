"""Synthetic corpus generator tests."""

from pathlib import Path

import numpy as np
import pytest

from gradus.fixtures import GENRES, generate_corpus, generate_piece, write_corpus
from gradus.lmx import decode, encode
from gradus.score import TICKS_PER_QUARTER as Q
from gradus.score import (
    parse_musicxml,
    read_musicxml,
    type_for_duration,
    validate_two_staff,
)


class TestGenerateCorpus:
    def test_count_and_ids(self, small_corpus):
        assert len(small_corpus) == 12
        assert [s.source_id for s in small_corpus] == \
            [f"piece{i:03d}" for i in range(12)]

    def test_deterministic(self):
        a = generate_corpus(n=6, seed=5)
        b = generate_corpus(n=6, seed=5)
        for x, y in zip(a, b):
            assert encode(x) == encode(y)

    def test_seeds_independent(self):
        a = generate_corpus(n=4, seed=1)
        b = generate_corpus(n=4, seed=2)
        assert any(encode(x) != encode(y) for x, y in zip(a, b))

    def test_genres_cycle(self, small_corpus):
        got = [s.genre for s in small_corpus[:5]]
        assert got == list(GENRES)
        assert small_corpus[5].genre == GENRES[0]

    def test_all_two_staff_valid(self, small_corpus):
        for score in small_corpus:
            assert validate_two_staff(score) is score


class TestGeneratedContent:
    def test_every_duration_notatable(self, small_corpus):
        for score in small_corpus:
            for ev in score.events():
                assert type_for_duration(ev.duration) is not None, \
                    (score.source_id, ev.onset, ev.duration)

    def test_both_staves_populated(self, small_corpus):
        for score in small_corpus:
            staves = {e.staff for e in score.notes()}
            assert staves == {1, 2}

    def test_measures_fill_their_time_signature(self, small_corpus):
        for score in small_corpus:
            current = None
            for m in score.measures:
                current = m.time_sig or current
                assert current is not None
                num, den = current
                assert m.duration * den == num * 4 * Q

    def test_complexity_grows_along_corpus(self):
        pieces = generate_corpus(n=10, seed=33)
        def n_events(s):
            return len(list(s.notes()))
        counts = [n_events(p) for p in pieces]
        # the easy end must be sparser than the hard end
        assert sum(counts[:3]) < sum(counts[-3:])

    def test_hard_pieces_use_ornaments(self):
        pieces = generate_corpus(n=10, seed=60)
        hard = pieces[-3:]
        any_grace = any(e.grace for p in hard for e in p.events())
        any_chord = any(e.chord for p in hard for e in p.events())
        assert any_grace and any_chord

    def test_easy_pieces_stay_plain(self):
        # the melody hand stays single-line at the bottom of the scale;
        # the accompaniment may still stack dyads
        pieces = generate_corpus(n=10, seed=61)
        easy = pieces[0]
        assert not any(e.grace for e in easy.events())
        assert not any(e.chord for e in easy.events() if e.staff == 1)

    def test_ties_are_paired(self, medium_corpus):
        for score in medium_corpus:
            starts = sum(1 for e in score.notes() if e.tie_start)
            stops = sum(1 for e in score.notes() if e.tie_stop)
            assert starts == stops

    def test_single_piece_draw(self):
        piece = generate_piece(index=3, complexity=0.8, seed=17)
        assert piece.genre == GENRES[3]
        assert piece.source_id == "piece003"
        assert len(piece.measures) >= 4

    def test_complexity_bounds_checked(self):
        with pytest.raises(ValueError):
            generate_piece(index=0, complexity=1.5, seed=18)


class TestWriteCorpus:
    def test_files_round_trip(self, tmp_path, small_corpus):
        write_corpus(str(tmp_path), small_corpus[:4])
        files = sorted(Path(tmp_path).glob("*.musicxml"))
        assert [f.stem for f in files] == [s.source_id
                                           for s in small_corpus[:4]]
        for f, score in zip(files, small_corpus[:4]):
            back = read_musicxml(str(f))
            assert encode(back) == encode(score)
            assert back.genre == score.genre

    def test_output_is_parseable_xml(self, tmp_path, small_corpus):
        write_corpus(str(tmp_path), small_corpus[:1])
        text = (Path(tmp_path) / "piece000.musicxml").read_text()
        assert text.startswith("<?xml")
        parse_musicxml(text)
