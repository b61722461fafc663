"""Command-line pipeline driver.

Every subcommand reads artifacts produced by earlier stages and writes
its own together with a manifest derived from its parsed arguments: the
command, every option, the seed and SHA-256 digests of all inputs.  An
output directory gets ``manifest.json``; an output file ``F`` gets
``F.manifest.json``.  Manifests carry no timestamps, so identical runs
produce byte-identical artifacts.

Failures print a single JSON line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import (__version__, analysis, fixtures, gnb, interchange, lmx, mining, model, report,
               seqbuild, style)
from .score import Score, parse_musicxml, read_musicxml, validate_two_staff, write_musicxml

__all__ = ["main"]


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# Shared plumbing

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_digests(paths: Sequence[Path]) -> dict[str, str]:
    out: dict[str, str] = {}
    for path in paths:
        if path.is_dir():
            agg = hashlib.sha256()
            for child in sorted(p for p in path.iterdir() if p.is_file()):
                agg.update(child.name.encode())
                agg.update(bytes.fromhex(_sha256(child)))
            out[str(path)] = "dir:" + agg.hexdigest()
        else:
            out[str(path)] = _sha256(path)
    return out


# keys argparse sets for dispatch, plus the seed, which the manifest keeps top-level
_PARSER_KEYS = ("func", "command", "lmx_command", "seed")


def _write_manifest(out: Path, args: argparse.Namespace, inputs: Sequence[Path]) -> None:
    """Record the parsed arguments that produced ``out``.

    A directory gets ``DIR/manifest.json``; a file ``F`` gets
    ``F.manifest.json`` beside it, so stages sharing a directory keep
    one manifest each.
    """
    manifest = {
        "command": " ".join(filter(None, (args.command, getattr(args, "lmx_command", None)))),
        "args": {k: v for k, v in vars(args).items() if k not in _PARSER_KEYS},
        "seed": getattr(args, "seed", None),
        "inputs": _input_digests(inputs),
        "version": __version__,
    }
    path = out / "manifest.json" if out.is_dir() else out.with_name(out.name + ".manifest.json")
    interchange.write_json(path, manifest)


def _corpus_paths(corpus: Path) -> list[Path]:
    if not corpus.is_dir():
        raise CliError(f"corpus directory {corpus} does not exist")
    paths = sorted(p for p in corpus.iterdir()
                   if p.suffix in (".musicxml", ".xml", ".mxl"))
    if not paths:
        raise CliError(f"no MusicXML files under {corpus}")
    return paths


def _read_piece(path: Path | str) -> tuple[str, Score]:
    return Path(path).stem, validate_two_staff(read_musicxml(str(path)))


def _load_corpus(corpus: Path) -> list[tuple[str, Score]]:
    return [_read_piece(path) for path in _corpus_paths(corpus)]


def _finite_numbers(value) -> bool:
    try:
        return isinstance(value, list) and all(
            type(v) in (int, float) and math.isfinite(v) for v in value)
    except OverflowError:   # an integer too large for a float
        return False


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# the fields of a row whose type is checked wherever a row holds them
_FIELD_TYPES = {
    "features": ("a list of finite numbers", _finite_numbers),
    "profile": ("a list of finite numbers", _finite_numbers),
    "perturbed": ("a list of finite numbers", _finite_numbers),
    "tokens": ("a list of strings", _strings),
}


def _read_jsonl(path: str, *fields: str) -> list[dict]:
    """The rows of a JSONL file, each holding every one of ``fields``.

    A field named in ``_FIELD_TYPES`` must also hold its type, whether or
    not the caller asked for it.
    """
    return [row for _, row in _read_located(path, *fields)]


def _read_located(path: str, *fields: str) -> list[tuple[str, dict]]:
    """:func:`_read_jsonl`'s rows, each with its ``path:line``."""
    rows = []
    for where, row in interchange.read_jsonl(path, CliError):
        for name in fields:
            if name not in row:
                raise CliError(f"{where}: missing field {name!r}")
        for name, (kind, holds) in _FIELD_TYPES.items():
            if name in row and not holds(row[name]):
                raise CliError(f"{where}: field {name!r} must be {kind}")
        rows.append((where, row))
    return rows


def _write_jsonl(path: Path, rows: Sequence[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    interchange.write_jsonl(path, rows)


def _pmap(fn, items: Sequence, jobs: int) -> list:
    """Order-preserving map, optionally across processes."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _per_piece(fn, path: Path) -> tuple[str, object]:
    """``(stem, fn(score))`` for one file; module level so it pickles for --jobs."""
    name, score = _read_piece(path)
    return name, fn(score)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_gen_fixtures(args) -> int:
    scores = fixtures.generate_corpus(args.pieces, seed=args.seed)
    out_dir = Path(args.out)
    fixtures.write_corpus(str(out_dir), scores)
    _write_manifest(out_dir, args, [])
    print(f"wrote {len(scores)} pieces to {out_dir}")
    return 0


def _cmd_parse(args) -> int:
    rows = []
    for name, score in map(_read_piece, args.files):
        rows.append({
            "piece": name,
            "measures": len(score.measures),
            "notes": sum(1 for _ in score.notes(include_grace=True)),
            "duration_quarters": str(score.total_duration),
            "title": score.title,
            "genre": score.genre,
        })
    if args.out:
        interchange.write_jsonl(args.out, rows)
    else:
        sys.stdout.write("".join(json.dumps(r) + "\n" for r in rows))
    return 0


def _cmd_lmx_encode(args) -> int:
    corpus = Path(args.corpus)
    pieces = _pmap(functools.partial(_per_piece, lmx.encode), _corpus_paths(corpus), args.jobs)
    rows = [{"piece": name, "tokens": tokens} for name, tokens in pieces]
    out_dir = Path(args.out_dir)
    _write_jsonl(out_dir / "tokens.jsonl", rows)
    vocab = lmx.Vocabulary.from_corpus([r["tokens"] for r in rows])
    vocab.save(str(out_dir / "vocab.txt"))
    _write_manifest(out_dir, args, [corpus])
    print(f"encoded {len(rows)} pieces; vocabulary size {len(vocab)}")
    return 0


def _cmd_lmx_decode(args) -> int:
    rows = _read_jsonl(args.tokens, "piece", "tokens")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for row in rows:
        score = lmx.decode(row["tokens"])
        write_musicxml(score, str(out_dir / f"{row['piece']}.musicxml"))
    _write_manifest(out_dir, args, [Path(args.tokens)])
    print(f"decoded {len(rows)} pieces to {out_dir}")
    return 0


def _cmd_skyline(args) -> int:
    corpus = Path(args.corpus)
    rows = []
    for name, score in _load_corpus(corpus):
        line = analysis.skyline(score)
        sky = analysis._skyline_score_of(score, line)
        rows.append({
            "piece": name,
            "notes": [[str(n.onset), str(n.duration),
                       None if n.pitch is None else n.pitch.midi_number]
                      for n in line],
            "tokens": lmx.encode(sky),
        })
    out = Path(args.out)
    _write_jsonl(out, rows)
    _write_manifest(out, args, [corpus])
    print(f"skylines for {len(rows)} pieces -> {out}")
    return 0


def _cmd_profile(args) -> int:
    corpus = Path(args.corpus)
    rng = np.random.default_rng(args.seed)
    rows = []
    for name, score in _load_corpus(corpus):
        profile = analysis.pitch_class_profile(score)
        row = {"piece": name, "profile": [float(v) for v in profile]}
        if args.noise_scale > 0:
            jittered = analysis.perturb_profile(profile, rng, args.noise_scale)
            row["perturbed"] = [float(v) for v in jittered]
        rows.append(row)
    out = Path(args.out)
    _write_jsonl(out, rows)
    _write_manifest(out, args, [corpus])
    print(f"profiles for {len(rows)} pieces -> {out}")
    return 0


def _cmd_features(args) -> int:
    corpus = Path(args.corpus)
    pieces = _pmap(functools.partial(_per_piece, analysis.feature_vector),
                   _corpus_paths(corpus), args.jobs)
    rows = [{"piece": name, "features": [float(v) for v in vec]} for name, vec in pieces]
    out = Path(args.out)
    _write_jsonl(out, rows)
    _write_manifest(out, args, [corpus])
    print(f"features for {len(rows)} pieces -> {out}")
    return 0


def _cmd_fit_gnb(args) -> int:
    rows = _read_jsonl(args.features, "piece", "features")
    names = [r["piece"] for r in rows]
    x = np.array([r["features"] for r in rows], dtype=np.float64)
    if args.labels:
        label_rows = _read_jsonl(args.labels, "piece", "level")
        by_piece = {r["piece"]: int(r["level"]) for r in label_rows}
        missing = [n for n in names if n not in by_piece]
        if missing:
            raise CliError(f"labels missing for {missing[:5]}")
        y = np.array([by_piece[n] for n in names], dtype=np.int64)
    else:
        y = gnb.quantile_levels(gnb.difficulty_proxy(x))
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(names))
    n_holdout = max(2, int(round(args.holdout_fraction * len(names))))
    uncalibrated = ""           # why the temperature stays at 1, if it does
    if len(names) - n_holdout < 2 * len(set(y.tolist())):
        n_holdout = 0
        uncalibrated = "corpus too small for a holdout"
    holdout = order[:n_holdout]
    trainrows = order[n_holdout:] if n_holdout else order
    if n_holdout and 1 in Counter(y[trainrows].tolist()).values():
        # gnb.fit needs two examples of every level it sees
        n_holdout = 0
        trainrows = order
        fitted = gnb.fit(x, y)
        uncalibrated = "split starved a level"
    else:
        fitted = gnb.fit(x[trainrows], y[trainrows])
    if n_holdout:
        if set(y[holdout].tolist()) - set(y[trainrows].tolist()):
            uncalibrated = "holdout has levels absent from training"
        else:
            fitted = gnb.fit_temperature(fitted, x[holdout], y[holdout])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gnb.save_model(fitted, str(out_dir / "model.json"))
    _write_jsonl(out_dir / "labels.jsonl",
                 [{"piece": n, "level": int(v)} for n, v in zip(names, y)])
    inputs = [Path(args.features)] + ([Path(args.labels)] if args.labels else [])
    _write_manifest(out_dir, args, inputs)
    msg = f"fitted on {len(trainrows)} pieces, temperature {fitted.temperature:.3f}"
    if uncalibrated:
        msg += f" (not calibrated: {uncalibrated})"
    print(msg)
    return 0


def _cmd_classify(args) -> int:
    located = _read_located(args.features, "piece", "features")
    rows = [row for _, row in located]
    fitted = gnb.load_model(args.model)
    x = np.array([r["features"] for r in rows], dtype=np.float64)
    try:
        posterior = fitted.posterior(x)
    except gnb.ModelError as exc:
        if exc.row is None:
            raise
        raise CliError(f"{located[exc.row][0]}: {exc}") from exc
    levels = fitted.predict(x)
    out_rows = []
    for r, level, post in zip(rows, levels, posterior):
        out_rows.append({"piece": r["piece"], "level": int(level),
                         "confidence": float(post.max()),
                         "posterior": [float(v) for v in post]})
    out = Path(args.out)
    _write_jsonl(out, out_rows)
    _write_manifest(out, args, [Path(args.model), Path(args.features)])
    print(f"classified {len(out_rows)} pieces -> {out}")
    return 0


def _cmd_embed(args) -> int:
    corpus = Path(args.corpus)
    embeddings = dict(_pmap(functools.partial(_per_piece, style.baseline_embed),
                            _corpus_paths(corpus), args.jobs))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    style.save_embeddings(str(out), embeddings)
    _write_manifest(out, args, [corpus])
    print(f"embedded {len(embeddings)} pieces -> {out}")
    return 0


def _cmd_mine_pairs(args) -> int:
    variations = _read_jsonl(args.variations, "piece", "var")
    posteriors = {r["piece"]: r for r in _read_jsonl(args.posteriors,
                                                     "piece", "level", "confidence")}
    embeddings = style.load_embeddings(args.embeddings)
    pool = []
    for row in variations:
        if not row.get("valid", True):
            continue
        var_id = row["var"]
        if var_id not in posteriors:
            raise CliError(f"no posterior for variation {var_id}")
        if var_id not in embeddings:
            raise CliError(f"no embedding for variation {var_id}")
        post = posteriors[var_id]
        pool.append(mining.Variation(
            id=var_id, piece=row["piece"], level=int(post["level"]),
            confidence=float(post["confidence"]), embedding=embeddings[var_id]))
    pairs, rep = mining.mine(pool, strategy=args.strategy, min_gap=args.min_gap)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mining.save_pairs(str(out_dir / "pairs.jsonl"), pairs)
    mining.save_report(str(out_dir / "report.json"), rep)
    _write_manifest(out_dir, args, [Path(args.variations), Path(args.posteriors),
                                    Path(args.embeddings)])
    print(f"{args.strategy} gap>={args.min_gap}: {rep.counts['raw']} raw -> "
          f"{len(pairs)} kept")
    return 0


def _cmd_build_seqs(args) -> int:
    vocab = lmx.Vocabulary.load(args.vocab)
    samples: list[seqbuild.Sample] = []
    skipped: list[str] = []
    if args.mode == "conditioned":
        tokens_rows = _read_jsonl(args.tokens, "piece", "tokens")
        profiles = {r["piece"]: r for r in _read_jsonl(args.profiles, "piece", "profile")}
        inputs = [Path(args.tokens), Path(args.profiles)]
        for row in tokens_rows:
            prof = profiles.get(row["piece"])
            if prof is None:
                raise CliError(f"no profile for piece {row['piece']}")
            harmony = np.array(prof.get("perturbed", prof["profile"]))
            samples.append(seqbuild.conditioned_sample(
                vocab, row["tokens"], harmony, piece=row["piece"],
                max_len=args.max_len))
    else:
        pairs = mining.load_pairs(args.pairs)
        variations = _read_jsonl(args.variations, "var", "tokens")
        tokens_by_id = {r["var"]: r["tokens"] for r in variations}
        inputs = [Path(args.pairs), Path(args.variations)]
        samples, skipped = seqbuild.adaptation_samples(
            vocab, pairs, tokens_by_id, max_len=args.max_len,
            include_level_tokens=not args.no_level_tokens)
    if not samples:
        raise CliError("no training sequences could be built")
    ids, mask, harmony = seqbuild.collate(samples, vocab)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    np.savez(out, ids=ids, mask=mask, harmony=harmony,
             lengths=np.array([len(s) for s in samples], dtype=np.int64),
             pieces=np.frombuffer(json.dumps([s.piece for s in samples]).encode(),
                                  dtype=np.uint8))
    _write_manifest(out, args, inputs + [Path(args.vocab)])
    msg = f"built {len(samples)} {args.mode} sequences -> {out}"
    if skipped:
        msg += f" ({len(skipped)} pairs skipped)"
    print(msg)
    return 0


def _cmd_train(args) -> int:
    vocab = lmx.Vocabulary.load(args.vocab)
    with np.load(args.seqs) as data:
        ids = data["ids"]
        mask = data["mask"]
        harmony = data["harmony"]
        lengths = data["lengths"]
    config = model.ModelConfig(
        vocab_size=len(vocab), d_model=args.d_model, n_heads=args.n_heads,
        n_layers=args.n_layers, d_ff=args.d_ff,
        max_len=max(int(lengths.max()), args.context),
        harmony_token_id=vocab.id(lmx.HARMONY))
    lm = model.TinyLM.create(config, seed=args.seed)
    batches = []
    for lo in range(0, ids.shape[0], args.batch_size):
        hi = min(lo + args.batch_size, ids.shape[0])
        width = int(lengths[lo:hi].max())
        batches.append((ids[lo:hi, :width], mask[lo:hi, :width], harmony[lo:hi]))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    losses = model.train(lm, batches, steps=args.steps, lr=args.lr, seed=args.seed)
    with open(out_dir / "train_log.csv", "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(losses, start=1):
            fh.write(f"{step},{loss:.6f}\n")
    model.save_checkpoint(str(out_dir / "checkpoint.npz"), lm, step=len(losses))
    _write_manifest(out_dir, args, [Path(args.seqs), Path(args.vocab)])
    print(f"trained {len(losses)} steps, final loss {losses[-1]:.4f}")
    return 0


def _cmd_sample(args) -> int:
    vocab = lmx.Vocabulary.load(args.vocab)
    lm, _, _ = model.load_checkpoint(args.checkpoint)
    skyline_rows = _read_jsonl(args.skylines, "piece")
    profiles = {r["piece"]: r for r in _read_jsonl(args.profiles, "piece", "profile")}
    out_dir = Path(args.out_dir)
    scores_dir = out_dir / "scores"
    scores_dir.mkdir(parents=True, exist_ok=True)
    prefix = [vocab.id(lmx.BOS), vocab.id(lmx.HARMONY)]
    end_id = vocab.id(lmx.EOS)
    max_new = min(args.max_new, lm.config.max_len - len(prefix))
    if max_new < 1:
        raise CliError("model context leaves no room to generate")
    rows = []
    n_valid = 0
    seed_rng = np.random.default_rng(args.seed)
    piece_seeds = seed_rng.integers(0, 2 ** 31, size=len(skyline_rows))
    for row, piece_seed in zip(skyline_rows, piece_seeds):
        prof = profiles.get(row["piece"])
        if prof is None:
            raise CliError(f"no profile for piece {row['piece']}")
        harmony = np.array(prof["profile"], dtype=np.float64)
        piece_seed = int(piece_seed)
        result = model.sample(
            lm, prefix, n_sequences=args.n, max_new_tokens=max_new,
            end_id=end_id, temperature=args.temperature, top_k=args.top_k,
            seed=piece_seed, harmony=harmony)
        for k, seq in enumerate(result.sequences):
            var_id = f"{row['piece']}.v{k:03d}"
            tokens = vocab.decode_ids(seq)
            decoded = lmx.decode_recoverable(tokens)
            has_notes = any(True for _ in decoded.score.notes())
            valid = bool(decoded.score.measures) and has_notes
            rows.append({"piece": row["piece"], "var": var_id,
                         "tokens": tokens, "valid": valid})
            if valid:
                n_valid += 1
                write_musicxml(decoded.score, str(scores_dir / f"{var_id}.musicxml"))
    _write_jsonl(out_dir / "variations.jsonl", rows)
    _write_manifest(out_dir, args, [Path(args.checkpoint), Path(args.vocab),
                                    Path(args.skylines), Path(args.profiles)])
    print(f"sampled {len(rows)} variations ({n_valid} valid) -> {out_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    orig_post = {r["piece"]: r for r in _read_jsonl(args.original_posteriors, "piece", "level")}
    var_post = {r["piece"]: r for r in _read_jsonl(args.variation_posteriors, "piece", "level")}
    orig_emb = style.load_embeddings(args.original_embeddings)
    var_emb = style.load_embeddings(args.variation_embeddings)
    genres: dict[str, str] = {}
    if args.corpus:
        for name, score in _load_corpus(Path(args.corpus)):
            genres[name] = score.genre or ""
    records: list[report.OutcomeRecord] = []
    for run in args.runs:
        run_dir = Path(run)
        rep = mining.load_report(str(run_dir / "report.json"))
        pairs = mining.load_pairs(str(run_dir / "pairs.jsonl"))
        seen: set[str] = set()
        for pair in pairs:
            if pair.easy in seen:
                continue
            seen.add(pair.easy)
            if pair.piece not in orig_post:
                raise CliError(f"no original posterior for {pair.piece}")
            if pair.easy not in var_post:
                raise CliError(f"no variation posterior for {pair.easy}")
            if pair.piece not in orig_emb:
                raise CliError(f"no original embedding for {pair.piece}")
            if pair.easy not in var_emb:
                raise CliError(f"no variation embedding for {pair.easy}")
            original_level = int(orig_post[pair.piece]["level"])
            predicted_level = int(var_post[pair.easy]["level"])
            distance = style.style_distance(orig_emb[pair.piece], var_emb[pair.easy])
            records.append(report.OutcomeRecord.build(
                piece=pair.piece, variation=pair.easy,
                original_level=original_level, predicted_level=predicted_level,
                distance=distance, genre=genres.get(pair.piece, ""),
                strategy=rep.strategy, gap=rep.min_gap))
    if not records:
        raise CliError("no evaluable records in the given runs")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.save_records(str(out_dir / "records.jsonl"), records)
    group_by = tuple(args.group_by.split(","))
    rows = report.aggregate(records, group_by=group_by)
    (out_dir / "report.csv").write_text(report.render_report(rows, "csv"),
                                        encoding="utf-8")
    (out_dir / "report.md").write_text(report.render_report(rows, "markdown"),
                                       encoding="utf-8")
    inputs = [Path(r) for r in args.runs] + [
        Path(args.original_posteriors), Path(args.variation_posteriors),
        Path(args.original_embeddings), Path(args.variation_embeddings)]
    if args.corpus:
        inputs.append(Path(args.corpus))
    _write_manifest(out_dir, args, inputs)
    print(f"{len(records)} records, {len(rows)} report rows -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradus",
        description="Two-staff score tokenization, difficulty and pair mining pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fixtures", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--pieces", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_gen_fixtures)

    p = sub.add_parser("parse", help="validate scores and print summaries")
    p.add_argument("files", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_parse)

    p_lmx = sub.add_parser("lmx", help="token codec")
    lmx_sub = p_lmx.add_subparsers(dest="lmx_command", required=True)
    p = lmx_sub.add_parser("encode", help="corpus -> token streams + vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_lmx_encode)
    p = lmx_sub.add_parser("decode", help="token streams -> MusicXML files")
    p.add_argument("--tokens", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_lmx_decode)

    p = sub.add_parser("skyline", help="extract melodic skylines")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_skyline)

    p = sub.add_parser("profile", help="pitch-class profiles, optionally jittered")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--noise-scale", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("features", help="difficulty feature vectors")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("fit-gnb", help="fit the difficulty model")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", help="piece->level JSONL; synthesized when omitted")
    p.add_argument("--holdout-fraction", type=float, default=0.25)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_fit_gnb)

    p = sub.add_parser("classify", help="difficulty posteriors for feature rows")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("embed", help="baseline style embeddings")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("mine-pairs", help="difficulty-ordered pair mining")
    p.add_argument("--variations", required=True)
    p.add_argument("--posteriors", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--strategy", choices=mining.STRATEGIES, default="filtered")
    p.add_argument("--min-gap", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_mine_pairs)

    p = sub.add_parser("build-seqs", help="assemble training sequences")
    p.add_argument("--mode", choices=("conditioned", "adaptation"), required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tokens", help="skyline token JSONL (conditioned mode)")
    p.add_argument("--profiles", help="profile JSONL (conditioned mode)")
    p.add_argument("--pairs", help="mined pairs JSONL (adaptation mode)")
    p.add_argument("--variations", help="variation token JSONL (adaptation mode)")
    p.add_argument("--max-len", type=int, default=seqbuild.MAX_ADAPTATION_LEN)
    p.add_argument("--no-level-tokens", action="store_true")
    p.set_defaults(func=_cmd_build_seqs)

    p = sub.add_parser("train", help="train the token model")
    p.add_argument("--seqs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=6e-4)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--n-layers", type=int, default=2)
    p.add_argument("--n-heads", type=int, default=4)
    p.add_argument("--d-ff", type=int, default=256)
    p.add_argument("--context", type=int, default=4096,
                   help="inference length bound; rotary encoding has no length cost")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sample", help="draw conditioned variations per piece")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--skylines", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--max-new", type=int, default=256)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("evaluate", help="score variations against originals")
    p.add_argument("--runs", nargs="+", required=True,
                   help="mine-pairs output directories")
    p.add_argument("--original-posteriors", required=True)
    p.add_argument("--variation-posteriors", required=True)
    p.add_argument("--original-embeddings", required=True)
    p.add_argument("--variation-embeddings", required=True)
    p.add_argument("--corpus", help="original corpus dir, enables genre grouping")
    p.add_argument("--group-by", default="strategy,gap")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def _check_mode_args(args) -> None:
    if getattr(args, "command", "") == "build-seqs":
        if args.mode == "conditioned":
            missing = [n for n in ("tokens", "profiles") if not getattr(args, n)]
        else:
            missing = [n for n in ("pairs", "variations") if not getattr(args, n)]
        if missing:
            raise CliError(f"--{missing[0]} is required for mode {args.mode}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_mode_args(args)
        return args.func(args)
    except Exception as exc:  # single-line machine-parseable failure contract
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
