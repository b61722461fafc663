"""Command-line pipeline driver.

Every subcommand reads artifacts produced by earlier stages and writes
its own.  Each subparser names its input arguments once
(``set_defaults(inputs=...)``); :func:`main` creates the output directory
(or an output file's parent) before the stage runs and, once the stage
succeeds, writes a manifest derived from the parsed arguments: the
command, every option, the seed and SHA-256 digests of the declared
inputs.  An output directory gets ``manifest.json``; an output file ``F``
gets ``F.manifest.json``.  Manifests carry no timestamps, so identical
runs produce byte-identical artifacts.

Failures print a single JSON line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import (__version__, analysis, fixtures, gnb, interchange, lmx, mining, model, report,
               seqbuild, style)
from .score import (Score, ScoreError, quarter_text, read_musicxml, validate_two_staff,
                    write_musicxml)

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


def _input_digests(args: argparse.Namespace) -> dict[str, str]:
    """Digests of the paths held by the arguments ``args.inputs`` names.

    An unset optional input is skipped and each of a list's paths counts;
    a directory gets ``dir:`` and a digest over its files other than
    manifests, which hold the paths of the run that wrote them.
    """
    out: dict[str, str] = {}
    for name in args.inputs:
        value = getattr(args, name) or []
        for path in map(Path, value if isinstance(value, list) else [value]):
            if path.is_dir():
                agg = hashlib.sha256()
                for child in sorted(p for p in path.iterdir() if p.is_file() and not (
                        p.name == "manifest.json" or p.name.endswith(".manifest.json"))):
                    agg.update(child.name.encode())
                    agg.update(bytes.fromhex(_sha256(child)))
                out[str(path)] = "dir:" + agg.hexdigest()
            else:
                out[str(path)] = _sha256(path)
    return out


# keys argparse sets for dispatch and input declaration, plus the seed, which
# the manifest keeps top-level
_PARSER_KEYS = ("func", "inputs", "command", "lmx_command", "seed")


def _write_manifest(out: Path, args: argparse.Namespace) -> None:
    """Record the parsed arguments that produced ``out``.

    A directory gets ``DIR/manifest.json``; a file ``F`` gets
    ``F.manifest.json`` beside it, so stages sharing a directory keep
    one manifest each.
    """
    manifest = {
        "command": " ".join(filter(None, (args.command, getattr(args, "lmx_command", None)))),
        "args": {k: v for k, v in vars(args).items() if k not in _PARSER_KEYS},
        "seed": getattr(args, "seed", None),
        "inputs": _input_digests(args),
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


def _per_piece(fn, path: Path) -> tuple[str, object]:
    """``(stem, fn(score))`` for one file; module level so it pickles for --jobs.

    A :class:`ScoreError` is raised again as its own class with the file's
    path in front, unless its message already starts with it (a file that
    cannot be read).
    """
    try:
        score = validate_two_staff(read_musicxml(str(path)))
    except ScoreError as exc:
        if str(exc).startswith(f"{path}: "):
            raise
        raise type(exc)(f"{path}: {exc}") from exc
    return path.stem, fn(score)


def _map_corpus(fn, corpus: str, jobs: int = 1) -> list[tuple[str, object]]:
    """``(stem, fn(score))`` per corpus file in name order, across ``jobs`` processes."""
    paths = _corpus_paths(Path(corpus))
    work = functools.partial(_per_piece, fn)
    if jobs <= 1 or len(paths) <= 1:
        return [work(path) for path in paths]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(work, paths))


def _keyed(path: str, key: str, *required: str) -> dict[str, dict]:
    """The rows of the JSONL at ``path`` by their ``key`` field; a repeated key
    raises :class:`CliError` at ``path:line``."""
    table: dict[str, dict] = {}
    for where, row in interchange.read_jsonl(path, CliError, key, *required):
        if row[key] in table:
            raise CliError(f"{where}: duplicate {key} {row[key]!r}")
        table[row[key]] = row
    return table


@contextlib.contextmanager
def _located_rows(wheres: Sequence[str]):
    """Report a :class:`gnb.ModelError` about row ``i`` of a model's input at ``wheres[i]``."""
    try:
        yield
    except gnb.ModelError as exc:
        if exc.row is None:
            raise
        raise CliError(f"{wheres[exc.row]}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_gen_fixtures(args) -> None:
    if args.pieces < 1:
        raise CliError("--pieces must be positive")
    scores = fixtures.generate_corpus(args.pieces, seed=args.seed)
    fixtures.write_corpus(args.out, scores)
    print(f"wrote {len(scores)} pieces to {args.out}")


def _cmd_lmx_encode(args) -> None:
    rows = [{"piece": name, "tokens": tokens}
            for name, tokens in _map_corpus(lmx.encode, args.corpus, args.jobs)]
    out_dir = Path(args.out_dir)
    interchange.write_jsonl(out_dir / "tokens.jsonl", rows)
    vocab = lmx.Vocabulary.from_corpus([r["tokens"] for r in rows])
    vocab.save(str(out_dir / "vocab.txt"))
    print(f"encoded {len(rows)} pieces; vocabulary size {len(vocab)}")


def _cmd_lmx_decode(args) -> None:
    rows = list(interchange.read_jsonl(args.tokens, CliError, "piece", "tokens"))
    out_dir = Path(args.out_dir)
    for where, row in rows:
        try:
            score = lmx.decode(row["tokens"])
        except lmx.DecodeError as exc:
            raise CliError(f"{where}: {exc}") from exc
        write_musicxml(score, str(out_dir / f"{row['piece']}.musicxml"))
    print(f"decoded {len(rows)} pieces to {out_dir}")


def _skyline_row(score: Score) -> dict:
    line = analysis.skyline(score)
    return {
        "notes": [[quarter_text(n.onset), quarter_text(n.duration),
                   None if n.pitch is None else n.pitch.midi_number]
                  for n in line],
        "tokens": lmx.encode(analysis._skyline_score_of(score, line)),
    }


def _cmd_skyline(args) -> None:
    rows = [{"piece": name, **row} for name, row in _map_corpus(_skyline_row, args.corpus)]
    interchange.write_jsonl(args.out, rows)
    print(f"skylines for {len(rows)} pieces -> {args.out}")


def _cmd_profile(args) -> None:
    rng = np.random.default_rng(args.seed)
    rows = []
    for name, profile in _map_corpus(analysis.pitch_class_profile, args.corpus):
        row = {"piece": name, "profile": [float(v) for v in profile]}
        if args.noise_scale > 0:
            jittered = analysis.perturb_profile(profile, rng, args.noise_scale)
            row["perturbed"] = [float(v) for v in jittered]
        rows.append(row)
    interchange.write_jsonl(args.out, rows)
    print(f"profiles for {len(rows)} pieces -> {args.out}")


def _cmd_features(args) -> None:
    rows = [{"piece": name, "features": [float(v) for v in vec]}
            for name, vec in _map_corpus(analysis.feature_vector, args.corpus, args.jobs)]
    interchange.write_jsonl(args.out, rows)
    print(f"features for {len(rows)} pieces -> {args.out}")


# the share of fit-gnb's rows held out to calibrate the temperature
_HOLDOUT_FRACTION = 0.25


def _cmd_fit_gnb(args) -> None:
    located = list(interchange.read_jsonl(args.features, CliError, "piece", "features"))
    names = [r["piece"] for _, r in located]
    x = np.array([r["features"] for _, r in located], dtype=np.float64)
    if args.labels:
        by_piece = _keyed(args.labels, "piece", "level")
        missing = [n for n in names if n not in by_piece]
        if missing:
            raise CliError(f"labels missing for {missing[:5]}")
        y = np.array([by_piece[n]["level"] for n in names], dtype=np.int64)
    else:
        y = gnb.quantile_levels(gnb.difficulty_proxy(x))
    order = np.random.default_rng(args.seed).permutation(len(names))
    holdout, trainrows = np.split(order, [max(2, round(_HOLDOUT_FRACTION * len(names)))])
    levels = set(y.tolist())
    counts = Counter(y[trainrows].tolist())
    # why the temperature stays at 1, if it does; gnb.fit needs two rows of every level
    if len(trainrows) < 2 * len(levels):
        uncalibrated = "corpus too small for a holdout"
    elif any(counts[level] < 2 for level in levels):
        uncalibrated = "split starved a level"
    else:
        uncalibrated = ""
    if uncalibrated:
        trainrows = order
        fitted = gnb.fit(x, y)
    else:
        fitted = gnb.fit(x[trainrows], y[trainrows])
        with _located_rows([located[i][0] for i in holdout]):
            fitted = gnb.fit_temperature(fitted, x[holdout], y[holdout])
    out_dir = Path(args.out_dir)
    gnb.save_model(fitted, str(out_dir / "model.json"))
    interchange.write_jsonl(out_dir / "labels.jsonl",
                            [{"piece": n, "level": int(v)} for n, v in zip(names, y)])
    msg = f"fitted on {len(trainrows)} pieces, temperature {fitted.temperature:.3f}"
    if uncalibrated:
        msg += f" (not calibrated: {uncalibrated})"
    for end, bound in zip(("lower", "upper"), gnb.TEMPERATURE_RANGE):
        if abs(fitted.temperature - bound) <= gnb.TEMPERATURE_TOL:
            msg += f" (on the {end} bound of the search range)"
    print(msg)


def _cmd_classify(args) -> None:
    located = list(interchange.read_jsonl(args.features, CliError, "piece", "features"))
    fitted = gnb.load_model(args.model)
    x = np.array([r["features"] for _, r in located], dtype=np.float64)
    with _located_rows([where for where, _ in located]):
        joint = fitted.log_joint(x)
        posterior = fitted.posterior(x, joint=joint)
    levels = fitted.predict(x, joint=joint)
    out_rows = []
    for (_, r), level, post in zip(located, levels, posterior):
        out_rows.append({"piece": r["piece"], "level": int(level),
                         "confidence": float(post.max()),
                         "posterior": [float(v) for v in post]})
    interchange.write_jsonl(args.out, out_rows)
    print(f"classified {len(out_rows)} pieces -> {args.out}")


def _cmd_embed(args) -> None:
    embeddings = dict(_map_corpus(style.baseline_embed, args.corpus, args.jobs))
    style.save_embeddings(args.out, embeddings)
    print(f"embedded {len(embeddings)} pieces -> {args.out}")


def _cmd_mine_pairs(args) -> None:
    variations = interchange.read_jsonl(args.variations, CliError, "piece", "var")
    posteriors = _keyed(args.posteriors, "piece", "level", "confidence")
    embeddings = style.load_embeddings(args.embeddings)
    pool = []
    seen: set[tuple[str, str]] = set()
    for where, row in variations:
        if "same_as" in row and (row["piece"], row["same_as"]) not in seen:
            raise CliError(f"{where}: same_as {row['same_as']!r} names no earlier "
                           f"variation of piece {row['piece']!r}")
        seen.add((row["piece"], row["var"]))
        if "same_as" in row or not row.get("valid", True):
            continue
        var_id = row["var"]
        if var_id not in posteriors:
            raise CliError(f"no posterior for variation {var_id}")
        if var_id not in embeddings:
            raise CliError(f"no embedding for variation {var_id}")
        post = posteriors[var_id]
        pool.append(mining.Variation(
            id=var_id, piece=row["piece"], level=post["level"],
            confidence=post["confidence"], embedding=embeddings[var_id]))
    pairs, rep = mining.mine(pool, strategy=args.strategy, min_gap=args.min_gap)
    out_dir = Path(args.out_dir)
    mining.save_pairs(str(out_dir / "pairs.jsonl"), pairs)
    mining.save_report(str(out_dir / "report.json"), rep)
    print(f"{args.strategy} gap>={args.min_gap}: {rep.counts['raw']} raw -> "
          f"{len(pairs)} kept")


def _cmd_build_seqs(args) -> None:
    vocab = lmx.Vocabulary.load(args.vocab)
    samples: list[seqbuild.Sample] = []
    skipped: list[str] = []
    if args.mode == "conditioned":
        tokens_rows = interchange.read_jsonl(args.tokens, CliError, "piece", "tokens")
        profiles = _keyed(args.profiles, "piece", "profile")
        for _, row in tokens_rows:
            prof = profiles.get(row["piece"])
            if prof is None:
                raise CliError(f"no profile for piece {row['piece']}")
            harmony = np.array(prof.get("perturbed", prof["profile"]))
            samples.append(seqbuild.conditioned_sample(
                vocab, row["tokens"], harmony, piece=row["piece"]))
    else:
        pairs = mining.load_pairs(args.pairs)
        tokens_by_id = {var: r["tokens"]
                        for var, r in _keyed(args.variations, "var", "tokens").items()}
        samples, skipped = seqbuild.adaptation_samples(vocab, pairs, tokens_by_id)
    if not samples:
        raise CliError("no training sequences could be built")
    ids, mask, harmony = seqbuild.collate(samples, vocab)
    interchange.write_npz(args.out, {
        "ids": ids, "mask": mask, "harmony": harmony,
        "lengths": np.array([len(s) for s in samples], dtype=np.int64),
        "pieces": [s.piece for s in samples]})
    msg = f"built {len(samples)} {args.mode} sequences -> {args.out}"
    if skipped:
        msg += f" ({len(skipped)} pairs skipped)"
    print(msg)


# each array train reads from a build-seqs file: its dtype kinds and rank
_SEQ_ARRAYS = {"ids": ("iu", 2), "mask": ("iu", 2), "harmony": ("f", 2), "lengths": ("iu", 1)}


def _cmd_train(args) -> None:
    if args.batch_size < 1:
        raise CliError("--batch-size must be positive")
    vocab = lmx.Vocabulary.load(args.vocab)
    seqs = interchange.read_npz(args.seqs, CliError, "sequence file", _SEQ_ARRAYS)
    ids, mask, harmony, lengths = (seqs[name] for name in _SEQ_ARRAYS)
    n, width = ids.shape
    for name, fits, expected in (
            ("ids", n and ((ids >= 0) & (ids < len(vocab))).all(),
             f"hold a row or more of ids in [0, {len(vocab)})"),
            ("mask", mask.shape == ids.shape, f"be shaped as 'ids', {ids.shape}"),
            ("harmony", harmony.shape == (n, 12), f"be shaped {(n, 12)}"),
            ("lengths", lengths.shape == (n,) and ((lengths >= 1) & (lengths <= width)).all(),
             f"be shaped {(n,)} and hold lengths in [1, {width}]")):
        if not fits:
            raise CliError(f"{args.seqs}: sequence file array {name!r} must {expected}")
    config = model.ModelConfig(
        vocab_size=len(vocab), d_model=args.d_model, n_heads=args.n_heads,
        n_layers=args.n_layers, d_ff=args.d_ff,
        max_len=max(int(lengths.max()), args.context))
    lm = model.TinyLM.create(config, seed=args.seed)
    b, starts = args.batch_size, range(0, n, args.batch_size)
    batches = [(ids[lo:lo + b, :w], mask[lo:lo + b, :w], harmony[lo:lo + b])
               for lo, w in zip(starts, np.maximum.reduceat(lengths, starts))]
    out_dir = Path(args.out_dir)
    losses = model.train(lm, batches, steps=args.steps, lr=args.lr, seed=args.seed)
    with open(out_dir / "train_log.csv", "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(losses, start=1):
            fh.write(f"{step},{loss:.6f}\n")
    model.save_checkpoint(str(out_dir / "checkpoint.npz"), lm, step=len(losses))
    print(f"trained {len(losses)} steps, final loss {losses[-1]:.4f}")


def _cmd_sample(args) -> None:
    vocab = lmx.Vocabulary.load(args.vocab)
    lm, _, _ = model.load_checkpoint(args.checkpoint)
    if len(vocab) != lm.config.vocab_size:
        raise CliError(f"{args.vocab}: vocabulary has {len(vocab)} tokens but checkpoint "
                       f"{args.checkpoint} was trained on {lm.config.vocab_size}")
    skyline_rows = list(interchange.read_jsonl(args.skylines, CliError, "piece"))
    profiles = _keyed(args.profiles, "piece", "profile")
    out_dir = Path(args.out_dir)
    scores_dir = out_dir / "scores"
    scores_dir.mkdir(exist_ok=True)
    prefix = vocab.encode_ids(seqbuild.CONDITIONING_PREFIX)
    end_id = vocab.id(lmx.EOS)
    max_new = min(args.max_new, lm.config.max_len - len(prefix))
    if max_new < 1:
        raise CliError("model context leaves no room to generate")
    rows = []
    n_distinct = 0
    seed_rng = np.random.default_rng(args.seed)
    piece_seeds = seed_rng.integers(0, 2 ** 31, size=len(skyline_rows))
    for (_, row), piece_seed in zip(skyline_rows, piece_seeds):
        prof = profiles.get(row["piece"])
        if prof is None:
            raise CliError(f"no profile for piece {row['piece']}")
        harmony = np.array(prof["profile"], dtype=np.float64)
        piece_seed = int(piece_seed)
        result = model.sample(
            lm, prefix, n_sequences=args.n, max_new_tokens=max_new,
            end_id=end_id, temperature=args.temperature,
            seed=piece_seed, harmony=harmony)
        first: dict[tuple[int, ...], dict] = {}
        for k, seq in enumerate(result.sequences):
            var_id = f"{row['piece']}.v{k:03d}"
            var = {"piece": row["piece"], "var": var_id, "tokens": vocab.decode_ids(seq)}
            earlier = first.setdefault(tuple(seq), var)
            if earlier is not var:
                # a repeat is graded and mined as the draw it repeats
                var.update(valid=earlier["valid"], same_as=earlier["var"])
            else:
                decoded = lmx.decode_recoverable(var["tokens"])
                var["valid"] = bool(decoded.score.measures) and any(
                    True for _ in decoded.score.notes())
                if var["valid"]:
                    write_musicxml(decoded.score, str(scores_dir / f"{var_id}.musicxml"))
            rows.append(var)
        n_distinct += len(first)
    interchange.write_jsonl(out_dir / "variations.jsonl", rows)
    n_valid = sum(r["valid"] for r in rows)
    print(f"sampled {len(rows)} variations ({n_valid} valid, {n_distinct} distinct) "
          f"-> {out_dir}")


def _cmd_evaluate(args) -> None:
    orig_post, var_post = (_keyed(path, "piece", "level")
                           for path in (args.original_posteriors, args.variation_posteriors))
    orig_emb = style.load_embeddings(args.original_embeddings)
    var_emb = style.load_embeddings(args.variation_embeddings)
    genres = dict(_map_corpus(lambda score: score.genre or "", args.corpus)) if args.corpus else {}
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
            distance = style.style_distance(orig_emb[pair.piece], var_emb[pair.easy])
            records.append(report.OutcomeRecord(
                piece=pair.piece, variation=pair.easy,
                original_level=orig_post[pair.piece]["level"],
                predicted_level=var_post[pair.easy]["level"],
                distance=distance, genre=genres.get(pair.piece, ""),
                strategy=rep.strategy, gap=rep.min_gap))
    if not records:
        raise CliError("no evaluable records in the given runs")
    out_dir = Path(args.out_dir)
    report.save_records(str(out_dir / "records.jsonl"), records)
    rows = report.aggregate(records)
    (out_dir / "report.csv").write_text(report.render_report(rows, "csv"),
                                        encoding="utf-8")
    (out_dir / "report.md").write_text(report.render_report(rows, "markdown"),
                                       encoding="utf-8")
    print(f"{len(records)} records, {len(rows)} report rows -> {out_dir}")


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
    p.set_defaults(func=_cmd_gen_fixtures, inputs=())

    p_lmx = sub.add_parser("lmx", help="token codec")
    lmx_sub = p_lmx.add_subparsers(dest="lmx_command", required=True)
    p = lmx_sub.add_parser("encode", help="corpus -> token streams + vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_lmx_encode, inputs=("corpus",))
    p = lmx_sub.add_parser("decode", help="token streams -> MusicXML files")
    p.add_argument("--tokens", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_lmx_decode, inputs=("tokens",))

    p = sub.add_parser("skyline", help="extract melodic skylines")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_skyline, inputs=("corpus",))

    p = sub.add_parser("profile", help="pitch-class profiles, optionally jittered")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--noise-scale", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_profile, inputs=("corpus",))

    p = sub.add_parser("features", help="difficulty feature vectors")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_features, inputs=("corpus",))

    p = sub.add_parser("fit-gnb", help="fit the difficulty model")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", help="piece->level JSONL; synthesized when omitted")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_fit_gnb, inputs=("features", "labels"))

    p = sub.add_parser("classify", help="difficulty posteriors for feature rows")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify, inputs=("model", "features"))

    p = sub.add_parser("embed", help="baseline style embeddings")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_embed, inputs=("corpus",))

    p = sub.add_parser("mine-pairs", help="difficulty-ordered pair mining")
    p.add_argument("--variations", required=True)
    p.add_argument("--posteriors", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--strategy", choices=mining.STRATEGIES, default="filtered")
    p.add_argument("--min-gap", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_mine_pairs, inputs=("variations", "posteriors", "embeddings"))

    p = sub.add_parser("build-seqs", help="assemble training sequences")
    p.add_argument("--mode", choices=("conditioned", "adaptation"), required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tokens", help="skyline token JSONL (conditioned mode)")
    p.add_argument("--profiles", help="profile JSONL (conditioned mode)")
    p.add_argument("--pairs", help="mined pairs JSONL (adaptation mode)")
    p.add_argument("--variations", help="variation token JSONL (adaptation mode)")
    p.set_defaults(func=_cmd_build_seqs,
                   inputs=("tokens", "profiles", "pairs", "variations", "vocab"))

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
    p.set_defaults(func=_cmd_train, inputs=("seqs", "vocab"))

    p = sub.add_parser("sample", help="draw conditioned variations per piece")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--skylines", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--max-new", type=int, default=256)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_sample, inputs=("checkpoint", "vocab", "skylines", "profiles"))

    p = sub.add_parser("evaluate", help="score variations against originals")
    p.add_argument("--runs", nargs="+", required=True,
                   help="mine-pairs output directories")
    p.add_argument("--original-posteriors", required=True)
    p.add_argument("--variation-posteriors", required=True)
    p.add_argument("--original-embeddings", required=True)
    p.add_argument("--variation-embeddings", required=True)
    p.add_argument("--corpus", help="original corpus dir, records each piece's genre")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_evaluate,
                   inputs=("runs", "original_posteriors", "variation_posteriors",
                           "original_embeddings", "variation_embeddings", "corpus"))

    return parser


_MODE_FILES = {"conditioned": ("tokens", "profiles"), "adaptation": ("pairs", "variations")}


def _check_mode_args(args) -> None:
    """``build-seqs`` takes its mode's files, and none of the other mode's."""
    if args.command == "build-seqs":
        for mode, names in _MODE_FILES.items():
            for name in names:
                if mode == args.mode and not getattr(args, name):
                    raise CliError(f"--{name} is required for mode {args.mode}")
                if mode != args.mode and getattr(args, name):
                    raise CliError(f"--{name} is not used by mode {args.mode}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_mode_args(args)
        out = Path(args.out_dir) if "out_dir" in args else Path(args.out)
        (out if "out_dir" in args else out.parent).mkdir(parents=True, exist_ok=True)
        args.func(args)
        _write_manifest(out, args)
        return 0
    except Exception as exc:  # single-line machine-parseable failure contract
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
