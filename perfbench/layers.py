"""Which gradus functions the benchmark wraps, and the per-layer metrics.

Two sets of wrappers exist.  ``install_probes`` wraps the two model entry
points whose results the end-to-end metrics and output checks need
(trained tokens, generated tokens); they fire once per training step or
sampling call and stay on in every run.  ``install_trace`` adds a span around every
public function of each layer for the traced run.  Per-item helpers called
in inner loops (``cosine_similarity``, ``classify_outcome``) are not
wrapped, so the trace stays cheap.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from spans import Tracer

CLI_STAGES = ("gen-fixtures", "lmx-encode", "lmx-decode", "skyline", "profile",
              "build-seqs", "train", "sample", "features", "fit-gnb", "classify",
              "embed", "mine-pairs", "evaluate")

PAD_ID = 0   # lmx.Vocabulary reserves id 0 for [PAD]

# (module, function names) whose every call gets a span in the traced run
TRACED_FUNCTIONS = {
    "score": ("read_musicxml", "parse_musicxml", "write_musicxml",
              "serialize_musicxml", "validate_two_staff", "timeline"),
    "lmx": ("encode", "decode", "decode_recoverable"),
    "analysis": ("skyline", "skyline_score", "pitch_class_profile",
                 "profile_from_skyline", "perturb_profile", "feature_vector"),
    "style": ("baseline_embed", "save_embeddings", "load_embeddings"),
    "gnb": ("fit", "fit_temperature", "confidence_filter", "difficulty_proxy",
            "quantile_levels", "save_model", "load_model"),
    "mining": ("mine", "save_pairs", "load_pairs", "save_report", "load_report"),
    "seqbuild": ("conditioned_sample", "adaptation_samples", "adaptation_sample",
                 "collate"),
    "model": ("save_checkpoint", "load_checkpoint"),
    "report": ("aggregate", "render_report", "save_records"),
}


@dataclass
class LayerRecord:
    """Per-call facts the spans alone do not carry, in call order."""

    timeline_measures: list[int] = field(default_factory=list)
    extend_new: list[int] = field(default_factory=list)
    train_real: int = 0
    train_slots: int = 0
    attn_bytes: int = 0
    generated: int = 0

    def clear(self) -> None:
        self.timeline_measures.clear()
        self.extend_new.clear()
        self.train_real = self.train_slots = self.attn_bytes = self.generated = 0


def install_probes(tracer: Tracer, g, rec: LayerRecord) -> None:
    """Wrappers that feed the end-to-end metrics and checks."""

    def on_step(args, kwargs, result):
        lm, ids = args[0], np.asarray(args[1])
        rec.train_real += int(np.count_nonzero(ids != PAD_ID))
        rec.train_slots += int(ids.size)
        b, t = ids.shape
        rec.attn_bytes = max(rec.attn_bytes, 8 * b * lm.config.n_heads * (t - 1) ** 2)

    def on_sample(args, kwargs, result):
        rec.generated += sum(len(seq) for seq in result.sequences)

    tracer.patch_function(g.model, "sample", "model.sample", on_sample)
    tracer.patch_method(g.model.TinyLM, "loss_and_grads", "model.loss_and_grads", on_step)


def install_trace(tracer: Tracer, g, rec: LayerRecord) -> None:
    """Spans around every public function of every layer."""
    for layer, names in TRACED_FUNCTIONS.items():
        module = getattr(g, layer)
        for name in names:
            hook = None
            if (layer, name) == ("score", "timeline"):
                hook = _on_timeline(rec)
            elif layer == "lmx":
                hook = _on_codec(tracer, name)
            elif (layer, name) == ("mining", "mine"):
                hook = _on_mine(tracer)
            elif (layer, name) == ("seqbuild", "collate"):
                hook = _on_collate(tracer)
            tracer.patch_function(module, name, f"{layer}.{name}", hook)

    def on_extend(args, kwargs, result):
        lm, cache, ids = args[0], args[1], np.asarray(args[2])
        b, s = ids.shape
        rec.extend_new.append(s)
        if s > 1:
            total = cache["n"]
            rec.attn_bytes = max(rec.attn_bytes, 8 * b * lm.config.n_heads * s * total)

    tracer.patch_method(g.model.TinyLM, "extend", "model.extend", on_extend)
    tracer.patch_method(g.model.AdamW, "update", "model.adamw")
    tracer.patch_method(g.gnb.GaussianNB, "posterior", "gnb.posterior")


def _on_timeline(rec: LayerRecord):
    def hook(args, kwargs, result):
        rec.timeline_measures.append(len(args[0].measures))
    return hook


def _on_codec(tracer: Tracer, name: str):
    def hook(args, kwargs, result):
        tracer.count("lmx.tokens", len(result) if name == "encode" else len(args[0]))
    return hook


def _on_mine(tracer: Tracer):
    def hook(args, kwargs, result):
        pairs, report = result
        tracer.count("mining.pairs_raw", report.counts["raw"])
        tracer.count("mining.pairs_kept", len(pairs))
    return hook


def _on_collate(tracer: Tracer):
    def hook(args, kwargs, result):
        tracer.count("seqbuild.tokens", sum(len(s) for s in args[0]))
    return hook


# ---------------------------------------------------------------------------
# Metrics

def _median_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def _slope(sizes: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(time) on log(size); 0 with fewer than 2 sizes."""
    if len(set(sizes)) < 2:
        return 0.0
    x = np.log(np.asarray(sizes, dtype=np.float64))
    y = np.log(np.maximum(np.asarray(seconds), 1e-9))
    return float(np.polyfit(x, y, 1)[0])


def layer_metrics(tracer: Tracer, rec: LayerRecord,
                  base_measures: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as ``{name: (value, unit)}``.

    Layers a workload does not run read 0.
    """
    t = tracer
    out: dict[str, tuple[float, str]] = {}
    for stage in CLI_STAGES:
        out[f"cli.{stage}.s"] = (sum(t.durations(f"cli.{stage}")), "s")

    tl = t.durations("score.timeline")
    sizes = rec.timeline_measures

    def tl_ms(measures: int) -> float:
        return _median_ms([d for d, m in zip(tl, sizes) if m == measures])

    out["score.timeline.calls"] = (len(tl), "count")
    out["score.timeline.self_s"] = (t.self_s("score.timeline"), "s")
    out["score.timeline.ms.x1"] = (tl_ms(base_measures), "ms")
    out["score.timeline.ms.x8"] = (tl_ms(8 * base_measures), "ms")
    out["score.timeline.scaling_exp"] = (_slope(sizes, tl), "1")
    out["score.read_musicxml.s"] = (sum(t.durations("score.read_musicxml")), "s")
    out["score.write_musicxml.s"] = (sum(t.durations("score.write_musicxml")), "s")

    out["lmx.encode.s"] = (sum(t.durations("lmx.encode")), "s")
    out["lmx.decode.s"] = (sum(t.durations("lmx.decode"))
                           + sum(t.durations("lmx.decode_recoverable")), "s")
    out["lmx.tokens"] = (t.counters.get("lmx.tokens", 0.0), "count")

    for name in ("skyline", "pitch_class_profile", "feature_vector"):
        out[f"analysis.{name}.calls"] = (t.calls(f"analysis.{name}"), "count")
        out[f"analysis.{name}.self_s"] = (t.self_s(f"analysis.{name}"), "s")

    embed = t.durations("style.baseline_embed")
    out["style.baseline_embed.self_s"] = (t.self_s("style.baseline_embed"), "s")
    out["style.baseline_embed.ms_per_score"] = (
        1000.0 * sum(embed) / len(embed) if embed else 0.0, "ms")

    out["gnb.fit.s"] = (sum(t.durations("gnb.fit"))
                        + sum(t.durations("gnb.fit_temperature")), "s")
    out["gnb.posterior.s"] = (t.outer_s("gnb.posterior"), "s")

    raw = t.counters.get("mining.pairs_raw", 0.0)
    kept = t.counters.get("mining.pairs_kept", 0.0)
    out["mining.mine.s"] = (sum(t.durations("mining.mine")), "s")
    out["mining.pairs_raw"] = (raw, "count")
    out["mining.pairs_kept"] = (kept, "count")
    out["mining.keep_ratio"] = (kept / raw if raw else 0.0, "1")

    out["seqbuild.build.s"] = (t.outer_s("seqbuild."), "s")
    out["seqbuild.tokens"] = (t.counters.get("seqbuild.tokens", 0.0), "count")

    steps = [a + b for a, b in zip(t.durations("model.loss_and_grads"),
                                   t.durations("model.adamw"))]
    ext = t.durations("model.extend")
    out["model.train_step.ms"] = (_median_ms(steps), "ms")
    out["model.adamw.self_s"] = (t.self_s("model.adamw"), "s")
    out["model.train.real_token_frac"] = (
        rec.train_real / rec.train_slots if rec.train_slots else 0.0, "1")
    out["model.prefill.ms"] = (_median_ms([d for d, s in zip(ext, rec.extend_new) if s > 1]), "ms")
    out["model.decode.ms_per_token"] = (
        _median_ms([d for d, s in zip(ext, rec.extend_new) if s == 1]), "ms")
    out["model.tokens_generated"] = (rec.generated, "count")
    out["model.attn_array_mib"] = (rec.attn_bytes / 2 ** 20, "MiB")

    out["report.aggregate.s"] = (sum(t.durations("report.aggregate")), "s")
    for name, (value, _) in out.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is not finite")
    return {name: (float(value), unit) for name, (value, unit) in out.items()}
