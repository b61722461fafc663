"""Train the toy language model on conditioned sequences and sample from it.

Everything runs on one CPU core in well under a minute. The model is a
contract-checking stand-in for a real generator, not a musical one: the
point is that masking, conditioning and sampling behave exactly as the
larger setup expects.
"""

import numpy as np

from gradus import seqbuild
from gradus.analysis import pitch_class_profile, skyline_score
from gradus.fixtures import generate_corpus
from gradus.lmx import Vocabulary, decode, encode
from gradus.model import ModelConfig, TinyLM, sample, train

corpus = generate_corpus(n=6, seed=42)
streams = [encode(s) for s in corpus]
vocab = Vocabulary.from_corpus(streams)

samples = []
for score, st in zip(corpus, streams):
    melody = encode(skyline_score(score))
    harmony = pitch_class_profile(score)
    samples.append(seqbuild.conditioned_sample(
        vocab, melody, harmony, piece=score.source_id))
ids, mask, harmony = seqbuild.collate(samples, vocab)
print(f"{len(samples)} conditioned sequences, padded batch {ids.shape}; "
      f"loss positions per row: {(mask == 0).sum(axis=1).tolist()}")

cfg = ModelConfig(vocab_size=len(vocab.tokens), d_model=48, n_heads=4,
                  n_layers=1, d_ff=128, max_len=ids.shape[1] + 64)
model = TinyLM.create(cfg, seed=0)
print(f"\nmodel: {sum(p.size for p in model.params.values())} parameters")

losses = train(model, [(ids, mask, harmony)], steps=250, lr=3e-3, seed=0)
print(f"loss {losses[0]:.3f} at step 1 -> {losses[-1]:.3f} at step {len(losses)}")

prefix = vocab.encode_ids(seqbuild.CONDITIONING_PREFIX)
out = sample(model, prefix, n_sequences=4, max_new_tokens=200,
             end_id=vocab.id("[EOS]"), temperature=0.9, seed=3,
             harmony=harmony[0])
print(f"\nsampled 4 variations of {samples[0].piece!r}:")
for seq, stopped in zip(out.sequences, out.stopped_on_end):
    tokens = vocab.decode_ids([t for t in seq if t != vocab.id("[EOS]")])
    try:
        measures = len(decode(tokens).measures)
        shape = f"decodes to {measures} measures"
    except Exception:
        shape = "not decodable (fine at this scale)"
    tag = "hit end token" if stopped else "hit length cap"
    print(f"  {len(seq):>3} tokens, {tag}, {shape}")
