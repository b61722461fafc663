"""Attention at adaptation lengths: one training step and one long prefill.

Adaptation sequences run up to ``seqbuild.MAX_SEQUENCE_LEN`` = 8000
tokens.  The model scores keys one block of query rows at a time, so its
memory grows with the kept attention probabilities, not with several dense
(B, H, T, T) arrays at once.  This script runs, each in a fresh
interpreter so the peak resident size is that part's own:

- ``train``: one ``loss_and_grads`` on one sequence of 4096 inputs;
- ``sample``: one 8-row ``sample`` from a 2048-token prefix.

Both use the demo pipeline's model size.  Each prints its time and peak
resident size; the script exits nonzero if either peak passes 1 GiB.

    python demos/07_long_attention.py
"""

import resource
import subprocess
import sys
import time

import numpy as np

from gradus.model import ModelConfig, TinyLM, sample

LIMIT_MIB = 1024.0
TRAIN_LEN = 4096
PREFIX_LEN, ROWS, NEW = 2048, 8, 16


def model() -> TinyLM:
    cfg = ModelConfig(vocab_size=96, d_model=48, n_heads=4, n_layers=1, d_ff=128)
    return TinyLM.create(cfg, seed=0)


def run(part: str) -> None:
    lm = model()
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    if part == "train":
        ids = rng.integers(1, 96, size=(1, TRAIN_LEN + 1)).astype(np.int64)
        mask = np.zeros_like(ids, dtype=np.int8)
        mask[:, :TRAIN_LEN // 2] = 1
        loss, _ = lm.loss_and_grads(ids, mask)
        what = f"loss_and_grads, 1 x {TRAIN_LEN} tokens: loss {loss:.4f}"
    else:
        prefix = rng.integers(1, 96, size=PREFIX_LEN).tolist()
        out = sample(lm, prefix, n_sequences=ROWS, max_new_tokens=NEW, end_id=-1, seed=3)
        what = (f"sample, {ROWS} rows from a {PREFIX_LEN}-token prefix: "
                f"{sum(map(len, out.sequences))} tokens")
    elapsed = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{what}; {elapsed:.2f} s, peak RSS {peak:.0f} MiB")
    sys.exit(1 if peak > LIMIT_MIB else 0)


def main() -> int:
    failed = []
    for part in ("train", "sample"):
        if subprocess.run([sys.executable, __file__, part]).returncode != 0:
            failed.append(part)
    if failed:
        print(f"over {LIMIT_MIB:.0f} MiB or failed: {', '.join(failed)}")
        return 1
    print(f"both parts within {LIMIT_MIB:.0f} MiB")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        run(sys.argv[1])
    sys.exit(main())
