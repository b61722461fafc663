"""Grade pieces on the nine-level difficulty scale with a Gaussian model.

The corpus in this demo is synthetic, so labels come from the bootstrap
path an unlabeled corpus would use: a hand-weighted difficulty proxy is
binned into balanced quantile levels, and the classifier learns those.
"""

import numpy as np

from gradus import gnb
from gradus.analysis import FEATURE_NAMES, feature_vector
from gradus.fixtures import generate_corpus

corpus = generate_corpus(n=40, seed=99)
X = np.array([feature_vector(s) for s in corpus])
print(f"{len(corpus)} pieces, {X.shape[1]} features per piece:")
print("  " + ", ".join(FEATURE_NAMES))

levels = gnb.quantile_levels(gnb.difficulty_proxy(X))
print(f"\nbootstrap labels span levels {levels.min()}..{levels.max()}; "
      f"counts per level: {np.bincount(levels, minlength=10)[1:].tolist()}")

# every fourth piece is held out; the balanced labels keep every level
# represented on the training side, which temperature fitting requires
hold = np.zeros(len(corpus), dtype=bool)
hold[::4] = True
model = gnb.fit(X[~hold], levels[~hold])
calibrated = gnb.fit_temperature(model, X[hold], levels[hold])
print(f"\nfitted on {int((~hold).sum())} pieces; temperature from the "
      f"{int(hold.sum())} held out: {calibrated.temperature:.3f}")

post = calibrated.posterior(X[hold])
pred = calibrated.predict(X[hold])
agree = (pred == levels[hold]).mean()
print(f"held-out agreement with the bootstrap labels: {agree:.0%}")

confidences = post.max(axis=1)
kept = gnb.confidence_filter(confidences)
print(f"\nconfidence filter keeps {len(kept)} of {len(confidences)} "
      f"held-out pieces (drops the least certain quarter); "
      f"lowest kept confidence {confidences[kept].min():.3f}")

row = post[0]
print("\nposterior for one piece (rows always sum to 1):")
print("  " + "  ".join(f"L{l}:{p:.2f}" for l, p in enumerate(row, start=1)))
