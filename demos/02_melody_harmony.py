"""Extract the conditioning signals: melody skyline and pitch-class profile."""

import numpy as np

from gradus.analysis import perturb_profile, pitch_class_profile, skyline
from gradus.fixtures import generate_piece
from gradus.score import quarter_text

NAMES = ["C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"]

score = generate_piece(index=2, complexity=0.6, seed=21)
print(f"piece: {score.source_id!r}, {len(score.measures)} measures")

notes = skyline(score)
print(f"\nskyline: {len(notes)} segments, highest sounding pitch per segment, in quarters")
for sn in notes[:8]:
    what = "rest" if sn.pitch is None else f"midi {sn.pitch.midi_number}"
    print(f"  [{quarter_text(sn.onset)} .. {quarter_text(sn.end)}) {what}")
print("  ...")

profile = pitch_class_profile(score)
print("\nduration-weighted pitch-class profile (sums to "
      f"{profile.sum():.9f}):")
for name, mass in zip(NAMES, profile):
    bar = "#" * round(mass * 120)
    print(f"  {name:>2} {mass:.3f} {bar}")

rng = np.random.default_rng(5)
jittered = perturb_profile(profile, rng, noise_scale=0.2)
moved = np.abs(jittered - profile).max()
print(f"\nperturbed copy for augmentation: still sums to "
      f"{jittered.sum():.9f}, largest bin shift {moved:.4f}, "
      f"zero bins untouched: {bool(np.all(jittered[profile == 0] == 0))}")
