"""Diversity metrics on controlled point sets.

Coverage: what fraction of real points have a synthetic point inside their
k-NN ball. Vendi score: effective number of distinct directions (1 = all
identical, n = mutually orthogonal). Intra-class cosine: how similar
same-class points are to each other (lower = more diverse).
"""

import numpy as np

from dire import (EmbeddingSet, Rng, coverage, intra_class_cosine,
                  metrics_report, rng_normal, vendi_score)

rng = Rng(7)

# --- vendi score on the two extremes and in between ---
identical = np.tile([[1.0, 2.0, 0.5, -1.0]], (8, 1))
orthogonal = np.eye(8)
mixed = rng_normal(rng.split(0), 8, 8)
print("vendi, 8 identical vectors:  ", round(vendi_score(identical), 6))
print("vendi, 8 orthogonal vectors: ", round(vendi_score(orthogonal), 6))
print("vendi, 8 random vectors:     ", round(vendi_score(mixed), 3))

# the score is the exponentiated entropy of the kernel spectrum; peek at it
unit = mixed / np.linalg.norm(mixed, axis=1, keepdims=True)
spectrum = np.linalg.eigvalsh(unit @ unit.T / 8)[::-1]
print("kernel eigenvalues (desc):   ", np.round(spectrum, 3))

# --- coverage: a clump covers few neighborhoods, a spread covers many ---
real = rng_normal(rng.split(1), 400, 8)
clump = np.tile(real.mean(axis=0), (20, 1))
spread = real[rng.split(2).generator.choice(400, 20, replace=False)]
for k in (1, 3, 5):
    print(f"k={k}: coverage by clump {coverage(real, clump, k):.3f}, "
          f"by spread subset {coverage(real, spread, k):.3f}")

# --- full report over class-partitioned embeddings ---
real_set = EmbeddingSet({c: rng_normal(rng.split(10 + c), 50, 6, mean=2 * c)
                         for c in range(3)})
syn_tight = EmbeddingSet({c: rng_normal(rng.split(20 + c), 8, 6, mean=2 * c,
                                        std=0.05) for c in range(3)})
syn_loose = EmbeddingSet({c: rng_normal(rng.split(30 + c), 8, 6, mean=2 * c,
                                        std=1.0) for c in range(3)})
for name, syn in (("tight", syn_tight), ("loose", syn_loose)):
    rep = metrics_report(real_set, syn, k=5)
    print(f"{name:5s}: coverage={rep.coverage:.3f} vendi={rep.vendi:.2f} "
          f"similarity={rep.mean_intra_class_cosine:.3f}")

per_class, mean = intra_class_cosine(syn_tight)
print("tight per-class similarity:", np.round(per_class, 3), "mean", round(mean, 3))
