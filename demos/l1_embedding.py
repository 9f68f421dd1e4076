"""Two-sided l1 embeddings: the phase matrix alone, then composed with a
polynomial phase matrix for sparse vectors.

The Golomb-ruler phase matrix A (m x p, m = 6p^2-6p+1) satisfies

    m/sqrt(2) ||x||_2  <=  ||Ax||_1  <=  m ||x||_2      for ALL x,

i.e. distortion at most sqrt(2) ~ 1.414.  The upper bound is
Cauchy-Schwarz on orthogonal columns; the lower bound divides
||Ax||_2^3 by ||Ax||_4^2 (an l1 floor that is tight for flat vectors).

Multiplying by a Weil matrix extends this to s-sparse vectors in higher
ambient dimension: the Weil factor almost preserves l2 on sparse vectors
(small coherence), the phase factor converts l2 to l1.
"""

import numpy as np

from ripforge.analysis import embedding_ratios, holder_floor
from ripforge.certify import probe_l1
from ripforge.constructors import composed, golomb_phase

rng = np.random.default_rng(1)

print("Phase matrix, dense vectors:")
for p in (3, 5, 7):
    mat = golomb_phase(p)
    m = mat.rows
    ratios = []
    for _ in range(2000):
        x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        ratios.append(embedding_ratios(mat, x)[0])
    lo, hi = min(ratios), max(ratios)
    print(f"  p = {p}:  m/sqrt2 = {m / np.sqrt(2):8.3f}  <=  observed "
          f"[{lo:8.3f}, {hi:8.3f}]  <=  m = {m:3d};   spread {hi / lo:.4f}")

print()
print("The l1 floor in action for one draw (p = 5):")
mat = golomb_phase(5)
x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
y = mat.data @ x
print(f"  ||y||_1 = {np.abs(y).sum():.3f} >= ||y||_2^3/||y||_4^2 = "
      f"{holder_floor(y):.3f}")

print()
print("Composed construction (ambient N = 20, sparsity s = 1, prime p = 3):")
mat = composed(1, 20, p=3)
print(f"  matrix is {mat.rows} x {mat.cols}, built as a {mat.rows} x 3 phase factor "
      f"times a 3 x 20 polynomial factor (degree <= {mat.meta['d']})")
report = probe_l1(mat, 1, trials=5000, seed=2)
print(f"  sampled 1-sparse l1/l2 ratios in [{report.min_ratio:.3f}, "
      f"{report.max_ratio:.3f}], empirical distortion "
      f"{report.empirical_distortion:.4f} (must stay <= 2)")
