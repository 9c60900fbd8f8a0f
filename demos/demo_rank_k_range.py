# Rank-k ranges: the values z admitting isometries M, N with M* A N = z I_k.
# The region is a disc, a ring (possibly collapsed to a circle), or empty,
# depending on how k compares with the two dimensions.  One SVD of A
# certifies either verdict: an explicit pair for a member, a separating frame
# for any other value.

import numpy as np

from nrange import (find_witness, hermitian_rank_interval, rank_k_contains, rank_k_region,
                    separating_frame)
from nrange.linalg import svd

rng = np.random.default_rng(11)
A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
sig = svd(A).sigma
print("singular values:", np.round(sig, 6))

for k in (1, 2, 3, 4):
    rk = rank_k_region(A, k)
    print(f"k={k}: regime={rk.regime:5s} region={rk.region}")

# Certify a point in the k=2 ring with an explicit isometry pair.
z = 0.5 * (sig[1] + sig[2]) * np.exp(0.8j)
wit = find_witness(A, 2, z)
print(f"\nwitness for z={z:.6f}: residual={wit.residual:.2e}")
print("membership by the interlacing inequalities:", rank_k_contains(A, 2, z))

# Outside the ring: the pair at the nearest region point misses by sqrt(2)
# times the distance, and the trailing right singular vectors prove it.
outside = 1.3 * sig[0]
wit_bad = find_witness(A, 2, outside)
frame = separating_frame(A, 2, outside)
print(f"outside point {outside:.4f}: residual {wit_bad.residual:.3f} = sqrt(2) * "
      f"{wit_bad.residual / np.sqrt(2):.3f} (no certificate); "
      f"||A G|| = {np.linalg.norm(A @ frame, 2):.4f} < |z| proves it outside")

# Hermitian matrices have interval-valued rank-k ranges; the doubled block
# of any A produces the symmetric interval of its k-th singular value.
block = np.block([[np.zeros((3, 3)), A], [A.conj().T, np.zeros((3, 3))]])
for k in (1, 2, 3):
    print(f"doubled-block interval k={k}:", hermitian_rank_interval(block, k))
