"""Walk through scoring a single cell, from matrix to metrics.

Builds a four-node cell, assembles and scores it, and demonstrates the two
pattern cardinalities together with the properties that make them trustworthy:
transpose duality and duplication invariance.
"""

import numpy as np

from swapnas import (
    ActivationCapture,
    AssemblyConfig,
    CellMatrix,
    RegularisationParams,
    build_network,
    count_flops,
    count_parameters,
    forward_capture,
    gaussian_batch,
    params_to_megabytes,
    regularised_swap_score,
    standard_pattern_cardinality,
    swap_score,
    validate_cell,
)

# A cell is a strictly upper-triangular op-code matrix over its nodes:
# 1 = 3x3 conv, 2 = 1x1 conv, 3 = 3x3 average pool, 4 = skip, 0 = no edge.
cell = CellMatrix(
    [
        [0, 1, 4, 2],
        [0, 0, 3, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]
)
print("cell matrix:")
print(cell.codes)
print("violations:", validate_cell(cell) or "none")

assembly = AssemblyConfig(depth=3, stem_channels=16)
net = build_network(cell, assembly, seed=7)
batch = gaussian_batch(32, (3, 16, 16), seed=1)

capture = forward_capture(net, batch)

print()
print("intermediate values V =", capture.n_values)
print("parameters =", count_parameters(cell, assembly), "->",
      round(params_to_megabytes(count_parameters(cell, assembly)), 4), "MB")
print("multiply-accumulates =", count_flops(cell, assembly, batch.dims))

standard = standard_pattern_cardinality(capture)
sample_wise = swap_score(capture)
print()
print(f"standard pattern count |A| = {standard}  (bounded by S = {batch.n_samples})")
print(f"sample-wise score          = {sample_wise}  (bounded by V = {capture.n_values})")

# Duality: the sample-wise count is the standard count of the transpose.
assert sample_wise == standard_pattern_cardinality(capture.transpose())

# Duplication invariance: repeated samples add nothing.
bits = capture.bits()
doubled = ActivationCapture.from_bits(np.concatenate([bits, bits[:, :1]], axis=1))
assert swap_score(doubled) == sample_wise

# Regularisation trades raw expressivity against a preferred model size.
size = params_to_megabytes(count_parameters(cell, assembly))
for mu in (size / 4, size, 4 * size):
    params = RegularisationParams(mu=mu, sigma=mu)
    print(f"mu = sigma = {mu:.4f} MB -> regularised score "
          f"{regularised_swap_score(sample_wise, size, params):.2f}")
