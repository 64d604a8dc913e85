"""
Module I: pivots, candidate matches, and section formation
==========================================================

Alice tiles X into segments separated by short pivots and ships Bob the
pivots.  Bob gathers every occurrence that deletions could explain, picks the
best chain, and both sides cut their sequences into aligned sections.
"""

import numpy as np

from delsync import (
    apply_deletion_channel,
    candidate_index,
    find_candidates,
    form_sections,
    partition_encoder,
    pivot_length,
    random_bits,
    select_pivots,
    substream,
)

beta, s = 0.02, 2.0
seg_len = round(s / beta)          # 100 bits per segment
piv_len = pivot_length(s, beta)    # long enough to keep false matches at o(beta)
print(f"segment length {seg_len}, pivot length {piv_len}")

n = 2000
x = random_bits(n, substream(3, "source"))
out = apply_deletion_channel(x, beta, substream(3, "channel"))
print(f"|x| = {n}, |y| = {len(out.y)}, {len(out.deleted_positions)} deletions")

layout = partition_encoder(n, seg_len, piv_len)
print(f"k = {layout.k} segments, {layout.k - 1} pivots "
      f"-> Module I costs (k-1)(L_P + 1) = {(layout.k - 1) * (piv_len + 1)} bits")

# Alice's pivots, gathered from X in one index: a (k-1) x L_P matrix of bits.
# A session works on the sequences' 0/1 bytes, one byte per bit.
x_bits = x.to_numpy()
pivots = x_bits[layout.pivot_starts[:, None] + np.arange(piv_len)]

# Bob's side: one pass over y finds every occurrence of every pivot, as a
# table of (pivot row, y start) rows; one mask keeps those at or left of
# their pivot's own position (deletions only shift content left, so an
# occurrence further right cannot be real).
table = candidate_index(out.y.to_bytes01(), pivots)
candidates = find_candidates(table, layout.pivot_starts)
print(f"{len(table)} occurrences, {len(candidates)} feasible candidates, "
      "per pivot:", np.bincount(candidates[:, 0], minlength=layout.k - 1).tolist())

# The chain: one (pivot index, y start, x start) row per selected pivot.
selection = select_pivots(candidates, layout)
index, y_start, x_start = selection[0].tolist()
print(f"selected {len(selection)} of {layout.k - 1} pivots; the first: "
      f"pivot {index} at y = {y_start}, x = {x_start}")

# The sections: one (x0, x1, y0, y1, t) row each.
sections = form_sections(selection, layout, len(out.y))
print("sections (x-len, y-len, deletions):")
for i, (x0, x1, y0, y1, t) in enumerate(sections.tolist()):
    print(f"  #{i}: {x1 - x0:4d} {y1 - y0:4d}  t={t}")
assert sections[:, 4].sum() == len(out.deleted_positions)
print("per-section deletion counts add up to the channel total")
