"""
Module I: pivots, candidate matches, and section formation
==========================================================

Alice tiles X into segments separated by short pivots and ships Bob the
pivots.  Bob gathers every occurrence that deletions could explain, picks the
best chain, and both sides cut their sequences into aligned sections.
"""

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

# Bob's side: one pass over y indexes every occurrence of every pivot; each
# pivot keeps those at or left of its own position (deletions only shift
# content left, so an occurrence further right cannot be real).
# A session works on the sequences' 0/1 bytes, one byte per bit.
x_bytes = x.to_bytes01()
pivots = [x_bytes[a:b] for a, b in layout.pivot_spans]
index = candidate_index(out.y.to_bytes01(), pivots)
candidates = [
    find_candidates(index, piv, a) for piv, (a, _) in zip(pivots, layout.pivot_spans)
]
print("candidate counts per pivot:", [len(c) for c in candidates])

selection = select_pivots(candidates, layout)
print(f"selected {len(selection)} of {layout.k - 1} pivots")

sections = form_sections(selection, layout, len(out.y))
print("sections (x-len, y-len, deletions):")
for sec in sections:
    print(f"  #{sec.section_id}: {sec.x_span[1] - sec.x_span[0]:4d} "
          f"{sec.y_span[1] - sec.y_span[0]:4d}  t={sec.t}")
assert sum(sec.t for sec in sections) == len(out.deleted_positions)
print("per-section deletion counts add up to the channel total")
