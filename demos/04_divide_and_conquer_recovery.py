"""
Module II: recovering one section interactively
===============================================

A section with more deletions than the codes can absorb is split by
delimiters: Alice sends the bits around the center, Bob reports where he
found them plus each half's deletion count, and the halves recurse until
syndromes suffice.  The transcript below shows one such conversation.
"""

import random

from delsync import (
    BitSeq,
    CodeSpec,
    Transcript,
    recover_section,
)

rng = random.Random(11)
n_s = 600
x = BitSeq([rng.randint(0, 1) for _ in range(n_s)])
deleted = sorted(rng.sample(range(n_s), 5))
y = x.delete(deleted)
print(f"section of {n_s} bits, deletions at {deleted}")

spec = CodeSpec.from_seed(w=2, a=(1.0, 3.5), seed=99)
transcript = Transcript()
# One call takes a list of sections (here one) over X's and Y's bytes in
# place, walks them, then computes their syndromes and decodes together.
# A section is a row (x0, x1, y0, y1, t): X's span, Y's span and the
# deletions between them, as Module I's form_sections gives them.
sections = [(0, n_s, 0, len(y), 5)]
estimate, [clean], _ = recover_section(
    sections, x.to_bytes01(), y.to_bytes01(), spec, 3.0, transcript
)

print(f"\nrecovered exactly: {bytes(estimate) == x.to_bytes01()} (clean={clean})")
print("conversation:")
for msg in transcript.entries:
    arrow = "Alice->Bob" if msg.direction == "A2B" else "Bob->Alice"
    print(f"  {arrow:10s} {msg.kind:12s} {msg.bits:4d} bits")
print(f"Module II total: {transcript.total_bits('II')} bits "
      f"(the raw section is {n_s})")
