"""
Single- and multi-deletion correcting codes
===========================================

The recovery module leans on two codes: the Varshamov-Tenengolts code, whose
integer syndrome pins down one deletion, and a keyed-digest code whose
ceil(t * a_t * log2 q)-bit syndrome undoes t of them.
"""

import random

from delsync import BitSeq, CodeSpec, make_syndrome, multi_decode

# Both parties derive the digest key from the shared session seed; only the
# syndrome bits travel.  a_2 = 3.5 reproduces the 7*log2(q) redundancy of the
# best known two-deletion construction.
spec = CodeSpec.from_seed(w=2, a=(1.0, 3.5), seed=42)

# --- VT code: one deletion ---
x = BitSeq("10110100")
syn = make_syndrome(x, 1, spec)
print("x =", x.to01(), f" VT syndrome = {syn.value} ({syn.bit_length} bits)")

y = x.delete([4])
print("y =", y.to01(), "(bit 4 deleted)")
decoded = multi_decode(y, 1, syn, len(x), spec)
print("decoded:", decoded.to01())
assert decoded == x

# A word y has exactly |y|+2 distinct one-bit supersequences, as many as
# there are VT syndrome values mod |y|+2; each takes a different value, so
# the syndrome picks out x alone.
print(f"{len(y) + 2} candidate supersequences, one matches the syndrome")

# --- keyed two-deletion code ---
rng = random.Random(1)
x = BitSeq([rng.randint(0, 1) for _ in range(256)])
syn2 = make_syndrome(x, 2, spec)
print(f"\n256-bit source, two deletions: syndrome is {syn2.bit_length} bits "
      f"(= ceil(7 * log2 256))")

y2 = x.delete([31, 200])
recovered = multi_decode(y2, 2, syn2, len(x), spec)
assert recovered == x
print("two-deletion decode recovers x exactly")
