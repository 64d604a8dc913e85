"""
Single- and multi-deletion correcting codes
===========================================

The recovery module leans on two codes: the Varshamov-Tenengolts code, whose
integer syndrome pins down one deletion, and a keyed-digest code whose
ceil(t * a_t * log2 q)-bit syndrome undoes t of them.  Either syndrome is
only the bits Alice puts on the wire: ``syndrome_batch`` writes them for
every part of a session at once, and ``decode_batch`` reads them back.
"""

import random

from delsync import BitSeq, CodeSpec
from delsync.codes import decode_batch, syndrome_batch, syndrome_bits

# Both parties derive the digest key from the shared session seed; only the
# syndrome bits travel.  a_2 = 3.5 reproduces the 7*log2(q) redundancy of the
# best known two-deletion construction.
spec = CodeSpec.from_seed(w=2, a=(1.0, 3.5), seed=42)

# --- VT code: one deletion ---
# A batch of one job: the part x[0:q] with t deletions, and its syndrome width.
x = BitSeq("10110100")
width = syndrome_bits(len(x), 1, spec)
syn = syndrome_batch(x.to_bytes01(), [0], [len(x)], [1], [width], spec)
print("x =", x.to01(), f" VT syndrome = {BitSeq(syn).to_int()} ({width} bits on the wire)")

y = x.delete([4])
print("y =", y.to01(), "(bit 4 deleted)")
[decoded] = decode_batch(y.to_bytes01(), [0], [len(x)], [1], syn, [width], spec)
print("decoded:", BitSeq(decoded).to01())
assert BitSeq(decoded) == x

# A word y has exactly |y|+2 distinct one-bit supersequences, as many as
# there are VT syndrome values mod |y|+2; each takes a different value, so
# the syndrome picks out x alone.
print(f"{len(y) + 2} candidate supersequences, one matches the syndrome")

# --- keyed two-deletion code ---
rng = random.Random(1)
x = BitSeq([rng.randint(0, 1) for _ in range(256)])
width2 = syndrome_bits(len(x), 2, spec)
syn2 = syndrome_batch(x.to_bytes01(), [0], [len(x)], [2], [width2], spec)
print(f"\n256-bit source, two deletions: syndrome is {len(syn2)} bits "
      f"(= ceil(7 * log2 256))")

y2 = x.delete([31, 200])
[recovered] = decode_batch(y2.to_bytes01(), [0], [len(x)], [2], syn2, [width2], spec)
assert BitSeq(recovered) == x
print("two-deletion decode recovers x exactly")

# --- one batch, many parts ---
# A session hands every part to one call: the sources back to back, each
# job's start, length, deletion count and width, and one payload holding
# every syndrome in turn.  Here both parts above travel together.
a, b = BitSeq("10110100"), x
source = a.to_bytes01() + b.to_bytes01()
payload = syndrome_batch(source, [0, len(a)], [len(a), len(b)], [1, 2], [width, width2], spec)
assert payload == syn + syn2
received = y.to_bytes01() + y2.to_bytes01()
got = decode_batch(received, [0, len(y)], [len(a), len(b)], [1, 2], payload, [width, width2], spec)
assert got == [a.to_bytes01(), b.to_bytes01()]
print(f"two parts in one batch: {len(payload)} syndrome bits, both decoded")
