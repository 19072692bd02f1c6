"""Seeded presentations on which the triviality pipeline runs every stage.

At m=2, k=1 and relator length 80 each relator has two full reduction blocks
(block size 36), so the reduction stage fires, unlike anywhere on the a04
grid.  On a random background of length-80 relators the generator plants
three things (letters: a=1, b=2, A=-1, B=-2):

* a tail-collision pair (a T1, b T1): round 1 finds w1 = A b;
* a second pair (A T2, B T2): its equality class {a, b} is already
  certified in round 1, but in round 2 it supplies the new trivial word
  w2 = a B;
* a host h and a short partner p = B h''[2..], where h'' is h after one
  w1 pass and one w2 pass.  p has no full block, so it is never reduced,
  and the two agree from position 2 only after round 2.  Their conclusion
  a = B closes the last equality class, so the verdict is trivial in
  round 2 and its certificate holds collision and reduction steps from both
  rounds.

The background relators carry no planted structure; the random occurrences
of w1 and w2 in their blocks supply thousands of reductions per presentation
(about 3.7 per background relator over the two rounds).
"""

from __future__ import annotations

from halfdensity import trivializer, words
from halfdensity.rng import RandomSource

M = 2
ELL = 80
K = 1
MAX_ROUNDS = 3
A, B = 1, 2
W1 = (-A, B)
W2 = (A, -B)
HOST_LEN = 40
PLANTED = 6


def config() -> trivializer.TrivializerConfig:
    return trivializer.TrivializerConfig(m=M, ell=ELL, k=K, max_rounds=MAX_ROUNDS)


def _word(gen, length: int) -> tuple:
    return tuple(words.sample_relator_matrix(M, length, 1, gen)[0].tolist())


def _tail(gen, first_letters: tuple) -> tuple:
    """Random reduced word of length ELL-1 that may follow either first letter."""
    while True:
        t = _word(gen, ELL - 1)
        if all(t[0] != -x for x in first_letters):
            return t


def _host_pair(gen, cfg) -> tuple:
    """(h, p) with p[2..] equal to h reduced by w1 then w2, p never reduced."""
    while True:
        h = (A,) + _word(gen, HOST_LEN - 1)
        if h[1] == -A or h[1] == B:
            continue
        h1, _ = trivializer.reduce_relator(h, W1, cfg)
        h2, events2 = trivializer.reduce_relator(h1, W2, cfg)
        if not events2:
            continue
        p = (-B,) + h2[1:]
        if trivializer.reduce_relator(p, W1, cfg)[1] or trivializer.reduce_relator(p, W2, cfg)[1]:
            continue
        return h, p


def planted_relators(seed: int, index: int, background: int) -> list:
    """Relators of planted presentation `index`: `background` random ones plus six planted.

    The same (seed, index, background) always gives the same list.  Every
    relator is checked to be a freely reduced word over M generators.
    """
    if background < 1:
        raise ValueError(f"background must be >= 1, got {background}")
    src = RandomSource(seed).child(index)
    cfg = config()
    rows = words.sample_relator_matrix(M, ELL, background, src.child(0)).tolist()
    gen = src.child(1).generator()
    t1 = _tail(gen, (A, B))
    t2 = _tail(gen, (-A, -B))
    h, p = _host_pair(gen, cfg)
    planted = [(A,) + t1, (B,) + t1, (-A,) + t2, (-B,) + t2, h, p]
    # Planted relators keep their order, so (a T1, b T1) is the first pair
    # the collision search meets and w1 is the round-1 trivial word.
    slots = sorted(gen.choice(background + PLANTED, size=PLANTED, replace=False).tolist())
    relators = [tuple(r) for r in rows]
    for slot, r in zip(slots, planted):
        relators.insert(slot, r)
    words.Presentation(M, relators).validate()
    return relators
