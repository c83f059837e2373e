"""Set-chain words, their closed-form targets, and composite blow-up steps.

A chain for an index block J is a specific word in the generators whose
application realizes, in one shot, the mass gain of a full sub-system
blow-up.  For affine A the word on a block of size l+1 has length
(l+1)(l+2)/2; for affine Ct, blocks touching the boundary use squares of
sweeps of length (l+1)^2 and interior blocks reuse the A-type word.

A chain's target is the permutation mass of the longest element (the
reversal), summed on packed integer rows by `perms._block_rows`.  `chain
--verify` sums it on the generic rows packed at its word's fold width,
compares it packed and decodes it once, for its text.  The target fits:
its coefficients are at most 1 + 6 E^2, E the block's length after the
mirror extension, and the fold's P on L letters (M = 1, lifts 2, N_0 >=
6) exceeds 2 sqrt(2) L (L + 2), where L (L + 2) >= 2 e^2 + e on e
indices (L = e(e+1)/2, E = e), and >= 1.5 E^2 (3 if e = 1) at a Ct
boundary (L = e^2, E = 2e - 1).  So 2P > 1 + 6 E^2: b >= `_width` of E.
"""

from __future__ import annotations

from .algebra import AFFINE_A, AFFINE_CT, AlgebraSpec, MassVector, _record
from .cartan import ConsecutiveSet
from .errors import DecompositionError, DomainError
from .action import Word, _acting, _applied, _kernel_rows
from .perms import _block_masses, _extension


class ChainPlan(_record("ChainPlan", "target_set word family")):
    """The chain word of the block target_set in the family."""

    __slots__ = ()


def _std_chain(l: int) -> tuple[int, ...]:
    """Chain letters for the block {1, ..., l+1} at start position 1.

    The chain of l >= 2 is the chain of l - 4 shifted up by 2 (nothing
    for l < 4), then the ascending sweep 2..l+1 and the descending sweep
    l-1..1, twice.  The chains of 0 and 1 are (1,) and (1, 2, 1).  The
    letters go out in one pass from the innermost chain, of 0 or 1 or
    else the first sweep pair, each sweep sliced from one list.
    """
    nums = list(range(l + 2))
    r = l % 4
    letters = [p + (l - r) // 2 for p in ((1,), (1, 2, 1), (), ())[r]]
    for m in range(r + 4 if r < 2 else r, l + 1, 4):
        shift = (l - m) // 2
        sweep = nums[2 + shift:m + 2 + shift] + nums[m - 1 + shift:shift:-1]
        letters += sweep * 2
    return tuple(letters)


def chain_word_a(J: ConsecutiveSet, spec: AlgebraSpec) -> ChainPlan:
    """A-type chain word for a proper consecutive (or wrap) block."""
    if spec.family != AFFINE_A:
        raise DomainError("A-type chains need an affine A spec")
    return _chain(J, spec)[0]


def chain_word_ct(J: ConsecutiveSet, spec: AlgebraSpec) -> ChainPlan:
    """Ct-type chain word: sweep powers at the boundary, A-type inside."""
    if spec.family != AFFINE_CT:
        raise DomainError("Ct-type chains need an affine Ct spec")
    return _chain(J, spec)[0]


def _chain(J: ConsecutiveSet, spec: AlgebraSpec) -> tuple[ChainPlan, tuple]:
    """(J's chain plan in spec's family, `_extension(J, spec)`), J read
    once.  A block of more than one index that the extension mirrors, a
    boundary block of Ct, takes its sweep in the extension's order l+1
    times; any other takes the A-type word on its elements."""
    order, ext = extension = _extension(J, spec)
    if len(ext) > len(order):
        letters = tuple(order) * (J.length + 1)
    else:
        letters = tuple(order[p - 1] for p in _std_chain(J.length))
    return ChainPlan(J, Word(letters), spec.family), extension


def closed_form_a(v: MassVector, J: ConsecutiveSet) -> MassVector:
    """Chain target: the mass of the longest element over J's weights.

    With s_1..s_m the elements of J, the new entry at s_p is

        sigma_{s_p} + finite_a_mass(w0, (mu*_{s_1}, .., mu*_{s_m}))_p

    where w0(j) = m - j is the longest element on {0..m}.  Entries
    outside J are unchanged.  Works for any proper block of affine A,
    wrapping ones included, and for interior blocks of affine Ct: each
    is a finite A system of size m.
    """
    spec = v.spec
    extension = _extension(J, spec)
    if spec.family == AFFINE_CT and not J.is_interior(spec.n):
        raise DomainError("boundary blocks of affine Ct use closed_form_ct")
    return _block_masses(v, extension)


def closed_form_ct(v: MassVector, J: ConsecutiveSet) -> MassVector:
    """Chain target for boundary blocks of affine Ct.

    Head blocks {1..l+1} and tail blocks {i..n+1} gain the masses
    `sigma_f_ct(v, SPermC.reversal(l), J)` of the longest element, the
    reversal of {0..2l+1}; interior blocks use closed_form_a.
    """
    spec = v.spec
    if spec.family != AFFINE_CT:
        raise DomainError("closed_form_ct needs an affine Ct spec")
    if J.is_interior(spec.n):
        raise DomainError("interior blocks use closed_form_a")
    return _block_masses(v, _extension(J, spec))


CASE_TAGS = ("A-I", "A-II", "Ct-I", "Ct-II", "Ct-III", "Ct-IV")


class Decomposition(_record("Decomposition",
                            "spec case_tag blocks null_set",
                            defaults=(frozenset(),))):
    """A splitting of the index set into blocks (a tuple of
    ConsecutiveSet) plus a null set (a frozenset of indices), checked by
    `validate`."""

    __slots__ = ()

    def validate(self) -> None:
        spec = self.spec
        n = spec.n
        if self.case_tag not in CASE_TAGS:
            raise DecompositionError("unknown case tag %r" % (self.case_tag,))
        if self.case_tag.startswith("A") != (spec.family == AFFINE_A):
            raise DecompositionError("case tag does not match the family")
        if not self.blocks:
            raise DecompositionError("at least one block is required")
        seen: set[int] = set()
        block_idx = []
        for b in self.blocks:
            idx = b.indices(n)
            if seen & set(idx):
                raise DecompositionError("blocks are not pairwise disjoint")
            seen |= set(idx)
            block_idx.append(idx)
        if seen & self.null_set:
            raise DecompositionError("blocks meet the null set")
        if seen | self.null_set != set(spec.indices):
            raise DecompositionError("blocks and null set do not cover I")
        for idx in block_idx:
            for nb in (idx[0] - 1, idx[-1] + 1):
                nb = spec.wrap(nb) if spec.family == AFFINE_A else nb
                if 1 <= nb <= n + 1 and nb not in self.null_set:
                    raise DecompositionError(
                        "block {%s} is not maximal: neighbor %d is not "
                        "in the null set" % (",".join(map(str, idx)), nb))
        N, first, last = self.null_set, self.blocks[0], self.blocks[-1]
        ends, starts = {n, n + 1} & N, {1, 2} & N
        inner = [b.is_interior(n) for b in self.blocks]
        wraps = [b.wrap for b in self.blocks]
        # per case, (condition, message if it fails) in the order checked
        rules = {
            "A-I": ((N, "A-I needs a nonempty null set"),
                    ({1, n + 1} & N, "A-I needs 1 or n+1 in the null set"),
                    (not any(wraps), "A-I blocks must not wrap")),
            "A-II": (
                (not {1, n + 1} & N, "A-II forbids 1 and n+1 in the null set"),
                (first.wrap, "A-II needs a wrap-around first block"),
                (not any(wraps[1:]), "only the first block may wrap")),
            "Ct-I": ((not starts, "Ct-I forbids 1 and 2 in the null set"),
                     (ends, "Ct-I needs n or n+1 in the null set"),
                     (first.is_head(n), "Ct-I first block must start at 1"),
                     (all(inner[1:]), "Ct-I later blocks must be interior")),
            "Ct-II": ((starts, "Ct-II needs 1 or 2 in the null set"),
                      (first.is_tail(n), "Ct-II first block must end at n+1"),
                      (all(inner[1:]), "Ct-II later blocks must be interior")),
            "Ct-III": (
                (n >= 4, "Ct-III needs rank at least 4"),
                (len(self.blocks) >= 2, "Ct-III needs head and tail blocks"),
                (first.is_head(n), "Ct-III first block must start at 1"),
                (last.is_tail(n), "Ct-III last block must end at n+1"),
                (all(inner[1:-1]), "Ct-III middle blocks must be interior")),
            "Ct-IV": ((starts, "Ct-IV needs 1 or 2 in the null set"),
                      (ends, "Ct-IV needs n or n+1 in the null set"),
                      (all(inner), "Ct-IV blocks must all be interior"))}
        for holds, message in rules[self.case_tag]:
            if not holds:
                raise DecompositionError(message)


class BlowupResult(_record("BlowupResult", "vector word")):
    """The vector a blow-up step reaches, and the word it applied."""

    __slots__ = ()


def blowup_step(v: MassVector, d: Decomposition) -> BlowupResult:
    """Apply every block chain of a validated decomposition to v.

    The word is the concatenation of the block chains in their listed
    order (boundary block first where the case has one); the resulting
    vector is its action on v.
    """
    w = _blowup_word(v.spec, d)
    return BlowupResult(_applied(_acting(w), v.spec, *_kernel_rows(v)), w)


def _blowup_word(spec: AlgebraSpec, d: Decomposition) -> Word:
    """`blowup_step`'s word, checked in order: specs, `validate`, chains."""
    if spec != d.spec:
        raise DomainError("vector and decomposition specs differ")
    d.validate()
    return Word(tuple([i for b in d.blocks
                       for i in _chain(b, spec)[0].word.letters]))
