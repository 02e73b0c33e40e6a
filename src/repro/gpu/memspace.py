"""GPU memory spaces: global, shared, texture, constant.

The paper's baseline architecture (section 2.1) gives each SM "a private L1
data cache, texture cache, constant cache and shared memory"; its evaluation
covers the global-memory path only, but notes that "G-MAP's methodology is
generic enough to capture and replicate patterns in accesses to these caches
as well".  This module provides that extension's substrate: address-range
based space tagging, so accesses flow through the existing trace/profile/
generation machinery unchanged and the memory hierarchy routes them by
range.

Spaces are distinguished by disjoint address regions (mirroring how PTX
generic addressing windows work).  Because G-MAP preserves per-instruction
base addresses (obfuscation included — see
:meth:`repro.core.profile.GmapProfile.obfuscated`), a clone's accesses stay
in their original space automatically.
"""

from __future__ import annotations

from enum import Enum


class MemorySpace(Enum):
    """Which on-chip path services an address."""

    GLOBAL = "global"
    SHARED = "shared"
    TEXTURE = "texture"
    CONSTANT = "constant"


#: Address-region bases.  Global gets the large low region; the specialised
#: spaces live in disjoint high windows.
GLOBAL_BASE = 0x1000_0000
SHARED_BASE = 0x7000_0000
SHARED_SIZE = 0x0800_0000      # generous: per-block shared views side by side
TEXTURE_BASE = 0x8000_0000
TEXTURE_SIZE = 0x1000_0000
CONSTANT_BASE = 0x9000_0000
CONSTANT_SIZE = 0x0010_0000    # 64KB-class constant banks, with headroom

_REGIONS = (
    (SHARED_BASE, SHARED_BASE + SHARED_SIZE, MemorySpace.SHARED),
    (TEXTURE_BASE, TEXTURE_BASE + TEXTURE_SIZE, MemorySpace.TEXTURE),
    (CONSTANT_BASE, CONSTANT_BASE + CONSTANT_SIZE, MemorySpace.CONSTANT),
)

#: Shared-memory banking (Fermi): 32 banks, 4 bytes wide.
SHARED_BANKS = 32
SHARED_BANK_WIDTH = 4


def space_of(address: int) -> MemorySpace:
    """The memory space an address belongs to."""
    for lo, hi, space in _REGIONS:
        if lo <= address < hi:
            return space
    return MemorySpace.GLOBAL


def region_bounds(space: MemorySpace):
    """Half-open ``[lo, hi)`` window of a space.

    GLOBAL owns everything below the specialised windows; generated proxy
    walks are wrapped into these bounds so a sampled-stride random walk can
    never drift an instruction out of its memory space.
    """
    if space is MemorySpace.GLOBAL:
        return (0, SHARED_BASE)
    if space is MemorySpace.SHARED:
        return (SHARED_BASE, SHARED_BASE + SHARED_SIZE)
    if space is MemorySpace.TEXTURE:
        return (TEXTURE_BASE, TEXTURE_BASE + TEXTURE_SIZE)
    return (CONSTANT_BASE, CONSTANT_BASE + CONSTANT_SIZE)


def shared_bank_of(address: int) -> int:
    """Which of the 32 4-byte-wide banks services a shared-memory address."""
    return (address // SHARED_BANK_WIDTH) % SHARED_BANKS


def bank_conflict_degree(lane_addresses) -> int:
    """Serialisation factor of one warp shared-memory instruction.

    The maximum number of *distinct words* any single bank must deliver:
    lanes reading the same word broadcast (degree 1); lanes hitting
    different words of one bank serialise (Fermi rules).
    """
    words_per_bank: dict = {}
    for address in lane_addresses:
        bank = shared_bank_of(address)
        word = address // SHARED_BANK_WIDTH
        words_per_bank.setdefault(bank, set()).add(word)
    if not words_per_bank:
        return 0
    return max(len(words) for words in words_per_bank.values())
