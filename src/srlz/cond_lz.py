"""Joint incremental parsing and the conditional stream codec.

The pair sequence (primary_t, secondary_t) is parsed with the same
shortest-new-phrase rule as the plain parse, over the product alphabet.  The
conditional complexity charges each distinct primary phrase string for the
number of joint phrases sharing it: rho_cond = sum(c_l * log2 c_l) / n.

The conditional codec assumes the decoder already has the primary sequence:
at each step only the children of the current dictionary node whose primary
component matches the known next primary symbol are distinguishable, so the
stream spends ceil(log2(m+1)) bits to pick among those m children or signal
an innovation, and innovation steps add the secondary symbol.

Side information is one `Sequence`; several are packed into one first with
`lz_core.product_sequence`.

The encoder's dictionary is the joint parse's trie, keyed (node*A + a)*B + b
like `_joint_walk`'s, so `_cond_encode` can hand back the c_l of
joint_parse(primary, secondary) with its stream, and the stream's
phrase_count is c_joint: callers that report the conditional complexity of
what they code need no second walk.  It hands `bitio.pack` one field per
phrase, its ranks and then its innovation; both coders keep a node as id*A.
Callers that code or decode several streams against one side sequence hash
it once and pass the checksum in.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional, Sequence as Seq, Tuple, Union

from .bitio import fnv1a64, fnv1a64_u32, pack, refill
from .container import (
    MODE_COND,
    Bitstream,
    ModeMismatchError,
    Record,
    SideInfoMismatchError,
    StreamFormatError,
)
from .lz_core import Alphabet, Sequence, _lz_walk, rho_from_count, xlogx_sum


def side_info_checksum(primary: Sequence) -> int:
    """Checksum over the canonical encoding (alphabet size, n, indices)."""
    size = primary.alphabet.size
    h = fnv1a64(struct.pack(">IQ", size, primary.n))
    return fnv1a64_u32(primary.data, h, size)


class JointParseResult(Record):
    __slots__ = ("c_joint",
                 "c_prime",  # distinct primary phrase strings
                 "c_l",  # joint phrases per distinct primary phrase
                 "rho_cond", "rho_joint", "is_last_incomplete")

def primary_step(keys: Iterable[int], A: int, B: int, pnode: List[int], ptrie: Union[list, dict],
                 pslots: List[int], c_l: List[int]) -> None:
    """Count the joint phrases of `keys` by primary phrase.

    `keys` are joint slots (node*A + a)*B + b in node order, next after the
    joint nodes of `pnode`, which holds each one's primary node (the root's
    is 0).  A joint phrase's primary string is its parent's extended by a,
    so `ptrie` (a flat list or a dict, as in `lz_core.walk`), keyed
    pnode*A + a, numbers the distinct primary strings 1, 2, ... by first
    appearance and logs each new key in `pslots` for `lz_core.undo`;
    c_l[p - 1] counts the phrases of primary node p.
    """
    AB, nxt = A * B, len(c_l) + 1
    add, new, log = pnode.append, c_l.append, pslots.append
    get = None if type(ptrie) is list else ptrie.get
    for k in keys:
        key = pnode[k // AB] * A + k % AB // B
        p = ptrie[key] if get is None else get(key)
        if p:
            c_l[p - 1] += 1
        else:
            new(1)
            ptrie[key] = p = nxt
            nxt += 1
            log(key)
        add(p)


def _primary_counts(keys: Iterable[int], last: int, A: int, B: int) -> List[int]:
    """c_l in first-marking order, from the keys of a joint trie in node order
    and the node `last` where the input ends."""
    pnode, c_l = [0], []
    primary_step(keys, A, B, pnode, {}, [], c_l)
    if last:
        c_l[pnode[last] - 1] += 1
    return c_l


def _joint_walk(pd: Seq[int], sd: Seq[int], A: int, B: int) -> Tuple[List[int], int, List[int]]:
    """The joint parse: the plain parse of the pair indices a*B + b.

    A and B are the primary and secondary alphabet sizes.  Returns the walk's
    (keys, last) and c_l in first-marking order.
    """
    keys, last = _lz_walk([a * B + b for a, b in zip(pd, sd)], A * B)
    return keys, last, _primary_counts(keys, last, A, B)


def rho_cond_from_counts(c_l: Seq[int], n: int) -> float:
    return xlogx_sum(c_l) / n if n else 0.0


def joint_parse(primary: Sequence, secondary: Sequence) -> JointParseResult:
    if primary.n != secondary.n:
        raise ValueError("primary and secondary lengths differ")
    keys, last, c_l = _joint_walk(primary.data, secondary.data, primary.alphabet.size,
                                  secondary.alphabet.size)
    n = secondary.n
    c_joint = len(keys) + (last != 0)
    return JointParseResult(
        c_joint=c_joint,
        c_prime=len(c_l),
        c_l=tuple(c_l),
        rho_cond=rho_cond_from_counts(c_l, n),
        rho_joint=rho_from_count(c_joint, n),
        is_last_incomplete=last != 0,
    )


def rho_cond(secondary: Sequence, primary: Sequence) -> float:
    """joint_parse(primary, secondary).rho_cond without the other counts."""
    if primary.n != secondary.n:
        raise ValueError("primary and secondary lengths differ")
    _, _, c_l = _joint_walk(primary.data, secondary.data, primary.alphabet.size,
                            secondary.alphabet.size)
    return rho_cond_from_counts(c_l, secondary.n)


def cond_encode(secondary: Sequence, primary: Sequence) -> Bitstream:
    return _cond_encode(secondary, primary)[0]


def _cond_encode(secondary: Sequence, primary: Sequence, checksum: Optional[int] = None,
                 counts: bool = False) -> Tuple[Bitstream, Optional[List[int]]]:
    """cond_encode, given side_info_checksum(primary) when the caller has it.

    The dictionary is the trie of joint_parse(primary, secondary), so with
    `counts` set this also returns its c_l, from which rho_cond_from_counts
    gives the same float as rho_cond; otherwise None.
    """
    if primary.n != secondary.n:
        raise ValueError("primary and secondary lengths differ")
    secw = secondary.alphabet.bits_per_symbol
    A = primary.alphabet.size
    B = secondary.alphabet.size
    child: dict = {}  # (node*A + a)*B + b -> (rank among the m children of (node, a), id*A)
    get = child.get
    fan: dict = {}    # node*A + a -> m
    values: List[int] = []  # one field per phrase: its ranks, then m << secw | b
    widths: List[int] = []
    nodes = node = 0  # dictionary nodes so far, and the current one's id*A
    v = w = 0  # the ranks of the current phrase so far, and their width
    for a, b in zip(primary.data, secondary.data):
        key = node + a
        hit = get(key * B + b)
        if hit is None:  # m+1 choices: children 0..m-1 or innovate
            m = fan.get(key, 0)
            fan[key] = m + 1
            nodes += 1
            child[key * B + b] = (m, nodes * A)
            f = m.bit_length()
            values.append((v << f | m) << secw | b)
            widths.append(w + f + secw)
            v = w = node = 0
        else:
            rank, node = hit
            f = fan[key].bit_length()
            v = v << f | rank
            w += f
    if node:  # the ranks of an unfinished last phrase
        values.append(v)
        widths.append(w)
    payload, payload_bits = pack(values, widths)
    del values, widths, fan  # so that the count below adds nothing to the loop's peak
    incomplete = node != 0
    stream = Bitstream(
        mode=MODE_COND,
        n=secondary.n,
        alphabet=secondary.alphabet.symbols,
        phrase_count=nodes + incomplete,
        last_incomplete=incomplete,
        payload=payload,
        payload_bits=payload_bits,
        side_checksum=side_info_checksum(primary) if checksum is None else checksum,
    )
    return stream, _primary_counts(child, node // A, A, B) if counts else None


def cond_decode(stream: Union[Bitstream, bytes], primary: Sequence) -> Sequence:
    return _cond_decode(stream, primary)


def _cond_decode(stream: Union[Bitstream, bytes], primary: Sequence,
                 checksum: Optional[int] = None) -> Sequence:
    """cond_decode, given side_info_checksum(primary) when the caller has it."""
    if isinstance(stream, (bytes, bytearray)):
        stream = Bitstream.from_bytes(bytes(stream))
    if stream.mode != MODE_COND:
        raise ModeMismatchError(f"not a conditional stream container: mode field (byte 5) "
                                f"reads {stream.mode}, expected {MODE_COND}")
    if primary.n != stream.n:
        raise SideInfoMismatchError(
            f"side information has length {primary.n}, stream expects {stream.n}")
    if checksum is None:
        checksum = side_info_checksum(primary)
    if checksum != stream.side_checksum:
        raise SideInfoMismatchError(
            f"side information checksum mismatch: side_checksum field reads "
            f"{stream.side_checksum}, the side information hashes to {checksum}")
    alphabet = Alphabet(stream.alphabet)
    size = alphabet.size
    secw = alphabet.bits_per_symbol
    payload = stream.payload
    A = primary.alphabet.size
    by_a: dict = {}  # node*A + a -> [(b, child id*A)] in rank order
    out: List[int] = []
    acc = have = pos = 0  # the bit window of bitio.refill
    nodes = node = 0  # dictionary nodes so far, and the current one's id*A
    for a in primary.data:
        key = node + a
        lst = by_a.get(key)
        if lst is not None:  # m+1 choices: children 0..m-1 or innovate
            m = len(lst)
            w = m.bit_length()
            if have < w:
                acc, have, pos = refill(payload, acc, have, pos, w)
            have -= w
            idx = acc >> have
            acc ^= idx << have
            if idx < m:
                b, node = lst[idx]
                out.append(b)
                continue
            if idx > m:
                raise StreamFormatError(
                    f"child index {idx} out of range at payload bit {8 * pos - have - w}")
        if have < secw:
            acc, have, pos = refill(payload, acc, have, pos, secw)
        have -= secw
        b = acc >> have
        acc ^= b << have
        if b >= size:
            raise StreamFormatError(
                f"symbol index {b} out of range at payload bit {8 * pos - have - secw}")
        out.append(b)
        if lst is None:
            by_a[key] = lst = []
        nodes += 1
        lst.append((b, nodes * A))
        node = 0
    if nodes + (node != 0) != stream.phrase_count or (node != 0) != stream.last_incomplete:
        raise StreamFormatError(
            f"phrase accounting mismatch at payload bit {8 * pos - have}: decoded "
            f"{nodes + (node != 0)} phrases, last incomplete {node != 0}; header "
            f"phrase_count={stream.phrase_count}, last_incomplete={stream.last_incomplete}")
    return Sequence(alphabet, out)
