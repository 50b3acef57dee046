"""Incremental parsing of individual sequences and the matching stream codec.

The parse splits a sequence into phrases, each the shortest prefix of the
remaining input that has not appeared as a phrase before; a final partial
phrase is counted.  The normalized complexity of a sequence is
c * log2(c) / n where c is the phrase count.

Every parse is one trie walk, `walk`, over letters below a width w: node j
(the root is 0) has base j*w, and slot base + letter holds the child's base,
never 0, as the root is nobody's child.  The table is a flat list or a dict
of the filled slots.  The walk logs each new node's slot, node j's at
slots[j - 1], so it resumes from any base it returned, and
`undo(table, slots, keep)` leaves the trie of the first `keep` nodes.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import product as _iproduct
from typing import Iterable, List, Optional, Sequence as Seq, Tuple, Union

from .bitio import pack, refill
from .container import (
    MODE_LZ,
    Bitstream,
    ModeMismatchError,
    PointerRangeError,
    Record,
    StreamFormatError,
)


_BYTE_NAMES = frozenset(str(v) for v in range(256))  # canonical: "7", never "07" or "+7"


class Alphabet:
    """Ordered set of distinct symbol names; order fixes every index and code."""

    __slots__ = ("symbols", "index")

    def __init__(self, symbols: Iterable[str]) -> None:
        self.symbols: Tuple[str, ...] = tuple(symbols)
        if not self.symbols:
            raise ValueError("alphabet needs at least one symbol")
        self.index = {s: i for i, s in enumerate(self.symbols)}
        if len(self.index) != len(self.symbols):
            raise ValueError("duplicate alphabet symbols")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def byte_named(self) -> bool:
        """True when every symbol is a byte value's decimal name, str(v) for v
        in 0..255, so that symbols and bytes map one to one."""
        return all(s in _BYTE_NAMES for s in self.symbols)

    @property
    def bits_per_symbol(self) -> int:
        """Width of a fixed-length code for this alphabet (0 when unary)."""
        return (len(self.symbols) - 1).bit_length()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        if self.size <= 8:
            return f"Alphabet({list(self.symbols)!r})"
        return f"Alphabet(size={self.size})"

    @classmethod
    def of_size(cls, size: int) -> "Alphabet":
        """Canonical alphabet 0..size-1 with decimal symbol names."""
        return cls(tuple(str(i) for i in range(size)))


BINARY = Alphabet(("0", "1"))


_CHECK_SLICE = 1 << 16  # symbols type-checked per C-level pass in Sequence
_BYTE_VALUES = bytes(range(256))


class Sequence:
    """Immutable sequence of symbol indices over a fixed alphabet."""

    __slots__ = ("alphabet", "data")

    def __init__(self, alphabet: Alphabet, data: Iterable[int]) -> None:
        self.alphabet = alphabet
        self.data: Tuple[int, ...] = tuple(data)
        data = self.data
        if not data:
            return
        size = alphabet.size
        if size <= 256:
            # bytes() admits only integers in 0..255, and deleting the valid
            # indices leaves nothing: one C-level pass per bounded slice.  Any
            # other input takes the checks below, which name its fault.
            valid = _BYTE_VALUES[:size]
            try:
                for i in range(0, len(data), _CHECK_SLICE):
                    if bytes(data[i:i + _CHECK_SLICE]).translate(None, valid):
                        break
                else:
                    return
            except (TypeError, ValueError):
                pass
        try:
            # C-level passes that admit only integers, one bounded slice at a time
            for i in range(0, len(data), _CHECK_SLICE):
                array("q", data[i:i + _CHECK_SLICE])
        except TypeError:
            raise ValueError("symbol indices must be integers") from None
        except OverflowError:
            raise ValueError("symbol index out of range for alphabet") from None
        if min(data) < 0 or max(data) >= size:
            raise ValueError("symbol index out of range for alphabet")

    @classmethod
    def from_symbols(cls, alphabet: Alphabet, symbols: Iterable[str]) -> "Sequence":
        idx = alphabet.index
        return cls(alphabet, (idx[s] for s in symbols))

    @classmethod
    def from_text(cls, text: str, alphabet: Optional[Alphabet] = None) -> "Sequence":
        """One character per symbol; alphabet defaults to sorted distinct chars."""
        if alphabet is None:
            alphabet = Alphabet(sorted(set(text))) if text else BINARY
        return cls.from_symbols(alphabet, text)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sequence":
        """Alphabet = occurring byte values ascending, named by decimal value."""
        values = sorted(set(data))
        if not values:
            return cls(BINARY, ())
        alphabet = Alphabet(tuple(str(v) for v in values))
        remap = {v: i for i, v in enumerate(values)}
        return cls(alphabet, (remap[b] for b in data))

    def to_bytes(self) -> bytes:
        """One byte per symbol, the byte its name gives; needs `byte_named`."""
        if not self.alphabet.byte_named:
            raise ValueError("alphabet symbols are not byte values")
        table = bytes(int(s) for s in self.alphabet.symbols).ljust(256, b"\0")
        return bytes(self.data).translate(table)

    def symbols(self) -> List[str]:
        syms = self.alphabet.symbols
        return [syms[v] for v in self.data]

    @property
    def n(self) -> int:
        return len(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Sequence)
            and self.alphabet == other.alphabet
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.data))

    def __repr__(self) -> str:
        if self.n <= 32 and all(len(s) == 1 for s in self.alphabet.symbols):
            return f"Sequence({''.join(self.symbols())!r})"
        return f"Sequence(n={self.n}, alphabet={self.alphabet!r})"


@lru_cache(maxsize=64)
def _product_alphabet(symbol_sets: Tuple[Tuple[str, ...], ...]) -> Alphabet:
    names = tuple("|".join(combo) for combo in _iproduct(*symbol_sets))
    return Alphabet(names)


def product_alphabet(alphabets: Seq[Alphabet]) -> Alphabet:
    return _product_alphabet(tuple(a.symbols for a in alphabets))


def product_sequence(seqs: Seq[Sequence]) -> Sequence:
    """Zip sequences into one over the product alphabet, first listed most significant."""
    if not seqs:
        raise ValueError("empty sequence list")
    n = seqs[0].n
    if any(s.n != n for s in seqs):
        raise ValueError("sequences must have equal length")
    alphabet = product_alphabet([s.alphabet for s in seqs])
    data = seqs[0].data
    for s in seqs[1:]:
        size = s.alphabet.size
        data = [d * size + v for d, v in zip(data, s.data)]
    return Sequence(alphabet, data)


class ParseResult(Record):
    __slots__ = ("phrases",  # (start, length) per phrase
                 "c", "is_last_incomplete", "rho_lz", "code_len_bound")

def walk(table: Union[list, dict], slots: List[int], letters: Iterable[int], node: int,
         width: int) -> int:
    """Walk `letters` from the node with base `node`, adding a node per
    phrase, and return the base where the walk ends.

    `table` (a flat list or a dict) maps slot base + letter to the child's
    base for the nodes logged in `slots`.  A phrase's new node gets the next
    base, (len(slots) + 1)*width, and its slot goes to the end of `slots`, so
    `undo` can take it out again.
    """
    nxt = (len(slots) + 1) * width
    add = slots.append
    if type(table) is list:
        for s in letters:
            k = node + s
            node = table[k]
            if not node:  # a new phrase; the next starts at the root
                table[k] = nxt
                add(k)
                nxt += width
    else:
        get = table.get
        for s in letters:
            k = node + s
            node = get(k, 0)
            if not node:
                table[k] = nxt
                add(k)
                nxt += width
    return node


def undo(table: Union[list, dict], slots: List[int], keep: int) -> None:
    """Remove every node after the first `keep` from a walk's trie."""
    if type(table) is list:
        for k in slots[keep:]:
            table[k] = 0
    else:
        for k in slots[keep:]:
            del table[k]
    del slots[keep:]


def _lz_walk(data: Seq[int], size: int) -> Tuple[List[int], int]:
    """The incremental parse of `data`, every index below `size`, as a walk
    from the root of a new dict: (keys, last), keys[j-1] = parent*size +
    innovation of complete phrase j and last the node where the input ends,
    0 unless the last phrase is incomplete."""
    keys: List[int] = []
    return keys, walk({}, keys, data, 0, size) // size


def _phrases(keys: List[int], last: int, size: int) -> List[Tuple[int, int]]:
    """(start, length) of every phrase of a walk."""
    depth = [0]
    phrases: List[Tuple[int, int]] = []
    start = 0
    for k in keys:
        d = depth[k // size] + 1
        depth.append(d)
        phrases.append((start, d))
        start += d
    if last:
        phrases.append((start, depth[last]))
    return phrases


def rho_from_count(c: int, n: int) -> float:
    if n == 0 or c <= 1:
        return 0.0
    return c * math.log2(c) / n


def _code_len_bound(c: int, n: int, size: int) -> float:
    """The payload length bound of a c-phrase parse of n symbols over `size` letters."""
    from . import bounds

    if n == 0:
        return 0.0
    if n == 1:
        return math.inf  # the 1/log2(n) slack term diverges
    return (c * math.log2(c) if c > 1 else 0.0) + n * bounds.eps_slack(n, size)


def parse(seq: Sequence) -> ParseResult:
    keys, last = _lz_walk(seq.data, seq.alphabet.size)
    phrases = _phrases(keys, last, seq.alphabet.size)
    c = len(phrases)
    return ParseResult(
        phrases=tuple(phrases),
        c=c,
        is_last_incomplete=last != 0,
        rho_lz=rho_from_count(c, seq.n),
        code_len_bound=_code_len_bound(c, seq.n, seq.alphabet.size),
    )


def rho_lz(seq: Sequence) -> float:
    keys, last = _lz_walk(seq.data, seq.alphabet.size)
    return rho_from_count(len(keys) + (last != 0), seq.n)


def lz_encode(seq: Sequence) -> Bitstream:
    """Serialize the incremental parse: per phrase a back pointer plus, for
    complete phrases, the fixed-width innovation symbol."""
    size = seq.alphabet.size
    keys, last = _lz_walk(seq.data, size)
    symw = seq.alphabet.bits_per_symbol
    # phrase j + 1: its parent in j.bit_length() bits, then its innovation
    values = [k // size << symw | k % size for k in keys]
    widths = [j.bit_length() + symw for j in range(len(keys))]
    if last:
        values.append(last)
        widths.append(len(keys).bit_length())
    payload, payload_bits = pack(values, widths)
    return Bitstream(
        mode=MODE_LZ,
        n=seq.n,
        alphabet=seq.alphabet.symbols,
        phrase_count=len(keys) + (last != 0),
        last_incomplete=last != 0,
        payload=payload,
        payload_bits=payload_bits,
    )


def lz_decode(stream: Union[Bitstream, bytes]) -> Sequence:
    if isinstance(stream, (bytes, bytearray)):
        stream = Bitstream.from_bytes(bytes(stream))
    if stream.mode != MODE_LZ:
        raise ModeMismatchError("not a plain stream container")
    alphabet = Alphabet(stream.alphabet)
    size = alphabet.size
    symw = alphabet.bits_per_symbol
    payload = stream.payload
    n = stream.n
    c = stream.phrase_count
    # Phrase p is out[edge[p]:edge[p + 1]]: phrase 0 is empty, and each
    # complete phrase starts where the previous one ended.
    edge = [0, 0]
    out: List[int] = []
    acc = have = pos = 0  # the bit window of bitio.refill
    for j in range(1, c + 1):
        w = (j - 1).bit_length()
        if have < w:
            acc, have, pos = refill(payload, acc, have, pos, w)
        have -= w
        ptr = acc >> have
        acc ^= ptr << have
        if ptr >= j:
            raise PointerRangeError(f"phrase {j} points to undefined phrase {ptr} "
                                    f"at payload bit {8 * pos - have - w}")
        start, end = edge[ptr], edge[ptr + 1]
        if j == c and stream.last_incomplete:
            if len(out) + end - start != n:
                raise StreamFormatError("incomplete last phrase length mismatch "
                                        f"at payload bit {8 * pos - have - w}")
            out += out[start:end]
        else:
            if have < symw:
                acc, have, pos = refill(payload, acc, have, pos, symw)
            have -= symw
            s = acc >> have
            acc ^= s << have
            if s >= size:
                raise StreamFormatError(
                    f"symbol index {s} out of range at payload bit {8 * pos - have - symw}")
            if len(out) + end - start + 1 > n:
                raise StreamFormatError("decoded length exceeds header length "
                                        f"at payload bit {8 * pos - have - symw}")
            out += out[start:end]
            out.append(s)
            edge.append(len(out))
    if len(out) != n:
        raise StreamFormatError("decoded length differs from header length")
    return Sequence(alphabet, out)
