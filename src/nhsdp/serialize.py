"""File formats: JSON for designs, text or JSON for PDAs, CSV or JSON for tables.

Both PDA encodings round-trip bit-exactly; packing JSON stores every block
sorted ascending with the blocks themselves ordered by smallest element.
Every reader raises ValueError naming the field (or token) it rejects.
load_pda picks its reader by content, the *_for_path writers by file name.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from json.decoder import scanstring
from typing import NamedTuple, Sequence

import numpy as np

from .designs import NtapSet, PhfArray
from .packing import Cdp, Nhsdp
from .pda import STAR, Pda
from .schemes import ROW_FIELDS, SchemePoint
from .simulate import DeliveryTranscript


def nhsdp_to_json(packing: Nhsdp) -> str:
    blocks = sorted((sorted(blk) for blk in packing.blocks), key=lambda b: b[0])
    doc = {"v": packing.v, "g": packing.g, "blocks": blocks}
    return json.dumps(doc, indent=None, separators=(",", ":")) + "\n"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_list_of(ok):
    return lambda x: isinstance(x, list) and all(map(ok, x))


# What a JSON field must hold in every file format: (description, check).
_FIELDS = {
    "v": ("a positive integer", lambda x: _is_int(x) and x > 0),
    "g": ("an integer", _is_int),
    "blocks": ("a list of integer lists", _is_list_of(_is_list_of(_is_int))),
    "elements": ("a list of integers", _is_list_of(_is_int)),
    "grid": (
        "a list of rows of integers or '*'",
        _is_list_of(_is_list_of(lambda cell: _is_int(cell) or cell == "*")),
    ),
    **dict.fromkeys("FKZSrmqt", ("a non-negative integer", lambda x: _is_int(x) and x >= 0)),
}


def _doc(text: str, *fields: str) -> dict:
    """The JSON object in text with the named fields; checks every field present."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("must hold a JSON object")
    return _check_fields(doc, fields)


def _check_fields(doc: dict, fields: Sequence[str]) -> dict:
    for name in fields:
        if name not in doc:
            raise ValueError(f"no field {name!r}")
    for name, (what, ok) in _FIELDS.items():
        if name in doc and not ok(doc[name]):
            raise ValueError(f"field {name!r} must be {what}")
    return doc


def _int64_grid(rows: list, where: str) -> np.ndarray:
    try:
        return np.array(rows, dtype=np.int64)
    except (OverflowError, ValueError) as exc:  # a huge cell, ragged rows, or a '*'
        raise ValueError(f"{where}: {exc}") from None


def nhsdp_from_json(text: str) -> Nhsdp:
    doc = _doc(text, "v", "blocks")
    packing = Nhsdp.from_blocks(doc["v"], doc["blocks"])
    if "g" in doc and packing.blocks and doc["g"] != packing.g:
        raise ValueError(f"field 'g' is {doc['g']} but blocks have size {packing.g}")
    return packing


def cdp_to_json(cdp: Cdp) -> str:
    doc = {
        "v": cdp.v,
        "k": cdp.k,
        "elements": list(cdp.elements),
        "is_difference_set": cdp.is_difference_set,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def ntap_to_json(ntap: NtapSet) -> str:
    doc = {"v": ntap.v, "elements": list(ntap.elements)}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def ntap_from_json(text: str) -> NtapSet:
    """An NTAP file, or a single-block packing file read as its one block."""
    doc = _doc(text, "v")
    if "elements" in doc and "blocks" not in doc:
        return NtapSet.from_elements(doc["v"], doc["elements"])
    return NtapSet.from_packing(nhsdp_from_json(text))


def params_to_json(v: int, n: int, solver: str, m: Sequence[int], product: int, phi: int) -> str:
    doc = {"v": v, "n": n, "solver": solver, "m": list(m), "product": product, "phi": phi}
    return json.dumps(doc) + "\n"


# -- the PDA cell codec ---------------------------------------------------------
#
# Both PDA encodings are rows of decimal cells and a star token; they differ
# only in the bytes around the cells.  One writer and one reader serve both,
# a chunk of rows at a time, so no step runs Python code per cell and the
# working set beside the grid and the text stays bounded.  The writer looks
# each cell's bytes up in a table of decimals; the reader reads digits only
# where a token has them, eight at a time, so the stars of a sparse array
# cost one pass.

# Byte classes of the reader, from one bytes.translate table per dialect.
# A digit's class is its value, 0-9, so the classes are the digits to read.
# A token is a maximal run of classes <= _OTHER; the star's bytes have
# classes of their own, and the item classes of a JSON grid come last.
_ASTERISK, _QUOTE, _SIGN, _OTHER, _SPACE, _COMMA, _CLOSE, _ROW = range(10, 18)
_CHUNK = 1 << 18  # characters read, or cells written, per chunk
_PAD = b" " * 8  # before a chunk: the 8 classes that end at any token are a word
_INT64_MAX = np.uint64(2**63 - 1)
# The bits of a token's last d = 0..8 digits in the little-endian word of
# the 8 classes that end at the token: the word's top d bytes.
_LAST_DIGITS = np.array([(2**64 - 1) >> 8 * (8 - d) << 8 * (8 - d) for d in range(9)], dtype=np.uint64)


class _Dialect(NamedTuple):
    star: bytes  # the star cell
    sep: bytes  # between two cells of a row
    row_end: bytes  # after the last cell of a row
    classes: bytes  # reader: bytes.translate table, byte value -> class
    cut: str  # reader: chunks end just after this character
    bracketed: bool  # reader: rows are JSON lists; else every non-blank line is a row
    spaces: dict  # reader: str.translate table for non-ASCII whitespace


def _classes(groups: dict[int, str]) -> bytes:
    table = bytearray([_OTHER]) * 256
    table[ord("0") : ord("9") + 1] = range(10)
    for cls, chars in groups.items():
        for c in chars:
            table[ord(c)] = cls
    return bytes(table)


# str.split() and str.splitlines() also split at these non-ASCII characters.
_UNICODE_SPACES = {
    c: "\n" if len(f"a{chr(c)}a".splitlines()) > 1 else " "
    for c in range(0x80, 0x3001)
    if chr(c).isspace()
}

_TEXT = _Dialect(
    star=b"*",
    sep=b" ",
    row_end=b"\n",
    classes=_classes({_SPACE: " \t\x1f", _ROW: "\n\r\v\f\x1c\x1d\x1e", _ASTERISK: "*"}),
    cut="\n",
    bracketed=False,
    spaces=_UNICODE_SPACES,
)
_JSON = _Dialect(
    star=b'"*"',
    sep=b",",
    row_end=b"],[",
    classes=_classes(
        {_SPACE: " \t\n\r", _COMMA: ",", _ROW: "[", _CLOSE: "]", _SIGN: "-", _ASTERISK: "*", _QUOTE: '"'}
    ),
    cut="]",
    bracketed=True,
    spaces={},
)


def _decimals(values: np.ndarray, width: int) -> np.ndarray:
    """The ASCII digits of ascending values >= 0, right-aligned in ``width``
    byte slots with 0 in the slots before them: one row per value."""
    q = values.astype(np.min_scalar_type(values[-1]))  # narrow division is faster
    out = np.empty((values.size, width), dtype=np.uint8)
    for slot in range(width - 1, -1, -1):
        div = q // 10
        digit = (q - div * 10).astype(np.uint8) + np.uint8(ord("0"))
        out[:, slot] = digit if slot == width - 1 else digit * (q > 0)
        q = div
    return out


def _cell_table(values: np.ndarray, width: int, sep: np.ndarray, star: bytes) -> np.ndarray:
    """One row of written bytes per value: the cell in ``width`` slots, the star
    for STAR, then ``sep``; the 0 bytes are slots the text leaves out."""
    table = np.zeros((values.size, width + sep.size), dtype=np.uint8)
    table[:, :width] = _decimals(values, width)
    table[:, width:] = sep
    if values[0] == STAR:
        table[0, :width] = 0
        table[0, width - len(star) : width] = np.frombuffer(star, dtype=np.uint8)
    return table


def _write_rows(grid: np.ndarray, d: _Dialect):
    """Yield the rows as bytes, a chunk at a time: each row its cells joined
    by d.sep and followed by d.row_end.

    A cell's bytes are a row of a table built once per call, one row for
    each value in 0..top.  That needs top < F*K, as in every valid PDA with
    a star: S is at most its non-star cells.  A grid with a larger cell gets
    a table of each chunk's own values instead, so no cell value sizes it.
    A chunk of rows is then one take of table rows, the row ends put in,
    and the 0 slots dropped from its bytes by one ``bytes.translate``.
    """
    F, K = grid.shape
    top = int(grid.max())
    width = max(len(str(top)), len(d.star))
    gap = max(len(d.sep), len(d.row_end))
    sep, row_end = (np.frombuffer(s.ljust(gap, b"\0"), dtype=np.uint8) for s in (d.sep, d.row_end))
    dense = top < F * K
    if dense:
        table = _cell_table(np.arange(top + 1), width, sep, d.star)
    step = max(1, _CHUNK // K)
    for r in range(0, F, step):
        index = grid[r : r + step]
        if not dense:
            values, inverse = np.unique(index, return_inverse=True)
            table, index = _cell_table(values, width, sep, d.star), inverse.reshape(index.shape)
        buf = table.take(index, axis=0)
        buf[:, -1, width:] = row_end
        yield buf.tobytes().translate(None, b"\0")


class _Malformed(Exception):
    """A token or a bracket the format does not allow; args[0] is the token."""


def _tokens(cls: np.ndarray, d: _Dialect):
    """Token bounds of one chunk, and the index of its first invalid token.

    ``cls`` holds the chunk's classes between two spaces, so every token
    starts at a rising edge of the token mask and ends at a falling one.
    A valid token is the star, or ASCII digits: at most the interpreter's
    int digit limit, and in JSON without a leading zero and with an optional
    '-' in front.  Returns (start, end, digits, negative, first_bad), where
    negative is None in a dialect without a sign.
    """
    token = cls <= _OTHER
    edge = np.flatnonzero(token[1:] != token[:-1])
    edge += 1
    start, end = edge[::2], edge[1::2]
    digits = end - start
    star = d.star.translate(d.classes)
    is_star = digits == len(star)
    for i, c in enumerate(star):
        is_star &= cls.take(start + i, mode="clip") == c
    negative = None
    if _SIGN in d.classes:
        negative = (cls.take(start) == _SIGN) & (digits > 1)
        digits -= negative
    digits[is_star] = 0
    zero = None
    if d.bracketed:  # JSON numbers have no leading zero
        zero = (digits > 1) & (cls.take(end - digits) == 0)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python >= 3.10.7
    # No token holds more digit bytes than ``digits`` says, and every digit
    # byte is in a token, so the sums agree only if every token does.
    if (
        digits.sum() == np.count_nonzero(cls < 10)
        and not (limit and digits.max(initial=0) > limit)
        and not (zero is not None and zero.any())
    ):
        return start, end, digits, negative, None
    bad = np.add.reduceat(cls < 10, start, dtype=np.intp) != digits
    if limit:
        bad |= digits > limit
    if zero is not None:
        bad |= zero
    return start, end, digits, negative, int(np.argmax(bad))


def _word_values(words: np.ndarray, end: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The number in the last min(digits, 8) digit classes before each end.

    The 8 classes that end there are one little-endian word, so its last
    digit is its top byte; the word is masked to the token's digits, and
    three multiply-shift steps each join neighbouring runs of digits in
    place: bytes into pairs, pairs into fours, fours into the number.
    """
    w = words[end - 8]
    w &= _LAST_DIGITS.take(digits, mode="clip")  # over 8 digits: the whole word
    w *= 10 << 8 | 1
    w >>= 8
    w &= 0x00FF00FF00FF00FF
    w *= 100 << 16 | 1
    w >>= 16
    w &= 0x0000FFFF0000FFFF
    w *= 10000 << 32 | 1
    w >>= 32
    return w


def _values(cls: np.ndarray, end, digits, negative, out: np.ndarray) -> bool:
    """Write the int64 value of every token into ``out``, which holds
    zeros, and return whether one overflows.

    Digits are read a word of 8 at a time, and a star reads as 0.  When
    half the tokens or more are stars, only the others are read.  19
    digits fit in uint64, in three words; more fit int64 only after
    leading zeros.
    """
    num = slice(None)  # each star is one masked word
    if 2 * np.count_nonzero(digits) <= digits.size:
        num = np.flatnonzero(digits != 0)
    end, digits = end[num], digits[num]
    words = np.ndarray((cls.size - 7,), dtype="<u8", buffer=cls, strides=(1,))
    got = _word_values(words, end, digits)
    top = min(int(digits.max(initial=0)), 19)
    for k in range(1, (top + 7) // 8):
        more = np.flatnonzero(digits > 8 * k)
        part = _word_values(words, end[more] - 8 * k, np.minimum(digits[more], 19) - 8 * k)
        got[more] += part * np.uint64(10 ** (8 * k))
    if negative is not None:
        negative = negative[num]
    over = False
    if top == 19:
        long = np.flatnonzero(digits >= 19)
        over = bool((got[long] > _INT64_MAX + (0 if negative is None else negative[long])).any())
        long = long[digits[long] > 19]
        if long.size:  # more than 19 digits fit only after leading zeros
            nonzero = np.r_[0, np.cumsum(cls > 0)]
            over |= bool((nonzero[end[long] - 19] > nonzero[end[long] - digits[long]]).any())
    got = got.view(np.int64)
    if negative is not None:
        np.negative(got, out=got, where=negative)
    out[num] = got
    return over


def _check_brackets(cls: np.ndarray, start: np.ndarray, before: int) -> int:
    """Check the JSON list syntax of a chunk of rows; returns its last item.

    Items are the tokens (as _OTHER) and the bytes ',', ']' and '['; a valid
    sequence is rows '[' (cell (',' cell)*)? ']' joined by ','.  ``before``
    is the last item of the previous chunk, or -1 at the start of the grid.
    """
    mark = cls >= _COMMA
    mark[start] = True
    item = np.r_[np.int8(before), np.maximum(cls[mark], _OTHER).astype(np.int8)]
    comma = np.flatnonzero(item[1:-1] == _COMMA) + 1
    ok = _ITEM_PAIRS[item[:-1] + 1, item[1:]].all()
    ok &= ((item[comma - 1] == _CLOSE) == (item[comma + 1] == _ROW)).all()
    if not ok:
        raise _Malformed(None)
    return int(item[-1])


# The item pairs of a valid JSON grid: from the start (-1) to '[', '[' to
# a cell or ']', a cell to ',' or ']', ',' to a cell or '[', and ']' to ','.
_ITEM_PAIRS = np.zeros((_ROW + 2, _ROW + 1), dtype=bool)
for _a, _b in ((-1, _ROW), (_ROW, _OTHER), (_ROW, _CLOSE), (_OTHER, _COMMA),
               (_OTHER, _CLOSE), (_COMMA, _OTHER), (_COMMA, _ROW), (_CLOSE, _COMMA)):
    _ITEM_PAIRS[_a + 1, _b] = True

# The two faults that show only once every token is read, worded as
# np.array(rows, dtype=np.int64) words them for nested lists.
_RAGGED = (
    "setting an array element with a sequence. The requested array has an "
    "inhomogeneous shape after 1 dimensions. The detected shape was ({},) + "
    "inhomogeneous part."
)
_TOO_LARGE = "Python int too large to convert to C long"


def _read_rows(text: str, lo: int, hi: int, d: _Dialect) -> tuple[np.ndarray, str | None]:
    """The int64 grid held by text[lo:hi], and a ragged or overflow fault, if any.

    The text is read in chunks that end just after ``d.cut``.  A chunk's
    bytes become classes with one ``bytes.translate``, and its values go
    straight into one flat grid, so the grid is held once.  It starts
    zeroed, so stars take no write, with room for the rest of the text at
    the cells per byte read so far.  When the text runs denser it grows by
    ``ndarray.resize``, a realloc: that copies the whole grid when its
    block cannot be extended.  At the end it is cut to the cells read.
    Raises _Malformed at the first token (in text order) the format does
    not allow.
    """
    grid = np.zeros(0, dtype=np.int64)
    cells, rows, K, ragged, over, item = 0, 0, None, False, False, -1
    a = lo
    while a < hi:
        b = text.find(d.cut, min(a + _CHUNK, hi), hi)
        b = hi if b < 0 else b + 1
        chunk = text[a:b]
        if chunk.isascii():
            raw = chunk.encode("ascii")
        else:
            raw = chunk.translate(d.spaces).encode("utf-8", "surrogatepass")
        cls = np.frombuffer(b"".join((_PAD, raw, b" ")).translate(d.classes), dtype=np.uint8)
        start, end, digits, negative, bad = _tokens(cls, d)
        if bad is not None:
            token = raw[start[bad] - len(_PAD) : end[bad] - len(_PAD)]
            raise _Malformed(token.decode("utf-8", "surrogatepass"))
        if d.bracketed:
            item = _check_brackets(cls, start, item)
        counts = np.diff(np.r_[0, np.searchsorted(start, np.flatnonzero(cls == _ROW)), start.size])
        counts = counts[1:] if d.bracketed else counts[counts > 0]
        if counts.size and K is None:
            K = int(counts[0])
        rows += counts.size
        ragged |= bool((counts != K).any())  # then only count rows and check tokens
        if counts.size and not (ragged or over):
            need = cells + start.size
            if need > grid.size:
                size = need + need * (hi - b) // (b - lo)
                if grid.size:  # realloc: no view of the grid is held here
                    grid.resize(size, refcheck=False)
                else:
                    grid = np.zeros(size, dtype=np.int64)
            over = _values(cls, end, digits, negative, grid[cells:need])
            cells = need
        a = b
    if d.bracketed and item not in (-1, _CLOSE):
        raise _Malformed(None)
    if ragged:
        return np.empty(0, dtype=np.int64), _RAGGED.format(rows)
    if over:
        return np.empty(0, dtype=np.int64), _TOO_LARGE
    grid.resize(cells, refcheck=False)
    return grid.reshape(rows, K) if rows else grid, None


# -- PDA files --------------------------------------------------------------------

_PDA_FIELDS = ("F", "K", "Z", "S", "grid")
_JSON_SPACE = re.compile(r"[ \t\n\r]*")
# A grid list is '[]' or ends at its first ']]', since its rows hold no lists.
_EMPTY_LIST = re.compile(r"\[[ \t\n\r]*\]")
_LAST_ROW_END = re.compile(r"\][ \t\n\r]*\]")


def _pda_json_fields(text: str) -> tuple[dict, tuple[int, int] | None]:
    """The top-level fields of a PDA JSON object, and the span of its grid list.

    Every value but the grid list is decoded by json; the grid list is only
    delimited, for the cell codec to read.  Raises ValueError where json would.
    """
    decode, space = json.JSONDecoder().raw_decode, lambda i: _JSON_SPACE.match(text, i).end()
    doc, span = {}, None
    i = space(0)
    if not text.startswith("{", i):
        raise ValueError("not a JSON object")
    i = space(i + 1)
    closed = text.startswith("}", i)
    i += closed
    while not closed:
        if not text.startswith('"', i):
            raise ValueError("expected a key")
        key, i = scanstring(text, i + 1)
        i = space(i)
        if not text.startswith(":", i):
            raise ValueError("expected ':'")
        i = space(i + 1)
        if key == "grid" and span:  # a repeated key: json checks the earlier value too
            decode(text, span[0])
            span = None
        grid = key == "grid" and text.startswith("[", i) and (
            _EMPTY_LIST.match(text, i) or _LAST_ROW_END.search(text, i)
        )
        if grid:
            span, doc[key], i = (i, grid.end()), [], grid.end()
        else:
            doc[key], i = decode(text, i)
        i = space(i)
        if not text.startswith((",", "}"), i):
            raise ValueError("expected ',' or '}'")
        closed = text.startswith("}", i)
        i = space(i + 1)
    if space(i) != len(text):
        raise ValueError("extra data")
    return doc, span


def pda_json_chunks(pda: Pda):
    """Yield the PDA JSON object as bytes, a chunk of grid rows at a time."""
    head = json.dumps({"F": pda.F, "K": pda.K, "Z": pda.Z, "S": pda.S}, separators=(",", ":"))
    yield f'{head[:-1]},"grid":[['.encode()
    rows = _write_rows(pda.grid, _JSON)
    last = next(rows)
    for piece in rows:
        yield last
        last = piece
    yield last[:-2] + b"]}\n"  # the last row ends with ']', not '],['


def pda_to_json(pda: Pda) -> str:
    return b"".join(pda_json_chunks(pda)).decode("ascii")


def pda_from_json(text: str) -> Pda:
    """A PDA JSON object; cells are integers or "*" (not written with escapes)."""
    try:
        doc, span = _pda_json_fields(text)
        grid, fault = _read_rows(text, span[0] + 1, span[1] - 1, _JSON) if span else (None, None)
    except (ValueError, _Malformed):
        _doc(text, *_PDA_FIELDS)  # raises json's message or names the field
        raise ValueError("field 'grid' must write the star as \"*\", without escapes") from None
    _check_fields(doc, _PDA_FIELDS)
    if fault:
        raise ValueError(f"field 'grid': {fault}")
    pda = Pda(grid, Z=doc["Z"], S=doc["S"])
    if (pda.F, pda.K) != (doc["F"], doc["K"]):
        raise ValueError(f"fields 'F', 'K' do not match the {pda.F}x{pda.K} grid")
    return pda


def pda_text_chunks(pda: Pda):
    """Yield the PDA text as bytes, a chunk of rows at a time."""
    return _write_rows(pda.grid, _TEXT)


def pda_to_text(pda: Pda) -> str:
    """One row per line, single-space separated, '*' for stars."""
    return b"".join(pda_text_chunks(pda)).decode("ascii")


def pda_from_text(text: str) -> Pda:
    """Read PDA text: one row per non-blank line, cells split at whitespace.

    A cell is '*' (the star) or ASCII decimal digits, leading zeros allowed,
    up to 2**63 - 1.  Lines may end in '\\n', '\\r\\n' or any other break
    str.splitlines() knows, and cells may be split by any whitespace
    str.split() knows.  Unlike int(), a token with a sign, an underscore or a
    non-ASCII digit is rejected, with a message naming it.
    """
    try:
        grid, fault = _read_rows(text, 0, len(text), _TEXT)
    except _Malformed as exc:
        token = exc.args[0]
    else:
        if fault:
            raise ValueError(f"PDA text: {fault}")
        return Pda.from_grid(grid)
    int(token)  # raises int's own message for a token it rejects
    raise ValueError(f"PDA text: token {token!r} is not '*' or ASCII decimal digits")


def load_pda(text: str) -> Pda:
    """Accept either encoding; JSON is detected by its leading brace."""
    if text.lstrip().startswith("{"):
        return pda_from_json(text)
    return pda_from_text(text)


def pda_chunks_for_path(pda: Pda, path: str):
    """The PDA as a file at path holds it, as byte chunks: JSON for a .json
    name (any case), else text."""
    return pda_json_chunks(pda) if str(path).lower().endswith(".json") else pda_text_chunks(pda)


def phf_to_json(phf: PhfArray) -> str:
    doc = {
        "r": phf.r,
        "m": phf.m,
        "q": phf.q,
        "t": phf.t,
        "grid": phf.grid.tolist(),
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def phf_from_json(text: str) -> PhfArray:
    doc = _doc(text, "r", "m", "q", "t", "grid")
    phf = PhfArray(doc["q"], doc["t"], _int64_grid(doc["grid"], "field 'grid'"))
    if (phf.r, phf.m) != (doc["r"], doc["m"]):
        raise ValueError(f"fields 'r', 'm' do not match the {phf.r}x{phf.m} grid")
    return phf


# Payload hex: the two ASCII digits of each byte value, one uint16 per value.
_HEX = np.frombuffer(bytes(range(256)).hex().encode(), dtype=np.uint16)


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8)


def transcript_chunks(transcript: DeliveryTranscript):
    """Yield the transcript JSON as bytes: the head fields, then one record
    per payload row in symbol order, a chunk of records at a time.

    A chunk is one uint8 table with a row per record and fixed slots in it:
    '{"symbol":' and the symbol's decimals, the payload's hex from a table
    of byte values, a '[user,row],' slot per cell of the chunk's largest
    group, and ']},'.  The cells are written from two tables of decimals,
    '[user,' and 'row],', and go into the leading cell slots of their
    record with one scatter; an absent symbol fills none, and the comma
    after a record's last cell is cleared.  The 0 slots are then dropped
    from its bytes by one ``bytes.translate``, as in the PDA writer, so no
    Python code runs per symbol or per cell.  A chunk holds as many
    records as fit ``_CHUNK`` bytes at the previous chunk's width, cut
    back to fit at its own, so its table holds about ``_CHUNK`` bytes, or
    one record, and one wide group widens only the chunk it is in.
    """
    head = json.dumps(
        {
            "seed": transcript.seed,
            "packet_len": transcript.packet_len,
            "demands": list(transcript.demands),
            "bytes_on_wire": transcript.bytes_on_wire,
        },
        separators=(",", ":"),
    )
    yield f'{head[:-1]},"transmissions":['.encode()
    wire = transcript.payloads
    row, user, present, start = transcript.groups
    S, L = wire.shape
    top = int(max(row.max(initial=0), user.max(initial=0)))
    nd, ns = len(str(top)), len(str(S))
    digits = _decimals(np.arange(top + 1), nd)
    half, cell = np.dtype((np.void, nd + 2)), np.dtype((np.void, 2 * nd + 4))
    opens = np.zeros((top + 1, nd + 2), dtype=np.uint8)  # '[' user ','
    opens[:, 0], opens[:, 1:-1], opens[:, -1] = ord("["), digits, ord(",")
    closes = np.zeros((top + 1, nd + 2), dtype=np.uint8)  # row '],'
    closes[:, :nd], closes[:, nd:] = digits, _ascii("],")
    opens, closes = opens.view(half).ravel(), closes.view(half).ravel()
    # Record slots: '{"symbol":', symbol, payload hex, then the cells and ']},'.
    lead, mid, tail = _ascii('{"symbol":'), _ascii(',"payload":"'), _ascii('","contributors":[')
    sym = lead.size
    hex0 = sym + ns + mid.size
    cell0 = hex0 + 2 * L + tail.size
    front = np.zeros(cell0, dtype=np.uint8)
    front[:sym], front[sym + ns : hex0], front[cell0 - tail.size :] = lead, mid, tail

    def chunk(lo, hi):
        """The groups' bounds, records and sizes, and the largest size, of
        symbols lo+1..hi."""
        g0, g1 = np.searchsorted(present, [lo + 1, hi + 1])
        bounds = start[g0 : g1 + 1]
        counts = np.diff(bounds)
        return bounds, present[g0:g1] - 1 - lo, counts, int(counts.max(initial=0))

    def width(g):
        return cell0 + g * cell.itemsize + 3

    lo, g = 0, 1
    while lo < S:
        hi = min(S, lo + max(1, _CHUNK // width(g)))
        bounds, recs, counts, g = chunk(lo, hi)
        if (hi - lo) * width(g) > _CHUNK:  # cut back to fit at the chunk's own width
            hi = lo + max(1, _CHUNK // width(g))
            bounds, recs, counts, g = chunk(lo, hi)
        a, b = bounds[0], bounds[-1]
        record = np.zeros(width(g), dtype=np.uint8)
        record[:cell0], record[-3:] = front, _ascii("]},")
        table = np.empty((hi - lo, record.size), dtype=np.uint8)
        table[:] = record
        table[:, sym : sym + ns] = _decimals(np.arange(lo + 1, hi + 1), ns)
        table[:, hex0 : hex0 + 2 * L] = _HEX.take(wire[lo:hi]).view(np.uint8)
        cells = np.empty((b - a, 2), dtype=half)
        opens.take(user[a:b], out=cells[:, 0])
        closes.take(row[a:b], out=cells[:, 1])
        slots = table[:, cell0 : cell0 + g * cell.itemsize].view(cell)  # (records, g)
        place = np.arange(a, b) - np.repeat(bounds[:-1], counts)  # of each cell in its group
        slots[np.repeat(recs, counts), place] = cells.view(cell)[:, 0]
        table[recs, cell0 + counts * cell.itemsize - 1] = 0
        text = table.tobytes().translate(None, b"\0")
        yield text if hi < S else text[:-1]  # the last record ends with '}'
        lo = hi
    yield b"]}\n"


def transcript_to_json(transcript: DeliveryTranscript) -> str:
    """The transcript JSON: the chunks of ``transcript_chunks`` joined."""
    return b"".join(transcript_chunks(transcript)).decode("ascii")


CSV_COLUMNS = ROW_FIELDS


def scheme_points_to_csv(points: Sequence[SchemePoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(point.as_fields() for point in points)
    return buf.getvalue()


def scheme_points_to_json(points: Sequence[SchemePoint]) -> str:
    return json.dumps([point.as_row() for point in points], indent=2) + "\n"


def scheme_points_for_path(points: Sequence[SchemePoint], path: str) -> str:
    """The table as a file at path holds it: JSON for a .json name (any case), else CSV."""
    if str(path).lower().endswith(".json"):
        return scheme_points_to_json(points)
    return scheme_points_to_csv(points)
