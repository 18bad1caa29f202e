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
from .schemes import SchemePoint
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
# where a token has them, so the stars of a sparse array cost one pass.

# Byte classes of the reader.  A token is a maximal run of classes >= _DIGIT.
_SPACE, _COMMA, _CLOSE, _ROW, _DIGIT, _SIGN, _OTHER = range(7)
_CHUNK = 1 << 18  # characters read, or cells written, per chunk
_INT64_MAX = np.uint64(2**63 - 1)
_TEN = np.uint64(10)


class _Dialect(NamedTuple):
    star: bytes  # the star cell
    sep: bytes  # between two cells of a row
    row_end: bytes  # after the last cell of a row
    classes: np.ndarray  # reader: byte value -> class
    cut: str  # reader: chunks end just after this character
    bracketed: bool  # reader: rows are JSON lists; else every non-blank line is a row
    spaces: dict  # reader: str.translate table for non-ASCII whitespace


def _classes(groups: dict[int, str]) -> np.ndarray:
    table = np.full(256, _OTHER, dtype=np.uint8)
    table[ord("0") : ord("9") + 1] = _DIGIT
    for cls, chars in groups.items():
        table[[ord(c) for c in chars]] = cls
    return table


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
    classes=_classes({_SPACE: " \t\x1f", _ROW: "\n\r\v\f\x1c\x1d\x1e"}),
    cut="\n",
    bracketed=False,
    spaces=_UNICODE_SPACES,
)
_JSON = _Dialect(
    star=b'"*"',
    sep=b",",
    row_end=b"],[",
    classes=_classes({_SPACE: " \t\n\r", _COMMA: ",", _ROW: "[", _CLOSE: "]", _SIGN: "-"}),
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


def _write_rows(grid: np.ndarray, d: _Dialect) -> list[str]:
    """Each row as its cells joined by d.sep and followed by d.row_end.

    A cell's bytes are a row of a table built once per call, one row for
    each value in 0..top.  That needs top < F*K, as in every valid PDA with
    a star: S is at most its non-star cells.  A grid with a larger cell gets
    a table of each chunk's own values instead, so no cell value sizes it.
    A chunk of rows is then one take of table rows, the row ends put in,
    and the 0 slots dropped.
    """
    F, K = grid.shape
    top = int(grid.max())
    width = max(len(str(top)), len(d.star))
    gap = max(len(d.sep), len(d.row_end))
    sep, row_end = (np.frombuffer(s.ljust(gap, b"\0"), dtype=np.uint8) for s in (d.sep, d.row_end))
    dense = top < F * K
    if dense:
        table = _cell_table(np.arange(top + 1), width, sep, d.star)
    pieces = []
    step = max(1, _CHUNK // K)
    for r in range(0, F, step):
        index = grid[r : r + step]
        if not dense:
            values, inverse = np.unique(index, return_inverse=True)
            table, index = _cell_table(values, width, sep, d.star), inverse.reshape(index.shape)
        buf = table.take(index, axis=0)
        buf[:, -1, width:] = row_end
        pieces.append(buf[buf != 0].tobytes().decode("ascii"))
    return pieces


class _Malformed(Exception):
    """A token or a bracket the format does not allow; args[0] is the token."""


def _tokens(buf: np.ndarray, cls: np.ndarray, d: _Dialect):
    """Token bounds of one chunk, and the index of its first invalid token.

    A valid token is the star, or ASCII digits: at most the interpreter's
    int digit limit, and in JSON without a leading zero and with an optional
    '-' in front.  Returns (start, end, digits, negative, first_bad).
    """
    edge = np.flatnonzero(np.diff(cls >= _DIGIT, prepend=False, append=False))
    start, end = edge[::2], edge[1::2]
    length = end - start
    is_star = length == len(d.star)
    for i, byte in enumerate(d.star):
        is_star &= buf.take(start + i, mode="clip") == byte
    negative = (cls.take(start, mode="clip") == _SIGN) & (length > 1)
    digits = length - np.where(is_star, length, negative)
    # The stars and signs hold every non-digit byte of a chunk without a bad token.
    bad = np.zeros(start.size, dtype=bool)
    if np.count_nonzero(cls > _DIGIT) != is_star.sum() * len(d.star) + negative.sum():
        odd = np.add.reduceat(cls > _DIGIT, start, dtype=np.intp)
        bad = odd != length - digits
    if d.bracketed:  # JSON numbers have no leading zero
        bad |= (digits > 1) & (buf.take(end - digits, mode="clip") == ord("0"))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python >= 3.10.7
    if limit:
        bad |= digits > limit
    first_bad = int(np.argmax(bad)) if bad.any() else None
    return start, end, digits, negative, first_bad


def _values(buf: np.ndarray, end, digits, negative) -> tuple[np.ndarray, bool]:
    """The int64 value of every token, and whether one overflows.

    Only tokens with digits are read, by digit position; the stars stay 0.
    """
    value = np.zeros(end.size, dtype=np.int64)
    num = np.flatnonzero(digits)
    end, digits, negative = end[num], digits[num], negative[num]
    width = min(int(digits.max(initial=0)), 19)  # 19 digits fit in uint64
    got = np.zeros(num.size, dtype=np.uint64)
    pos = end - width
    for j in range(width):
        digit = buf.take(pos, mode="clip") - np.uint8(ord("0"))
        digit[digits < width - j] = 0
        got *= _TEN
        got += digit
        pos += 1
    over = got > _INT64_MAX + negative
    long = np.flatnonzero(digits > 19)
    if long.size:  # more than 19 digits fit only after leading zeros
        nonzero = np.r_[0, np.cumsum(buf > ord("0"))]
        over[long] |= nonzero[end[long] - 19] > nonzero[end[long] - digits[long]]
    got = got.view(np.int64)
    got[negative] = -got[negative]
    value[num] = got
    return value, bool(over.any())


def _check_brackets(cls: np.ndarray, start: np.ndarray, before: int) -> int:
    """Check the JSON list syntax of a chunk of rows; returns its last item.

    Items are the tokens (as _DIGIT) and the bytes ',', ']' and '['; a valid
    sequence is rows '[' (cell (',' cell)*)? ']' joined by ','.  ``before``
    is the last item of the previous chunk, or -1 at the start of the grid.
    """
    mark = (cls - np.uint8(_COMMA)) <= _ROW - _COMMA
    mark[start] = True
    item = np.r_[np.int8(before), np.minimum(cls[mark], _DIGIT).astype(np.int8)]
    comma = np.flatnonzero(item[1:-1] == _COMMA) + 1
    ok = _ITEM_PAIRS[item[:-1] + 1, item[1:]].all()
    ok &= ((item[comma - 1] == _CLOSE) == (item[comma + 1] == _ROW)).all()
    if not ok:
        raise _Malformed(None)
    return int(item[-1])


# The item pairs of a valid JSON grid: from the start (-1) to '[', '[' to
# a cell or ']', a cell to ',' or ']', ',' to a cell or '[', and ']' to ','.
_ITEM_PAIRS = np.zeros((_DIGIT + 2, _DIGIT + 1), dtype=bool)
for _a, _b in ((-1, _ROW), (_ROW, _DIGIT), (_ROW, _CLOSE), (_DIGIT, _COMMA),
               (_DIGIT, _CLOSE), (_COMMA, _DIGIT), (_COMMA, _ROW), (_CLOSE, _COMMA)):
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

    The text is read in chunks that end just after ``d.cut``.  Raises
    _Malformed at the first token (in text order) the format does not allow.
    """
    blocks, rows, K, ragged, over, item = [], 0, None, False, False, -1
    a = lo
    while a < hi:
        b = text.find(d.cut, min(a + _CHUNK, hi), hi)
        b = hi if b < 0 else b + 1
        chunk = text[a:b]
        if chunk.isascii():
            raw = chunk.encode("ascii")
        else:
            raw = chunk.translate(d.spaces).encode("utf-8", "surrogatepass")
        buf = np.frombuffer(raw, dtype=np.uint8)
        cls = d.classes.take(buf)
        start, end, digits, negative, bad = _tokens(buf, cls, d)
        if bad is not None:
            raise _Malformed(raw[start[bad] : end[bad]].decode("utf-8", "surrogatepass"))
        if d.bracketed:
            item = _check_brackets(cls, start, item)
        counts = np.diff(np.r_[0, np.searchsorted(start, np.flatnonzero(cls == _ROW)), start.size])
        counts = counts[1:] if d.bracketed else counts[counts > 0]
        if counts.size and K is None:
            K = int(counts[0])
        rows += counts.size
        ragged |= bool((counts != K).any())  # then only count rows and check tokens
        if counts.size and not (ragged or over):
            value, over = _values(buf, end, digits, negative)
            blocks.append(value.reshape(counts.size, K))
        a = b
    if d.bracketed and item not in (-1, _CLOSE):
        raise _Malformed(None)
    if ragged:
        return np.empty(0, dtype=np.int64), _RAGGED.format(rows)
    if over:
        return np.empty(0, dtype=np.int64), _TOO_LARGE
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64), None


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


def pda_to_json(pda: Pda) -> str:
    head = json.dumps({"F": pda.F, "K": pda.K, "Z": pda.Z, "S": pda.S}, separators=(",", ":"))
    rows = _write_rows(pda.grid, _JSON)
    rows[-1] = rows[-1][:-2]  # the last row ends with ']', not '],['
    return "".join([head[:-1], ',"grid":[[', *rows, "]}\n"])


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


def pda_to_text(pda: Pda) -> str:
    """One row per line, single-space separated, '*' for stars."""
    return "".join(_write_rows(pda.grid, _TEXT))


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


def pda_for_path(pda: Pda, path: str) -> str:
    """The PDA as a file at path holds it: JSON for a .json name (any case), else text."""
    return pda_to_json(pda) if str(path).lower().endswith(".json") else pda_to_text(pda)


def phf_to_json(phf: PhfArray) -> str:
    doc = {
        "r": phf.r,
        "m": phf.m,
        "q": phf.q,
        "t": phf.t,
        "grid": [[int(v) for v in row] for row in phf.grid],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def phf_from_json(text: str) -> PhfArray:
    doc = _doc(text, "r", "m", "q", "t", "grid")
    phf = PhfArray(doc["q"], doc["t"], _int64_grid(doc["grid"], "field 'grid'"))
    if (phf.r, phf.m) != (doc["r"], doc["m"]):
        raise ValueError(f"fields 'r', 'm' do not match the {phf.r}x{phf.m} grid")
    return phf


def transcript_to_json(transcript: DeliveryTranscript) -> str:
    """The head fields, then one record per payload row in symbol order.

    Symbols go in chunks of about ``_CHUNK`` cells: the chunk's payloads are
    hex-encoded at once, its cells are written as "[user,row]," at once from
    one decimal table, and a record slices its symbol group's cells out of
    that text.  An absent symbol has none.
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
    wire = transcript.payloads
    row, user, symbol, start = transcript.groups
    present = symbol[start[:-1]]  # the symbol of each group, ascending
    S, width = wire.shape[0], 2 * wire.shape[1]
    top = int(max(row.max(initial=0), user.max(initial=0)))
    nd = len(str(top))
    digits = _decimals(np.arange(top + 1), nd)
    cell = np.zeros(2 * nd + 4, dtype=np.uint8)  # '[', user, ',', row, '],'
    cell[[0, nd + 1, -2, -1]] = np.frombuffer(b"[,],", dtype=np.uint8)
    step = max(1, _CHUNK * S // max(1, S, len(row)))
    chunks = []
    for lo in range(0, S, step):
        hi = min(lo + step, S)
        hexes = wire[lo:hi].tobytes().hex()
        g0, g1 = np.searchsorted(present, [lo + 1, hi + 1])
        u, j = user[start[g0] : start[g1]], row[start[g0] : start[g1]]
        buf = np.tile(cell, (u.size, 1))
        buf[:, 1 : nd + 1] = digits[u]
        buf[:, nd + 2 : 2 * nd + 2] = digits[j]
        keep = buf != 0
        cells = buf[keep].tobytes().decode("ascii")
        ends = np.r_[0, np.cumsum(np.count_nonzero(keep, axis=1))][start[g0 : g1 + 1] - start[g0]].tolist()
        contributors = [""] * (hi - lo)
        for s, a, b in zip(present[g0:g1].tolist(), ends, ends[1:]):
            contributors[s - 1 - lo] = cells[a : b - 1]
        chunks.append(",".join(
            f'{{"symbol":{lo + i + 1},"payload":"{hexes[i * width : (i + 1) * width]}",'
            f'"contributors":[{joined}]}}'
            for i, joined in enumerate(contributors)
        ))
    return f'{head[:-1]},"transmissions":[{",".join(chunks)}]}}\n'


CSV_COLUMNS = (
    "scheme",
    "params",
    "K",
    "memory_ratio_num",
    "memory_ratio_den",
    "load_num",
    "load_den",
    "F",
    "gain_num",
    "gain_den",
)


def scheme_points_to_csv(points: Sequence[SchemePoint]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for point in points:
        writer.writerow(point.as_row())
    return buf.getvalue()


def scheme_points_to_json(points: Sequence[SchemePoint]) -> str:
    return json.dumps([point.as_row() for point in points], indent=2) + "\n"


def scheme_points_for_path(points: Sequence[SchemePoint], path: str) -> str:
    """The table as a file at path holds it: JSON for a .json name (any case), else CSV."""
    if str(path).lower().endswith(".json"):
        return scheme_points_to_json(points)
    return scheme_points_to_csv(points)
