"""Dataset persistence and the journey record.

The on-disk format is line-delimited JSON: a schema header record followed
by one journey record per line::

    {"guest_id": "g000001",
     "searches": [{"search_id": "g000001-s0", "t_days": 12.5,
                   "context": [41.2, 0.0, ...],
                   "impressions": [{"listing_id": "L0042", "position": 1,
                                    "features": [0.31, ...],
                                    "labels": {"c": true, "lc": true}},
                                   ...]},
                  ...]}

``labels`` lists the milestones that hold on the impression; absent or
false flags are unset. The same record is how a dataset is built by hand:
:func:`dataset_from_records` turns records into the columns of a
:class:`~journeyrank.domain.Dataset`, one journey at a time. Those columns
are the only form a dataset takes: the split below, the model and the
evaluation read them as they are. Feature values are emitted exactly as
stored, so a load/save round trip is byte-identical for datasets produced
by this package (the simulator rounds features at generation time for
compactness).

Each line of the file is the record in canonical JSON (sorted keys, no
spaces). :func:`save_dataset` writes those bytes without building the
records. It encodes each listing table row's features and id once (rows
are distinct by id and bytes, so ``-0.0`` and ``0.0`` keep their own
text), as the text of an impression up to its label set and the text
from its label set to its position, and each distinct label set once.
The file is then written a chunk at a time, whole journeys taken until
they hold about a thousand impressions, so the writer holds one chunk's
text, never the file's. A chunk's skeleton is its lines with a mark in
place of each search's impressions, its contexts and times encoded in
one call per column. Its text is the skeleton up to the first mark, then
one join of five texts per impression: the two row texts and the label
set's text, looked up by integer, the position, and a separator, ``},``
or, after a search's last impression, ``}`` and the skeleton up to the
next mark.

:func:`load_dataset` reads the lines back a block at a time, about 64 K
characters of whole lines, with two readers that fill the same columns.
The block decoder cuts a block on the delimiters of the writer's layout
with a few C calls per level (impressions, searches, journeys) and
decodes each kind of leaf in a few calls per block: an impression's text
before its position (its feature array, label set and listing id) is
looked up in one memo that gives its table row and label code, so a row
that recurs across the file is parsed once; new rows, and the block's
contexts, times and ids, are each decoded in one ``json.loads`` behind
guards that make the joined list's items the texts themselves. It accepts
a block only when every line is exactly those delimiters and leaves of
the expected kinds. Valid JSON leaves joined by the layout's delimiters
have exactly one parse, the record ``json.loads`` returns, so what it
stores is bit for bit what the record path stores. A block is read as
records only when the decoder declines it, on a fault or on another
spelling of the records: it is then read line by line by ``json.loads``
and the per-record step :func:`dataset_from_records` runs, which walks a
journey one search and one impression at a time, checks each value as it
reaches it and reads the journey's numbers once every other check has
passed. So other spellings of the records load and a faulty record
raises the first fault in record order, with its line number when the
line is not JSON.
"""

from __future__ import annotations

import hashlib
import json
import re
from bisect import bisect_left
from itertools import chain, compress, count, repeat
from json.encoder import encode_basestring_ascii
from operator import countOf, is_, lt, or_, sub
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .domain import (
    ALL_MILESTONES,
    LABELS,
    Dataset,
    DatasetSchema,
    exact_int,
    number,
    select_impressions,
)
from .errors import ConfigError, DataValidationError, SchemaMismatchError

_SCHEMA_KEYS = {"record", "listing_dim", "context_dim", "context_features",
                "milestones", "window_days"}


# one encoder for every call: json.dumps with these arguments builds a new
# encoder each time, which the writer's per-search calls would pay for
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


_KNOWN_MILESTONES = frozenset(ALL_MILESTONES)


def _label_code(labels) -> int | None:
    """The flags a label dict sets, as bit k for ``LABELS[k]``, or None
    when it sets an unknown milestone."""
    on = {m for m, v in labels.items() if v}
    if not on <= _KNOWN_MILESTONES:
        return None
    return sum(1 << k for k, m in enumerate(LABELS) if m in on)


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _position(value) -> int:
    """A position is read as an exact integer that fits an int64 column."""
    position = exact_int(value)
    if not _INT64_MIN <= position <= _INT64_MAX:
        raise OverflowError(f"position {position} does not fit in 64 bits")
    return position


def _string(value, field: str) -> str:
    """An id is read as a JSON string, never a number or a null."""
    if not isinstance(value, str):
        raise TypeError(f"{field} must be a string, got {value!r}")
    return value


# what reading a malformed record raises before it is named a data fault
_RECORD_FAULTS = (KeyError, AttributeError, TypeError, ValueError,
                  OverflowError)


def _numbers(rows: list, width: int) -> np.ndarray:
    """Rows of ``width`` values as a float64 ``[n, width]`` array, each
    value read by :func:`~journeyrank.domain.number`: a bool, a string, a
    null or a list raises TypeError naming the first bad value."""
    return np.array([[number(v) for v in row] for row in rows],
                    dtype=np.float64).reshape(-1, width)


class _Columns:
    """A dataset's columns, filled a journey at a time by the record path
    and a block of journeys at a time by the block decoder.

    Listings live in a table that grows by whole arrays of feature rows
    and lists of their ids, and each impression holds the index of its
    row, so the block decoder can point many impressions at one decoded
    row. Per-impression columns are kept as one int64 array per call, not
    as lists of Python ints. :meth:`dataset` hands the table and the index
    to :meth:`Dataset.from_columns`, which merges rows of equal id and
    bytes.
    """

    def __init__(self, schema: DatasetSchema):
        self.schema = schema
        self.guest_ids, self.searches_per_journey = [], []
        self.search_ids, self.t_days, self.imps_per_search = [], [], []
        self.contexts = [np.empty((0, schema.context_dim))]
        empty = np.empty(0, dtype=np.int64)
        self.positions, self.label_codes, self.rows = [empty], [empty], [empty]
        self.listing_ids: list[str] = []
        self.table = [np.empty((0, schema.listing_dim))]

    def add_rows(self, rows: np.ndarray, listing_ids: list[str]) -> int:
        """Append feature rows and their listing ids to the table; returns
        the first one's index."""
        start = len(self.listing_ids)
        self.table.append(rows)
        self.listing_ids += listing_ids
        return start

    def add_record(self, rec) -> None:
        """Append one journey record's columns.

        The journey is walked one search and one impression at a time, so
        the first fault in record order is the one reported. Its features
        and contexts are turned into arrays before the next record is read,
        so a stream of records never holds more than one journey's values
        as Python floats.
        """
        try:
            guest_id, *columns, listing_ids, rows = self._walk_journey(rec)
        except KeyError as exc:
            raise DataValidationError(
                f"journey record missing field {exc}") from None
        except _RECORD_FAULTS as exc:
            raise DataValidationError(
                f"malformed journey record: {exc}") from None
        start = self.add_rows(rows, listing_ids)
        self.add_journeys([guest_id], [len(columns[0])], *columns,
                          np.arange(start, start + len(rows)))

    def add_journeys(self, guest_ids: list, searches_per_journey,
                     search_ids: list, t_days: list, imps_per_search,
                     contexts: np.ndarray, positions, codes, rows) -> None:
        """Append the columns of whole journeys, their impressions' rows
        given as indices into the feature table."""
        self.guest_ids += guest_ids
        self.searches_per_journey += searches_per_journey
        self.search_ids += search_ids
        self.t_days += t_days
        self.imps_per_search += imps_per_search
        self.contexts.append(contexts)
        self.positions.append(np.asarray(positions, dtype=np.int64))
        self.label_codes.append(np.asarray(codes, dtype=np.int64))
        self.rows.append(np.asarray(rows, dtype=np.int64))

    def _walk_journey(self, rec) -> tuple:
        """The journey's guest id, its columns, its listing ids and its
        feature rows, read one value at a time and raising at the first
        fault in record order; its contexts and features are converted
        once, after every other check."""
        schema = self.schema
        guest_id = _string(rec["guest_id"], "guest_id")
        search_ids, t_days, sizes, contexts = [], [], [], []
        listing_ids, positions, codes, features = [], [], [], []
        for s in rec["searches"]:
            search_id = _string(s["search_id"], "search_id")
            where = f"guest={guest_id} search={search_id}"
            if len(s["context"]) != schema.context_dim:
                raise DataValidationError(
                    f"{where}: context width {len(s['context'])}, "
                    f"schema says {schema.context_dim}")
            search_ids.append(search_id)
            t_days.append(number(s["t_days"]))
            contexts.append(s["context"])
            sizes.append(len(s["impressions"]))
            for i in s["impressions"]:
                if len(i["features"]) != schema.listing_dim:
                    raise DataValidationError(
                        f"{where} listing={i['listing_id']}: feature width "
                        f"{len(i['features'])}, schema says "
                        f"{schema.listing_dim}")
                labels = i.get("labels", {})
                code = _label_code(labels)
                if code is None:
                    on = {m for m, v in labels.items() if v}
                    raise DataValidationError(
                        f"{where}: unknown milestone labels "
                        f"{sorted(on - _KNOWN_MILESTONES)}")
                listing_ids.append(_string(i["listing_id"], "listing_id"))
                positions.append(_position(i["position"]))
                codes.append(code)
                features.append(i["features"])
        return (guest_id, search_ids, t_days, sizes,
                _numbers(contexts, schema.context_dim), positions, codes,
                listing_ids, _numbers(features, schema.listing_dim))

    def dataset(self) -> Dataset:
        # drop the pieces first, so one copy of each column is alive
        self.table = [np.concatenate(self.table)]
        self.contexts = [np.concatenate(self.contexts)]
        self.rows = [np.concatenate(self.rows)]
        self.positions = [np.concatenate(self.positions)]
        codes = np.concatenate(self.label_codes)
        self.label_codes = []
        label_rows = np.empty((len(LABELS), len(codes)), dtype=bool)
        for k, row in enumerate(label_rows):  # one row's temporaries alive
            row[:] = codes >> k & 1
        return Dataset.from_columns(
            self.schema,
            guest_ids=self.guest_ids,
            searches_per_journey=self.searches_per_journey,
            search_ids=self.search_ids,
            t_days=self.t_days,
            context_features=self.contexts[0],
            imps_per_search=self.imps_per_search,
            positions=self.positions[0],
            listing_ids=self.listing_ids,
            listing_rows=self.table[0],
            listing_index=self.rows[0],
            label_rows=label_rows,
        )


def dataset_from_records(schema: DatasetSchema,
                         records: Iterable[dict]) -> Dataset:
    """Build a dataset from journey records.

    A record whose widths differ from the schema, that lacks a field,
    holds a value of the wrong type (a number that is a bool or a string,
    an id that is not a string, a position that is not an integer or does
    not fit 64 bits), or names an unknown milestone raises
    :class:`DataValidationError`; the first fault in record order is the
    one reported.
    """
    columns = _Columns(schema)
    for rec in records:
        columns.add_record(rec)
    return columns.dataset()


# The writer's line layout. A journey line is
#     {"guest_id":G,"searches":[S,S,...]}
# with each search S
#     {"context":C,"impressions":[I,I,...],"search_id":D,"t_days":T}
# and each impression I
#     {"features":F,"labels":L,"listing_id":N,"position":P}
# in canonical JSON: sorted keys, no spaces. These are the texts around the
# leaves G, C, D, T, F, L, N and P, and list items are joined by _NEXT; the
# writer joins leaf texts with them and the block decoder cuts on them.
_GUEST_ID, _SEARCHES, _LINE_END = '{"guest_id":', ',"searches":[', "]}"
_CONTEXT, _IMPRESSIONS, _SEARCH_ID, _T_DAYS = (
    '{"context":', ',"impressions":[', '],"search_id":', ',"t_days":')
_FEATURES, _LABELS, _LISTING_ID, _POSITION = (
    '{"features":', ',"labels":', ',"listing_id":', ',"position":')
_OBJECT_END, _NEXT = "}", ","
# stands for a search's impressions, or a journey's searches, in the texts
# the writer fills and the decoder cuts; no line that holds it is JSON
_MARK = "\0"

# A chunk of the file is whole journeys, taken until they hold at least
# this many impressions (at 0, each journey is a chunk of its own). The
# writer joins one chunk's text at a time, so its memory does not grow with
# the file.
_CHUNK_IMPRESSIONS = 1024
# items one encoder call takes: the call holds a Python float and a text
# per value, so a whole listing table in one call would hold several times
# the table's text
_ROWS_PER_CALL = 128


def _texts(values: np.ndarray) -> list[str]:
    """The canonical JSON of each float of a column, or of each row of a
    float table without its brackets, from one encoder call per
    ``_ROWS_PER_CALL`` items: a float's text holds no comma or bracket."""
    cut, sep = (1, _NEXT) if values.ndim == 1 else (2, "],[")
    texts = []
    for lo in range(0, len(values), _ROWS_PER_CALL):
        text = _canonical(values[lo:lo + _ROWS_PER_CALL].tolist())
        texts += text[cut:-cut].split(sep)
    return texts


def _chunk_texts(dataset: Dataset) -> Iterator[str]:
    """The file's journey lines, one chunk of journeys at a time.

    A chunk fills its skeleton, its lines with ``_MARK`` for each
    non-empty search's impressions (the text :func:`_nest` rebuilds): the
    skeleton's text before its first mark, then five texts per impression,
    its start up to its label set and its middle from there to its
    position, looked up by table row, its label set, looked up by code,
    its position and its separator, ``},`` or, after a search's last
    impression, ``}`` and the skeleton's text up to the next mark.
    """
    starts = [_FEATURES + "[" + row + "]" + _LABELS
              for row in _texts(dataset.listing_rows)]
    middles = [_LISTING_ID + listing_id + _POSITION
               for listing_id in map(encode_basestring_ascii,
                                     dataset.listing_ids.tolist())]
    codes = (1 << np.arange(len(LABELS))) @ dataset.label_rows
    label_texts = {
        code: _canonical({m: True for k, m in enumerate(LABELS)
                          if code >> k & 1})
        for code in np.flatnonzero(np.bincount(codes)).tolist()}
    journey_starts, search_starts = (dataset.journeys.starts,
                                     dataset.searches.starts)
    first_imps = search_starts[journey_starts].tolist()
    n_journeys, j1 = len(journey_starts) - 1, 0
    while j1 < n_journeys:
        j0, j1 = j1, min(n_journeys, bisect_left(
            first_imps, first_imps[j1] + _CHUNK_IMPRESSIONS, j1 + 1))
        s0, s1 = journey_starts[[j0, j1]].tolist()
        i0, i1 = first_imps[j0], first_imps[j1]
        # the chunk's searches per journey, and impressions per search
        bounds = (journey_starts[j0:j1 + 1] - s0).tolist()
        imp_starts = (search_starts[s0:s1 + 1] - i0).tolist()
        searches = [
            _CONTEXT + "[" + context + "]" + _IMPRESSIONS
            + (_MARK if a < b else "") + _SEARCH_ID + search_id + _T_DAYS
            + t_days + _OBJECT_END
            for context, search_id, t_days, a, b in zip(
                _texts(dataset.context_features[s0:s1]),
                map(encode_basestring_ascii,
                    dataset.search_ids[s0:s1].tolist()),
                _texts(dataset.t_days[s0:s1]), imp_starts, imp_starts[1:])]
        lead, *closing = "".join(
            _GUEST_ID + guest_id + _SEARCHES + _NEXT.join(searches[a:b])
            + _LINE_END + "\n"
            for guest_id, a, b in zip(
                map(encode_basestring_ascii,
                    dataset.guest_ids[j0:j1].tolist()),
                bounds, bounds[1:])).split(_MARK)
        separators = [_OBJECT_END + _NEXT] * (i1 - i0)
        # one past the last impression of each search that has one
        ends = compress(imp_starts[1:], map(lt, imp_starts, imp_starts[1:]))
        for end, text in zip(ends, closing):
            separators[end - 1] = _OBJECT_END + text
        shown = dataset.listing_index[i0:i1].tolist()
        yield "".join(chain((lead,), chain.from_iterable(zip(
            map(starts.__getitem__, shown),
            map(label_texts.__getitem__, codes[i0:i1].tolist()),
            map(middles.__getitem__, shown),
            map(str, dataset.positions[i0:i1].tolist()),
            separators))))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the schema header and one canonical JSON line per journey.

    The lines are written one chunk at a time: whole journeys, taken until
    they hold ``_CHUNK_IMPRESSIONS`` impressions, whose text is built in one
    join. A chunk is bounded so that the writer's memory is one chunk's
    text and the listing table's texts, however long the file: joining the
    whole file at once would hold all of its text, and more.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(_canonical(dataset.schema.to_record()) + "\n")
        f.writelines(_chunk_texts(dataset))


# the decoder's memos are cleared when they reach this many texts, so their
# size does not grow with the number of distinct rows in a file
_MEMO_TEXTS = 1 << 14
# characters of whole lines the reader takes at a time, about: a block's
# texts are cut and decoded together, so they are alive at once
_BLOCK_CHARS = 1 << 16
# an impression head's memo value is its table row shifted past its label
# code
_CODE_BITS = len(LABELS)
# what joins a row's features and listing id in the head of its impressions
# with the empty label set
_ROW_HEAD = _LABELS + "{}" + _LISTING_ID


_scan = json.JSONDecoder().scan_once
# one JSON string token: a quote, then characters other than a quote or a
# backslash and backslash escapes, then a quote
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)


def _leaf(text: str):
    """The JSON value that is all of ``text``, scanned as ``json.loads``
    scans it; ValueError when ``text`` is anything else."""
    try:
        value, end = _scan(text, 0)
    except StopIteration:
        raise ValueError("no JSON value") from None
    if end != len(text):
        raise ValueError("text after the JSON value")
    return value


def _cut(texts, delimiter: str, at=str.partition) -> tuple[tuple, tuple]:
    """Each text's parts before and after its first (with ``at`` =
    ``str.rpartition``, last) ``delimiter``; ValueError when one lacks
    it."""
    if not texts:
        return (), ()
    before, found, after = zip(*map(at, texts, repeat(delimiter)))
    if countOf(found, delimiter) != len(found):
        raise ValueError(f"a piece without {delimiter!r}")
    return before, after


def _nest(lead: str, ends: list[int], closing: list[str]
          ) -> tuple[str, list[int]]:
    """The text of the level above a list of items, and the number of items
    in each of its lists that holds any.

    Item ``k`` is followed by ``,`` inside a list, and at a list's end by
    the text up to the next list's first item (or the block's end):
    ``ends`` holds one past each list's last item and ``closing`` the text
    after it. The block ends with a newline, so the last item's separator
    is never ``,``. That text, with ``lead`` before the first list, is the
    level above, in which each list's items become ``_MARK``.
    """
    return (_MARK.join(chain((lead,), closing)),
            list(map(sub, ends, chain((0,), ends))))


def _sizes(marks: tuple[str, ...], sizes: list[int]) -> list[int]:
    """Each list's size, ``sizes`` in order for the lists marked by
    :func:`_nest` and 0 for the empty ones; ValueError unless every mark
    stands alone in a list."""
    marked = list(map(_MARK.__eq__, marks))
    if not (countOf(marked, True) == len(sizes)
            and countOf(marks, "") == len(marks) - len(sizes)):
        raise ValueError("items outside a list")
    out = [0] * len(marks)
    for k, size in zip(compress(count(), marked), sizes):
        out[k] = size
    return out


def _float_rows(texts, width: int) -> np.ndarray:
    """Bracketed arrays of ``width`` floats as a float64 ``[n, width]``
    array, decoded in one call; ValueError when a text is anything else.

    Each text starts with its only ``[`` and ends with its only ``]``, so
    the joined list's items are the texts."""
    n, joined = len(texts), _NEXT.join(texts)
    if not (joined.count("[") == joined.count("]") == n
            and countOf(map(str.startswith, texts, repeat("[")), True) == n
            and countOf(map(str.endswith, texts, repeat("]")), True) == n):
        raise ValueError("a row that is not one array")
    values = json.loads("[" + joined + "]")
    if not (countOf(map(len, values), width) == n
            and countOf(map(type, chain.from_iterable(values)), float)
            == n * width):
        raise ValueError("a row that is not floats of the schema's width")
    return np.fromiter(chain.from_iterable(values), dtype=np.float64,
                       count=n * width).reshape(n, width)


def _floats(texts) -> list[float]:
    """JSON floats, decoded in one call; ValueError when a text is anything
    else. A list of as many floats as texts holds no bracket or string, so
    its commas are the ones joining the texts, and its items the texts."""
    values = json.loads("[" + _NEXT.join(texts) + "]")
    if not len(values) == len(texts) == countOf(map(type, values), float):
        raise ValueError("a time that is not a float")
    return values


def _strings(texts) -> list[str]:
    """JSON strings, decoded in one call; ValueError when a text is anything
    else. Each text is one string token, so the joined list's items are
    the texts."""
    if countOf(map(_STRING.fullmatch, texts), None):
        raise ValueError("an id that is not a string")
    return json.loads("[" + _NEXT.join(texts) + "]")


def _read_position(text: str) -> int:
    value = _leaf(text)
    if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
        return value
    raise ValueError("a position that is not a 64-bit integer")


def _read_label_code(text: str) -> int:
    labels = _leaf(text)
    code = _label_code(labels) if type(labels) is dict else None
    if code is None:
        raise ValueError("a label set that is not a dict of milestones")
    return code


class _BlockDecoder:
    """Reads blocks of the writer's own lines into the columns, decoding
    each kind of leaf in a few calls per block.

    A block is whole lines. It is cut on the delimiters of the writer's
    layout (``_GUEST_ID`` and the constants beside it) one level at a time,
    each cut one C call over all pieces: on ``{"features":`` into
    impressions, and each impression on its last ``,"position":`` into its
    head (features, label set and listing id) and its tail (position,
    ``}`` and the separator after it). The tails that end a search are
    cut into position and separator, and those separators, joined with
    ``_MARK`` where the search's impressions were, are the block's
    searches, which are cut the same way into contexts, search ids and
    times and the text between searches; the texts that end a journey are
    the block's journeys, cut into guest ids. Each head is looked up in
    one memo that gives its table row and label code; new heads are cut
    into their leaves, and new rows are decoded in one ``json.loads``.
    Label sets, and the tails inside a search, are decoded once per
    distinct text, and contexts, times and ids in one call per kind per
    block.

    A block is accepted only when it is exactly delimiters and leaves: a
    cut that misses its delimiter, a mark or a newline out of place, or a
    leaf that is not a whole JSON value of its kind (floats of the
    schema's width, a dict of known milestones, a string, an integer that
    fits 64 bits, a float time) declines it whole. :meth:`decode` then
    appends nothing, and the caller reads the block's lines as records;
    that is the only way a block reaches the record path.

    Why this is exact: valid JSON texts joined by the layout's delimiters
    form a JSON text with exactly one parse, in which each piece is the
    value at its place in the layout. Each line of an accepted block is
    such a text, so the record ``json.loads`` returns for it holds exactly
    these leaves, and :meth:`_Columns.add_record` would store them bit for
    bit as they are stored here. The guards of each one-call decode (one
    bracket pair per row text, as many floats as time texts, one string
    token per id text) make the joined list's items the texts themselves,
    so each value is its text's own decode.
    """

    def __init__(self, columns: _Columns):
        self.columns = columns
        self.heads: dict[str, int] = {}
        self.labels: dict[str, int] = {}
        self.tails: dict[str, int] = {}

    def decode(self, lines: list[str]) -> bool:
        """Append the journeys of ``lines`` and return True, or return
        False and append nothing."""
        text = "".join(lines)
        if not text.endswith("\n"):
            text += "\n"  # the file's last line, without its newline
        if _MARK in text:
            return False
        try:
            self._decode(text, len(lines))
        except ValueError:
            # a delimiter count other than the layout's, or a leaf that is
            # not JSON of its kind
            return False
        return True

    def _decode(self, text: str, n_lines: int) -> None:
        schema = self.columns.schema
        lead, *impressions = text.split(_FEATURES)
        heads, tails = _cut(impressions, _POSITION, str.rpartition)
        del impressions  # the block's text, a second time
        positions, ends, closing = self._read_tails(tails)
        text, sizes = _nest(lead, ends, closing)
        lead, *searches = text.split(_CONTEXT)
        contexts, rest = _cut(searches, _IMPRESSIONS)
        marks, rest = _cut(rest, _SEARCH_ID)
        search_ids, rest = _cut(rest, _T_DAYS)
        t_days, separators = _cut(rest, _OBJECT_END)
        imps_per_search = _sizes(marks, sizes)
        closing = list(map(_NEXT.__ne__, separators))
        text, sizes = _nest(lead, list(compress(count(1), closing)),
                            list(compress(separators, closing)))
        lead, *journeys = text.split(_GUEST_ID)
        guest_ids, rest = _cut(journeys, _SEARCHES)
        marks, rest = _cut(rest, _LINE_END + "\n")
        # one journey a line, and no newline inside one
        if lead or len(journeys) != n_lines or countOf(rest, "") != n_lines:
            raise ValueError("a journey that is not a line")
        searches_per_journey = _sizes(marks, sizes)
        contexts = _float_rows(contexts, schema.context_dim)
        t_days, search_ids = _floats(t_days), _strings(search_ids)
        guest_ids = _strings(guest_ids)
        # the last check, as it adds rows to the table
        packed = np.fromiter(self._memo_heads(heads), dtype=np.int64,
                             count=len(heads))
        self.columns.add_journeys(
            guest_ids, searches_per_journey, search_ids, t_days,
            imps_per_search, contexts, positions,
            packed & ((1 << _CODE_BITS) - 1), packed >> _CODE_BITS)

    def _read_tails(self, tails: tuple[str, ...]
                    ) -> tuple[list[int], list[int], list[str]]:
        """Each impression's position, and :func:`_nest`'s ``ends`` and
        ``closing`` for the impressions of the block's searches.

        A tail is the text after an impression's position delimiter: its
        position, ``}`` and the separator after it. The memo holds the
        tails of impressions inside a search, ``P},`` for each distinct
        position ``P``, so only a search's last tail and new ones are cut.
        """
        positions = list(map(self.tails.get, tails))
        ends, closing = [], []
        if None in positions:
            if len(self.tails) >= _MEMO_TEXTS:
                self.tails.clear()
            for k in compress(count(), map(is_, positions, repeat(None))):
                text, found, separator = tails[k].partition(_OBJECT_END)
                if not found:
                    raise ValueError("an impression without its end")
                positions[k] = _read_position(text)
                if separator == _NEXT:
                    self.tails[tails[k]] = positions[k]
                else:
                    ends.append(k + 1)
                    closing.append(separator)
        return positions, ends, closing

    def _memo_heads(self, heads: tuple[str, ...]) -> list[int]:
        """Each head's memo value, its table row and label code; a head the
        memo lacks is cut into its feature array, label set and listing id.

        A row is remembered under the head its features and id have with
        the empty label set, whose label code is 0, so a new head finds its
        row there; a row not found there is added to the table.
        """
        packed = list(map(self.heads.get, heads))
        if None not in packed:
            return packed
        missing = list(compress(count(), map(is_, packed, repeat(None))))
        new = list(dict.fromkeys(map(heads.__getitem__, missing)))
        features, rest = _cut(new, _LABELS)
        label_sets, listing_ids = _cut(rest, _LISTING_ID)
        if len(self.labels) >= _MEMO_TEXTS:
            self.labels.clear()
        codes = list(map(self.labels.get, label_sets))
        for k in compress(count(), map(is_, codes, repeat(None))):
            codes[k] = self.labels[label_sets[k]] = _read_label_code(
                label_sets[k])
        row_heads = list(map(_ROW_HEAD.join, zip(features, listing_ids)))
        rows = list(map(self.heads.get, row_heads))
        added = {}
        if None in rows:
            added = self._add_rows(row_heads, rows)
        added.update(zip(new, map(or_, rows, codes)))
        if len(self.heads) + len(added) > _MEMO_TEXTS:
            self.heads.clear()
        self.heads.update(added)
        for k in missing:
            packed[k] = added[heads[k]]
        return packed

    def _add_rows(self, row_heads: list[str], rows: list) -> dict[str, int]:
        """Decode the distinct rows whose memo value in ``rows`` is None,
        add them to the table and fill in ``rows``; returns the memo values
        of their row heads."""
        missing = list(compress(count(), map(is_, rows, repeat(None))))
        new = list(dict.fromkeys(map(row_heads.__getitem__, missing)))
        features, listing_ids = _cut(new, _ROW_HEAD)
        table = _float_rows(features, self.columns.schema.listing_dim)
        start = self.columns.add_rows(table, _strings(listing_ids))
        added = {text: row << _CODE_BITS
                 for row, text in enumerate(new, start=start)}
        for k in missing:
            rows[k] = added[row_heads[k]]
        return added


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset file written by :func:`save_dataset`, or any file of
    the same records.

    Lines are read a block at a time, about ``_BLOCK_CHARS`` characters of
    whole lines. Every block is offered to the block decoder, and a block
    is read as records only when the decoder declines it, on a fault or on
    another spelling of the records: each line parsed by ``json.loads``
    and read by the per-record step, so other JSON spellings of the
    records load too and a faulty line raises what
    :func:`dataset_from_records` raises, the first fault in record order
    first. A file that is not UTF-8, has a bad header or holds a line that
    is not JSON raises :class:`DataValidationError` or
    :class:`SchemaMismatchError` naming the path (and the line).
    """
    path = Path(path)
    with open(path, encoding="utf-8") as f:
        try:
            return _read_lines(f, path)
        except UnicodeDecodeError as exc:
            raise DataValidationError(
                f"{path}: not UTF-8 text: byte "
                f"0x{exc.object[exc.start]:02x} ({exc.reason})") from None


def _read_lines(f, path: Path) -> Dataset:
    header = f.readline()
    if not header:
        raise SchemaMismatchError(f"{path}: empty dataset file")
    try:
        schema_rec = json.loads(header)
    except json.JSONDecodeError as exc:
        raise SchemaMismatchError(f"{path}: malformed schema header: {exc}") from None
    columns = _Columns(_schema_from_record(schema_rec, path))
    decoder = _BlockDecoder(columns)
    first = 2  # the number of the block's first line
    for lines in iter(lambda: f.readlines(_BLOCK_CHARS), []):
        if not decoder.decode(lines):
            for line_no, line in enumerate(lines, start=first):
                if line.isspace():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataValidationError(
                        f"{path}:{line_no}: bad JSON: {exc}") from None
                columns.add_record(rec)
        first += len(lines)
    del decoder  # its memos, before the columns are joined
    return columns.dataset()


def _schema_from_record(rec, path: Path) -> DatasetSchema:
    """The header's schema, read as strictly as every other record: a
    fractional, boolean or string width or window, a feature name that is
    not a string or a milestone list other than the package's is a data
    fault that names its field."""
    if not isinstance(rec, dict) or rec.get("record") != "schema":
        raise SchemaMismatchError(f"{path}: first line must be the schema record")
    if set(rec) != _SCHEMA_KEYS:
        raise SchemaMismatchError(
            f"{path}: schema fields {sorted(set(rec) ^ _SCHEMA_KEYS)} "
            "unexpected or missing")
    names = rec["context_features"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise SchemaMismatchError(
            f"{path}: context_features must be a list of names, got {names!r}")
    if rec["milestones"] != list(ALL_MILESTONES):
        raise SchemaMismatchError(f"{path}: milestones must be "
                                  f"{list(ALL_MILESTONES)}, got {rec['milestones']!r}")
    values = {}
    for key, convert in (("listing_dim", exact_int),
                         ("context_dim", exact_int), ("window_days", number)):
        try:
            values[key] = convert(rec[key])
        except (OverflowError, TypeError):
            raise SchemaMismatchError(f"{path}: schema {key} has a malformed "
                                      f"value {rec[key]!r}") from None
    try:
        return DatasetSchema(context_features=tuple(names), **values)
    except ConfigError as exc:
        raise SchemaMismatchError(f"{path}: schema header: {exc}") from None


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# train/eval split


# the guests whose bucket falls below this go to the eval side
EVAL_PERCENT = 20


def guest_bucket(guest_id: str) -> int:
    """Stable hash bucket in [0, 100) used for the train/eval split."""
    digest = hashlib.sha256(guest_id.encode()).digest()
    return int.from_bytes(digest[:8], "big") % 100


def split_by_guest(dataset: Dataset) -> tuple[Dataset, Dataset]:
    """Deterministic guest-level split, ``EVAL_PERCENT`` of the hash
    buckets to the eval side; no journey straddles the boundary."""
    in_eval = np.array([guest_bucket(g) < EVAL_PERCENT
                        for g in dataset.guest_ids.tolist()], dtype=bool)
    in_eval = in_eval[dataset.journey_of_impression()]
    return (select_impressions(dataset, ~in_eval),
            select_impressions(dataset, in_eval))


def pack_dataset(dataset: Dataset) -> Dataset:
    """The dataset itself, whose columns the model reads directly."""
    return dataset
