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
The file is then written a chunk at a time. A chunk is whole journeys,
taken until they hold about a thousand impressions. Its text is one join
of five texts per impression: the two row texts and the label set's
text, looked up by integer, the position, and a separator. The separator
after a search's last impression carries the search's id and time and
the head of whatever follows, a search with its context or a journey
with its guest id. Each chunk's contexts and times are encoded in one
call per column. Chunks are bounded so that the writer holds one chunk's
text, never the file's.

:func:`load_dataset` reads the lines back with two decoders that fill the
same columns. The line decoder cuts a line on the delimiters of the
writer's layout and decodes each leaf once per distinct text (a feature
array and a listing id once per pair, which names one table row), so a
row that recurs across the file is parsed once. It accepts a line only
when the line is exactly those delimiters and leaves of the expected
kinds. Valid JSON
leaves joined by the layout's delimiters have exactly one parse, the
record ``json.loads`` returns, so what it stores is bit for bit what the
record path stores. Any other line is declined and read by the record
path: ``json.loads`` and the per-record step :func:`dataset_from_records`
runs, which walks a journey one search and one impression at a time,
checks each value as it reaches it and converts the journey's numbers in
one call once every check has passed. So other spellings of the records
load and a faulty record raises the first fault in record order.
Per-leaf decoding only pays when rows repeat, so once a trial of 2,000
impressions is read, a file whose running share of new rows is above one
half is read as records from there on.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from bisect import bisect_left
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import countOf
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


def _label_code(labels, known: dict) -> int | None:
    """The flags a label dict sets, as bit k for ``LABELS[k]``, or None
    when it sets an unknown milestone.

    ``known`` remembers the code of each distinct dict by its items, so
    the set logic runs once per distinct label set (a dict whose values
    cannot be hashed is mapped every time).
    """
    items = tuple(labels.items())
    try:
        return known[items]
    except KeyError:
        hashable = True
    except TypeError:
        hashable = False
    on = {m for m, v in items if v}
    if not on <= _KNOWN_MILESTONES:
        return None
    code = sum(1 << k for k, m in enumerate(LABELS) if m in on)
    if hashable:
        known[items] = code
    return code


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _position(value) -> int:
    """A position is read as an exact integer that fits an int64 column."""
    position = exact_int(value)
    if not _INT64_MIN <= position <= _INT64_MAX:
        raise OverflowError(f"position {position} does not fit in 64 bits")
    return position


# the value types converted in one call; never a bool or a numpy scalar
_NUMBER_TYPES = frozenset({float, int})
# what reading a malformed record raises before it is named a data fault
_RECORD_FAULTS = (KeyError, AttributeError, TypeError, ValueError,
                  OverflowError)


def _numbers(rows: list, width: int) -> np.ndarray:
    """Rows of ``width`` values as a float64 ``[n, width]`` array, each
    value read by :func:`~journeyrank.domain.number`: a bool, a string, a
    null or a list raises TypeError.

    Rows of floats and ints alone are converted in one call, which gives
    each value the bits ``number`` gives it; any other rows are read value
    by value, so the error names the first bad value. Counting the floats
    is cheaper than collecting the types, which only rows holding an int
    need.
    """
    n = len(rows) * width
    if (countOf(map(type, chain.from_iterable(rows)), float) == n
            or set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES):
        return np.fromiter(chain.from_iterable(rows), dtype=np.float64,
                           count=n).reshape(-1, width)
    return np.array([[number(v) for v in row] for row in rows],
                    dtype=np.float64).reshape(-1, width)


class _Columns:
    """A dataset's columns, filled one journey at a time by either reader.

    Listings live in a table that grows by whole arrays of feature rows
    and lists of their ids, and each impression holds the index of its
    row, so the line decoder can point many impressions at one decoded
    row. :meth:`dataset` hands the table and the index to
    :meth:`Dataset.from_columns`, which merges rows of equal id and bytes.
    """

    def __init__(self, schema: DatasetSchema):
        self.schema = schema
        self.known_labels: dict = {}
        self.guest_ids, self.searches_per_journey = [], []
        self.search_ids, self.t_days, self.imps_per_search = [], [], []
        self.contexts: list[np.ndarray] = []
        self.positions, self.label_codes, self.listing_ids = [], [], []
        self.table = [np.empty((0, schema.listing_dim))]
        self.row_of_impression = array("q")

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
            *columns, listing_ids, rows = self._walk_journey(rec)
        except KeyError as exc:
            raise DataValidationError(
                f"journey record missing field {exc}") from None
        except _RECORD_FAULTS as exc:
            raise DataValidationError(
                f"malformed journey record: {exc}") from None
        start = self.add_rows(rows, listing_ids)
        self.add_journey(*columns, range(start, start + len(rows)))

    def add_journey(self, guest_id: str, search_ids: list, t_days: list,
                    sizes: list, contexts: np.ndarray, positions: list,
                    codes: list, rows) -> None:
        """Append one journey's columns, its impressions' rows given as
        indices into the feature table."""
        self.guest_ids.append(guest_id)
        self.searches_per_journey.append(len(search_ids))
        self.search_ids += search_ids
        self.t_days += t_days
        self.imps_per_search += sizes
        self.contexts.append(contexts)
        self.positions += positions
        self.label_codes += codes
        self.row_of_impression.extend(rows)

    def _walk_journey(self, rec) -> tuple:
        """The journey's columns, its listing ids and feature rows last,
        read one value at a time and raising at the first fault in record
        order; its contexts and features are converted once, after every
        other check."""
        schema = self.schema
        guest_id = str(rec["guest_id"])
        search_ids, t_days, sizes, contexts = [], [], [], []
        listing_ids, positions, codes, features = [], [], [], []
        for s in rec["searches"]:
            search_id = str(s["search_id"])
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
                code = _label_code(labels, self.known_labels)
                if code is None:
                    on = {m for m, v in labels.items() if v}
                    raise DataValidationError(
                        f"{where}: unknown milestone labels "
                        f"{sorted(on - _KNOWN_MILESTONES)}")
                listing_ids.append(str(i["listing_id"]))
                positions.append(_position(i["position"]))
                codes.append(code)
                features.append(i["features"])
        return (guest_id, search_ids, t_days, sizes,
                _numbers(contexts, schema.context_dim), positions, codes,
                listing_ids, _numbers(features, schema.listing_dim))

    def dataset(self) -> Dataset:
        # drop the pieces first, so one copy of the feature rows is alive
        self.table = [np.concatenate(self.table)]
        codes = np.array(self.label_codes, dtype=np.int64)
        return Dataset.from_columns(
            self.schema,
            guest_ids=self.guest_ids,
            searches_per_journey=self.searches_per_journey,
            search_ids=self.search_ids,
            t_days=self.t_days,
            context_features=(np.concatenate(self.contexts) if self.contexts
                              else []),
            imps_per_search=self.imps_per_search,
            positions=self.positions,
            listing_ids=self.listing_ids,
            listing_rows=self.table[0],
            listing_index=np.frombuffer(self.row_of_impression,
                                        dtype=np.int64),
            labels={m: ((codes >> k) & 1).astype(bool)
                    for k, m in enumerate(LABELS)},
        )


def dataset_from_records(schema: DatasetSchema,
                         records: Iterable[dict]) -> Dataset:
    """Build a dataset from journey records.

    A record whose widths differ from the schema, that lacks a field,
    holds a value of the wrong type (a number that is a bool or a string,
    a position that is not an integer or does not fit 64 bits), or names
    an unknown milestone raises :class:`DataValidationError`; the first
    fault in record order is the one reported.
    """
    columns = _Columns(schema)
    for rec in records:
        columns.add_record(rec)
    return columns.dataset()


def _label_codes(labels: dict[str, np.ndarray]) -> np.ndarray:
    """Each impression's flags as one integer, bit k for ``LABELS[k]``:
    the code :func:`_label_code` gives its label dict."""
    return sum(labels[m].astype(np.int64) << k for k, m in enumerate(LABELS))


# The writer's line layout. A journey line is
#     {"guest_id":G,"searches":[S,S,...]}
# with each search S
#     {"context":C,"impressions":[I,I,...],"search_id":D,"t_days":T}
# and each impression I
#     {"features":F,"labels":L,"listing_id":N,"position":P}
# in canonical JSON: sorted keys, no spaces. These are the texts around the
# leaves G, C, D, T, F, L, N and P, and list items are joined by _NEXT; the
# writer joins leaf texts with them and the line decoder splits on them.
_GUEST_ID, _SEARCHES, _LINE_END = '{"guest_id":', ',"searches":[', "]}"
_CONTEXT, _IMPRESSIONS, _SEARCH_ID, _T_DAYS = (
    '{"context":', ',"impressions":[', '],"search_id":', ',"t_days":')
_FEATURES, _LABELS, _LISTING_ID, _POSITION = (
    '{"features":', ',"labels":', ',"listing_id":', ',"position":')
_OBJECT_END, _NEXT = "}", ","

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

    A chunk's text is one join of five texts per impression: its start up
    to its label set and its middle from the label set to its position,
    looked up by its table row, its label set, looked up by its label code,
    its position and the separator after it. Inside a search the separator
    is ``},``; after a search's last impression it carries the end of the
    search, its id and time, and everything up to the next impression: the
    head of the next search or journey, and any empty searches and
    journeys in between.
    """
    starts = [_FEATURES + "[" + row + "]" + _LABELS
              for row in _texts(dataset.listing_rows)]
    middles = [_LISTING_ID + listing_id + _POSITION
               for listing_id in map(encode_basestring_ascii,
                                     dataset.listing_ids.tolist())]
    codes = _label_codes(dataset.labels)
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
        heads = [_CONTEXT + "[" + context + "]" + _IMPRESSIONS
                 for context in _texts(dataset.context_features[s0:s1])]
        tails = [_SEARCH_ID + search_id + _T_DAYS + t_days + _OBJECT_END
                 for search_id, t_days in zip(
                     map(encode_basestring_ascii,
                         dataset.search_ids[s0:s1].tolist()),
                     _texts(dataset.t_days[s0:s1]))]
        separators = [_OBJECT_END + _NEXT] * (i1 - i0)
        lead, texts = "", []   # the texts since the last impression
        for j, guest_id in enumerate(map(encode_basestring_ascii,
                                         dataset.guest_ids[j0:j1].tolist())):
            texts.append(_GUEST_ID + guest_id + _SEARCHES)
            for k in range(bounds[j], bounds[j + 1]):
                if k > bounds[j]:
                    texts.append(_NEXT)
                texts.append(heads[k])
                a, b = imp_starts[k], imp_starts[k + 1]
                if a < b:
                    if a:
                        separators[a - 1] = "".join(texts)
                    else:
                        lead = "".join(texts)
                    texts = [_OBJECT_END]
                texts.append(tails[k])
            texts.append(_LINE_END + "\n")
        if separators:
            separators[-1] = "".join(texts)
        else:
            lead = "".join(texts)
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
# impressions the decoder reads before it judges the share of new rows
_DECODER_TRIAL = 2000


_scan = json.JSONDecoder().scan_once


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


def _memo_values(memo: dict, texts: list[str], read) -> list | None:
    """The value of each text, reading each text the memo lacks with
    ``read``; None when ``read`` refuses one (returns None)."""
    values = list(map(memo.get, texts))
    if None in values:
        if len(memo) >= _MEMO_TEXTS:
            memo.clear()
        for k, text in enumerate(texts):
            if values[k] is None:
                value = memo.get(text)
                if value is None:
                    value = read(text)
                    if value is None:
                        return None
                    memo[text] = value
                values[k] = value
    return values


def _read_label_code(text: str, known: dict) -> int | None:
    labels = _leaf(text)
    return _label_code(labels, known) if type(labels) is dict else None


def _read_position(text: str) -> int | None:
    value = _leaf(text)
    return (value if type(value) is int and _INT64_MIN <= value <= _INT64_MAX
            else None)


class _LineDecoder:
    """Reads the writer's own lines into the columns, decoding each
    distinct leaf text once.

    A line is cut on the delimiters of the writer's layout (``_LINE`` and
    the constants around it), and every piece between them is a leaf: a
    feature array, a label dict, a listing id or a position of an
    impression, or the context, id or time of a search. Impression leaves
    repeat across a file, so each is decoded once per distinct text (a
    feature array and a listing id once per pair, which names one table
    row), by the scanner ``json.loads`` uses, and remembered; a line's new
    rows are decoded in one call. Search leaves are decoded once per
    search. A line is accepted only when it is exactly delimiters and
    leaves, where a cut that finds a delimiter more or fewer times than the
    layout has, or
    a leaf that is not a whole JSON value of its kind (floats of the
    schema's width, a dict of known milestones, a string, an integer that
    fits 64 bits, a float time), declines it: :meth:`decode` then appends
    nothing, and the caller reads the line as a record.

    Why this is exact: valid JSON texts joined by the layout's delimiters
    form a JSON text with exactly one parse, in which each piece is the
    value at its place in the layout. The record ``json.loads(line)``
    returns therefore holds exactly these leaves, and
    :meth:`_Columns.add_record` would store them bit for bit as they are
    stored here.
    """

    def __init__(self, columns: _Columns):
        self.columns = columns
        self.rows: dict[tuple[str, str], int] = {}
        self.labels: dict[str, int] = {}
        self.positions: dict[str, int] = {}
        self.impressions = 0
        self.new_rows = 0

    @property
    def pays(self) -> bool:
        """Whether to keep decoding: per-leaf decoding is slower than the
        record path's one ``json.loads`` per line unless rows repeat, so
        once past a trial the share of new rows must stay at most one half.
        """
        return (self.impressions < _DECODER_TRIAL
                or 2 * self.new_rows <= self.impressions)

    def decode(self, line: str) -> bool:
        """Append the journey of ``line`` and return True, or return False
        and append nothing."""
        if line.endswith("\n"):
            line = line[:-1]
        if not (line.startswith(_GUEST_ID) and line.endswith(_LINE_END)):
            return False
        try:
            return self._decode(line)
        except ValueError:
            # a delimiter count other than the layout's, or a leaf that is
            # not JSON
            return False

    def _decode(self, line: str) -> bool:
        schema = self.columns.schema
        guest_id, body = line[len(_GUEST_ID):-len(_LINE_END)].split(_SEARCHES)
        guest_id = _leaf(guest_id)
        if type(guest_id) is not str:
            return False
        if not body:
            searches = []
        elif body.startswith(_CONTEXT) and body.endswith(_OBJECT_END):
            searches = body[len(_CONTEXT):-len(_OBJECT_END)].split(
                _OBJECT_END + _NEXT + _CONTEXT)
        else:
            return False
        contexts, search_ids, t_days, sizes = [], [], [], []
        features, labels, listing_ids, positions = [], [], [], []
        for search in searches:
            context, rest = search.split(_IMPRESSIONS)
            impressions, rest = rest.split(_SEARCH_ID)
            search_id, t = rest.split(_T_DAYS)
            context, search_id, t = _leaf(context), _leaf(search_id), _leaf(t)
            if not (type(context) is list
                    and len(context) == schema.context_dim
                    and set(map(type, context)) == {float}
                    and type(search_id) is str and type(t) is float):
                return False
            contexts.append(context)
            search_ids.append(search_id)
            t_days.append(t)
            if not impressions:
                sizes.append(0)
                continue
            if not (impressions.startswith(_FEATURES)
                    and impressions.endswith(_OBJECT_END)):
                return False
            pieces = impressions[len(_FEATURES):-len(_OBJECT_END)].split(
                _OBJECT_END + _NEXT + _FEATURES)
            sizes.append(len(pieces))
            for piece in pieces:
                row, rest = piece.split(_LABELS)
                label_set, rest = rest.split(_LISTING_ID)
                listing_id, position = rest.split(_POSITION)
                features.append(row)
                labels.append(label_set)
                listing_ids.append(listing_id)
                positions.append(position)
        known = self.columns.known_labels
        labels = _memo_values(self.labels, labels,
                              lambda text: _read_label_code(text, known))
        positions = _memo_values(self.positions, positions, _read_position)
        if labels is None or positions is None:
            return False
        contexts = np.array(contexts, dtype=np.float64
                            ).reshape(-1, schema.context_dim)
        keys = list(zip(features, listing_ids))
        rows = list(map(self.rows.get, keys))
        if None in rows and not self._add_new_rows(keys, rows):
            return False
        self.columns.add_journey(guest_id, search_ids, t_days, sizes,
                                 contexts, positions, labels, rows)
        self.impressions += len(rows)
        return True

    def _add_new_rows(self, keys: list[tuple[str, str]], rows: list) -> bool:
        """Decode the distinct (features, id) text pairs whose row is None,
        add them to the table and fill in ``rows``; False when a features
        text is not an array of floats of the schema's width or an id text
        not a string."""
        new = list(dict.fromkeys(t for t, r in zip(keys, rows) if r is None))
        texts = [features for features, _ in new]
        # each text one bracketed array with no bracket inside, so that the
        # joined text parses into one row per text
        joined = _NEXT.join(texts)
        if not (joined.count("[") == joined.count("]") == len(new)
                and all(t[:1] == "[" and t[-1:] == "]" for t in texts)):
            return False
        values = json.loads("[" + joined + "]")
        width = self.columns.schema.listing_dim
        if not (len(values) == len(new) and set(map(type, values)) == {list}
                and set(map(len, values)) == {width}
                and set(map(type, chain.from_iterable(values))) == {float}):
            return False
        listing_ids = [_leaf(listing_id) for _, listing_id in new]
        if set(map(type, listing_ids)) != {str}:
            return False
        start = self.columns.add_rows(np.array(values, dtype=np.float64),
                                      listing_ids)
        added = dict(zip(new, range(start, start + len(new))))
        if len(self.rows) + len(new) > _MEMO_TEXTS:
            self.rows.clear()
        self.rows.update(added)
        self.new_rows += len(new)
        for k, key in enumerate(keys):
            if rows[k] is None:
                rows[k] = added[key]
        return True


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset file written by :func:`save_dataset`, or any file of
    the same records.

    Lines are read one at a time. Each is first offered to the line
    decoder, and a line it declines is parsed by ``json.loads`` and read as
    a record, so other JSON spellings of the records load too and a faulty
    line raises what :func:`dataset_from_records` raises. Once the decoder
    has read a trial of impressions and more than half its rows are new,
    the rest of the file is read as records. A file that is not UTF-8, has
    a bad header or holds a line that is not JSON raises
    :class:`DataValidationError` or :class:`SchemaMismatchError` naming the
    path.
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
    decoder = _LineDecoder(columns)
    for line_no, line in enumerate(f, start=2):
        if decoder is not None and decoder.decode(line):
            if not decoder.pays:
                decoder = None
            continue
        if line.isspace():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"{path}:{line_no}: bad JSON: {exc}") from None
        columns.add_record(rec)
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
