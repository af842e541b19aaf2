"""Sparse quadruple store with closed-world completion and counting queries.

Statements are (subject, predicate, object) triples observed at an episodic
instance t.  Truth values never default: a statement is true, false, or
unknown (absent).  Unary statements use the reserved hasAttribute predicate
with a class/attribute object.

Canonical state.  The store keeps two things:

* the true statements, as one read-only (n, 4) int64 array of (s, p, o, t)
  id rows sorted in (t, s, p, o) order.  An add merges its rows in;
* one closure record (entities, labels, predicates) per closed instance, kept
  by instance t.  Closing t under the local closed-world assumption implies
  false every statement at t that is not true and that a record of t
  covers: s is one of its entities, and either p is hasAttribute and o one
  of its labels, or p one of its predicates and o one of its entities other
  than s.  Several closures of one instance stay separate records: the union
  of their cross products is not the cross product of their unions.

A statement is false only under a closure.  The rule equals "the cross
product minus what was known at close time" because a later positive inside
a closure is refused as a conflict.  Statements arrive in bulk:

* `add_observations` checks a batch of rows at once: kinds against a per-id
  kind array, duplicates within the batch with one sort, and against the
  store through `truth_of`, so an implied negative counts as stored;
* `close_instances` checks and records the closures of many instances.

A batch that fails a check adds nothing; the error names the first bad row
in input order.

Derived indexes.  Queries read indexes built from the canonical state the
first time a query needs one, so a store that is only built, trained on or
decoded from pays for none of them:

* the implied-negative rows: every statement a closure implies false, as
  one sorted array, built run of instances by run of instances.  It serves
  `iter_negative`, `total_statements(False)` and the counts below;
* the point lookup behind `truth_of`: the set of true (s, p, o, t) tuples,
  one set lookup per call, keyed by tuples that share one int object per
  id; a miss is then checked against the records of t;
* the positive and known counts behind `expected_truth`: (s, p, o) -> count;
* the label co-occurrence counts behind `label_conditional`: per (s, t) site
  with a positive label, which labels are true there and which known false.

Adds update the point lookup in place and drop whatever else they change,
as closes do; the next query rebuilds it.  The positives of one instance
are a slice of the positive array, found by two binary searches on its
instance column, and `observed_instances` is worked out on each call.

The counting queries are the exact reference semantics for what the
trainable network only approximates:

* expected truth         E[y_{s,p,o}]    positives / known occasions
* label conditional      P(c2 | c1)      co-occurrence frequency of two labels
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterable

import numpy as np

from .vocab import KIND_CODE, Kind, Vocabulary


class StoreError(ValueError):
    pass


class ConflictError(StoreError):
    """A true statement was added inside a closure of its instance, which
    implies it false."""


class _Unknown:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "UNKNOWN"

    def __bool__(self) -> bool:
        raise TypeError("UNKNOWN has no truth value; compare with `is UNKNOWN`")


#: Sentinel for statements whose truth value was never observed or implied.
UNKNOWN = _Unknown()


def is_known(value) -> bool:
    return value is not UNKNOWN


Quad = tuple[int, int, int, int]  # (s, p, o, t)

_ENTITY, _CLASS, _ATTRIBUTE, _PREDICATE, _INSTANCE = (
    KIND_CODE[k] for k in (Kind.ENTITY, Kind.CLASS, Kind.ATTRIBUTE, Kind.PREDICATE, Kind.INSTANCE)
)
_OUTSIDE = -1  # kind code of an id the vocabulary does not hold

ITER_CHUNK = 8192  # rows turned into tuples at a time
RUN_ROWS = 8192  # rows of closure expansion or label co-occurrence handled at a time

_NO_ROWS = np.zeros((0, 4), dtype=np.int64)
_NO_ROWS.flags.writeable = False


def _pack(cols) -> np.ndarray:
    """One int64 per row that orders and identifies the rows as their columns
    do, the first column most significant.  Ids are nonnegative.  When the
    next column would overflow int64, the key so far is first replaced by its
    rank among the rows' keys."""
    key = cols[0]
    for col in cols[1:]:
        radix = int(col.max()) + 1 if len(col) else 1
        if len(key) and (int(key.max()) + 1) * radix > np.iinfo(np.int64).max:
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
        key = key * radix + col
    return key


def _quad_key(rows: np.ndarray) -> np.ndarray:
    """Sort keys of (s, p, o, t) rows in (t, s, p, o) order."""
    return _pack([rows[:, 3], rows[:, 0], rows[:, 1], rows[:, 2]])


def _runs(keys: np.ndarray) -> np.ndarray:
    """Mask of the first key of each run of equal keys in sorted `keys`."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def distinct(keys: np.ndarray) -> np.ndarray:
    """`np.unique(keys)` as one sort and one compare.  numpy 2's `unique`
    hashes int64 keys first, which took over ten times as long for the
    30,000 keys of a x4 world."""
    keys = np.sort(keys)
    return keys[_runs(keys)]


def _first_seen(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows by quad with one stable sort.  Returns the rows' sort
    order in (t, s, p, o) order and a mask of the rows that hold the first
    occurrence of their quad in input order."""
    if len(rows) < 2:
        return np.zeros(len(rows), dtype=np.int64), np.ones(len(rows), dtype=bool)
    key = _quad_key(rows)
    order = np.argsort(key, kind="stable")
    first = np.empty(len(rows), dtype=bool)
    first[order] = _runs(key[order])
    return order, first


def _csr(groups: list) -> tuple[np.ndarray, np.ndarray]:
    """Lists of ids as one flat int64 array and the offsets of each list in it."""
    offsets = np.zeros(len(groups) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, groups), dtype=np.int64, count=len(groups)), out=offsets[1:])
    flat = np.fromiter(chain.from_iterable(groups), dtype=np.int64, count=int(offsets[-1]))
    return flat, offsets


def _cross(a_off: np.ndarray, b_off: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of a position in group g of `a` and one in group g of `b`,
    for groups given by offsets, group by group in row-major order: the index
    arrays (g, i, j)."""
    na, nb = np.diff(a_off), np.diff(b_off)
    n = na * nb
    g = np.repeat(np.arange(len(n)), n)
    local = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
    return g, a_off[g] + local // nb[g], b_off[g] + local % nb[g]


def _closure_rows(closures: list, ha: int) -> np.ndarray:
    """The statements that (t, entities, labels, predicates) closures cover,
    as (n, 4) s, p, o, t rows: the unary rows of every closure, then the
    binary rows, in loop order: (entity, label), and (subject, object,
    predicate) over ordered pairs of distinct entities."""
    ts = np.array([c[0] for c in closures], dtype=np.int64)
    ents, ent_off = _csr([c[1] for c in closures])
    labels, lab_off = _csr([c[2] for c in closures])
    preds, pred_off = _csr([c[3] for c in closures])
    g, i, j = _cross(ent_off, lab_off)
    unary = np.stack([ents[i], np.full(len(g), ha), labels[j], ts[g]], axis=1)
    g, i, j = _cross(ent_off, ent_off)
    distinct = ents[i] != ents[j]
    g, i, j = g[distinct], i[distinct], j[distinct]
    g, k, m = _cross(np.searchsorted(g, np.arange(len(ts) + 1)), pred_off)
    binary = np.stack([ents[i[k]], preds[m], ents[j[k]], ts[g]], axis=1)
    return np.concatenate([unary, binary])


def _n_covered(entities: frozenset, labels: frozenset, preds: frozenset) -> int:
    """How many statements one closure record covers."""
    return len(entities) * (len(labels) + (len(entities) - 1) * len(preds))


@dataclass(eq=False)
class TripleStore:
    vocab: Vocabulary

    # canonical state: the sorted read-only (n, 4) s, p, o, t rows of the true
    # statements; t -> its closure records (entities, labels, predicates)
    _positives: np.ndarray = field(default_factory=lambda: _NO_ROWS, repr=False)
    _closures: dict = field(default_factory=dict, repr=False)
    # derived indexes, None until a query needs them
    _negatives: np.ndarray | None = field(default=None, repr=False)  # every false (n, 4) row
    _truth: set | None = field(default=None, repr=False)  # true (s, p, o, t) tuples
    _counts: tuple | None = field(default=None, repr=False)  # Counters (s, p, o) -> positives, known
    _cooc: dict | None = field(default=None, repr=False)  # c1 -> {c2: P(c2 | c1)}
    # shared int objects per id, extended as the vocabulary grows
    _ints: np.ndarray = field(default_factory=lambda: np.zeros(0, object), repr=False)
    _ha: int = field(init=False, repr=False)  # hasAttribute's id, read by every `truth_of` miss

    def __post_init__(self) -> None:
        self._ha = self.vocab.has_attribute

    # -- statement arrays --------------------------------------------------------

    def _rows(self, truth: bool) -> np.ndarray:
        """Every statement of one truth value as a read-only (n, 4) array in
        (t, s, p, o) order."""
        if truth:
            return self._positives
        if self._negatives is None:
            self._negatives = self._negative_rows()
        return self._negatives

    def _negative_rows(self) -> np.ndarray:
        """The implied negatives, in order.  The closures are expanded a run
        of instances at a time: a run's covered statements, minus the
        positives of its span of instances, go straight into an array sized
        for every covered statement, which then shrinks in place, so the
        temporaries stay near RUN_ROWS rows."""
        if not self._closures:
            return _NO_ROWS
        positive = self._positives
        ts = sorted(self._closures)
        sizes = [sum(_n_covered(*record) for record in self._closures[t]) for t in ts]
        runs = [0]  # index in ts of each run's first instance
        total = 0
        for k, size in enumerate(sizes):
            if k > runs[-1] and total + size > RUN_ROWS:
                runs.append(k)
                total = 0
            total += size
        starts = [ts[k] for k in runs[1:]]
        cuts = np.r_[0, np.searchsorted(positive[:, 3], starts), len(positive)]
        out = np.empty((sum(sizes), 4), dtype=np.int64)
        n = 0
        for r, (a, b) in enumerate(zip(runs, runs[1:] + [len(ts)])):
            known = positive[cuts[r]:cuts[r + 1]]
            covered = [(t, *record) for t in ts[a:b] for record in self._closures[t]]
            both = np.concatenate([known, _closure_rows(covered, self._ha)])
            order, first = _first_seen(both)
            first = order[first[order]]  # each quad's first row, in (t, s, p, o) order
            first = first[first >= len(known)]
            out[n:n + len(first)] = both[first]
            n += len(first)
        out.resize((n, 4), refcheck=False)
        out.flags.writeable = False
        return out

    def _append(self, rows: np.ndarray) -> None:
        """Merge sorted new positives into the positive array and bring the
        indexes along.  A positive lies in no closure, so the negatives stay."""
        if self._truth is not None:
            self._truth.update(self._shared(rows))
        if len(self._positives):
            rows = np.concatenate([self._positives, rows])
            rows = rows[np.argsort(_quad_key(rows), kind="stable")]
        rows.flags.writeable = False
        self._positives = rows
        self._counts = self._cooc = None

    def _shared(self, rows: np.ndarray) -> Iterable[tuple]:
        """The rows as tuples of ints, one chunk converted at a time.  Every id
        is one shared int object, so the index keys cost no int objects of
        their own and compare item by item by identity."""
        ints = self._ints
        if len(ints) < len(self.vocab):
            new = np.array(range(len(ints), len(self.vocab)), dtype=object)
            ints = self._ints = np.concatenate([ints, new])
        return chain.from_iterable(
            zip(*ints[rows[start:start + ITER_CHUNK]].T.tolist())
            for start in range(0, len(rows), ITER_CHUNK)
        )

    # -- ingestion -----------------------------------------------------------

    def _kinds(self, ids: np.ndarray) -> np.ndarray:
        """Kind codes of an id array; `_OUTSIDE` for ids the vocabulary lacks."""
        codes = self.vocab.kind_codes()
        inside = (ids >= 0) & (ids < len(codes))
        return np.where(inside, codes[np.where(inside, ids, 0)], _OUTSIDE)

    def _check_id(self, i: int) -> None:
        if not 0 <= i < len(self.vocab):
            raise StoreError(f"id {i} is not in the vocabulary")

    def _check_kinds(self, s: int, p: int, o: int, t: int) -> None:
        for i in (s, p, o, t):
            self._check_id(i)
        v = self.vocab
        if v.kind_of(s) is not Kind.ENTITY:
            raise StoreError(f"subject {v.name_of(s)!r} is not an entity")
        if v.kind_of(t) is not Kind.INSTANCE:
            raise StoreError(f"instance {v.name_of(t)!r} is not an instance")
        if v.kind_of(p) is not Kind.PREDICATE:
            raise StoreError(f"predicate {v.name_of(p)!r} is not a predicate")
        if p == self._ha:
            self._check_label(o)
        elif v.kind_of(o) is not Kind.ENTITY:
            raise StoreError(
                f"binary statement object {v.name_of(o)!r} is not an entity"
            )

    def _check_label(self, c: int) -> None:
        self._check_id(c)
        v = self.vocab
        if v.kind_of(c) not in (Kind.CLASS, Kind.ATTRIBUTE):
            raise StoreError(f"{v.name_of(c)!r} cannot be the object of {v.name_of(self._ha)!r}")

    def _check_predicate(self, p: int) -> None:
        self._check_id(p)
        v = self.vocab
        if v.kind_of(p) is not Kind.PREDICATE or p == self._ha:
            raise StoreError(f"{v.name_of(p)!r} is not a binary predicate")

    def _bad_kinds(self, rows: np.ndarray) -> np.ndarray:
        """Mask of the rows `_check_kinds` refuses."""
        s, p, o, t = self._kinds(rows).T
        unary = rows[:, 1] == self._ha
        o_ok = np.where(unary, (o == _CLASS) | (o == _ATTRIBUTE), o == _ENTITY)
        return ~((s == _ENTITY) & (t == _INSTANCE) & (p == _PREDICATE) & o_ok)

    def _stored(self, rows: np.ndarray) -> np.ndarray:
        """What the store holds for each row's quad: 1 true, 0 false (implied
        by a closure), -1 unknown."""
        code = {True: 1, False: 0}
        truths = map(self.truth_of, *rows.T.tolist())
        return np.fromiter((code.get(y, -1) for y in truths), dtype=np.int8, count=len(rows))

    def add_observations(self, rows) -> None:
        """Add (s, p, o, t) id rows, all true, as one step.

        A row is refused if its ids have the wrong kinds, or if its quad is
        already stored or comes earlier in the batch: a quad a closure
        implies false is a `ConflictError`, a true one a duplicate.  The
        error names the first refused row in input order and nothing is
        added."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
        if not len(rows):
            return
        bad_kind = self._bad_kinds(rows)
        # a row with ids outside the vocabulary can share a sort key with another
        # row; that marks only the later of the two, and the bad row is refused
        # itself, so the first refused row is still the first bad one
        order, first = _first_seen(rows)
        stored = np.full(len(rows), -1, dtype=np.int8)
        if self._closures or len(self._positives):
            stored = self._stored(rows)
        refused = bad_kind | ~first | (stored >= 0)
        if refused.any():
            i = int(np.argmax(refused))
            s, p, o, t = rows[i].tolist()
            if bad_kind[i]:
                self._check_kinds(s, p, o, t)
            if stored[i] == 0:
                v = self.vocab
                raise ConflictError(
                    f"({v.name_of(s)}, {v.name_of(p)}, {v.name_of(o)}) at {v.name_of(t)} "
                    "already asserted with truth=False"
                )
            raise StoreError(f"duplicate observation {(s, p, o, t)}")
        self._append(rows[order])

    def close_instances(self, closures: Iterable[tuple]) -> None:
        """Close instances under the local closed-world assumption.

        Each closure is (t, entities, labels, predicates) and is kept as one
        record of t.  From then on every statement (e, hasAttribute, c, t) for
        an entity e and a label c, and (s, p, o, t) for an ordered pair of
        distinct entities s, o and a predicate p, reads false unless it is
        true.  Labels must be classes or attributes and predicates binary
        ones.  A batch that fails a check records nothing."""
        records = self._closure_records(closures)
        for t, record in records:
            self._closures.setdefault(t, []).append(record)
        if records:
            self._negatives = self._counts = self._cooc = None

    def _closure_records(self, closures: Iterable[tuple]) -> list[tuple]:
        """Check closures and return them as (t, (entities, labels,
        predicates)) pairs of an instance and a record of frozensets; equal
        label or predicate lists share one set."""
        closures = list(closures)
        ts = np.array([c[0] for c in closures], dtype=np.int64)
        ents, ent_off = _csr([c[1] for c in closures])
        # a closure is refused if its instance or one of its entities has the wrong kind
        bad = self._kinds(ts) != _INSTANCE
        bad[np.repeat(np.arange(len(ts)), np.diff(ent_off))[self._kinds(ents) != _ENTITY]] = True
        if bad.any():
            t, entities = closures[int(np.argmax(bad))][:2]
            self._check_closure(t, entities)
        shared = []  # per position: each closure's set; each distinct list checked once
        for k, check in ((2, self._check_label), (3, self._check_predicate)):
            sets, column = {}, []
            for closure in closures:
                key = tuple(closure[k])
                found = sets.get(key)
                if found is None:
                    for i in key:
                        check(i)
                    found = sets[key] = frozenset(map(int, key))
                column.append(found)
            shared.append(column)
        return [(int(c[0]), (frozenset(map(int, c[1])), labels, preds))
                for c, labels, preds in zip(closures, *shared)]

    def _check_closure(self, t: int, entities) -> None:
        v = self.vocab
        for e in entities:
            self._check_id(e)
            if v.kind_of(e) is not Kind.ENTITY:
                raise StoreError(f"observed id {v.name_of(e)!r} is not an entity")
        self._check_instance(t)

    def _check_instance(self, t: int) -> None:
        self._check_id(t)
        if self.vocab.kind_of(t) is not Kind.INSTANCE:
            raise StoreError(f"{self.vocab.name_of(t)!r} is not an instance")

    # -- raw counts ----------------------------------------------------------

    def truth_of(self, s: int, p: int, o: int, t: int):
        """True for a stored positive, False when a closure of t covers the
        quad, UNKNOWN otherwise."""
        index = self._truth
        if index is None:
            index = self._truth = set(self._shared(self._positives))
        if (s, p, o, t) in index:
            return True
        for entities, labels, preds in self._closures.get(t, ()):
            if s in entities and (
                o in labels if p == self._ha else o != s and p in preds and o in entities
            ):
                return False
        return UNKNOWN

    def _instance_rows(self, t: int) -> np.ndarray:
        """The positives at instance t: rows of the positive array, in (s, p, o) order."""
        rows = self._positives
        lo, hi = np.searchsorted(rows[:, 3], [t, t + 1])
        return rows[lo:hi]

    def n_statements(self, t: int) -> int:
        """Number of true statements recorded at instance t."""
        self._check_instance(t)
        return len(self._instance_rows(t))

    def total_statements(self, truth: bool = True) -> int:
        """Number of statements of one truth value; true ones by default."""
        return len(self._rows(truth))

    def _count_index(self) -> tuple[Counter, Counter]:
        if self._counts is None:
            counts = []
            for rows in (self._rows(True), np.concatenate([self._rows(True), self._rows(False)])):
                key = _pack([rows[:, 0], rows[:, 1], rows[:, 2]])
                _, first, n = np.unique(key, return_index=True, return_counts=True)
                counts.append(Counter(dict(zip(self._shared(rows[first, :3]), n.tolist()))))
            self._counts = tuple(counts)
        return self._counts

    def observed_instances(self) -> tuple[int, ...]:
        """The instances with a statement: a true one, or one a closure
        implies.  A closure that covers something implies it unless it is
        true, so the closures need not be expanded."""
        ts = {t for t, records in self._closures.items() if any(_n_covered(*r) for r in records)}
        ts.update(distinct(self._positives[:, 3]).tolist())
        return tuple(sorted(ts))

    def positives_at(self, t: int) -> tuple[tuple[int, int, int], ...]:
        return tuple(map(tuple, self._instance_rows(t)[:, :3].tolist()))

    def iter_positive(self) -> Iterable[Quad]:
        return self._shared(self._rows(True))

    def iter_negative(self) -> Iterable[Quad]:
        return self._shared(self._rows(False))

    def positive_array(self) -> np.ndarray:
        """The true statements as a read-only (n, 4) int64 array with columns
        s, p, o, t, in `iter_positive` order."""
        return self._rows(True)

    # -- counting queries --------------------------------------------------------

    def expected_truth(self, s: int, p: int, o: int):
        """Fraction of known occasions on which (s,p,o) was true, or UNKNOWN."""
        counts = self._counts
        if counts is None:
            counts = self._count_index()
        positives, known = counts
        key = (s, p, o)
        n = known.get(key)
        if n is None:
            return UNKNOWN
        return positives[key] / n

    def _cooc_index(self) -> dict:
        """c1 -> {c2: P(c2 | c1)} for every label c1 true at some (s, t) site,
        from per-site rows of which labels are true and which are known (true,
        or in a closure of t that holds s)."""
        if self._cooc is None:
            ha, n_ids = self._ha, len(self.vocab)
            pos = self._positives[self._positives[:, 1] == ha]
            site_keys = pos[:, 3] * n_ids + pos[:, 0]  # sorted, as the rows are
            first = _runs(site_keys)
            sites, site_of = site_keys[first], np.cumsum(first) - 1
            closed: dict = {}  # label set -> site keys of the entities closed under it
            for t, records in self._closures.items():
                for entities, labels, _ in records:
                    if labels:
                        closed.setdefault(labels, []).extend(t * n_ids + e for e in entities)
            labels = distinct(np.concatenate([
                pos[:, 2], np.fromiter(chain.from_iterable(closed), dtype=np.int64)]))
            true = np.zeros((len(sites), len(labels)), dtype=bool)
            true[site_of, np.searchsorted(labels, pos[:, 2])] = True
            known = true.copy()
            for label_set, keys in closed.items():
                keys = np.array(keys, dtype=np.int64)
                at = np.searchsorted(sites, keys[np.isin(keys, sites)])
                known[np.ix_(at, np.searchsorted(labels, sorted(label_set)))] = True
            num = np.zeros((len(labels), len(labels)))
            den = np.zeros((len(labels), len(labels)))
            for lo in range(0, len(sites), RUN_ROWS):
                block = true[lo:lo + RUN_ROWS].T.astype(np.float64)
                num += block @ true[lo:lo + RUN_ROWS]
                den += block @ known[lo:lo + RUN_ROWS]
            num, den = num.astype(np.int64).tolist(), den.astype(np.int64).tolist()
            ids = labels.tolist()
            self._cooc = {
                c1: {c2: num[i][j] / den[i][j] if den[i][j] else UNKNOWN for j, c2 in enumerate(ids)}
                for i, c1 in enumerate(ids) if num[i][i]
            }
        return self._cooc

    def label_conditional(self, c1: int, c2: int):
        """P(c2 | c1): among occasions where an entity carried label c1 and the
        truth of c2 for it was known, the fraction where c2 held too."""
        cooc = self._cooc
        if cooc is None:
            cooc = self._cooc_index()
        row = cooc.get(c1)
        if row is None:
            raise StoreError(
                f"label {self.vocab.name_of(c1)!r} never observed on any entity"
            )
        return row.get(c2, UNKNOWN)


# -- JSON Lines interchange ----------------------------------------------------


WRITE_CHUNK = 8192  # statement lines per fp.write


def write_statements(
    fp: IO[str],
    vocab: Vocabulary,
    quads,
    provenance: str | None = None,
) -> int:
    """Write true (s, p, o, t) id rows, an (n, 4) array or a list of quads,
    in order, one JSON object a line: `{"s": …, "p": …, "o": …, "t": …,
    "y": 1}` with the symbol names, plus a last `"provenance"` key when one
    is given.

    Each symbol name is JSON-encoded once per call, and each run of
    WRITE_CHUNK rows is formatted with elementwise string additions over the
    encodings and written with one `fp.write`.  Returns the number of lines.
    """
    enc = np.array([json.dumps(vocab.name_of(i)) for i in range(len(vocab))], dtype=object)
    tail = ', "y": 1'
    if provenance is not None:
        tail += f', "provenance": {json.dumps(provenance)}'
    tail += "}\n"
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    for start in range(0, len(quads), WRITE_CHUNK):
        s, p, o, t = enc[quads[start:start + WRITE_CHUNK]].T
        lines = '{"s": ' + s + ', "p": ' + p + ', "o": ' + o + ', "t": ' + t + tail
        fp.write("".join(lines.tolist()))
    return len(quads)


def write_jsonl(store: TripleStore, fp: IO[str]) -> int:
    """Write the store's true statements, ordered by symbol names.

    Lines are ordered by the names of (t, s, p, o), compared as strings, not by
    ids, so the file is identical when the same store is rebuilt in a session
    that assigned different internal ids.  Names are unique, so sorting the
    quads by each id's rank among the sorted names gives that order without
    comparing strings per quad.
    """
    v = store.vocab
    rank = np.empty(len(v), dtype=np.int64)
    rank[sorted(range(len(v)), key=v.name_of)] = np.arange(len(v))
    ids = store.positive_array()
    order = np.argsort(_quad_key(rank[ids]), kind="stable")
    return write_statements(fp, v, ids[order])
