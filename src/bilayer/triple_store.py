"""Sparse quadruple store with closed-world completion and counting models.

Statements are (subject, predicate, object) triples observed at an episodic
instance t, each carrying an explicit truth value.  Truth values never
default: a statement is true, false, or unknown (absent).  Unary statements
use the reserved hasAttribute predicate with a class/attribute object.

The counting models implemented here are the exact reference semantics for
everything the trainable network only approximates:

* observation model      P(s,p,o | t)    relative frequency within one instance
* pooled model           P(s,p,o)        relative frequency over all instances
* expected truth         E[y_{s,p,o}]    positives / known occasions
* label conditional      P(c2 | c1)      co-occurrence frequency of two labels
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterable

import numpy as np

from .dists import Categorical
from .vocab import Kind, Vocabulary


class StoreError(ValueError):
    pass


class ConflictError(StoreError):
    """A statement was asserted with both truth values at the same instance."""


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


@dataclass
class TripleStore:
    vocab: Vocabulary
    duplicate_policy: str = "error"  # "error" | "ignore"
    horizon: int | None = None  # expected_truth window, in instances; None = all

    _positive: set[Quad] = field(default_factory=set)
    _negative: set[Quad] = field(default_factory=set)
    _pos_by_instance: dict[int, list[tuple[int, int, int]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    _pos_count: Counter = field(default_factory=Counter)
    _known_count: Counter = field(default_factory=Counter)
    _pos_sites: dict[tuple[int, int], set[tuple[int, int]]] = field(
        default_factory=lambda: defaultdict(set)
    )  # (p, o) -> {(s, t)}
    # positives only grow, so the sorted array stays valid while their count holds
    _positive_array: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.duplicate_policy not in ("error", "ignore"):
            raise StoreError(f"bad duplicate policy {self.duplicate_policy!r}")
        if self.horizon is not None and self.horizon < 1:
            raise StoreError("horizon must be a positive instance count")

    # -- ingestion -----------------------------------------------------------

    def _check_kinds(self, s: int, p: int, o: int, t: int) -> None:
        v = self.vocab
        if v.kind_of(s) is not Kind.ENTITY:
            raise StoreError(f"subject {v.name_of(s)!r} is not an entity")
        if v.kind_of(t) is not Kind.INSTANCE:
            raise StoreError(f"instance {v.name_of(t)!r} is not an instance")
        if v.kind_of(p) is not Kind.PREDICATE:
            raise StoreError(f"predicate {v.name_of(p)!r} is not a predicate")
        if p == v.has_attribute:
            if v.kind_of(o) not in (Kind.CLASS, Kind.ATTRIBUTE):
                raise StoreError(
                    f"{v.name_of(o)!r} cannot be the object of {v.name_of(p)!r}"
                )
        elif v.kind_of(o) is not Kind.ENTITY:
            raise StoreError(
                f"binary statement object {v.name_of(o)!r} is not an entity"
            )

    def add_observation(self, s: int, p: int, o: int, t: int, truth: bool) -> None:
        self._check_kinds(s, p, o, t)
        quad = (s, p, o, t)
        opposite = self._negative if truth else self._positive
        if quad in opposite:
            raise ConflictError(
                f"({self.vocab.name_of(s)}, {self.vocab.name_of(p)}, "
                f"{self.vocab.name_of(o)}) at {self.vocab.name_of(t)} "
                f"already asserted with truth={not truth}"
            )
        same = self._positive if truth else self._negative
        if quad in same:
            if self.duplicate_policy == "error":
                raise StoreError(f"duplicate observation {quad}")
            return
        same.add(quad)
        self._known_count[(s, p, o)] += 1
        if truth:
            self._pos_by_instance[t].append((s, p, o))
            self._pos_count[(s, p, o)] += 1
            self._pos_sites[(p, o)].add((s, t))

    def lcwa_expand(
        self,
        t: int,
        observed_entities: Iterable[int],
        families: Iterable[str] | None = None,
        predicates: Iterable[int] | None = None,
    ) -> list[Quad]:
        """Close instance t: everything not asserted positive becomes negative.

        For each observed entity, every member of the given label families not
        asserted true at t is recorded false; for each ordered pair of distinct
        observed entities, likewise for the given binary predicates.  Families
        and predicates default to the full label-family set and all binary
        predicates.  Statements already known keep their value.  Returns the
        newly implied negatives.
        """
        v = self.vocab
        entities = list(dict.fromkeys(observed_entities))
        for e in entities:
            if v.kind_of(e) is not Kind.ENTITY:
                raise StoreError(f"observed id {v.name_of(e)!r} is not an entity")
        if v.kind_of(t) is not Kind.INSTANCE:
            raise StoreError(f"{v.name_of(t)!r} is not an instance")
        fam_names = list(families) if families is not None else [
            f for f in v.families if f != "Identity"
        ]
        preds = list(predicates) if predicates is not None else list(v.binary_predicates)
        ha = v.has_attribute
        implied: list[Quad] = []
        for e in entities:
            for fam in fam_names:
                for c in v.family_members(fam):
                    quad = (e, ha, c, t)
                    if quad in self._positive or quad in self._negative:
                        continue
                    self._negative.add(quad)
                    self._known_count[(e, ha, c)] += 1
                    implied.append(quad)
        for s in entities:
            for o in entities:
                if s == o:
                    continue
                for p in preds:
                    quad = (s, p, o, t)
                    if quad in self._positive or quad in self._negative:
                        continue
                    self._negative.add(quad)
                    self._known_count[(s, p, o)] += 1
                    implied.append(quad)
        return implied

    # -- raw counts ----------------------------------------------------------

    def truth_of(self, s: int, p: int, o: int, t: int):
        if (s, p, o, t) in self._positive:
            return True
        if (s, p, o, t) in self._negative:
            return False
        return UNKNOWN

    def n_statements(self, t: int) -> int:
        """Number of true statements recorded at instance t."""
        return len(self._pos_by_instance.get(t, ()))

    def total_statements(self) -> int:
        return len(self._positive)

    def positive_count(self, s: int, p: int, o: int) -> int:
        return self._pos_count[(s, p, o)]

    def known_count(self, s: int, p: int, o: int) -> int:
        return self._known_count[(s, p, o)]

    def observed_instances(self) -> tuple[int, ...]:
        ts = {t for (_, _, _, t) in self._positive}
        ts.update(t for (_, _, _, t) in self._negative)
        return tuple(sorted(ts))

    def positives_at(self, t: int) -> tuple[tuple[int, int, int], ...]:
        return tuple(sorted(set(self._pos_by_instance.get(t, ()))))

    def iter_positive(self) -> Iterable[Quad]:
        return iter(sorted(self._positive, key=lambda q: (q[3], q[0], q[1], q[2])))

    def iter_negative(self) -> Iterable[Quad]:
        return iter(sorted(self._negative, key=lambda q: (q[3], q[0], q[1], q[2])))

    def positive_array(self) -> np.ndarray:
        """The true statements as a read-only (n, 4) int64 array with columns
        s, p, o, t, in `iter_positive` order."""
        cached = self._positive_array
        if cached is None or len(cached) != len(self._positive):
            ids = _quad_array(self._positive)
            cached = ids[np.lexsort([ids[:, k] for k in (2, 1, 0, 3)])]  # the last key is primary
            cached.flags.writeable = False
            self._positive_array = cached
        return cached

    # -- counting models -------------------------------------------------------

    def observation_dist(self, t: int) -> Categorical:
        """P(s,p,o | t): uniform over the statements observed true at t."""
        if self.vocab.kind_of(t) is not Kind.INSTANCE:
            raise StoreError(f"{self.vocab.name_of(t)!r} is not an instance")
        triples = self._pos_by_instance.get(t)
        if not triples:
            raise StoreError(f"no true statements recorded at {self.vocab.name_of(t)!r}")
        counts = Counter(triples)
        support = tuple(sorted(counts))
        n_t = sum(counts.values())
        probs = [counts[k] / n_t for k in support]
        return Categorical(support, probs)

    def pooled_dist(self) -> Categorical:
        """P(s,p,o) pooled over every instance: the background model."""
        if not self._positive:
            raise StoreError("store holds no true statements")
        support = tuple(sorted(self._pos_count))
        total = sum(self._pos_count.values())
        probs = [self._pos_count[k] / total for k in support]
        return Categorical(support, probs)

    def _window(self) -> set[int] | None:
        if self.horizon is None:
            return None
        return set(self.observed_instances()[-self.horizon:])

    def expected_truth(self, s: int, p: int, o: int):
        """Fraction of known occasions on which (s,p,o) was true, or UNKNOWN."""
        window = self._window()
        if window is None:
            known = self._known_count[(s, p, o)]
            if known == 0:
                return UNKNOWN
            return self._pos_count[(s, p, o)] / known
        pos = sum(1 for t in window if (s, p, o, t) in self._positive)
        known = pos + sum(1 for t in window if (s, p, o, t) in self._negative)
        if known == 0:
            return UNKNOWN
        return pos / known

    def label_conditional(self, c1: int, c2: int):
        """P(c2 | c1): among occasions where an entity carried label c1 and the
        truth of c2 for it was known, the fraction where c2 held too."""
        ha = self.vocab.has_attribute
        sites = self._pos_sites.get((ha, c1))
        if not sites:
            raise StoreError(
                f"label {self.vocab.name_of(c1)!r} never observed on any entity"
            )
        num = 0
        den = 0
        for s, t in sites:
            truth = self.truth_of(s, ha, c2, t)
            if truth is UNKNOWN:
                continue
            den += 1
            num += int(truth)
        if den == 0:
            return UNKNOWN
        return num / den


# -- JSON Lines interchange ----------------------------------------------------


WRITE_CHUNK = 8192  # statement lines per fp.write


def write_statements(
    fp: IO[str],
    vocab: Vocabulary,
    quads,
    truth: bool,
    provenance: str | None = None,
) -> int:
    """Write (s, p, o, t) id rows, an (n, 4) array or a list of quads, in
    order, one JSON object a line: `{"s": …, "p": …, "o": …, "t": …, "y": 0|1}`
    with the symbol names, plus a last `"provenance"` key when one is given.

    Each symbol name is JSON-encoded once per call, and each run of
    WRITE_CHUNK rows is formatted with elementwise string additions over the
    encodings and written with one `fp.write`.  Returns the number of lines.
    """
    enc = np.array([json.dumps(vocab.name_of(i)) for i in range(len(vocab))], dtype=object)
    tail = f', "y": {int(truth)}'
    if provenance is not None:
        tail += f', "provenance": {json.dumps(provenance)}'
    tail += "}\n"
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    for start in range(0, len(quads), WRITE_CHUNK):
        s, p, o, t = enc[quads[start:start + WRITE_CHUNK]].T
        lines = '{"s": ' + s + ', "p": ' + p + ', "o": ' + o + ', "t": ' + t + tail
        fp.write("".join(lines.tolist()))
    return len(quads)


def _quad_array(quads) -> np.ndarray:
    """A collection of (s, p, o, t) quads as an (n, 4) int64 array."""
    ids = np.fromiter(chain.from_iterable(quads), dtype=np.int64, count=4 * len(quads))
    return ids.reshape(-1, 4)


def write_jsonl(store: TripleStore, fp: IO[str], truth: bool = True) -> int:
    """Write the store's statements of one truth value, ordered by symbol names.

    Lines are ordered by the names of (t, s, p, o), compared as strings, not by
    ids, so the file is identical when the same store is rebuilt in a session
    that assigned different internal ids.  Names are unique, so sorting the
    quads by each id's rank among the sorted names gives that order without
    comparing strings per quad.
    """
    v = store.vocab
    quads = store._positive if truth else store._negative
    rank = np.empty(len(v), dtype=np.int64)
    rank[sorted(range(len(v)), key=v.name_of)] = np.arange(len(v))
    ids = _quad_array(quads)
    order = np.lexsort([rank[ids[:, k]] for k in (2, 1, 0, 3)])  # the last key is primary
    return write_statements(fp, v, ids[order], truth)


def read_jsonl(store: TripleStore, fp: IO[str]) -> int:
    v = store.vocab
    n = 0
    for line_no, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            s, p, o, t = (v.id_of(rec[k]) for k in ("s", "p", "o", "t"))
            y = rec["y"]
            if y not in (0, 1):
                raise StoreError(f"bad truth value {y!r}")
        except (KeyError, json.JSONDecodeError) as exc:
            raise StoreError(f"line {line_no}: malformed statement ({exc})") from exc
        store.add_observation(s, p, o, t, bool(y))
        n += 1
    return n
