"""Symbol registries: entities, classes, attributes, predicates, instances.

Ids are dense ints, and one constructor numbers every symbol of a generated
or loaded world: `Vocabulary.from_dict`, whose docstring states the rule.
Only growth (`add_entity`, `add_instance`) appends a symbol after it.  Classes
and attributes are grouped into named label families; sampling and
evaluation treat each family as one categorical variable.  The identity
family groups the entity indices themselves so that an entity id can be
predicted like any other label.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np


HAS_ATTRIBUTE = "hasAttribute"
IDENTITY_FAMILY = "Identity"


class Kind(str, Enum):
    ENTITY = "entity"
    CLASS = "class"
    ATTRIBUTE = "attribute"
    PREDICATE = "predicate"
    INSTANCE = "instance"


# a kind's code in `Vocabulary.kind_codes`: its index in `Kind`
KIND_CODE = {kind: code for code, kind in enumerate(Kind)}
# the lists of an exported vocabulary, in the order `from_dict` numbers them
_BLOCKS = {"classes": Kind.CLASS, "attributes": Kind.ATTRIBUTE, "predicates": Kind.PREDICATE,
           "entities": Kind.ENTITY, "instances": Kind.INSTANCE}


class VocabError(ValueError):
    pass


@dataclass
class Vocabulary:
    """Mutable symbol table. Ids are dense ints in registration order."""

    _names: list[str] = field(default_factory=list)
    _kinds: list[Kind] = field(default_factory=list)
    _ids: dict[str, int] = field(default_factory=dict)
    _families: dict[str, list[int]] = field(default_factory=dict)
    _family_of: dict[int, str] = field(default_factory=dict)
    # `digest()`, `kind_codes()` and `family_codes()` of the current symbols
    # and families; cleared by every change
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)
    _kind_codes: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _family_codes: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if HAS_ATTRIBUTE not in self._ids:
            self._register(HAS_ATTRIBUTE, Kind.PREDICATE)
        self._families.setdefault(IDENTITY_FAMILY, [])

    # -- registration ------------------------------------------------------

    def _register(self, name: str, kind: Kind) -> int:
        if not name:
            raise VocabError("empty symbol name")
        if name in self._ids:
            raise VocabError(f"duplicate symbol {name!r}")
        idx = len(self._names)
        self._digest = self._kind_codes = self._family_codes = None
        self._names.append(name)
        self._kinds.append(kind)
        self._ids[name] = idx
        return idx

    def add_entity(self, name: str) -> int:
        idx = self._register(name, Kind.ENTITY)
        self._families[IDENTITY_FAMILY].append(idx)
        self._family_of[idx] = IDENTITY_FAMILY
        return idx

    def add_instance(self, name: str) -> int:
        return self._register(name, Kind.INSTANCE)

    def copy(self) -> "Vocabulary":
        """An independent vocabulary with the same symbols, ids and families."""
        out = Vocabulary(list(self._names), list(self._kinds), dict(self._ids),
                         {f: list(ids) for f, ids in self._families.items()},
                         dict(self._family_of))
        out._digest = self._digest
        return out

    # -- lookups -----------------------------------------------------------

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise VocabError(f"unknown symbol {name!r}") from None

    def ids_of(self, names: list[str]) -> np.ndarray:
        """The ids of `names`, in order, as one int64 array."""
        try:
            return np.fromiter(map(self._ids.__getitem__, names), dtype=np.int64, count=len(names))
        except (KeyError, TypeError):
            bad = next(n for n in names if type(n) is not str or n not in self._ids)
            raise VocabError(f"unknown symbol {bad!r}") from None

    def name_of(self, idx: int) -> str:
        return self._names[idx]

    def kind_of(self, idx: int) -> Kind:
        return self._kinds[idx]

    def family_of(self, idx: int) -> str | None:
        return self._family_of.get(idx)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def kind_codes(self) -> np.ndarray:
        """Per id, its kind's `KIND_CODE`, as one read-only int8 array."""
        if self._kind_codes is None:
            codes = np.fromiter(map(KIND_CODE.__getitem__, self._kinds), np.int8, len(self._kinds))
            codes.flags.writeable = False
            self._kind_codes = codes
        return self._kind_codes

    def family_codes(self) -> np.ndarray:
        """Per id, its family's code (`family_code`), -1 for none, as one
        read-only int64 array."""
        if self._family_codes is None:
            codes = np.full(len(self._names), -1, dtype=np.int64)
            for code, family in enumerate(sorted(self._families)):
                codes[self._families[family]] = code
            codes.flags.writeable = False
            self._family_codes = codes
        return self._family_codes

    def family_code(self, family: str) -> int:
        """The code of `family` in `family_codes()`: its index among the
        sorted family names."""
        if family not in self._families:
            raise VocabError(f"unknown family {family!r}")
        return sorted(self._families).index(family)

    def _of_kind(self, kind: Kind) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.kind_codes() == KIND_CODE[kind]).tolist())

    def by_kind(self) -> dict[Kind, list[int]]:
        """Every id grouped by its kind, each group in id order."""
        codes = self.kind_codes()
        return {kind: np.flatnonzero(codes == code).tolist() for kind, code in KIND_CODE.items()}

    @property
    def entities(self) -> tuple[int, ...]:
        return self._of_kind(Kind.ENTITY)

    @property
    def classes(self) -> tuple[int, ...]:
        return self._of_kind(Kind.CLASS)

    @property
    def attributes(self) -> tuple[int, ...]:
        return self._of_kind(Kind.ATTRIBUTE)

    @property
    def instances(self) -> tuple[int, ...]:
        return self._of_kind(Kind.INSTANCE)

    @property
    def predicates(self) -> tuple[int, ...]:
        return self._of_kind(Kind.PREDICATE)

    @property
    def has_attribute(self) -> int:
        return self._ids[HAS_ATTRIBUTE]

    @property
    def binary_predicates(self) -> tuple[int, ...]:
        ha = self.has_attribute
        return tuple(i for i in self._of_kind(Kind.PREDICATE) if i != ha)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(sorted(self.classes + self.attributes))

    @property
    def families(self) -> dict[str, tuple[int, ...]]:
        return {name: tuple(ids) for name, ids in self._families.items()}

    def family_members(self, family: str) -> tuple[int, ...]:
        try:
            return tuple(self._families[family])
        except KeyError:
            raise VocabError(f"unknown family {family!r}") from None

    def extends(self, base: "Vocabulary") -> bool:
        """Whether every symbol of `base` is here with its kind, its family and
        its place among the symbols of its kind, so that every column a
        `ColumnMap` of `base` lays out keeps its symbol here."""
        for kind in Kind:
            have, want = self._of_kind(kind), base._of_kind(kind)
            if [self._names[i] for i in have[:len(want)]] != [base._names[i] for i in want]:
                return False
        return all(self._family_of.get(self._ids[name]) == base._family_of.get(i)
                   for i, name in enumerate(base._names))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        names = lambda ids: [self._names[i] for i in ids]  # noqa: E731
        return {
            "entities": names(self.entities),
            "classes": names(self.classes),
            "attributes": names(self.attributes),
            "predicates": names(self.predicates),
            "instances": names(self.instances),
            "families": {f: names(ids) for f, ids in self._families.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Vocabulary":
        """The vocabulary `data` lists, as `to_dict` writes it, numbered by the
        one rule: hasAttribute is 0, then each kind follows as one block,
        classes, attributes, predicates, entities, instances, each in the
        order `data` lists it, so the id spaces of the kinds are disjoint.  A
        name keeps its kind, its family and its place among the names of its
        kind, so a `ColumnMap` lays out the same columns however the ids
        fall.  A name that is empty or listed twice (hasAttribute under
        another kind included) is refused, the first in that order; so is a
        family that is empty or has a member that is unknown, not a class or
        attribute, listed twice or in an earlier family."""
        families = data.get("families", {})
        blocks = {key: data.get(key, []) for key in _BLOCKS}
        if type(families) is not dict or not all(
                type(names) is list and all(type(n) is str for n in names)
                for names in [*blocks.values(), *families.values()]):
            raise VocabError("a vocabulary lists the names of each kind and family as strings")
        blocks["predicates"] = [name for name in blocks["predicates"] if name != HAS_ATTRIBUTE]
        names = [HAS_ATTRIBUTE, *chain.from_iterable(blocks.values())]
        ids = dict(zip(names, range(len(names))))
        if len(ids) < len(names) or "" in ids:
            seen: set[str] = set()
            for name in names:
                if not name:
                    raise VocabError("empty symbol name")
                if name in seen:
                    raise VocabError(f"duplicate symbol {name!r}")
                seen.add(name)
        kinds = [Kind.PREDICATE, *chain.from_iterable(
            [kind] * len(blocks[key]) for key, kind in _BLOCKS.items())]
        first = len(names) - len(blocks["entities"]) - len(blocks["instances"])
        entities = list(range(first, first + len(blocks["entities"])))
        family_of = dict.fromkeys(entities, IDENTITY_FAMILY)
        vocab = cls(names, kinds, ids, {IDENTITY_FAMILY: entities}, family_of)
        for family, members in families.items():
            if family == IDENTITY_FAMILY:
                continue
            if not members:
                raise VocabError(f"family {family!r} has no members")
            member_ids = []
            for name in members:
                idx = vocab.id_of(name)
                if kinds[idx] not in (Kind.CLASS, Kind.ATTRIBUTE):
                    raise VocabError(f"family member {name!r} is not a class or attribute")
                if family_of.get(idx) == family:
                    raise VocabError(f"family {family!r} lists {name!r} twice")
                if idx in family_of:
                    raise VocabError(f"{name!r} already belongs to {family_of[idx]!r}")
                family_of[idx] = family
                member_ids.append(idx)
            vocab._families[family] = member_ids
        return vocab

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def digest(self) -> str:
        """sha256 of the sorted JSON of `to_dict()`, computed once per state."""
        if self._digest is None:
            self._digest = hashlib.sha256(
                json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
            ).hexdigest()
        return self._digest
