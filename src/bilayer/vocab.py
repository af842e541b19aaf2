"""Symbol registries: entities, classes, attributes, predicates, instances.

Every symbol gets a unique integer id from a single counter, so id spaces of
the five kinds are disjoint by construction.  Classes and attributes are
grouped into named label families; sampling and evaluation treat each family
as one categorical variable.  The identity family groups the entity indices
themselves so that an entity id can be predicted like any other label.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


HAS_ATTRIBUTE = "hasAttribute"
IDENTITY_FAMILY = "Identity"


class Kind(str, Enum):
    ENTITY = "entity"
    CLASS = "class"
    ATTRIBUTE = "attribute"
    PREDICATE = "predicate"
    INSTANCE = "instance"


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
    # `digest()` of the current symbols and families; cleared by every change
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

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
        self._digest = None
        self._names.append(name)
        self._kinds.append(kind)
        self._ids[name] = idx
        return idx

    def add_entity(self, name: str) -> int:
        idx = self._register(name, Kind.ENTITY)
        self._families[IDENTITY_FAMILY].append(idx)
        self._family_of[idx] = IDENTITY_FAMILY
        return idx

    def add_class(self, name: str) -> int:
        return self._register(name, Kind.CLASS)

    def add_attribute(self, name: str) -> int:
        return self._register(name, Kind.ATTRIBUTE)

    def add_predicate(self, name: str) -> int:
        return self._register(name, Kind.PREDICATE)

    def add_instance(self, name: str) -> int:
        return self._register(name, Kind.INSTANCE)

    def define_family(self, family: str, members: list[str]) -> None:
        """Group class/attribute symbols into one categorical label family."""
        if family == IDENTITY_FAMILY:
            raise VocabError(f"{IDENTITY_FAMILY!r} is maintained automatically")
        if family in self._families:
            raise VocabError(f"duplicate family {family!r}")
        if not members:
            raise VocabError(f"family {family!r} has no members")
        ids = []
        for name in members:
            idx = self.id_of(name)
            if self._kinds[idx] not in (Kind.CLASS, Kind.ATTRIBUTE):
                raise VocabError(f"family member {name!r} is not a class or attribute")
            if idx in self._family_of:
                raise VocabError(f"{name!r} already belongs to {self._family_of[idx]!r}")
            ids.append(idx)
        self._digest = None
        self._families[family] = ids
        for idx in ids:
            self._family_of[idx] = family

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

    def _of_kind(self, kind: Kind) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self._kinds) if k is kind)

    def by_kind(self) -> dict[Kind, list[int]]:
        """Every id grouped by its kind in one pass, each group in id order."""
        groups: dict[Kind, list[int]] = {kind: [] for kind in Kind}
        for i, kind in enumerate(self._kinds):
            groups[kind].append(i)
        return groups

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
        return tuple(
            i for i, k in enumerate(self._kinds)
            if k in (Kind.CLASS, Kind.ATTRIBUTE)
        )

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

    def validate(self) -> None:
        seen: set[int] = set()
        for family, ids in self._families.items():
            if not ids and family != IDENTITY_FAMILY:
                raise VocabError(f"family {family!r} is empty")
            overlap = seen.intersection(ids)
            if overlap:
                raise VocabError(f"family {family!r} overlaps on ids {sorted(overlap)}")
            seen.update(ids)

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
        vocab = cls()
        adders = {
            "classes": vocab.add_class,
            "attributes": vocab.add_attribute,
            "predicates": vocab.add_predicate,
            "entities": vocab.add_entity,
            "instances": vocab.add_instance,
        }
        families = data.get("families", {})
        if type(families) is not dict or not all(
                type(names) is list and all(type(n) is str for n in names)
                for names in [data.get(key, []) for key in adders] + list(families.values())):
            raise VocabError("a vocabulary lists the names of each kind and family as strings")
        # An export lists the names grouped by kind, each kind in id order.  A
        # load registers the kinds in the order a generated world does, so a
        # loaded world numbers its symbols as the generated one did.  Each
        # name keeps its kind, its family and its place among the names of its
        # kind, so a `ColumnMap` lays out the same columns whatever the order.
        for key, add in adders.items():
            for name in data.get(key, []):
                if (key, name) != ("predicates", HAS_ATTRIBUTE):
                    add(name)
        for family, members in families.items():
            if family == IDENTITY_FAMILY:
                continue
            vocab.define_family(family, members)
        vocab.validate()
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
