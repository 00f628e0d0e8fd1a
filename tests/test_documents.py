"""Properties of the JSON documents: shapes, tilings, variants, partial and extended tilings.

Each document round-trips, and a document with one key dropped, one key added
or one value changed to another JSON type is either rejected with
``MalformedDocument``/``MalformedPartial`` or is itself the serialisation of
what it parses to.  Objects are drawn from small exhaustive enumerations.
"""

import copy
from functools import cache

from hypothesis import given, strategies as st

from lucaskit.involution import ExtendedTiling, enumerate_extended
from lucaskit.shapes_tilings import (
    Binomial,
    Catalan,
    DDivisible,
    FussCatalan,
    MalformedDocument,
    MalformedPartial,
    PartialTiling,
    Shape,
    Tiling,
    _variant_from_json,
    _variant_to_json,
    enumerate_partials,
    enumerate_tilings,
)


def _partitions(total: int, largest: int) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    return [(part, *rest) for part in range(min(total, largest), 0, -1) for rest in _partitions(total - part, part)]


@cache
def shapes() -> list[Shape]:
    """Every skew shape outer/inner with |outer| <= 5."""
    outers = [outer for size in range(6) for outer in _partitions(size, size)]
    return [
        Shape(outer, inner)
        for outer in outers
        for inner in outers
        if len(inner) <= len(outer) and all(i <= o for i, o in zip(inner, outer))
    ]


@cache
def variants() -> list:
    return [
        *(Binomial(n, k) for n in range(6) for k in range(n + 1)),
        *(Catalan(n) for n in range(5)),
        *(FussCatalan(n, k) for n in range(3) for k in range(1, 4)),
        *(DDivisible(n, k, d) for n in range(4) for k in range(n + 1) for d in (2, 3)),
    ]


# Document kind -> (every object of that kind drawn from, serialise, parse).
KINDS = {
    "shape": (shapes, Shape.to_json_dict, Shape.from_json_dict),
    "tiling": (
        cache(lambda: [t for shape in shapes() for t in enumerate_tilings(shape)]),
        Tiling.to_json_dict,
        Tiling.from_json_dict,
    ),
    "variant": (variants, _variant_to_json, _variant_from_json),
    "partial": (
        cache(lambda: [p for variant in variants() for p in enumerate_partials(variant)]),
        PartialTiling.to_json_dict,
        PartialTiling.from_json_dict,
    ),
    "extended": (
        cache(lambda: [
            e for n in range(6) for k in range(n + 1) for r in range(k + 1) for e in enumerate_extended(n, k, r)
        ]),
        ExtendedTiling.to_json_dict,
        ExtendedTiling.from_json_dict,
    ),
}

# One value of each JSON type: null, boolean, integer, non-integral number, string, array, object.
JSON_VALUES = [None, True, 7, 1.5, "x", [], {}]


def _nodes(doc, path=()):
    """(path, value) for the document and every value inside it."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _replace(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _with_inner(doc):
    """``doc`` with every shape's omitted ``inner`` written out: documented as a straight shape."""
    if isinstance(doc, list):
        return [_with_inner(value) for value in doc]
    if not isinstance(doc, dict):
        return doc
    doc = {key: _with_inner(value) for key, value in doc.items()}
    if doc.keys() == {"outer"} and isinstance(doc["outer"], list):
        doc["inner"] = [0] * len(doc["outer"])
    return doc


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    return kind, draw(st.sampled_from(KINDS[kind][0]()))


@st.composite
def mutated_documents(draw):
    kind, obj = draw(documents())
    doc = KINDS[kind][1](obj)
    nodes = list(_nodes(doc))
    mutation = draw(st.sampled_from(["drop", "add", "retype"]))
    if mutation == "retype":
        path, old = draw(st.sampled_from(nodes))
        value = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
        return kind, _replace(doc, path, value)
    objects = [(path, value) for path, value in nodes if isinstance(value, dict) and (value or mutation == "add")]
    path, target = draw(st.sampled_from(objects))
    if mutation == "drop":
        key = draw(st.sampled_from(sorted(target)))
        return kind, _replace(doc, path, {k: v for k, v in target.items() if k != key})
    value = draw(st.sampled_from(JSON_VALUES))
    return kind, _replace(doc, path, {**target, "extra": value})


@given(documents())
def test_round_trip(document):
    kind, obj = document
    _, to_json, from_json = KINDS[kind]
    assert from_json(to_json(obj)) == obj


@given(mutated_documents())
def test_mutation_is_rejected_or_canonical(mutated):
    kind, doc = mutated
    _, to_json, from_json = KINDS[kind]
    try:
        parsed = from_json(doc)
    except (MalformedDocument, MalformedPartial):
        return
    assert to_json(parsed) == _with_inner(doc)
