"""A recorded digest of every classification and system analysis on three
group models.

Each case is a surface and a class b: the split surfaces of e = 0..8 with
every invariant class of degree -e, ``Indec0``, and ``IndecMinus1`` at every
point, against every class of degree -3..11.  A case hashes the JSON of
``classify_scroll(s, b).to_dict()`` and of ``linsys.analyze`` at m = 1, 2, 3,
or the code of the error each raised.  JSON tells ``true`` from ``1``, so the
digest also pins the type of every count.

Tier-1 checks Torus(4,4); ``ELLSCROLL_FUZZ=1`` adds Torus(2,6) and
Weierstrass(23,-1,0).  On the Torus(4,4) cases the CLI's ``--json`` text of
each record is checked against ``json.dumps`` of its dict.
"""

import hashlib
import json
import os

import pytest

from ellscroll import linsys
from ellscroll.classify import classify_scroll
from ellscroll.cli import _render_json
from ellscroll.errors import EngineError
from ellscroll.groups import TorusGroup, WeierstrassGroup
from ellscroll.picard import DivisorClass
from ellscroll.surface import Decomposable, Indec0, IndecMinus1, SurfaceDivisorClass

FUZZ_FRESH = os.environ.get("ELLSCROLL_FUZZ") == "1"

#: The digest of each group model's sweep.
DIGESTS = {
    "Torus(4,4)": "4d88ca7c8138d4cc20c530ea93001247f38ed236bd4e8ceb5cb51e10d4a2ce63",
    "Torus(2,6)": "0ab09560d914dc75a34c3333aabe42d91058d132d59cb3d17ef9fc1210ad54f8",
    "Weierstrass(23,-1,0)": "ce84db5e46342725300d0c5e81000008585cbe8efbeb2d787625fafd1f19ea22",
}

#: The eleven branches of ``classify_scroll``.
MODEL_TAGS = {
    "DegenerateLine", "DoubleQuadric", "DoublePlane", "Cone", "DecScrollTwoLines",
    "DecScrollDirectrixLine", "DecScrollSmooth", "Ind0Quartic", "Ind0Smooth",
    "TriplePlane", "IndM1Smooth",
}

#: The two family layouts of a smooth split scroll: one pencil of directrices
#: over a trivial invariant class, two sections otherwise.
SMOOTH_LAYOUTS = {("X0", "X0+af"), ("X0", "X1", "X0+af")}


def surfaces(group):
    elements = group.elements()
    for e in range(9):
        for g in elements:
            yield Decomposable(DivisorClass(-e, g))
    yield Indec0(group)
    for g in elements:
        yield IndecMinus1(g)


def outcome(op, *args):
    """The record's dict, or the error code of the refusal."""
    try:
        return op(*args).to_dict()
    except EngineError as err:
        return err.code


def classes(group):
    return [DivisorClass(d, g) for d in range(-3, 12) for g in group.elements()]


def sweep(group):
    """The sweep's digest, the model tags met, and the smooth split layouts met."""
    digest = hashlib.sha256()
    tags, layouts = set(), set()
    grid = classes(group)
    for s in surfaces(group):
        for b in grid:
            row = outcome(classify_scroll, s, b)
            if isinstance(row, dict):
                tags.add(row["model_tag"])
                if row["model_tag"] == "DecScrollSmooth":
                    layouts.add(tuple(f["system"] for f in row["families"]))
            digest.update(json.dumps(row).encode())
            for m in (1, 2, 3):
                H = SurfaceDivisorClass(m, b)
                digest.update(json.dumps(outcome(linsys.analyze, s, H)).encode())
    return digest.hexdigest(), tags, layouts


def check(group):
    digest, tags, layouts = sweep(group)
    assert tags == MODEL_TAGS
    assert layouts == SMOOTH_LAYOUTS
    assert digest == DIGESTS[str(group)]


def test_classification_matches_its_digest():
    check(TorusGroup(4, 4))


@pytest.mark.skipif(not FUZZ_FRESH, reason="the whole sweep runs with ELLSCROLL_FUZZ=1")
@pytest.mark.parametrize("group", [TorusGroup(2, 6), WeierstrassGroup(23, -1, 0)], ids=str)
def test_classification_matches_its_digest_sweep(group):
    check(group)


def test_records_render_as_json_dumps_of_their_dicts():
    # The CLI's --json text of each record of the Torus(4,4) sweep.
    group = TorusGroup(4, 4)
    grid = classes(group)
    records = set()
    for s in surfaces(group):
        for b in grid:
            try:
                records.add(classify_scroll(s, b))
            except EngineError:
                pass
    for record in records:
        assert _render_json(record) == json.dumps(record.to_dict(), indent=2)
