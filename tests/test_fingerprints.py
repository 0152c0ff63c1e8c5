"""Pinned digests of the search's whole output on a fixed corpus.

A change that is meant to leave the output alone (a faster kernel, an index,
a refactor) must keep these digests.  A change that alters output on purpose
re-pins them and says why.  Each digest covers, per formula and in order:
the verdict, ``db.dump(annotated=True)``, ``store.dump()``,
``minimum_compact(db).dump(annotated=True)`` and, for a non-valid goal, the
extracted countermodel's world count and height.

A second table pins the certificates of the valid goals: per valid goal of
the chains, the random corpus and ``conftest.G3I_CONSUMED_ANTECEDENT``, the
G3i text of ``to_g3i(bsearch(db))`` and the critical choices ``bsearch``
took.  Regenerate both tables with
``PYTHONPATH=src python tests/test_fingerprints.py``.
"""

import hashlib

import pytest

from ipldecide.backward import BSearchTrace, bsearch, g3i_text, to_g3i
from ipldecide.countermodel import extract_model
from ipldecide.formula import parse
from ipldecide.generate import nishimura, random_formulas
from ipldecide.kripke import height
from ipldecide.search import fsearch, minimum_compact

from conftest import G3I_CONSUMED_ANTECEDENT

RANDOM_CHUNK = 25


def _chain(n):
    atoms = [f"p{i}" for i in range(1, n + 1)]
    links = " & ".join(f"({x} -> {y})" for x, y in zip(atoms, atoms[1:]))
    return parse(f"{links} -> ({atoms[0]} -> {atoms[-1]})")


def _groups():
    """(label, goals, min_height): chains 4-8, ladders 1-12 under minimal
    height, and the first 150 formulas of the benchmark's random-mixed
    corpus (its first stratum: seed 2026, 3 variables, size at most 12) in
    chunks of 25."""
    groups = [(f"chain{n}", [_chain(n)], False) for n in range(4, 9)]
    groups += [(f"ladder{i}", [nishimura(i)], True) for i in range(1, 13)]
    corpus = random_formulas(2026, 3, 12, 150)
    groups += [(f"random{k}-{k + RANDOM_CHUNK - 1}", corpus[k:k + RANDOM_CHUNK], False)
               for k in range(0, len(corpus), RANDOM_CHUNK)]
    return groups


def _fingerprint(goal, min_height):
    out = fsearch(goal, min_height=min_height)
    parts = [out.status, out.db.dump(annotated=True), out.store.dump(),
             minimum_compact(out.db).dump(annotated=True)]
    if out.is_proof:
        model = extract_model(out.store, out.root).model
        parts += [len(model.worlds()), height(model)]
    return "\x00".join(map(str, parts))


def _digest(goals, min_height):
    text = "\x01".join(_fingerprint(g, min_height) for g in goals)
    return hashlib.sha256(text.encode()).hexdigest()


DIGESTS = {
    "chain4": "831b9c89f3a37e9f5ced4628c7c08ff18bb76cd38b99994407a002e9ffe1e22f",
    "chain5": "66bb74660d4f7e4251fc1d1e1a51733af0e046807d0cec9db0c842f0a2bf2e88",
    "chain6": "da6e3d17983b9571dfe20bbf686a90d8ec2c710b850129ebc408d520f7ba5978",
    "chain7": "1c319baef9e2e0ac9fbde55d645c5bdc535b68e306202a379fa0fa7cdde339a4",
    "chain8": "54848768b2909b476c6065cbd5df7351aa8d7f6ea0bfb2cc453fe6aee512db2f",
    "ladder1": "d87ab0fe609768ac78bc55a4ae6311e439eaedea2c0e10b7b5e1ad35b75a3669",
    "ladder2": "f46d75e3282b1b25e35d1c5bfc33b87d23cb9d28b56dba2bea2d47aeeeda57f0",
    "ladder3": "96fb8998bedf8c99220616f063796d92cd0a000aba7d10623407d18223732038",
    "ladder4": "0e48dcb5caa06f0ac74047d819c458282559aa78b4835de81b28739c6c21f6ba",
    "ladder5": "a16109d05ee81a38607b6954c395ecc7a49ff5ccda4d236f426e2bc1b70364ce",
    "ladder6": "5278625bc9768ce28afd5f28f00365cb6c67664f1a760643b804be99de656467",
    "ladder7": "b8ed2b926778571e6e9516d6cef5fbfe5b5cf3cc52f75a3ce2d25a43a1627e34",
    "ladder8": "c0dff1825cf767080ccc7df3327a2d8ea6a598ad80aae2ab7831d9fb49226baf",
    "ladder9": "f9388733e24f384e8d0e97a2bde2f42c50be27e3846dd3a99be5bfe668dcdcf7",
    "ladder10": "3cb1006c974b2662782de7a4c3b48fde9a9480fa197462e4e6635694028454a6",
    "ladder11": "6cdc71d0903f1e22709346968cce51008b2dbd8afaa34dffa32ef80b85a02668",
    "ladder12": "3ed64a07c838c2b8ad09147893d38db2630f665f8a7ad387a54dd7fce509382c",
    "random0-24": "7e67b187887afc7c5f27be6ca57e97332c6dec98f7ece419ef93b1af2df57b8b",
    "random25-49": "1f70b2ba8af390a78e7a1f98949161365d1ba07ca0d834779623c2cb6be3f3d4",
    "random50-74": "b6cd3a8aeb4b7c3bb0df75fb54eb6c71f579ec02a68f058b2ce4e014a758f118",
    "random75-99": "f9fdc918ab7decb500344757f7fd7745ccb73b46a246f3cfe419de7f652b740b",
    "random100-124": "a5e6263a5ccab3ce349e6ea2d1a4c5b9a6cd6355ccd52e99ab87a5e9bea93bd6",
    "random125-149": "30df8128d614812f34fa65a2202db237dc2eca751f0a66fe1d6acb83a10fefa4",
}


def _certificate(goal):
    """The G3i text and the critical choices of a valid goal's certificate;
    None for a goal that is not valid."""
    out = fsearch(goal)
    if out.is_proof:
        return None
    trace = BSearchTrace()
    tree = bsearch(out.db, trace=trace)
    choices = [(tau.render(), rule, principal)
               for tau, rule, principal in trace.critical_choices]
    return "\x00".join([g3i_text(to_g3i(tree), out.universe), repr(choices)])


def _certificate_digest(goals):
    text = "\x01".join(c for c in map(_certificate, goals) if c is not None)
    return hashlib.sha256(text.encode()).hexdigest()


def _certificate_groups():
    """(label, goals): the groups of ``_groups`` without the ladders (none
    of them is valid), and the goals whose G3i translation once re-added a
    consumed antecedent."""
    groups = [(label, goals) for label, goals, _mh in _groups()
              if not label.startswith("ladder")]
    groups.append(("consumed-antecedent", [parse(t) for t in G3I_CONSUMED_ANTECEDENT]))
    return groups


CERTIFICATE_DIGESTS = {
    "chain4": "17b221cedc64ac9e7f77b7ad27a775220dd1496f0b09516e0a62c7ceee8de530",
    "chain5": "3a07eb9896350a28b43d26f4cb171e22c4affc8aa4540fafc7b3e682d0e48034",
    "chain6": "798ba68a66f8e09f857cf89f31067b9b2b30b2470bbfcd050b92edb85fe58c9b",
    "chain7": "78efa1f3f32cdbc8b1d438a4f7eead691796251c27d4dae6e77317679ee0f9b0",
    "chain8": "6b2eee2a7dd1e75b414e4037992bb45d33d65e3a018678e733ac3f73f1975fb9",
    "random0-24": "f7000c0c7426004960c85a95db1ffe58c608781661fc1812aad01bb63f6456bd",
    "random25-49": "c5c2127e9a00a1043ab6fe1b8e7f2058f57a1bd530ab32649be52ceace951caf",
    "random50-74": "96f3318aa77a8038a7efdf1b912410df297df8764d407abafff29b7d922637ad",
    "random75-99": "a89159c935bd6cb70189d2530b2ca8eef82018a59c4457598bb224664060ef55",
    "random100-124": "2bb7bcaaabd67c2ce7435ef18a7af0be65731c135995672714effeb92b9cad5b",
    "random125-149": "027565dcb1c66ead3e0f672c4182b84604c44b008dcc4309bf2e74f94f191e0b",
    "consumed-antecedent": "89cdc097a30d3ddaa8cbf6104d431265a5d5c9d6905ea5a5d9ef9f954ad3e7b6",
}


GROUPS = _groups()
CERTIFICATE_GROUPS = _certificate_groups()


@pytest.mark.parametrize("label,goals,min_height", GROUPS, ids=[g[0] for g in GROUPS])
def test_output_matches_the_pinned_digest(label, goals, min_height):
    assert _digest(goals, min_height) == DIGESTS[label]


@pytest.mark.parametrize("label,goals", CERTIFICATE_GROUPS,
                         ids=[g[0] for g in CERTIFICATE_GROUPS])
def test_certificates_match_the_pinned_digest(label, goals):
    assert _certificate_digest(goals) == CERTIFICATE_DIGESTS[label]


if __name__ == "__main__":
    print("DIGESTS = {")
    for label, goals, min_height in GROUPS:
        print(f'    "{label}": "{_digest(goals, min_height)}",')
    print("}")
    print("CERTIFICATE_DIGESTS = {")
    for label, goals in CERTIFICATE_GROUPS:
        print(f'    "{label}": "{_certificate_digest(goals)}",')
    print("}")
