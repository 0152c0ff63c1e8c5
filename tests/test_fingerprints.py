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
took.  A third table pins the saturated databases of the valid goals: per
valid goal of the chains 4-10 and the random corpus, ``db.dump()`` and
``minimum_compact(db).dump()``.  They do not depend on the order in which
rule instances and join sets fire, so a change of that order keeps this
table while re-pinning the first.  Nor do they depend on what backward
subsumption retires, as long as it retires only subsumed entries: that
moves the stores and annotated dumps of runs that stop at a goal sequent,
so the first table only.  Regenerate all three tables with
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
    """(label, goals): chains 4-8, ladders 1-12, and the first 150 formulas
    of the benchmark's random-mixed corpus (its first stratum: seed 2026,
    3 variables, size at most 12) in chunks of 25."""
    groups = [(f"chain{n}", [_chain(n)]) for n in range(4, 9)]
    groups += [(f"ladder{i}", [nishimura(i)]) for i in range(1, 13)]
    corpus = random_formulas(2026, 3, 12, 150)
    groups += [(f"random{k}-{k + RANDOM_CHUNK - 1}", corpus[k:k + RANDOM_CHUNK])
               for k in range(0, len(corpus), RANDOM_CHUNK)]
    return groups


def _fingerprint(goal):
    out = fsearch(goal)
    parts = [out.status, out.db.dump(annotated=True), out.store.dump(),
             minimum_compact(out.db).dump(annotated=True)]
    if out.is_proof:
        model = extract_model(out.store, out.root).model
        parts += [len(model.worlds()), height(model)]
    return "\x00".join(map(str, parts))


def _digest(goals):
    text = "\x01".join(_fingerprint(g) for g in goals)
    return hashlib.sha256(text.encode()).hexdigest()


DIGESTS = {
    "chain4": "3bd7e0c5e54ef221aaac5f7efcf673d0e5ba5e5fdcc85d102ae16bc84d72d3aa",
    "chain5": "bcc2455efb5e4885feaa38de7fac2b6d866df441f541c449df20e114c8d7181a",
    "chain6": "983a4ccbb961ca465c6b003ab0afff853e5d689fdbe994af5930389251fd7a61",
    "chain7": "d0518323759eec2a61f0ae6c835e5bd125332056cce160015feb6321e3dd7204",
    "chain8": "06e88db0372d24fabe22cc193ba85307c42f2eb46bc72c8442acf409ada503cb",
    "ladder1": "d87ab0fe609768ac78bc55a4ae6311e439eaedea2c0e10b7b5e1ad35b75a3669",
    "ladder2": "f46d75e3282b1b25e35d1c5bfc33b87d23cb9d28b56dba2bea2d47aeeeda57f0",
    "ladder3": "96fb8998bedf8c99220616f063796d92cd0a000aba7d10623407d18223732038",
    "ladder4": "0e48dcb5caa06f0ac74047d819c458282559aa78b4835de81b28739c6c21f6ba",
    "ladder5": "a567e60b13fda73d3971403a3af65c82df2196f5a9c18f146ef62276dbe2e69f",
    "ladder6": "a7c89ba1e0b4519bde1b9e0c9f56b7882679e8323b41b5d6528df8203412ef54",
    "ladder7": "145c39f703e9b7d55bc3b4f0a2d37b2f78c56568ca35b4a8f72490900ae5189d",
    "ladder8": "ff9208091b5f927db937551a2c36da8838344513604b266c96f04592c3fb9bf2",
    "ladder9": "7f72d3425573d17e153f06b73f24fab1be3f49680a6ee3a99327fdd009ccaed7",
    "ladder10": "365b9fba636f1276cd74db8352f5d5234c6183742839eedb972374d956a09251",
    "ladder11": "a238c1be41e0fcca482eb4b6cedb94f7198b3fbd7ae6ee952c1d359102b402ed",
    "ladder12": "74461f59da470d8319788006db0f431d4def8e98a4407d0a644a0628adbfa034",
    "random0-24": "32b64c19e1ba73f670206ccb5f6a36323308e2c67f2bcb5f6c729c1c9e709ad2",
    "random25-49": "9e401a7c8b471387ddcd945a4dea0a33359864f098d8d1f17a1f72c89f243c99",
    "random50-74": "ec585bf6381ffdb8fca0dde6abc8f632d6aaa77f756fe197cdf863b12600299e",
    "random75-99": "b7f35ffa91e871ca60f03017dbf66dcef68f5e754eb08c13fdc364d0856b43f1",
    "random100-124": "a88fdb5963a6ee282433567bf04466806908ee5230e73b1d6813662c0e27cb00",
    "random125-149": "a6beae48a0d35abceaeb46e422362a42b1916888ed79773debdef29d192a67fd",
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
    groups = [(label, goals) for label, goals in _groups()
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


def _compact_dumps(goal):
    """The saturated and the minimum compact database of a valid goal; None
    for a goal that is not valid."""
    out = fsearch(goal)
    if out.is_proof:
        return None
    return "\x00".join([out.db.dump(), minimum_compact(out.db).dump()])


def _compact_dump_digest(goals):
    text = "\x01".join(c for c in map(_compact_dumps, goals) if c is not None)
    return hashlib.sha256(text.encode()).hexdigest()


def _compact_dump_groups():
    """(label, goals): the certificate groups of the chains and the random
    corpus, and chains 9 and 10."""
    groups = [(label, goals) for label, goals in _certificate_groups()
              if label.startswith(("chain", "random"))]
    return groups + [(f"chain{n}", [_chain(n)]) for n in (9, 10)]


COMPACT_DUMP_DIGESTS = {
    "chain4": "f686f85ee680559d00402071818f40aa029ea225b41e04d777359881054d062b",
    "chain5": "693331c0febbc8ceb5b6733014b2dc9683447aced326d33a9422ee7e5b666161",
    "chain6": "ea92877f991170178c99acb11d4648d848ef62fd723b566c7047c519918918c7",
    "chain7": "c72270369cd1702d7bb10b96d8a21270be912c9172b8d3fb469c66b8c30bba7f",
    "chain8": "cbd4f323705f5e12557af3c2b867decc8e412deb35ee2d22470501cb78fdc3e6",
    "random0-24": "194828b0802ae05795bc1786efc9be33ce251f15ae4638bd80743b21868f665b",
    "random25-49": "8223edb52020a32502473c18957e2fd0d0599407ec0d2b363b1c54c4b9d26379",
    "random50-74": "470b4f4e4b82370d3a35305bab26a7bccf36747c6dcf3016724ec9365b016adf",
    "random75-99": "971edc1b727808761d875bb94c5c8faa95c368c9dcc314853e875f034f802fdf",
    "random100-124": "5e8feb6d59e9dd808cef1333b270b1c5e08227d5026cea817ff2c9edcb0c0f98",
    "random125-149": "4c8d1fce925f2b582ade6b9c2125bf58f744fba345fb5395aecea424ada18c65",
    "chain9": "083f1c1e783b962bcec0d14a6abeacf069a7701266461a008c4970f357265613",
    "chain10": "f958930365173f61d18c193416a8fb2f4c83ec8cf231b44572f9701ce175e9b2",
}


GROUPS = _groups()
CERTIFICATE_GROUPS = _certificate_groups()
COMPACT_DUMP_GROUPS = _compact_dump_groups()


@pytest.mark.parametrize("label,goals", GROUPS, ids=[g[0] for g in GROUPS])
def test_output_matches_the_pinned_digest(label, goals):
    assert _digest(goals) == DIGESTS[label]


@pytest.mark.parametrize("label,goals", CERTIFICATE_GROUPS,
                         ids=[g[0] for g in CERTIFICATE_GROUPS])
def test_certificates_match_the_pinned_digest(label, goals):
    assert _certificate_digest(goals) == CERTIFICATE_DIGESTS[label]


@pytest.mark.parametrize("label,goals", COMPACT_DUMP_GROUPS,
                         ids=[g[0] for g in COMPACT_DUMP_GROUPS])
def test_saturated_databases_match_the_pinned_digest(label, goals):
    assert _compact_dump_digest(goals) == COMPACT_DUMP_DIGESTS[label]


if __name__ == "__main__":
    print("DIGESTS = {")
    for label, goals in GROUPS:
        print(f'    "{label}": "{_digest(goals)}",')
    print("}")
    print("CERTIFICATE_DIGESTS = {")
    for label, goals in CERTIFICATE_GROUPS:
        print(f'    "{label}": "{_certificate_digest(goals)}",')
    print("}")
    print("COMPACT_DUMP_DIGESTS = {")
    for label, goals in COMPACT_DUMP_GROUPS:
        print(f'    "{label}": "{_compact_dump_digest(goals)}",')
    print("}")
