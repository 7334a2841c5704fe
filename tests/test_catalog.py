"""Catalog constructors: shapes, bounds, determinism, and spec strings."""

import hashlib

import pytest

from qlogic import catalog
from qlogic.algebra import (
    CommutativityViolation,
    SupplementNotUnique,
    check_coherence,
    derive_order,
    find_isomorphism,
    is_boolean,
    is_orthoalgebra,
)
from corpus import complete_quadrilateral, grid, stateless_pasting


def test_powerset_shapes():
    for k in (1, 2, 3, 4):
        alg = catalog.boolean_powerset(k)
        assert alg.size == 2**k
        assert len(derive_order(alg).atoms) == k
        assert is_boolean(alg)


def test_powerset_sum_is_disjoint_union():
    alg = catalog.boolean_powerset(3)
    a, b = alg.index("{1}"), alg.index("{2,3}")
    assert alg.labels[alg.table[a][b]] == "{1,2,3}"
    assert alg.table[b][b] is None


def test_chain_shapes():
    for d in (1, 2, 5):
        alg = catalog.chain(d)
        assert alg.size == d + 1
        assert is_boolean(alg) == (d == 1)


def test_chain_sum_arithmetic():
    alg = catalog.chain(4)
    assert alg.labels[alg.table[alg.index("1/4")][alg.index("2/4")]] == "3/4"
    assert alg.table[alg.index("3/4")][alg.index("2/4")] is None


def test_mo_shapes():
    for n in (1, 2, 3):
        alg = catalog.mo(n)
        assert alg.size == 2 * n + 2
        assert is_orthoalgebra(alg)
        assert is_boolean(alg) == (n == 1)


def test_mo1_isomorphic_to_bp2():
    assert find_isomorphism(catalog.mo(1), catalog.boolean_powerset(2)) is not None


def test_wright_structure():
    alg = catalog.wright_triangle()
    assert alg.size == 14
    assert is_orthoalgebra(alg)
    ok, counterexample = check_coherence(alg)
    assert not ok
    assert counterexample is not None


def test_horizontal_sum_no_cross_sums():
    alg = catalog.horizontal_sum(
        catalog.boolean_powerset(2), catalog.boolean_powerset(2)
    )
    a, b = alg.index("1:{1}"), alg.index("2:{1}")
    assert alg.table[a][b] is None
    assert alg.labels[alg.table[a][alg.index("1:{2}")]] == "1"


def test_hs_of_two_bp2_is_mo2():
    alg = catalog.horizontal_sum(
        catalog.boolean_powerset(2), catalog.boolean_powerset(2)
    )
    assert find_isomorphism(alg, catalog.mo(2)) is not None


def test_product_of_two_bp1_is_bp2():
    alg = catalog.product(catalog.boolean_powerset(1), catalog.boolean_powerset(1))
    assert find_isomorphism(alg, catalog.boolean_powerset(2)) is not None


def test_product_componentwise_partiality():
    alg = catalog.product(catalog.chain(2), catalog.chain(2))
    p = alg.index("(1/2,1/2)")
    assert alg.labels[alg.table[p][p]] == "(1,1)"
    assert alg.table[p][alg.index("(1,0)")] is None


def test_bounds_enforced():
    # each family is refused exactly past MAX_CARRIER: its last member has
    # 64 elements, and the next one is refused with the carrier's size
    for last, first_refused, message in (
        ("boolean_powerset(6)", "boolean_powerset(7)", "boolean_powerset has 128"),
        ("chain(63)", "chain(64)", "chain has 65"),
        ("mo(31)", "mo(32)", "mo has 66"),
    ):
        assert catalog.build_spec(last).size == 64
        with pytest.raises(catalog.BoundExceeded) as refused:
            catalog.build_spec(first_refused)
        assert str(refused.value) == f"{message} elements (cap 64)"
    with pytest.raises(catalog.BoundExceeded, match="product has 256 elements"):
        catalog.product(catalog.boolean_powerset(4), catalog.boolean_powerset(4))
    # 64^2400 has 4,335 digits, past Python's limit on printing an int
    with pytest.raises(catalog.BoundExceeded, match=r"product has at least 2\^14400 "):
        catalog.product(*[catalog.mo(31)] * 2400)
    # a 4,000-digit exponent is refused without forming 2^k
    with pytest.raises(catalog.BoundExceeded) as refused:
        catalog.build_spec("boolean_powerset(" + "9" * 4000 + ")")
    assert str(refused.value) == "boolean_powerset has at least 2^64 elements (cap 64)"
    for name in ("boolean_powerset", "chain", "mo"):
        with pytest.raises(catalog.BoundExceeded, match=f"{name} needs"):
            catalog.build_spec(f"{name}(0)")


def test_deterministic_serialization():
    a = catalog.product(catalog.chain(2), catalog.mo(2)).to_json()
    b = catalog.product(catalog.chain(2), catalog.mo(2)).to_json()
    assert a == b
    assert catalog.wright_triangle().to_json() == catalog.wright_triangle().to_json()


def test_build_spec_strings():
    assert catalog.build_spec("mo(2)").size == 6
    assert catalog.build_spec("product(chain(2), chain(2))").size == 9
    assert catalog.build_spec("wright_triangle()").size == 14
    assert (
        catalog.build_spec("horizontal_sum(boolean_powerset(2), mo(1))").size == 6
    )


def test_build_spec_rejects_garbage():
    for bad in ("nope(2)", "chain(2) extra", "chain(99)"):
        with pytest.raises(catalog.BoundExceeded):
            catalog.build_spec(bad)


def test_build_spec_builds_a_repeated_sub_spec_once(monkeypatch):
    calls = []
    build = catalog.boolean_powerset

    def record(k):
        calls.append(k)
        return build(k)

    monkeypatch.setattr(catalog, "boolean_powerset", record)
    # the product is refused on its factors' sizes after one factor is built
    spec = "product(" + ",".join(["boolean_powerset(6)"] * 600) + ")"
    with pytest.raises(catalog.BoundExceeded) as refused:
        catalog.build_spec(spec)
    assert str(refused.value) == "product has at least 2^3600 elements (cap 64)"
    assert calls == [6]
    # a 62-element benchmark carrier; each build_spec call starts a new memo
    for _ in range(2):
        hsum = catalog.build_spec(
            "horizontal_sum(boolean_powerset(5), boolean_powerset(5))"
        )
        assert hsum == catalog.horizontal_sum(build(5), build(5))
    assert calls == [6, 5, 5]


# SHA-256 of to_json(), captured before mo and wright_triangle became pastings
PINNED_DIGESTS = {
    "mo(1)": "9eb0a0a7289c821120e0069fec869cc57f69257c59016c23123b229cc8a49c83",
    "mo(2)": "1a2743b15601fd7bb4fc3ad162193188aef270202fd7c72429011d4e18d080e1",
    "mo(3)": "7b3d61ed79e79e64c02548042cb50610372441c42aee3efaba5d323408314e63",
    "mo(4)": "7ae74e7044cc0cf16addec1992c18559f215cc84ab9636ec9affec7c9f7ccd14",
    "mo(5)": "80738a0f425816fe25f33a50111e27e3d636598085789d09ba4bf6d05030f35d",
    "mo(6)": "0a004e5a00f95e43e22f4206507800e742af20ec50aba8e817242348655b54ff",
    "wright_triangle()": "ac92b003d4416ab49469546688a1161205bb758a33f3d71faaa12437eb233192",
}


@pytest.mark.parametrize("spec", sorted(PINNED_DIGESTS))
def test_catalog_json_pinned(spec):
    text = catalog.build_spec(spec).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[spec]


def test_pasting_label_order():
    alg = catalog.pasting([("a", "b", "c", "d"), ("d", "e", "f")])
    assert alg.labels == (
        ("0", "1", "a", "b", "c", "d", "e", "f")
        + ("a'", "b'", "c'", "d'", "e'", "f'")
        + ("a+b", "a+c", "b+c", "a+d", "b+d", "c+d")
    )
    # the shared atom's complement is one element, reached in both blocks
    d_prime = alg.index("d'")
    assert alg.table[alg.index("a")][alg.index("b+c")] == d_prime
    assert alg.table[alg.index("e")][alg.index("f")] == d_prime
    assert alg.table[alg.index("a+b")][alg.index("c+d")] == alg.unit
    assert is_orthoalgebra(alg)[0] and not is_boolean(alg)


def test_pasting_of_one_block_is_boolean():
    alg = catalog.pasting([("a", "b", "c")])
    assert find_isomorphism(alg, catalog.boolean_powerset(3)) is not None


def test_pasting_rejects_what_is_not_an_orthoalgebra():
    # a + b is c' in one block and d' in the other
    with pytest.raises(CommutativityViolation):
        catalog.pasting([("a", "b", "c"), ("a", "b", "d")])
    # a's supplement is x in one block and b + c in the other
    with pytest.raises(SupplementNotUnique):
        catalog.pasting([("a", "x"), ("a", "b", "c")])


def test_pasting_block_cap():
    with pytest.raises(catalog.BoundExceeded, match="7-atom block"):
        catalog.pasting([tuple("abcdefg")])
    # ("a", "a") would otherwise be the chain 0 < a < 1 with a + a = 1
    with pytest.raises(catalog.BoundExceeded, match="repeats an atom"):
        catalog.pasting([("a", "b"), ("a", "a")])


def test_pasting_fixtures():
    for alg, size, coherent in (
        (grid(3, 3), 20, True),
        (complete_quadrilateral(), 14, False),
        (grid(3, 4), 44, True),
        (stateless_pasting(), 58, True),
    ):
        assert alg.size == size
        assert is_orthoalgebra(alg)[0] and not is_boolean(alg)
        assert check_coherence(alg)[0] == coherent
