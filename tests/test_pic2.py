"""Tests for the abstract 2-torsion class group."""

import itertools

import pytest

from wittcurve.pic2 import Pic2Group, PicElement


def test_group_construction():
    g = Pic2Group(3)
    assert (g.r, g.n) == (3, 8)
    assert Pic2Group(0).n == 1
    with pytest.raises(ValueError):
        Pic2Group(-1)
    with pytest.raises(ValueError):
        Pic2Group("2")


def test_element_builders():
    g = Pic2Group(3)
    assert g.element("101").code == 5
    assert g.element(5) == g.element("101")
    assert g.element([1, 0, 1]) == g.element("101")
    assert g.element((0, 0, 0)) == g.identity
    assert str(g.element("011")) == "011"
    assert g.element("110").bits == (1, 1, 0)
    with pytest.raises(ValueError):
        g.element("10")
    with pytest.raises(ValueError):
        g.element("102")
    with pytest.raises(ValueError):
        g.element(8)
    with pytest.raises(ValueError):
        g.element([1, 0, 2])


def test_rank_zero():
    g = Pic2Group(0)
    assert g.enumerate() == [g.identity]
    assert str(g.identity) == ""
    assert g.element("") == g.identity
    assert g.identity * g.identity == g.identity


def test_xor_law():
    g = Pic2Group(2)
    a, b = g.element("10"), g.element("11")
    assert a * b == g.element("01")
    assert a * a == g.identity
    assert a * g.identity == a
    with pytest.raises(ValueError):
        a * Pic2Group(3).element("100")
    with pytest.raises(TypeError):
        a * 3


def test_enumerate_order_and_bound():
    g = Pic2Group(2)
    assert [str(x) for x in g.enumerate()] == ["00", "01", "10", "11"]
    assert g.enumerate()[0].is_identity()
    assert len(Pic2Group(1).enumerate()) == 2
    with pytest.raises(ValueError):
        Pic2Group(21).enumerate()
    assert list(Pic2Group(2)) == Pic2Group(2).enumerate()


def test_abelian_exponent_two_exhaustive():
    for r in range(5):
        g = Pic2Group(r)
        elems = g.enumerate()
        assert len(set(elems)) == g.n
        for a in elems:
            assert a * a == g.identity
        for a, b in itertools.product(elems, repeat=2):
            assert a * b == b * a
        for a, b, c in itertools.product(elems[: min(g.n, 4)], repeat=3):
            assert (a * b) * c == a * (b * c)


def test_element_validation():
    with pytest.raises(ValueError):
        PicElement(2, 4)
    with pytest.raises(ValueError):
        PicElement(-1, 0)
