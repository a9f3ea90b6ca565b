"""Affine torus automorphisms: validation, application, inversion."""

import pytest

from torusaffine.affine import AffineTorusAuto, balanced_residue
from torusaffine.geometry import origin, point


def test_balanced_residue():
    assert [balanced_residue(x, 5) for x in range(5)] == [0, 1, 2, -2, -1]
    assert [balanced_residue(x, 4) for x in range(4)] == [0, 1, 2, -1]
    assert balanced_residue(-7, 5) == -2


def test_integral_requires_unimodular():
    with pytest.raises(ValueError, match="unimodular"):
        AffineTorusAuto(((2, 0), (0, 1)), origin(2))
    AffineTorusAuto(((1, 1), (0, 1)), origin(2))  # fine


def test_mod_m_entries_are_balanced():
    phi = AffineTorusAuto(((3, 0), (0, 1)), origin(2), 5)
    assert phi.matrix == ((-2, 0), (0, 1))


def test_mod_m_requires_unit_determinant():
    with pytest.raises(ValueError, match="unit"):
        AffineTorusAuto(((2, 0), (0, 2)), origin(2), 4)


def test_mod_m_translation_must_fit_grid():
    with pytest.raises(ValueError, match="grid"):
        AffineTorusAuto(((1, 0), (0, 1)), point("1/3", 0), 5)
    AffineTorusAuto(((1, 0), (0, 1)), point("2/5", 0), 5)


def test_apply_shear():
    shear = AffineTorusAuto(((1, 0), (1, 1)), point("1/2", 0))
    assert shear.apply(point("1/3", "1/4")) == point("5/6", "7/12")


def test_inverse_integral():
    shear = AffineTorusAuto(((1, 2), (0, 1)), point("1/3", "1/2"))
    inv = shear.inverse()
    p = point("1/7", "2/7")
    assert inv.apply(shear.apply(p)) == p
    assert shear.apply(inv.apply(p)) == p


def test_inverse_mod_m():
    phi = AffineTorusAuto(((2, 1), (1, 1)), point("1/5", 0), 5)
    inv = phi.inverse()
    assert inv.modulus == 5
    for a in range(5):
        for b in range(5):
            p = point(f"{a}/5", f"{b}/5")
            back = inv.apply(phi.apply(p))
            assert all((x - y) % 1 == 0 for x, y in zip(back.coords, p.coords))


def test_identity():
    e = AffineTorusAuto.identity(3)
    assert e.apply(point("1/2", "1/3", "1/4")) == point("1/2", "1/3", "1/4")
    p = point("3/7", "4/7")
    assert AffineTorusAuto.identity(2, 7).apply(p) == p
