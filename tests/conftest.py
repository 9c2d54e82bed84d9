import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitkit
from orbitkit.cli import main
from orbitkit.groups import cyclic_group, dihedral_group, direct_product, \
    group_from_generators, klein_four_group, symmetric_group
from orbitkit.simplicial import GSSet, boundary_simplex, standard_simplex


@pytest.fixture(scope="session")
def c2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def c4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def v4():
    return direct_product(cyclic_group(2), cyclic_group(2))


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def d4():
    return dihedral_group(4)


def exit_2_with_and_without_O(capsys, argv, words):
    """The CLI exits 2 naming ``words``, with no traceback: in-process, and in a
    ``python -O`` process, where an assert would vanish."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and words in err and "Traceback" not in err, (code, err)
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-m", "orbitkit.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2 and words in proc.stderr \
        and "Traceback" not in proc.stderr, (proc.returncode, proc.stderr)


def stock_groups():
    """Every stock group the suite builds, up to order 64."""
    small = [cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3),
             dihedral_group(4), klein_four_group()]
    c2_cubed = direct_product(klein_four_group(), cyclic_group(2))
    yield from (cyclic_group(n) for n in range(1, 65))
    yield from (symmetric_group(n) for n in range(1, 5))
    yield from (dihedral_group(n) for n in range(2, 33))
    yield from (direct_product(a, b) for a in small for b in small)
    yield direct_product(c2_cubed, c2_cubed)
    yield direct_product(direct_product(cyclic_group(4), cyclic_group(4)),
                         cyclic_group(4))
    yield group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], "A4")


def with_trivial_action(s: GSSet, group) -> GSSet:
    """Re-equip a plain simplicial set with the trivial action of a group."""
    return GSSet(group, s.dim_of, {k: s.faces[k] for k in s.faces},
                 {g: {x: x for x in s.dim_of} for g in group.elements()})


def swap_boundary1(group) -> GSSet:
    """Two points swapped by the generator of C2 (a free action)."""
    full = standard_simplex(1)
    b = boundary_simplex(1)
    ids = list(b.ids())
    assert ids == [0, 1]
    return GSSet(group, {0: 0, 1: 0}, {},
                 {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}})


def vee(group) -> GSSet:
    """Subdivided interval a -> m <- b with the C2 swap a<->b, ea<->eb.

    Mixed stabilizers: the middle vertex is fixed, the rest form free
    orbits; the fixed subcomplex is the single vertex m.
    """
    from orbitkit.simplicial import SimplexRef
    # ids: 0 = a, 1 = b, 2 = m, 3 = ea (a->m), 4 = eb (b->m)
    dim_of = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
    faces = {3: (SimplexRef(2), SimplexRef(0)),
             4: (SimplexRef(2), SimplexRef(1))}
    action = {0: {i: i for i in range(5)},
              1: {0: 1, 1: 0, 2: 2, 3: 4, 4: 3}}
    return GSSet(group, dim_of, faces, action)
