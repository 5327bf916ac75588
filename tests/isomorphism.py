"""The isomorphism test on surface models, shared by the test modules.

Model equality is equality of representation; two kinds of model are
isomorphic without being equal (Hartshorne V.2):

- ``Decomposable(A)`` and ``Decomposable(-A)`` at e = 0, by swapping the two
  sections;
- ``IndecMinus1(p0)`` and ``IndecMinus1(p0 + 2t)``, by twisting by the point t.
"""

from ellscroll.surface import Decomposable, IndecMinus1


def isomorphic(a, b, doubles):
    """Whether ``a`` and ``b`` are equal or related by one of the two maps
    above.  ``doubles`` is the set of all 2t."""
    if a == b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, Decomposable):
        return a.e_class.degree == b.e_class.degree == 0 and a.e_class.abel == -b.e_class.abel
    return isinstance(a, IndecMinus1) and a.p0 - b.p0 in doubles
