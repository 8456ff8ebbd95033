"""Conjugacy classes and exact character tables for 2x2 matrix groups.

Three families over odd finite fields:

* :class:`GLGroup` -- invertible matrices over F_q;
* :class:`SLGroup` -- determinant-one matrices over F_q;
* :class:`GUGroup` -- unitary matrices over F_{q^2}: matrices M with
  ``M* M = I``, where ``M*`` is the transpose with every entry raised
  to the q-th power.

Every family exposes the same surface: ``classes()``, ``class_size``,
``class_rep``, ``classify``, ``irreducibles()``, ``degree``,
``char_value``, ``enumerate_group``, ``class_partition``,
``central_involution``, ``central_sign`` and ``standard_labels()``; a
class sum reads ``char_value`` once per character and label.  The family
owns its standard connection set: ``standard_labels()`` states the rule
and returns one tuple, built with the class labels.  GL and GU add
``standard_theta``, each row of that set as closed period sums, and read
``central_sign`` off one form of their table: neither builds a CycSum.

Every family builds its class and irreducible labels on first use, when
``classes()`` or ``irreducibles()`` is first read, and its class partition
when ``class_partition()`` is.  GL reads only F_q at construction: it
builds its tower F_q < F_{q^2} and ``torus_ext_log`` on first use, since
only nonsplit classes and cuspidal characters read them, so the coset
space over GL(2, q^2) never builds F_{q^4}.  GU's matrix entries already
live in F_{q^2}, so it takes its tower up front, and so does SL, whose
nonsplit labels are elements of F_{q^2}.  SL builds the GL(2, q)
whose table it reads on first use; that GL builds no labels and gets SL's
tower from the ``make_tower`` cache.

Every constructor refuses a q that is not an odd prime power.
"""

from .family import ClassLabel, IrrLabel, Mat2
from .glgu import GLGroup, GUGroup
from .sl import SLGroup

__all__ = [
    "Mat2",
    "ClassLabel",
    "IrrLabel",
    "GLGroup",
    "GUGroup",
    "SLGroup",
]
