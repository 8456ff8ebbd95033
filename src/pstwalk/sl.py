"""SL(2, q): GL(2, q)'s table, restricted.

Every SL(2, q) character is a constituent of a GL(2, q) character restricted
to SL (Clifford theory), so :class:`SLGroup` lifts each character and class
to GL(2, q) and reads GL's degree and value.  Trivial, steinberg, principal
(j,) and cuspidal (m,) lift to linear (0,), steinberg (0,), principal (0, j)
and cuspidal (m,); the half pairs to principal (0, (q-1)/2) and cuspidal
((q+1)/2,).  A jordan class (eps, c) maps to jordan (eps,), a split class
(x,) to split sorted (x, 1/x); central and nonsplit classes keep their
parameters.  Conjugation by GL swaps the two halves of a pair and the two
jordan classes of each eigenvalue and fixes every other SL class, so off
the jordan classes each half is half the restricted value.  Only the eight
half values on the jordan classes are SL's own: (c +- G_q)/2 for the
quadratic Gauss sum G_q of F_q, read off its two trace periods.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .chars import CycSum
from .family import ClassLabel, IrrLabel, Mat2, _Family, _prime_power, _Tables
from .gf import FiniteField, make_tower
from .glgu import GLGroup

__all__ = ["SLGroup"]


def _trace_periods(F: FiniteField) -> tuple[CycSum, CycSum]:
    """The Gauss periods of F_q: zeta_p^(Tr x) summed over the nonzero squares, then the non-squares.

    Tr x = x + x^p + ... + x^(p^(k-1)) lies in F_p, and g^d is a square iff d
    is even.  Their difference G_q has -G_q = (-G_p)^k (Davenport-Hasse; Lidl
    & Niederreiter, *Finite Fields*, 5.2); at q = p they are the residue periods.
    """
    periods: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for d, x in enumerate(F.exp):
        t = 0
        for _ in range(F.k):
            t, x = F.add(t, x), F.frobenius(x)
        periods[d % 2][t] = periods[d % 2].get(t, 0) + 1
    return CycSum(F.p, periods[0]), CycSum(F.p, periods[1])


class SLGroup(_Family):
    """SL(2, q): determinant-one matrices over F_q, q an odd prime power.

    Its characters are read from GL(2, q)'s table by restriction (see the
    module docstring).  The half-degree values on the jordan classes are
    built from the two Gauss periods of F_q (:func:`_trace_periods`).
    """

    family = "sl"

    def __init__(self, q: int):
        p, k = _prime_power(q)
        self.q, self.p, self.k = q, p, k
        self.tower = make_tower(p, k)
        self.field = self.tower.base
        self.root_order = lcm(q * q - 1, p)
        self.order = q * (q * q - 1)
        self._eta = tuple(eta.rescale_to(self.root_order) for eta in _trace_periods(self.field))
        # the quadratic character of F_q^x evaluated at -1
        self._sign_m1 = 1 if ((q - 1) // 2) % 2 == 0 else -1

    # GL(2, q), whose table char_value restricts; make_tower hands it this group's tower
    @cached_property
    def _gl(self) -> GLGroup:
        return GLGroup(self.q)

    # -- classes -----------------------------------------------------------------

    def _build_tables(self) -> _Tables:
        q, F, tw = self.q, self.field, self.tower
        minus = F.neg(1)
        classes = [
            ClassLabel("sl", "central", (1,)),
            ClassLabel("sl", "central", (minus,)),
        ]
        classes += [
            ClassLabel("sl", "jordan", (eps, c))
            for eps in (1, minus)
            for c in (1, tw.delta)
        ]
        classes += [ClassLabel("sl", "split", (F.exp[dx],)) for dx in range(1, (q - 1) // 2)]
        classes += [ClassLabel("sl", "nonsplit", (tw.E[i],)) for i in range(1, (q + 1) // 2)]
        irr = [IrrLabel("sl", "trivial", ()), IrrLabel("sl", "steinberg", ())]
        irr += [IrrLabel("sl", "principal", (j,)) for j in range(1, (q - 1) // 2)]
        irr += [IrrLabel("sl", "cuspidal", (m,)) for m in range(1, (q + 1) // 2)]
        irr += [IrrLabel("sl", "principal_half", (s,)) for s in (1, -1)]
        irr += [IrrLabel("sl", "cuspidal_half", (s,)) for s in (1, -1)]
        # the standard set: -I, then the four jordan classes
        return tuple(classes), tuple(irr), tuple(classes[1:6])

    def class_size(self, label: ClassLabel) -> int:
        q = self.q
        return {
            "central": 1,
            "jordan": (q * q - 1) // 2,
            "split": q * (q + 1),
            "nonsplit": q * (q - 1),
        }[label.kind]

    def inverse_label(self, label: ClassLabel) -> ClassLabel:
        """The class of the inverses of the elements of class ``label``, from its parameters.

        The inverse of [[eps, c], [0, eps]] is [[eps, -c], [0, eps]], so a jordan class
        (eps, c) goes to (eps, c times the square class of -1).  Every other class is its
        own: +-I, and the eigenvalue pairs {x, 1/x} of split and nonsplit classes.
        """
        if label.kind != "jordan" or self._sign_m1 == 1:
            return label
        eps, c = label.params
        return ClassLabel("sl", "jordan", (eps, self.tower.delta if c == 1 else 1))

    def class_rep(self, label: ClassLabel) -> Mat2:
        F, tw = self.field, self.tower
        kind, params = label.kind, label.params
        if kind == "central":
            x = params[0]
            return Mat2(x, 0, 0, x)
        if kind == "jordan":
            eps, c = params
            return Mat2(eps, c, 0, eps)
        if kind == "split":
            x = params[0]
            return Mat2(x, 0, 0, F.inv(x))
        # z = x + y*sqrt(delta) in the norm-one torus acts as [[x, dy], [y, x]]
        z = params[0]
        ext, two = tw.ext, tw.embed(F.add(1, 1))
        zq = tw.conj(z)
        x = tw.project(ext.div(ext.add(z, zq), two))
        y = tw.project(ext.div(ext.sub(z, zq), ext.mul(two, tw.sqrt_delta)))
        return Mat2(x, F.mul(tw.delta, y), y, x)

    def classify(self, m: Mat2) -> ClassLabel:
        F, tw = self.field, self.tower
        if self.det(m) != 1:
            raise ValueError("determinant is not 1")
        minus = F.neg(1)
        if m.b == 0 and m.c == 0 and m.a == m.d:
            return ClassLabel("sl", "central", (m.a,))
        t = self.trace(m)
        two = F.add(1, 1)
        if t == two or t == F.neg(two):
            # the square class of b (or -c when b = 0) picks the Jordan class
            eps = 1 if t == two else minus
            x = m.b if m.b != 0 else F.neg(m.c)
            return ClassLabel("sl", "jordan", (eps, 1 if F.is_square(x) else tw.delta))
        disc = F.sub(F.mul(t, t), F.mul(two, two))
        s = F.sqrt(disc)
        if s is not None:
            r1 = F.div(F.add(t, s), two)
            r2 = F.inv(r1)
            x = r1 if F.log[r1] <= F.log[r2] else r2
            return ClassLabel("sl", "split", (x,))
        ext = tw.ext
        se = ext.sqrt(tw.embed(disc))
        z = ext.div(ext.add(tw.embed(t), se), tw.embed(two))
        zi = ext.inv(z)
        zc = z if ext.log[z] <= ext.log[zi] else zi
        return ClassLabel("sl", "nonsplit", (zc,))

    def enumerate_group(self) -> list[Mat2]:
        F, q = self.field, self.q
        out = []
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    if a:
                        # d = (1 + bc) / a
                        out.append(Mat2(a, b, c, F.div(F.add(1, F.mul(b, c)), a)))
                    elif b:
                        if F.mul(b, c) == F.neg(1):
                            out.extend(Mat2(0, b, c, d) for d in range(q))
        return out

    # -- characters -----------------------------------------------------------------

    def _lift(self, irr: IrrLabel) -> IrrLabel:
        """The GL(2, q) character whose restriction is irr, or holds its half pair."""
        q = self.q
        kind, params = {
            "trivial": ("linear", (0,)),
            "steinberg": ("steinberg", (0,)),
            "principal": ("principal", (0, *irr.params)),
            "cuspidal": ("cuspidal", irr.params),
            "principal_half": ("principal", (0, (q - 1) // 2)),
            "cuspidal_half": ("cuspidal", ((q + 1) // 2,)),
        }[irr.kind]
        return IrrLabel("gl", kind, params)

    def degree(self, irr: IrrLabel) -> int:
        d = self._gl.degree(self._lift(irr))
        return d // 2 if irr.kind.endswith("_half") else d

    def central_sign(self, irr: IrrLabel, x: int) -> int:
        """chi(x I)/chi(1), read off the GL character chi lifts to: a half is half its lift."""
        return self._gl.central_sign(self._lift(irr), x)

    # the tracer in perfbench/ wraps SLGroup.__dict__["char_value"]
    def char_value(self, irr: IrrLabel, cls: ClassLabel) -> CycSum:
        """chi(C), read off the GL character chi lifts to at the GL class of C.

        A half-degree value on a jordan class is (const + sgn*g)/2 for the
        quadratic Gauss sum g: const = 1 (principal), -1 (cuspidal) at
        eps = +1, and the quadratic character at -1 for eps = -1.
        """
        kind, ck, params = irr.kind, cls.kind, cls.params
        half = kind.endswith("_half")
        if half and ck == "jordan":
            eps, c = params
            s = irr.params[0] if c == 1 else -irr.params[0]
            if kind == "principal_half":
                return self._half(1 if eps == 1 else self._sign_m1, s)
            return self._half(-1, s) if eps == 1 else self._half(self._sign_m1, -s)
        if ck == "jordan":
            params = params[:1]
        elif ck == "split":
            params = tuple(sorted((params[0], self.field.inv(params[0]))))
        lift = self._lift(irr)
        value = self._gl.char_value(lift, ClassLabel("gl", ck, params)).rescale_to(self.root_order)
        if not half:
            return value
        if any(v % 2 for v in value.c.values()):
            raise RuntimeError(f"{lift.kind}{lift.params} of GL(2, {self.q}) is odd at {cls}")
        return CycSum(self.root_order, {e: v // 2 for e, v in value.c.items()})

    def _half(self, const: int, sgn: int) -> CycSum:
        """(const + sgn*g)/2 for the quadratic Gauss sum g; both in {1, -1}."""
        eta = self._eta[0] if sgn == 1 else self._eta[1]
        return eta + 1 if const == 1 else eta
