"""Independent closed-form fixtures used only by the tests.

These re-derive the hand-computable answers (order 2, order 4, and the
thirteen displayed order-8 families) in a deliberately different style
from the engine, so that engine bugs and fixture bugs are unlikely to
coincide.  Everything returns canonical monomial strings.

The order-8 list is kept in two variants.  The augmentation-ideal family
L7 collects the renamed positive-cone classes of the order-4 answer that
die in the Borel row because they contain a higher Euler class; those
classes carry arbitrary u_alpha powers, so the full family has a u_alpha
factor.  A narrower variant without that factor (literal_display=True) is
kept for comparison; the oracle and the duality symmetry rule it out, and
test_engine records witness degrees where the variants differ.
"""

from __future__ import annotations

from itertools import product

from hf2 import oracle
from hf2.monomial import Monomial, degree_of
from hf2.reps import Degree, make_degree


def _emit(n, sigma, ea, eu, eal, eul, d: Degree, out: set):
    m = Monomial(n, sigma, ea, eu, tuple(eal), tuple(eul))
    if degree_of(m) == d:
        out.add(str(m))


def brute_positive_cone(n: int, d: Degree) -> set[str]:
    """Positive cone by exhaustive loops with gold filtering."""
    out: set[str] = set()
    a_tot = -d.c_alpha
    lam_tot = [-c for c in d.c_lambda]
    if a_tot < 0 or any(v < 0 for v in lam_tot):
        return out
    for eu in range(a_tot + 1):
        for us in product(*(range(v + 1) for v in lam_tot)):
            eal = [tot - u for tot, u in zip(lam_tot, us)]
            low_u = next((j for j, u in enumerate(us) if u >= 1), None)
            if low_u is not None:
                if (a_tot - eu) >= 2 or any(a >= 1 for a in eal[low_u + 1 :]):
                    continue
            _emit(n, 0, a_tot - eu, eu, eal, us, d, out)
    return out


def c2_closed_form(d: Degree) -> set[str]:
    """Order-2 answer: a polynomial cone and a desuspended negative cone."""
    out: set[str] = set()
    bound = abs(d.t) + abs(d.c_alpha) + 4
    for k in range(bound):
        for s in range(bound):
            _emit(1, 0, k, s, (), (), d, out)
    for i in range(1, bound):
        for j in range(1, bound):
            _emit(1, 1, -i, -j, (), (), d, out)
    return out


def c4_closed_form(d: Degree) -> set[str]:
    """Order-4 answer: the six displayed families."""
    out: set[str] = set()
    t, ca, c0 = d.t, d.c_alpha, d.c_lambda[0]
    # positive cone with the single gold relation
    for ea in range(max(-ca, 0) + 1):
        for ul in range(max(-c0, 0) + 1):
            eu, al = -ca - ea, -c0 - ul
            if eu < 0 or al < 0 or (ea >= 2 and ul >= 1):
                continue
            _emit(2, 0, ea, eu, (al,), (ul,), d, out)
    # <u_l^i>[a_l] (inverted u_alpha) <1, a_alpha>
    for eps in (0, 1):
        s = -ca - eps
        if s > -1:
            continue
        if (t - s) % 2 == 0:
            i = (t - s) // 2
            k = -c0 - i
            if i >= 1 and k >= 0:
                _emit(2, 0, eps, s, (k,), (i,), d, out)
    # [u_alpha]<a_alpha^{i+1} / a_l^j>
    if t >= 0 and c0 >= 1 and -ca - t >= 2:
        _emit(2, 0, -ca - t, t, (-c0,), (0,), d, out)
    # <S a_alpha^-i u_alpha^-j>[a_l^pm]
    j = -1 - t
    i = ca + t + 1
    if i >= 1 and j >= 1:
        _emit(2, 1, -i, -j, (-c0,), (0,), d, out)
    # <S a_l^-i u_l^-j>[u_alpha^pm]<1, a_alpha>
    for eps in (0, 1):
        s = -ca - eps
        if (s - 1 - t) % 2 == 0:
            j = (s - 1 - t) // 2
            i = c0 - j
            if i >= 1 and j >= 1:
                _emit(2, 1, eps, s, (-i,), (-j,), d, out)
    # <S a_l^-i>(inverted u_alpha)<1, a_alpha>
    i = c0
    s = t + 1
    eps = -ca - s
    if i >= 1 and s <= -1 and eps in (0, 1):
        _emit(2, 1, eps, s, (-i,), (0,), d, out)
    return out


def brute_tate_rows(n: int, d: Degree) -> dict[str, set[str]]:
    """The Borel (hh), Tate (ht) and orbit (hb) rows by search.

    A Tate class is a_alpha^ea u_alpha^eu a_l0^k u_l0^j prod_{p>0} u_lp^(-c_p)
    (for n = 1 just a_alpha^ea u_alpha^eu), with ea in {0, 1} for n >= 2.
    The u_lambda_0 exponent (u_alpha for n = 1) runs over a window, the
    lambda and alpha coefficients pin the rest, and degree_of keeps the
    hits.  hh is the unsuspended hits with a nonnegative localized Euler
    power (a_alpha for n = 1, a_lambda_0 otherwise); hb is the
    desuspended hits with a negative one.
    """
    rows: dict[str, set[str]] = {"hh": set(), "ht": set(), "hb": set()}
    bound = abs(d.t) + abs(d.c_alpha) + 2 * sum(abs(c) for c in d.c_lambda) + 4
    for j in range(-bound, bound + 1):
        if n == 1:
            shapes = [(-d.c_alpha - j, j, [], [])]
        else:
            upper = [-c for c in d.c_lambda[1:]]
            shapes = [
                (ea, -d.c_alpha - ea, [-d.c_lambda[0] - j] + [0] * (n - 2), [j] + upper)
                for ea in (0, 1)
            ]
        for ea, eu, eal, eul in shapes:
            power = ea if n == 1 else eal[0]
            _emit(n, 0, ea, eu, eal, eul, d, rows["ht"])
            if power >= 0:
                _emit(n, 0, ea, eu, eal, eul, d, rows["hh"])
            else:
                _emit(n, 1, ea, eu, eal, eul, d, rows["hb"])
    return rows


def c8_lines(d: Degree, literal_display: bool = False) -> dict[str, set[str]]:
    """The thirteen order-8 families, one entry per displayed line."""
    t, ca, c0, c1 = d.t, d.c_alpha, d.c_lambda[0], d.c_lambda[1]
    lines: dict[str, set[str]] = {f"L{i}": set() for i in range(1, 14)}

    lines["L1"] = brute_positive_cone(3, d)

    # L2: <a_alpha^{i+1} a_l1^-j>[u_alpha][a_l0^pm]
    if c1 >= 1 and t >= 0 and -ca - t >= 2:
        _emit(3, 0, -ca - t, t, (-c0, -c1), (0, 0), d, lines["L2"])

    # L3: <S a_alpha^-i u_alpha^-j>[a_l1^pm][a_l0^pm]
    j = -1 - t
    i = ca + t + 1
    if i >= 1 and j >= 1:
        _emit(3, 1, -i, -j, (-c0, -c1), (0, 0), d, lines["L3"])

    # L4: <S a_l1^-i u_l1^-j>[u_alpha^pm]<1,a_alpha>[a_l0^pm]
    for eps in (0, 1):
        s = -ca - eps
        if (s - 1 - t) % 2 == 0:
            j = (s - 1 - t) // 2
            i = c1 - j
            if i >= 1 and j >= 1:
                _emit(3, 1, eps, s, (-c0, -i), (0, -j), d, lines["L4"])

    # L5: <S a_l1^-i u_alpha^-j><1,a_alpha>[a_l0^pm]
    i, j = c1, -1 - t
    eps = j - ca
    if i >= 1 and j >= 1 and eps in (0, 1):
        _emit(3, 1, eps, -j, (-c0, -i), (0, 0), d, lines["L5"])

    # L6: <a_alpha^{i+1} a_l0^-j>[u_alpha]
    if c1 == 0 and c0 >= 1 and t >= 0 and -ca - t >= 2:
        _emit(3, 0, -ca - t, t, (-c0, 0), (0, 0), d, lines["L6"])

    # L7: aug[a_l1] [u_l1] [a_alpha] ([u_alpha] restored) <a_l0^-i>, mod gold
    if c0 >= 1:
        for m in range(max(-c1, 0) + 1):
            g = -c1 - m
            s = t - 2 * m
            e = -ca - s
            if g < 1 or s < 0 or e < 0:
                continue
            if m >= 1 and e >= 2:
                continue
            if literal_display and s != 0:
                continue
            _emit(3, 0, e, s, (-c0, g), (0, m), d, lines["L7"])

    # L8: <S / (a_l0^i u_l0^j)> <1,a_alpha> [u_l1^pm, u_alpha^pm]
    for eps in (0, 1):
        s = -ca - eps
        if (s - 2 * c1 - 1 - t) % 2 == 0:
            j = (s - 2 * c1 - 1 - t) // 2
            i = c0 - j
            if i >= 1 and j >= 1:
                _emit(3, 1, eps, s, (-i, 0), (-j, -c1), d, lines["L8"])

    # L9: <S / (a_l0^i u_l1^j)> <1,a_alpha> [u_alpha^pm]
    if c0 >= 1 and c1 >= 1:
        for eps in (0, 1):
            s = -ca - eps
            if t == -1 + s - 2 * c1:
                _emit(3, 1, eps, s, (-c0, 0), (0, -c1), d, lines["L9"])

    # L10: <S / (a_l0^i u_alpha^j)> <1,a_alpha>
    if c1 == 0 and c0 >= 1:
        j = -1 - t
        eps = j - ca
        if j >= 1 and eps in (0, 1):
            _emit(3, 1, eps, -j, (-c0, 0), (0, 0), d, lines["L10"])

    # L11: (inverted u_alpha) <u_l1^i> aug[a_l1] [a_l0^pm] <1,a_alpha>
    for eps in (0, 1):
        s = ca + eps
        if (t + s) % 2 == 0:
            i = (t + s) // 2
            g = -c1 - i
            if s >= 1 and i >= 1 and g >= 1:
                _emit(3, 0, eps, -s, (-c0, g), (0, i), d, lines["L11"])

    # L12: (inverted u_alpha) <u_l1^i> [a_l0] <1,a_alpha>
    if -c1 >= 1 and -c0 >= 0:
        for eps in (0, 1):
            s = ca + eps
            if s >= 1 and t == -s + 2 * (-c1):
                _emit(3, 0, eps, -s, (-c0, 0), (0, -c1), d, lines["L12"])

    # L13: ([u_l1^pm, u_alpha^pm] with a negative) <u_l0^i> [a_l0] <1,a_alpha>
    for eps in (0, 1):
        s = -ca - eps
        if (t - s - 2 * (-c1)) % 2 == 0:
            i = (t - s - 2 * (-c1)) // 2
            k = -c0 - i
            if i >= 1 and k >= 0 and (s <= -1 or -c1 <= -1):
                _emit(3, 0, eps, s, (k, 0), (i, -c1), d, lines["L13"])

    return lines


def c8_closed_form(d: Degree, literal_display: bool = False) -> set[str]:
    out: set[str] = set()
    for line in c8_lines(d, literal_display).values():
        out |= line
    return out


def box_degrees(n: int, t_range, a_range, lam_range):
    for t in range(t_range[0], t_range[1] + 1):
        for a in range(a_range[0], a_range[1] + 1):
            for c in product(range(lam_range[0], lam_range[1] + 1), repeat=n - 1):
                yield make_degree(n, t, a, c)


def closed_top_width(n: int, d: Degree) -> int:
    """The budget width of d at the top level, read off the orbit counts of
    its whole model (`oracle._Model.orbit_counts`) rather than the slice's
    class table: the widest of cochain degrees s-1..s+1, 0 when degree s
    has no cells."""
    s = -d.t
    model = oracle._Model(n, oracle._factors(n, d), s)
    if not model.lo <= s <= model.hi:
        return 0
    counts = model.orbit_counts(1)
    return max(counts.get(deg, 0) for deg in (s - 1, s, s + 1))
