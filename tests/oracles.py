"""Independent oracles: the De Concini–Salvetti complex for Artin rows, and
Fox calculus for the rank-two rows of the complex braid groups.

For a spherical Artin group on the generators S the complex has one cell
e_G per subset G of S, of dimension |G|, and

    d e_G = sum over s in G of (-1)^pos(s, G) * W_G(x) / W_(G-s)(x) * e_(G-s),

where pos(s, G) counts the elements of G below s and W_G(x) is the
Poincaré polynomial of the parabolic subgroup on G: the product of the
q-integers [d]_x = 1 + x + ... + x^(d-1) over the degrees d of its
irreducible components, classified from the Coxeter matrix.  The quotient
is an exact division of integer polynomials.  With the package's convention
that an atom acts by t on Laurent coefficients, x = -t for the Laurent
system, x = -1 for trivial and x = +1 for sign coefficients.

Nothing here touches the package's word arithmetic or its cells: only the
Coxeter matrix and the invariant factors (through homology_at) are shared.

References: Salvetti, Math. Res. Lett. 1 (1994); De Concini and Salvetti,
"Cohomology of Artin groups", Math. Res. Lett. 3 (1996).

`fox_homology` reads only a presentation: generators and relations.  H_0
and H_1 of a group depend only on the 2-skeleton of a K(pi, 1), so the
presentation complex (one 0-cell, a 1-cell per generator, a 2-cell per
relation) gives them: d_1 has the entries x - 1, and a relation U = V
the column of Fox derivatives, sum over i with U_i = a of x^i minus the
same over V, every generator acting by x (t for Laurent, -1 for sign, +1
for trivial coefficients).  `rank_two_homology` adds H_2 for the
presentations of tests/rewriting.py.  The complex braid groups there have
cohomological dimension at most 2 (Bessis), so H_2 is free and every
higher degree 0; the rank of H_2 follows from the Euler characteristic,
the sum of (-1)^|X| over the sets X of generators with a common multiple
(the Charney–Meier–Whittlesey and Squier complex), found by rewriting.

`dual_graded_euler` gives the inverse growth series of the dual braid
monoid of type A_n from noncrossing partitions alone: the lcm of a set of
transpositions is the noncrossing closure of the partition they generate
(points 0..n on a circle in the order of the Coxeter cycle), and its
length is n + 1 minus its number of blocks (Bessis, "The dual braid
monoid", Ann. Sci. ENS 36, 2003).

References: Fox, "Free differential calculus I", Ann. of Math. 57 (1953);
Bessis, "Finite complex reflection arrangements are K(pi,1)", Ann. of
Math. 181 (2015); Charney, Meier and Whittlesey, Geom. Dedicata 105
(2004); Squier, Math. Scand. 75 (1994).
"""

import itertools

import rewriting
from garside_homology.linalg import HomologyGroup, ScalarMatrix, homology_at

# arm lengths from the branch node -> degrees
E_DEGREES = {
    (1, 2, 2): [2, 5, 6, 8, 9, 12],
    (1, 2, 3): [2, 6, 8, 10, 12, 14, 18],
    (1, 2, 4): [2, 8, 12, 14, 18, 20, 24, 30],
}
# edge labels along a path, the larger end first -> degrees
PATH_DEGREES = {
    (3, 4, 3): [2, 6, 8, 12],  # F4
    (5, 3): [2, 6, 10],  # H3
    (5, 3, 3): [2, 12, 20, 30],  # H4
}


def _walk(links, start, came_from):
    """The nodes of the unbranched arm that leaves came_from through start."""
    path, prev = [start], came_from
    while len(ahead := [j for j in links[path[-1]] if j != prev]) == 1:
        prev = path[-1]
        path.append(ahead[0])
    return path


def degrees(m, nodes):
    """Degrees of the finite Coxeter group on a connected set of nodes of
    the Coxeter matrix m."""
    n = len(nodes)
    links = {i: [j for j in nodes if j != i and m[i][j] > 2] for i in nodes}
    branch = [i for i in nodes if len(links[i]) == 3]
    if branch:
        arms = tuple(sorted(len(_walk(links, j, branch[0])) for j in links[branch[0]]))
        if arms[:2] == (1, 1):
            return list(range(2, 2 * n - 1, 2)) + [n]  # D_n
        return E_DEGREES[arms]
    if n == 1:
        return [2]
    path = _walk(links, next(i for i in nodes if len(links[i]) == 1), None)
    labels = [m[a][b] for a, b in zip(path, path[1:])]
    if labels[-1] > labels[0]:
        labels.reverse()
    if n == 2:
        return [2, labels[0]]  # I2(m)
    if labels == [3] * (n - 1):
        return list(range(2, n + 2))  # A_n
    if labels == [4] + [3] * (n - 2):
        return list(range(2, 2 * n + 1, 2))  # B_n
    return PATH_DEGREES[tuple(labels)]


def graded_euler(coxeter):
    """Sum over the subsets X of the generators of (-1)^|X| t^|lcm X|, as
    {exponent: coefficient} without zero coefficients: the inverse growth
    series of the Artin monoid.  |lcm X|, the length of the longest element
    of W_X, is the sum of d - 1 over the degrees d of X's components."""
    out = {}
    for k in range(coxeter.n + 1):
        for subset in itertools.combinations(range(coxeter.n), k):
            e = sum(d - 1 for comp in _components(coxeter.m, subset) for d in degrees(coxeter.m, comp))
            out[e] = out.get(e, 0) + (-1) ** k
    return {e: c for e, c in out.items() if c}


def dual_graded_euler(n):
    """Sum over the sets X of transpositions of S_(n+1) of
    (-1)^|X| t^|lcm X|, as {exponent: coefficient} without zero
    coefficients: the inverse growth series of the dual braid monoid of
    type A_n, with |lcm X| = n + 1 - (the number of blocks of the
    noncrossing closure of the partition X generates)."""
    transpositions = list(itertools.combinations(range(n + 1), 2))
    out = {}
    for k in range(len(transpositions) + 1):
        for subset in itertools.combinations(transpositions, k):
            e = n + 1 - len(_noncrossing_closure(n + 1, subset))
            out[e] = out.get(e, 0) + (-1) ** k
    return {e: c for e, c in out.items() if c}


def _noncrossing_closure(size, pairs):
    """The blocks of the finest noncrossing partition of 0..size-1, on a
    circle in that order, that puts the two points of each pair in one
    block."""
    blocks = [{i} for i in range(size)]
    for i, j in pairs:
        a, b = (next(block for block in blocks if x in block) for x in (i, j))
        if a is not b:
            blocks.remove(b)
            a |= b
    while crossing := next(((a, b) for a, b in itertools.combinations(blocks, 2) if _cross(a, b)), None):
        a, b = crossing
        blocks.remove(b)
        a |= b
    return blocks


def _cross(a, b):
    """Whether two disjoint blocks cross: a1 < b1 < a2 < b2 for points of
    one block a1, a2 and of the other b1, b2."""
    return any(
        x1 < y1 < x2 < y2
        for x, y in ((a, b), (b, a))
        for x1, x2 in itertools.combinations(sorted(x), 2)
        for y1, y2 in itertools.combinations(sorted(y), 2)
    )


def _components(m, subset):
    left, out = set(subset), []
    while left:
        stack = [min(left)]
        comp = set(stack)
        while stack:
            i = stack.pop()
            for j in left - comp:
                if m[i][j] > 2:
                    comp.add(j)
                    stack.append(j)
        left -= comp
        out.append(sorted(comp))
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poincare(m, subset):
    """W_G(x) as integer coefficients, constant term first."""
    out = [1]
    for comp in _components(m, subset):
        for d in degrees(m, comp):
            out = _poly_mul(out, [1] * d)
    return out


def _exact_div(a, b):
    """a / b for integer polynomials with b monic and dividing a."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = a[k + len(b) - 1]
        for i, c in enumerate(b):
            a[k + i] -= q[k] * c
    assert not any(a), "W_(G-s) does not divide W_G"
    return q


def _entry(quotient, system, domain):
    """The quotient polynomial at x = -t, -1 or +1."""
    signed = {k: c * (-1) ** k for k, c in enumerate(quotient)}
    if system.kind == "laurent":
        return domain.from_exponents(signed)
    if system.kind == "trivial":
        return sum(signed.values())
    return sum(quotient)


def salvetti_homology(coxeter, system):
    """HomologyGroups of the Artin group of the CoxeterMatrix in degrees
    0..rank, with coefficients in the CoefficientSystem."""
    m, n, domain = coxeter.m, coxeter.n, system.domain()
    cells = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    mats = [ScalarMatrix.zero(0, 1, domain)]
    for k in range(1, n + 1):
        row_of = {face: r for r, face in enumerate(cells[k - 1])}
        mat = ScalarMatrix.zero(len(cells[k - 1]), len(cells[k]), domain)
        for col, cell in enumerate(cells[k]):
            whole = poincare(m, cell)
            for pos, s in enumerate(cell):
                face = cell[:pos] + cell[pos + 1 :]
                entry = _entry(_exact_div(whole, poincare(m, face)), system, domain)
                mat.entries[row_of[face]][col] = domain.neg(entry) if pos % 2 else entry
        mats.append(mat)
    mats.append(ScalarMatrix.zero(1, 0, domain))
    return [homology_at(mats[k + 1], mats[k]) for k in range(n + 1)]


def _scalar(terms, system, domain):
    """sum of m * x^e over the exponent -> integer map terms, at x = t,
    -1 or +1."""
    if system.kind == "laurent":
        return domain.from_exponents(terms)
    if system.kind == "sign":
        return sum(m * (-1) ** e for e, m in terms.items())
    return sum(terms.values())


def _has_common_multiple(name, atoms, max_len=6):
    """Whether the generators have a common left-multiple of length at
    most max_len, folding their least ones in order."""
    multiple = (atoms[0],)
    for b in atoms[1:]:
        found = rewriting.common_left_multiples(name, multiple, (b,), max_len)
        if not found:
            return False
        multiple = min(found, key=len)
    return True


def fox_homology(gens, relations, system):
    """HomologyGroups H_0 and H_1 of the group with the generators and the
    relations (lhs, rhs), each side a sequence of generators, with
    coefficients in the CoefficientSystem: every generator acts by x."""
    domain = system.domain()
    d1 = ScalarMatrix.zero(1, len(gens), domain)
    for col in range(len(gens)):
        d1.entries[0][col] = _scalar({1: 1, 0: -1}, system, domain)
    d2 = ScalarMatrix.zero(len(gens), len(relations), domain)
    for col, relation in enumerate(relations):
        for row, a in enumerate(gens):
            terms = {}
            for sign, side in zip((1, -1), relation):
                for i, letter in enumerate(side):
                    if letter == a:
                        terms[i] = terms.get(i, 0) + sign
            d2.entries[row][col] = _scalar(terms, system, domain)
    return [homology_at(d1, ScalarMatrix.zero(0, 1, domain)), homology_at(d2, d1)]


def rank_two_homology(name, system):
    """HomologyGroups H_0, H_1, H_2 of the group of a presentation in
    tests/rewriting.py of cohomological dimension at most 2, with
    coefficients in the CoefficientSystem."""
    gens, relations = rewriting.PRESENTATIONS[name]
    h0, h1 = fox_homology(gens, [relation.split("=") for relation in relations], system)
    chi = sum(
        (-1) ** k
        for k in range(len(gens) + 1)
        for subset in itertools.combinations(gens, k)
        if not subset or _has_common_multiple(name, subset)
    )
    return [h0, h1, HomologyGroup(chi - h0.free_rank + h1.free_rank, [], system.domain())]
