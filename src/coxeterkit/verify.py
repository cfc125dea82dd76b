"""Per-type verification suites: each check returns (name, passed, detail).

These re-run the structural identities on demand for one concrete type:
classification round-trip, positive definiteness, group order, presentation,
root-system axioms, class equation, and the character-theoretic identities
(orthonormality, completeness, reciprocity, family-specific counts).

The two largest checks are kept cheap without being weakened.  The
root-system axioms (``RootSystem``) reflect only one root of each pair
{v, -v} in one root of each pair: s_-a = s_a and s_a(-v) = -s_a(v), and the
system has already been checked closed under negation.  Orthonormality is
one pass over the upper triangle of the Hermitian Gram matrix, in int
arithmetic for A/B/D (``character_orthonormality``).

The A/B/D and I2 characters are computed on the closed-form class data,
and stay there: each character check first realizes the group and compares
its orbit classes with that class data, rep for rep and size for size, so
all three report at every size, and past a bound all three fail on it.
``induction-closed-form`` induces each 2-dimensional I2(m) character from
the rotation subgroup, generated by s_0 s_1, and compares it with the
closed form; that subgroup is also the reciprocity check's sample for I2(m).
``index-two-dichotomy`` checks the group-order bound, then evaluates the
B_n characters at D_n's own classes, which is the restriction, so it
builds no B_n group.  The graph checks (``classification-roundtrip`` and
``positive-definite``) take the classifier's vertex bound, and the group
checks the group-order bound, so a huge rank fails them at once.  Every
check that enumerates reads its group from one ``realize(label, max_order)``
helper, so past the budget each fails with the same message.
``positive-definite`` is the classifier's sparse Sylvester test
(``certify.positive_definite``), a closed form in rank 2, so a huge bond
builds no Gram entry.  The root checks run at every rank; for I2(m) they
and the character checks take the one bond bound, ``classify.BOND_BOUND``,
so an I2(m) past it fails all six at once.
``compute_base`` reads its reflections from the axiom sweep's table.

Each family's helpers are imported inside that family's checks, so a
run compiles only its own family's modules: no ``cyclotomic``,
``dihedral`` or ``specht`` for A/B/D, and no ``permutations``,
``tableaux`` or ``families`` for I2(m).
"""

from __future__ import annotations

import random

from .catalog import catalog_graph, check_vertices
from .certify import positive_definite
from .classes import ClassFunction, _same_class_data, class_data, irreducible_characters
from .classify import (
    MAX_ORDER,
    TypeLabel,
    canonical_label,
    check_order,
    classify,
    coxeter_group_order,
)
from .errors import CoxeterKitError, InternalInconsistencyError, ValidationError
from .groups import realize, verify_presentation
from .linalg import as_integer, conjugate_scalar
from .reps import (
    Subgroup,
    induce_character,
    inner_product,
    restrict_character,
    trivial_character,
)
from .roots import compute_base, fixed_space_dimension, geometric_rep, root_system


def run_verification(label: TypeLabel, max_order: int = MAX_ORDER) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, fn):
        try:
            ok, detail = fn()
        except CoxeterKitError as e:
            checks.append((name, False, f"error: {e}"))
            return
        checks.append((name, bool(ok), detail))

    def graph():
        check_vertices(label.rank)  # before the rank-sized graph is built
        return catalog_graph(label)

    def classification():
        res = classify(graph())
        ok = res.is_finite and res.labels() == [canonical_label(label)]
        return ok, str(res)

    def positivity():
        ok = positive_definite(graph())
        return ok, "all leading minors positive" if ok else "not positive definite"

    def group():
        return realize(label, max_order)

    def order_check():
        g = group()
        want = coxeter_group_order(label)
        return g.order == want, f"|W| = {g.order}"

    def presentation():
        return verify_presentation(group()), "orders of s_i s_j match the graph"

    def classes_check():
        g = group()
        sizes = g.classes.sizes
        ok = sum(sizes) == g.order and all(g.order % s == 0 for s in sizes)
        return ok, f"{g.classes.count} classes"

    def roots_check():
        rs = root_system(label, max_order)  # axioms are checked on construction
        base = compute_base(rs)
        return True, f"{rs.count} roots, base of size {len(base)}"

    def fixed_space():
        g = group()  # the order bound before geometric_rep's bond bound
        if label.family == "I2":
            mats = geometric_rep(g).matrices
            expected = 0
        else:
            mats = [s.natural_matrix() for s in g.generators]
            expected = 1 if label.family == "A" else 0
        d = fixed_space_dimension(mats)
        return d == expected, f"fixed-space dimension {d}"

    record("classification-roundtrip", classification)
    record("positive-definite", positivity)
    if label.family not in ("A", "B", "D", "I2"):
        # exceptional types are recognized by the classifier only
        return checks
    record("group-order", order_check)
    record("presentation", presentation)
    record("class-equation", classes_check)
    record("root-system-axioms", roots_check)
    record("fixed-space", fixed_space)

    def closed_form_table():
        """The closed-form characters, on the class data, and the realized
        group, once its orbit classes equal that class data."""
        if label.family == "I2":
            chars = irreducible_characters(label)  # the bond bound first
            g = group()
        else:
            g = group()  # the order bound before any table
            chars = irreducible_characters(label)
        if not _same_class_data(chars[0].domain, g):
            raise InternalInconsistencyError(
                f"closed-form classes of {label} differ from the orbit classes"
            )
        return chars, g

    def character_set():
        chars, g = closed_form_table()
        count_ok = len(chars) == g.classes.count
        total = sum(as_integer(c.identity_value) ** 2 for c in chars)
        ok = count_ok and total == g.order
        return ok, f"{len(chars)} irreducibles, sum dim^2 = {total}"

    def reciprocity():
        chars, g = closed_form_table()
        rng = random.Random(20240 + label.rank)
        sub = _sample_subgroup(g)
        chi = trivial_character(sub)
        ind = induce_character(chi, g)
        for phi in rng.sample(chars, min(3, len(chars))):
            lhs = inner_product(ind, phi)
            rhs = inner_product(chi, restrict_character(phi, sub))
            if lhs != rhs:
                return False, "induction/restriction adjunction failed"
        return True, "holds on sampled characters"

    record("character-completeness", character_set)
    record("character-orthonormality", lambda: character_orthonormality(closed_form_table()[0]))
    record("frobenius-reciprocity", reciprocity)

    if label.family == "A":
        from .tableaux import hook_dimension, partitions_of, standard_tableaux

        def hooks():
            n = label.rank + 1
            for shape in partitions_of(n):
                if len(standard_tableaux(shape)) != hook_dimension(shape):
                    return False, f"hook mismatch at {shape}"
            return True, "module dims equal hook dims"

        def class_count():
            want = len(partitions_of(label.rank + 1))
            return group().classes.count == want, f"p({label.rank + 1}) = {want}"

        record("hook-dimensions", hooks)
        record("partition-class-count", class_count)

    if label.family == "B":
        from .families import bn_conjugacy_parametrization

        def parametrization():
            bn_conjugacy_parametrization(group())
            return True, "classes biject with partition pairs"

        record("class-parametrization", parametrization)

    if label.family == "D":
        from .families import bn_characters_on

        def dichotomy():
            check_order(label, max_order)
            for blabel, res in bn_characters_on(class_data(label)):
                norm = inner_product(res, res)
                want = 2 if blabel.lam == blabel.mu else 1
                if norm != want:
                    return False, f"<Res,Res> = {norm} at {blabel}"
            return True, "restriction norms are 1 (split-free) or 2 (split)"

        record("index-two-dichotomy", dichotomy)

    if label.family == "I2":
        from .cyclotomic import Cyclotomic
        from .dihedral import dihedral_irreducibles

        def formula():
            m = label.bond
            two_dim = [chi for chi in dihedral_irreducibles(m) if chi.name.startswith("2:")]
            g = group()
            rotations = _sample_subgroup(g)
            for k, chi in enumerate(two_dim, 1):
                zeta_k = [Cyclotomic.zeta(m, k * el.rotation) for el in rotations.classes.reps]
                if induce_character(ClassFunction(rotations, zeta_k), g) != chi:
                    return False, f"the induction of zeta^{k} from the rotations is not {chi.name}"
            return True, "inductions match the closed form"

        record("induction-closed-form", formula)

    return checks


def character_orthonormality(chars) -> tuple[bool, str]:
    """Check <chi_i, chi_j> = delta_ij on a list of characters of one group.

    One pass over G_ij = sum_k |C_k| chi_i(C_k) conj(chi_j(C_k)) for i <= j,
    compared with |G| delta_ij, so the 1/|G| of the inner product is never
    formed: int sums for A/B/D, cyclotomic ones for I2.  G is Hermitian, so
    G_ji fails exactly when G_ij does, and the first failing pair of this
    row-major sweep over i <= j is the first of the full sweep over all i, j.
    """
    group = chars[0].domain
    if any(chi.domain is not group for chi in chars):
        raise ValidationError("class functions live on different class data")
    weighted = [
        [size * conjugate_scalar(v) for size, v in zip(group.classes.sizes, chi.values)]
        for chi in chars
    ]
    for i, chi in enumerate(chars):
        for j in range(i, len(chars)):
            total = sum(a * b for a, b in zip(chi.values, weighted[j]))
            if total != (group.order if i == j else 0):
                return False, f"<chi_{i}, chi_{j}> != delta"
    return True, "character Gram matrix is the identity"


def _sample_subgroup(group) -> Subgroup:
    """Fixed small subgroup used for the reciprocity spot check, generated by
    words in the group's generators: S_n inside A_n = S_(n+1), B_n and D_n;
    for I2(m), the rotations, which ``induction-closed-form`` induces from."""
    gens, family = group.generators, group.label.family
    if family == "A":
        return Subgroup(group, gens[:-1])  # S_n <= S_{n+1}, fixing the last point
    if family == "I2":
        return Subgroup(group, [gens[0] * gens[1]])
    return Subgroup(group, gens[1:])  # S_n <= B_n, D_n
