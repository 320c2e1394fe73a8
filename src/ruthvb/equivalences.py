"""The executable equivalences: representations up to homotopy to weak
representations and back, kernels of VB-groupoids as weak representations,
reconstruction of equivariant maps from action-groupoid maps, and the
triangle identification with the semi-direct product.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import NotInducedError, StructureError, ValidationError
from .linalg import IntegerForm, LinearMap
from .ruth import Ruth, RuthMorphism, validate_morphism, validate_ruth
from .semidirect import semidirect
from .twoterm import diagonal_blocks, phi_object, split_bundle
from .vb import (Connection, VBGroupoid, VBMap, connection_report,
                 find_unital_connection, kernel_groupoid, validate_vb,
                 validate_vb_map, vb_map_is_isomorphism)
from .weak import (ActionChart, EquivariantMap, WeakRepresentation,
                   action_groupoid_bundle, validate_weak_representation)


def wrep_from_ruth(r: Ruth, validate: bool = True) -> WeakRepresentation:
    """Weak representation on the sum groupoid of the coefficient complex:
    the quasi-actions act blockwise on arrows, and the associator cell of a
    composable pair has degree-0 part the transformation cochain and
    degree-1 part the composite quasi-action."""
    if validate:
        validate_ruth(r).require(ValidationError, "wrep_from_ruth needs a valid representation")
    g = r.groupoid
    bundle = phi_object(r.complex)
    a0 = {a: r.lambda1[a] for a in g.arrows}
    a1 = {a: linalg.direct_sum(r.lambda0[a], r.lambda1[a]) for a in g.arrows}
    alpha = {}
    for (g1, g2) in g.comp:
        alpha[(g1, g2)] = linalg.vstack(
            r.omega[(g1, g2)],
            linalg.compose(r.lambda1[g1], r.lambda1[g2]))
    return WeakRepresentation(g, bundle, a0, a1, alpha)


def ruth_from_wrep(w: WeakRepresentation) -> Ruth:
    """Quasi-inverse on objects: split the bundle, conjugate the action into
    sum-groupoid form, and read off the blocks.

    On the image of :func:`wrep_from_ruth` the splitting is the identity and
    the round trip recovers the representation on the nose.  Corrupted input
    surfaces as NotInducedError (blocks that should vanish do not)."""
    return _ruth_and_splitting(w)[0]


def ruth_from_wrep_with_witness(w: WeakRepresentation) -> tuple[Ruth, EquivariantMap]:
    """:func:`ruth_from_wrep` together with a strictly intertwining
    equivariant map from the canonical-basis weak representation of the
    recovered structure onto ``w``, built on the same bundle splitting."""
    r, iso = _ruth_and_splitting(w)
    g = w.groupoid
    witness = EquivariantMap(
        wrep_from_ruth(r, validate=False), w,
        {x: iso.obj_maps[x] for x in g.objects},
        {x: iso.arr_maps[x] for x in g.objects},
        {a: linalg.compose(w.fiber_unit(g.tgt[a]),
                           linalg.compose(w.a0[a], iso.obj_maps[g.src[a]]))
         for a in g.arrows})
    return r, witness


def _ruth_and_splitting(w: WeakRepresentation) -> tuple[Ruth, VBMap]:
    """:func:`ruth_from_wrep` together with the bundle splitting it used."""
    g = w.groupoid
    complex_, iso = split_bundle(w.bundle)
    rho = {x: iso.arr_maps[x] for x in g.objects}
    rho_inv = {x: linalg.inverse(rho[x]) for x in g.objects}
    lambda0, lambda1 = {}, {}
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        m = linalg.compose(rho_inv[t], linalg.compose(w.a1[a], rho[s]))
        lambda0[a], lambda1[a] = diagonal_blocks(m, complex_.dim0[t], complex_.dim0[s],
                                                 f"action at {a}")
        if lambda1[a] != w.a0[a]:
            raise NotInducedError(f"degree-1 block at {a} differs from the object action")
    omega = {}
    for (g1, g2), cell in w.alpha.items():
        t1 = g.tgt[g1]
        m = linalg.compose(rho_inv[t1], cell)
        d0t, d1t = complex_.dim0[t1], complex_.dim1[t1]
        one_part = m.block(d0t, d0t + d1t, 0, m.cols)
        want = linalg.compose(lambda1[g1], lambda1[g2])
        if one_part != want:
            raise NotInducedError(f"associator at ({g1},{g2}) does not ride over the "
                                  "composite action")
        omega[(g1, g2)] = m.block(0, d0t, 0, m.cols)
    out = Ruth(g, complex_, lambda0, lambda1, omega)
    validate_ruth(out).require(ValidationError, "recovered representation fails validation")
    return out, iso


def wrep_from_ruth_morphism(m: RuthMorphism, validate: bool = True) -> EquivariantMap:
    """Equivariant map between the weak representations of the endpoints.

    The homotopy operator runs from the post-composed action to the
    pre-composed one (its defining equation reads
    diff' . mu = phi1 . lambda1 - lambda1' . phi1), while the equivariance
    cell must start at F(g.x); so the cell's degree-0 part is -mu and its
    degree-1 part the whiskered action."""
    if validate:
        validate_morphism(m).require(ValidationError,
                                     "wrep_from_ruth_morphism needs a valid morphism")
    g = m.source.groupoid
    src = wrep_from_ruth(m.source, validate=False)
    tgt = wrep_from_ruth(m.target, validate=False)
    delta = {}
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        delta[a] = linalg.vstack(
            -m.mu[a],
            linalg.compose(m.phi1[t], m.source.lambda1[a]))
    return EquivariantMap(
        src, tgt,
        {x: m.phi1[x] for x in g.objects},
        {x: linalg.direct_sum(m.phi0[x], m.phi1[x]) for x in g.objects},
        delta)


def ruth_morphism_from_wrep_map(e: EquivariantMap) -> RuthMorphism:
    """Quasi-inverse on morphisms: conjugate through both splittings and
    read off the chain-map blocks and the homotopy operator."""
    g = e.source.groupoid
    r_src, iso_s = _ruth_and_splitting(e.source)
    r_tgt, iso_t = _ruth_and_splitting(e.target)
    rho_s = {x: iso_s.arr_maps[x] for x in g.objects}
    rho_t_inv = {x: linalg.inverse(iso_t.arr_maps[x]) for x in g.objects}
    cs, ct = r_src.complex, r_tgt.complex
    phi0, phi1 = {}, {}
    for x in g.objects:
        m = linalg.compose(rho_t_inv[x], linalg.compose(e.f1[x], rho_s[x]))
        phi0[x], phi1[x] = diagonal_blocks(m, ct.dim0[x], cs.dim0[x], f"functor at {x}")
        if phi1[x] != e.f0[x]:
            raise NotInducedError(f"degree-1 block at {x} differs from the object component")
    mu = {}
    for a in g.arrows:
        t = g.tgt[a]
        m = linalg.compose(rho_t_inv[t], e.delta[a])
        d0t, d1t = ct.dim0[t], ct.dim1[t]
        one_part = m.block(d0t, d0t + d1t, 0, m.cols)
        want = linalg.compose(phi1[t], r_src.lambda1[a])
        if one_part != want:
            raise NotInducedError(f"cell at {a} does not ride over the whiskered action")
        mu[a] = -m.block(0, d0t, 0, m.cols)
    return RuthMorphism(r_src, r_tgt, phi0, phi1, mu)


# -- kernels of VB-groupoids as weak representations -----------------------------


@dataclass
class KernelActionResult:
    wrep: WeakRepresentation
    iso: VBMap            # action groupoid of wrep -> the original VB-groupoid
    connection: Connection


def vb_to_wrep(v: VBGroupoid, connection: Connection | None = None,
               validate: bool = True) -> KernelActionResult:
    """Realize a VB-groupoid as the action groupoid of a weak representation
    on its kernel bundle.

    A unital connection conjugates arrows of the kernel along each base
    arrow; the associator cell measures its failure to be multiplicative.
    The returned map sends an action-groupoid arrow (g, x, k) to
    ``inverse(k) . sigma_g(x)`` and is verified to be an isomorphism."""
    if validate:
        validate_vb(v).require(ValidationError, "vb_to_wrep needs a valid VB-groupoid")
    g = v.base
    if connection is None:
        connection = find_unital_connection(v)
    else:
        if connection.vb != v:
            raise StructureError("connection belongs to a different VB-groupoid")
        connection_report(connection).require(ValidationError, "invalid connection")
    sigma = connection.sigma
    kernel = kernel_groupoid(v)
    sig = {a: sigma[a].integer for a in g.arrows}
    inv_map = {a: v.inv_map[a].integer for a in g.arrows}
    a0, a1, alpha = {}, {}, {}
    for a in g.arrows:
        us = g.unit[g.src[a]]
        a0[a] = linalg.compose(v.ttilde[a], sigma[a])

        def conjugate(k):
            left = v.product(a, us, sig[a] @ v.ttilde[us].integer @ k, k)
            return v.product(a, g.inv[a], left, inv_map[a] @ sig[a] @ v.stilde[us].integer @ k)

        a1[a] = linalg.tabulate(conjugate, IntegerForm.identity(v.arrdim[us]))
    for (g1, g2), g12 in g.comp.items():

        def cell(x):
            left = v.product(g12, g.inv[g2], sig[g12] @ x, inv_map[g2] @ sig[g2] @ x)
            return v.product(g1, g.inv[g1], left, inv_map[g1] @ sig[g1] @ a0[g2].integer @ x)

        alpha[(g1, g2)] = linalg.tabulate(cell, IntegerForm.identity(v.objdim[g.src[g2]]))
    wrep = WeakRepresentation(g, kernel, a0, a1, alpha)
    validate_weak_representation(wrep).require(
        ValidationError, "kernel action failed weak-representation validation")
    chart = ActionChart(wrep)
    ag = action_groupoid_bundle(wrep, chart)
    arr = {}
    for a in g.arrows:
        ut = g.unit[g.tgt[a]]
        x, k = chart.decode(a, IntegerForm.identity(ag.arrdim[a]))
        arr[a] = v.product(ut, a, inv_map[ut] @ k, sig[a] @ x).map()
    iso = VBMap(ag, v, {x: LinearMap.identity(v.objdim[x]) for x in g.objects}, arr)
    validate_vb_map(iso).require(ValidationError,
                                 "kernel-action identification is not a VB map")
    if not vb_map_is_isomorphism(iso):
        raise ValidationError("kernel-action identification is not invertible")
    return KernelActionResult(wrep, iso, connection)


def connection_change_witness(v: VBGroupoid, first: Connection,
                              second: Connection) -> EquivariantMap:
    """Equivariant isomorphism between the kernel weak representations built
    from two unital connections: identity functor, cell
    sigma2_g(x) . inverse(sigma1_g(x))."""
    res1 = vb_to_wrep(v, first, validate=False)
    res2 = vb_to_wrep(v, second, validate=False)
    g = v.base
    delta = {a: v.product(a, g.inv[a], second.sigma[a].integer,
                          v.inv_map[a].integer @ first.sigma[a].integer).map()
             for a in g.arrows}
    w1 = res1.wrep
    return EquivariantMap(
        w1, res2.wrep,
        {x: LinearMap.identity(w1.objdim(x)) for x in g.objects},
        {x: LinearMap.identity(w1.arrdim(x)) for x in g.objects},
        delta)


def reconstruct_equivariant(phi: VBMap, w_src: WeakRepresentation,
                            w_tgt: WeakRepresentation) -> EquivariantMap:
    """Recover (functor, cell) from a VB map between two action groupoids.

    The functor restricts phi to the kernel subgroupoids through the
    embedding v -> (unit, source(v), inverse(v)); the cell reads off the
    kernel component of phi at (g, x, unit at g.x).  By construction
    ``act_on_morphism`` of the result reproduces phi."""
    if not phi.covers_identity():
        raise StructureError("action-groupoid map must cover the identity")
    g = w_src.groupoid
    src_chart = ActionChart(w_src)
    tgt_chart = ActionChart(w_tgt)
    f0 = {x: phi.obj_maps[x] for x in g.objects}
    f1 = {}
    for x in g.objects:
        u = g.unit[x]
        coords = src_chart.encode(u, w_src.fiber_source(x).integer,
                                  w_src.fiber_inverse(x).integer)
        _, k = tgt_chart.decode(u, phi.arr_maps[u].integer @ coords)
        f1[x] = (w_tgt.fiber_inverse(x).integer @ k).map()
    delta = {}
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        coords = src_chart.encode(a, IntegerForm.identity(w_src.objdim(s)),
                                  w_src.fiber_unit(t).integer @ w_src.a0[a].integer)
        delta[a] = tgt_chart.decode(a, phi.arr_maps[a].integer @ coords)[1].map()
    return EquivariantMap(w_src, w_tgt, f0, f1, delta)


def triangle_witness(r: Ruth, validate: bool = True) -> VBMap:
    """Explicit isomorphism from the action groupoid of the induced weak
    representation onto the semi-direct product:
    (g, x, (e0, e1)) -> (g, -e0, x), verified as a VB map and invertible."""
    w = wrep_from_ruth(r, validate=validate)
    chart = ActionChart(w)
    ag = action_groupoid_bundle(w, chart)
    sd = semidirect(r, validate=False)
    g = r.groupoid
    arr = {}
    for a in g.arrows:
        x, k = (f.map() for f in chart.decode(a, IntegerForm.identity(ag.arrdim[a])))
        arr[a] = linalg.vstack(-k.block(0, r.complex.dim0[g.tgt[a]], 0, k.cols), x)
    iso = VBMap(ag, sd, {x: LinearMap.identity(sd.objdim[x]) for x in g.objects}, arr)
    validate_vb_map(iso).require(ValidationError, "triangle identification is not a VB map")
    if not vb_map_is_isomorphism(iso):
        raise ValidationError("triangle identification is not invertible")
    return iso
