"""The executable equivalences: representations up to homotopy to weak
representations and back, kernels of VB-groupoids as weak representations,
reconstruction of equivariant maps from action-groupoid maps, and the
triangle identification with the semi-direct product.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import StructureError, ValidationError
from .linalg import LinearMap
from .ruth import Ruth, RuthMorphism, validate_morphism, validate_ruth
from .semidirect import semidirect
from .twoterm import cell_block, chain_block, phi_object, split_bundle
from .vb import (Connection, VBGroupoid, VBMap, connection_report,
                 find_unital_connection, kernel_groupoid, validate_vb,
                 validate_vb_map, vb_map_is_isomorphism)
from .weak import EquivariantMap, WeakRepresentation


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
        alpha[(g1, g2)] = linalg.vstack(r.omega[(g1, g2)], r.lambda1[g1] @ r.lambda1[g2])
    return WeakRepresentation(g, bundle, a0, a1, alpha)


def ruth_from_wrep(w: WeakRepresentation) -> Ruth:
    """Quasi-inverse on objects: split the bundle, conjugate the action into
    sum-groupoid form, and read off the blocks.

    On the image of :func:`wrep_from_ruth` the splitting is the identity and
    the round trip recovers the representation on the nose.  Corrupted input
    surfaces as the error of :func:`twoterm.split_bundle` (the bundle does
    not split) or of :func:`twoterm.chain_block` or :func:`twoterm.cell_block`
    (a block is not what the sum-groupoid form requires).  The recovered
    representation is not validated: a caller that needs it valid runs
    :func:`ruth.validate_ruth` on it."""
    return _ruth_and_splitting(w)[0]


def ruth_from_wrep_with_witness(w: WeakRepresentation) -> tuple[Ruth, EquivariantMap]:
    """:func:`ruth_from_wrep` together with a strictly intertwining
    equivariant map from the canonical-basis weak representation of the
    recovered structure onto ``w``, built on the same bundle splitting.
    Neither is validated: the caller validates the representation and the
    witness it keeps."""
    r, rho, _ = _ruth_and_splitting(w)
    g = w.groupoid
    witness = EquivariantMap(
        wrep_from_ruth(r, validate=False), w,
        {x: LinearMap.identity(w.bundle.objdim[x]) for x in g.objects}, rho,
        {a: w.bundle.utilde[g.tgt[a]] @ w.a0[a] for a in g.arrows})
    return r, witness


def _ruth_and_splitting(w: WeakRepresentation) -> tuple[Ruth, dict[str, LinearMap],
                                                        dict[str, LinearMap]]:
    """:func:`ruth_from_wrep` together with the arrow maps of the bundle
    splitting it used and their inverses; its object maps are identities."""
    g = w.groupoid
    complex_, iso = split_bundle(w.bundle)
    rho, dim0 = iso.arr_maps, complex_.dim0
    rho_inv = {x: linalg.inverse(rho[x]) for x in g.objects}
    lambda0 = {a: chain_block(rho_inv[g.tgt[a]] @ (w.a1[a] @ rho[g.src[a]]),
                              dim0[g.tgt[a]], dim0[g.src[a]], w.a0[a], f"action at {a}")
               for a in g.arrows}
    omega = {(g1, g2): cell_block(rho_inv[g.tgt[g1]] @ cell, dim0[g.tgt[g1]],
                                  w.a0[g1] @ w.a0[g2], f"associator at ({g1},{g2})")
             for (g1, g2), cell in w.alpha.items()}
    return Ruth(g, complex_, lambda0, w.a0, omega), rho, rho_inv


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
    delta = {a: linalg.vstack(-m.mu[a], m.phi1[g.tgt[a]] @ m.source.lambda1[a])
             for a in g.arrows}
    return EquivariantMap(
        src, tgt,
        {x: m.phi1[x] for x in g.objects},
        {x: linalg.direct_sum(m.phi0[x], m.phi1[x]) for x in g.objects},
        delta)


def ruth_morphism_from_wrep_map(e: EquivariantMap) -> RuthMorphism:
    """Quasi-inverse on morphisms: conjugate through both splittings and
    read off the chain-map blocks and the homotopy operator.  Neither the
    recovered endpoints nor the morphism is validated."""
    g = e.source.groupoid
    r_src, rho_s, _ = _ruth_and_splitting(e.source)
    r_tgt, _, rho_t_inv = _ruth_and_splitting(e.target)
    cs, ct = r_src.complex, r_tgt.complex
    phi0 = {x: chain_block(rho_t_inv[x] @ (e.f1[x] @ rho_s[x]),
                           ct.dim0[x], cs.dim0[x], e.f0[x], f"functor at {x}")
            for x in g.objects}
    mu = {a: -cell_block(rho_t_inv[g.tgt[a]] @ e.delta[a], ct.dim0[g.tgt[a]],
                         e.f0[g.tgt[a]] @ r_src.lambda1[a], f"cell at {a}")
          for a in g.arrows}
    return RuthMorphism(r_src, r_tgt, phi0, e.f0, mu)


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
    ``inverse(k) . sigma_g(x)`` and is verified to be an isomorphism; that
    certificate is the only check of the output, so a caller that needs the
    weak representation validated runs
    :func:`weak.validate_weak_representation` on it."""
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
    a0, a1, alpha = {}, {}, {}
    for a in g.arrows:
        us = g.unit[g.src[a]]
        a0[a] = v.ttilde[a] @ sigma[a]
        left = v.product(a, us, sigma[a] @ v.ttilde[us], LinearMap.identity(v.arrdim[us]))
        a1[a] = v.product(a, g.inv[a], left, v.inv_map[a] @ sigma[a] @ v.stilde[us])
    for (g1, g2), g12 in g.comp.items():
        left = v.product(g12, g.inv[g2], sigma[g12], v.inv_map[g2] @ sigma[g2])
        alpha[(g1, g2)] = v.product(g1, g.inv[g1], left, v.inv_map[g1] @ sigma[g1] @ a0[g2])
    wrep = WeakRepresentation(g, kernel, a0, a1, alpha)
    chart, ag = wrep.chart, wrep.action_groupoid
    arr = {}
    for a in g.arrows:
        ut = g.unit[g.tgt[a]]
        x, k = chart.decoder[a].split(chart.object_rows[a])
        arr[a] = v.product(ut, a, v.inv_map[ut] @ k, sigma[a] @ x)
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
    delta = {a: v.product(a, g.inv[a], second.sigma[a], v.inv_map[a] @ first.sigma[a])
             for a in g.arrows}
    w1 = res1.wrep
    return EquivariantMap(
        w1, res2.wrep,
        {x: LinearMap.identity(w1.bundle.objdim[x]) for x in g.objects},
        {x: LinearMap.identity(w1.bundle.arrdim[x]) for x in g.objects},
        delta)


def reconstruct_equivariant(phi: VBMap, w_src: WeakRepresentation,
                            w_tgt: WeakRepresentation) -> EquivariantMap:
    """Recover (functor, cell) from a VB map between two action groupoids.

    The functor restricts phi to the kernel subgroupoids through the
    embedding v -> (unit, source(v), inverse(v)); the cell reads off the
    kernel component of phi at (g, x, unit at g.x).  By construction
    ``act_on_morphism`` of the result reproduces phi."""
    g = w_src.groupoid
    src_chart, tgt_chart = w_src.chart, w_tgt.chart
    f0 = {x: phi.obj_maps[x] for x in g.objects}
    f1 = {}
    for x in g.objects:
        u = g.unit[x]
        coords = src_chart.encode(u, w_src.bundle.stilde[x], w_src.bundle.inv_map[x])
        _, k = tgt_chart.decode(u, phi.arr_maps[u] @ coords)
        f1[x] = w_tgt.bundle.inv_map[x] @ k
    delta = {}
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        coords = src_chart.encode(a, LinearMap.identity(w_src.bundle.objdim[s]),
                                  w_src.bundle.utilde[t] @ w_src.a0[a])
        delta[a] = tgt_chart.decode(a, phi.arr_maps[a] @ coords)[1]
    return EquivariantMap(w_src, w_tgt, f0, f1, delta)


def triangle_witness(r: Ruth, validate: bool = True) -> VBMap:
    """Explicit isomorphism from the action groupoid of the induced weak
    representation onto the semi-direct product:
    (g, x, (e0, e1)) -> (g, -e0, x), verified as a VB map and invertible."""
    w = wrep_from_ruth(r, validate=validate)
    chart, ag = w.chart, w.action_groupoid
    sd = semidirect(r, validate=False)
    g = r.groupoid
    arr = {}
    for a in g.arrows:
        x, k = chart.decoder[a].split(chart.object_rows[a])
        arr[a] = linalg.vstack(-k.split(r.complex.dim0[g.tgt[a]])[0], x)
    iso = VBMap(ag, sd, {x: LinearMap.identity(sd.objdim[x]) for x in g.objects}, arr)
    validate_vb_map(iso).require(ValidationError, "triangle identification is not a VB map")
    if not vb_map_is_isomorphism(iso):
        raise ValidationError("triangle identification is not invertible")
    return iso
