"""The calibration cost's per-edge terms and normal-equation blocks, closed
forms of the moments a ``calib.TransformGraph`` keeps of each edge. Apart
from ``calib`` so that compiling either module, in a run without a bytecode
cache, allocates less than ``calib`` with it did, which set such runs' peak."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import algebra, geom
from .algebra import cross

if TYPE_CHECKING:
    from .calib import TransformGraph


def _relative_poses(graph: TransformGraph, rotations: np.ndarray, translations: np.ndarray) -> tuple:
    """Each edge's E_ij = inverse(G_i) composed with G_j, as stacked
    rotations and translations, rounded as ``geom.compose`` and
    ``geom.invert`` round one edge (drifted rotations re-orthonormalized)."""
    slot_i, slot_j = graph.table.slot_i, graph.table.slot_j
    r_i_t = algebra.transpose(algebra.entries(rotations[slot_i]))
    rotation = algebra.to_array(algebra.product(r_i_t, algebra.entries(rotations[slot_j])))
    to_j = algebra.transform(r_i_t, list(translations[slot_j].T))
    to_i = algebra.transform(r_i_t, list(translations[slot_i].T))
    translation = np.stack([a - b for a, b in zip(to_j, to_i)], axis=-1)
    return geom.reorthonormalized(rotation), translation


def _edge_terms(graph: TransformGraph, relative: tuple, edges: slice):
    """For ``edges``, as entries over them: E and t (of ``relative``), D = E -
    E*, the count n, mean p, the mean residual c and the scatter blocks S_pp,
    S_ps, S_ss (see ``TransformGraph``): a residual r = D p + t - t* + s is c + D u + v."""
    e, t, means = algebra.entries(relative[0][edges]), list(relative[1][edges].T), list(graph.means[edges].T)
    d = [[x - y for x, y in zip(a, b)] for a, b in zip(e, algebra.entries(graph.rotations[edges]))]
    c = algebra.affine(d, [x - y for x, y in zip(t, graph.translations[edges].T)], means[:3])
    scatter = algebra.entries(graph.scatters[edges])
    blocks = ([row[k : k + 3] for row in scatter[l : l + 3]] for l, k in ((0, 0), (0, 3), (3, 3)))
    return e, t, d, graph.counts[edges].astype(float), means[:3], [x + y for x, y in zip(c, means[3:])], *blocks


def _edge_products(graph: TransformGraph, rotations: np.ndarray, relative: tuple, edges: slice) -> tuple:
    """J_a^T J_b, (edges, 2, 2, 6, 6), and J_a^T r, (edges, 2, 6), of
    ``edges`` over sides a, b = camera j, camera i. A landmark p of camera j
    lands at q = E p + t with residual r = q - p_i; its rows of J are
    [-F, R_i^T] for camera j, F = E skew(p) (row a is e_a x p, e_a E's row
    a), and [skew(q), -R_i^T] for camera i. With P, Q, X the sums of p p^T,
    q q^T, p q^T and W = sum (r - c) u^T = D S_pp + S_ps^T (``_edge_terms``),
    the sums over the landmarks are: F^T F = sum_a skew(e_a) P skew(e_a)^T,
    skew(q)^T skew(q) = tr(Q) I - Q, -F^T skew(q) with column k e_(k+2) x
    X_(k+1) - e_(k+1) x X_(k+2), F^T r = n (E^T c) x mean p + axial(E^T W)
    and r x q = n c x mean q + axial(W E^T), axial(x y^T) being x x y."""
    e, t, d, n, mean_p, c, s_pp, s_ps, _ = _edge_terms(graph, relative, edges)
    mean_q, e_t, spread = algebra.affine(e, t, mean_p), algebra.transpose(e), algebra.product(e, s_pp)  # E S_pp
    w = [[x + y for x, y in zip(a, b)] for a, b in zip(algebra.product(d, s_pp), algebra.transpose(s_ps))]

    def plus_outer(m, x, y):  # m + n x y^T, symmetric to the bit for a symmetric m when x is y
        return [[z + n * (a * b) for z, b in zip(row, y)] for row, a in zip(m, x)]

    def axial(m):
        return [m[1][2] - m[2][1], m[2][0] - m[0][2], m[0][1] - m[1][0]]

    second_p, second_q = plus_outer(s_pp, mean_p, mean_p), plus_outer(algebra.product(spread, e_t), mean_q, mean_q)
    x = algebra.transpose(plus_outer(algebra.transpose(spread), mean_p, mean_q))  # the columns of X
    ftf = [[cross(row, y) for y in algebra.transpose([cross(row, z) for z in second_p])] for row in e]  # P is symmetric
    ftf = [[a + b + z for a, b, z in zip(*rows)] for rows in zip(*ftf)]
    fts = algebra.transpose([
        [a - b for a, b in zip(cross(e[(k + 2) % 3], x[(k + 1) % 3]), cross(e[(k + 1) % 3], x[(k + 2) % 3]))] for k in range(3)
    ])
    trace = second_q[0][0] + second_q[1][1] + second_q[2][2]
    sts = [[(trace if a == b else 0.0) - second_q[a][b] for b in range(3)] for a in range(3)]
    grad_j = [-(n * a + b) for a, b in zip(cross(algebra.transform(e_t, c), mean_p), axial(algebra.product(e_t, w)))]
    grad_i = [n * a + b for a, b in zip(cross(c, mean_q), axial(algebra.product(w, e_t)))]
    sum_p, sum_q, sum_r = ([n * a for a in v] for v in (mean_p, mean_q, c))

    r = algebra.entries(rotations[graph.table.slot_i[edges]])
    h = algebra.product(r, [cross(row, sum_p) for row in e])  # R_i E skew(sum p), R_i times the sum of F
    k = [cross(row, sum_q) for row in r]  # R_i skew(sum q)
    m = [[n * x for x in row] for row in algebra.product(r, algebra.transpose(r))]  # n R_i R_i^T
    minus_h, minus_k, minus_m = ([[-x for x in row] for row in a] for a in (h, k, m))
    blocks = {
        (0, 0): [ftf, algebra.transpose(minus_h), minus_h, m],
        (1, 1): [sts, algebra.transpose(minus_k), minus_k, m],
        (0, 1): [fts, algebra.transpose(h), k, minus_m],
    }
    products = np.empty((len(n), 2, 2, 6, 6))
    for (a, b), (top_left, top_right, bottom_left, bottom_right) in blocks.items():
        block = [x + y for x, y in zip(top_left, top_right)] + [x + y for x, y in zip(bottom_left, bottom_right)]
        products[:, a, b] = algebra.to_array(block)
    products[:, 1, 0] = np.swapaxes(products[:, 0, 1], 1, 2)
    r_sum = algebra.transform(r, sum_r)
    return products, np.stack([np.stack(grad_j + r_sum, -1), np.stack(grad_i + [-x for x in r_sum], -1)], axis=1)
