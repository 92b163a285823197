"""Op-by-op reference compositions of the fused kernels (parity oracles).

Production code calls the single-node super-ops in
``repro.autodiff.fused``.  Each function here builds the same result
from the public autodiff ops, one tape node per step.  The kernel
oracles take the signature of the kernel they check; the KUCNet layer
and CompGCN oracles take the module and replay its forward pass.  The
parity tests compare the two: bitwise where the kernel replays the
composition's operation order, ``rtol=1e-12`` for R-GCN's basis sum,
and ``allclose`` for CompGCN, whose production path applies the
bias-free entity transform after the segment sum rather than per edge.
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import Tensor, gather_rows, segment_sum


def reference_attention_layer(layer, hidden_prev: Tensor, edges,
                              num_dst: int, collect_attention: bool = False
                              ) -> Tuple[Tensor, Optional[np.ndarray]]:
    """``AttentionMessagePassing.forward`` built from the layer's own
    modules (Eq. 5-6): oracle of ``fused_attention_messages``."""
    if edges.num_edges == 0:
        zero = Tensor(np.zeros((num_dst, layer.dim)))
        return zero, (np.empty(0) if collect_attention else None)
    h_src = gather_rows(hidden_prev, edges.src_pos)
    h_rel = layer.relation_embedding(edges.relations)
    if layer.use_attention:
        attn_hidden = (layer.attn_source(h_src) + layer.attn_relation(h_rel)
                       + layer.attn_bias).relu()
        alpha = (attn_hidden @ layer.attn_vector).sigmoid()
        messages = layer.message_transform(h_src + h_rel) * alpha.reshape(-1, 1)
        attention = alpha.data.copy() if collect_attention else None
    else:
        messages = layer.message_transform(h_src + h_rel)
        attention = np.ones(edges.num_edges) if collect_attention else None
    aggregated = segment_sum(messages, edges.dst_pos, num_dst)
    return layer.dropout(layer._activate(aggregated)), attention


def reference_segment_softmax(x: Tensor, segment_ids: np.ndarray,
                              num_segments: int) -> Tensor:
    """Oracle of ``fused_segment_softmax`` (and so of ``segment_softmax``)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    seg_max = np.full((num_segments,) + x.data.shape[1:], -np.inf,
                      dtype=x.data.dtype)
    np.maximum.at(seg_max, segment_ids, x.data)
    shifted = x - Tensor(seg_max[segment_ids])
    exp = shifted.exp()
    denom = segment_sum(exp, segment_ids, num_segments)
    return exp / gather_rows(denom, segment_ids)


def reference_gather_mul_segment_sum(
    x: Tensor,
    x_indices: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    y: Optional[Tensor] = None,
    y_indices: Optional[np.ndarray] = None,
) -> Tensor:
    """Oracle of ``fused_gather_mul_segment_sum`` in all three modes:
    plain (``y`` absent), per-edge operand (``y`` without indices) and
    gathered table (``y[y_indices]``)."""
    messages = gather_rows(x, x_indices)
    if y is not None:
        messages = messages * (y if y_indices is None
                               else gather_rows(y, y_indices))
    return segment_sum(messages, segment_ids, num_segments)


def reference_rgcn_messages(hidden: Tensor, heads: np.ndarray,
                            relations: np.ndarray, tails: np.ndarray,
                            num_nodes: int, bases: Sequence[Tensor],
                            coeffs: Tensor) -> Tensor:
    """Oracle of ``fused_rgcn_messages``: ``Σ_b a_rb · V_b h_src`` per
    edge, summed into tails."""
    source = gather_rows(hidden, heads)
    coeff_rows = gather_rows(coeffs, relations)
    messages = None
    for index, basis in enumerate(bases):
        term = (source @ basis.T) * _column(coeff_rows, index)
        messages = term if messages is None else messages + term
    return segment_sum(messages, tails, num_nodes)


def _column(x: Tensor, index: int) -> Tensor:
    """Differentiable selection of one column as an ``(N, 1)`` tensor."""
    num_rows, num_cols = x.shape
    flat = x.reshape(num_rows * num_cols)
    rows = np.arange(num_rows) * num_cols + index
    return gather_rows(flat.reshape(num_rows * num_cols, 1), rows)


def reference_compgcn_encode(model) -> Tuple[Tensor, Tensor]:
    """``CompGCN.encode`` with the entity transform applied per edge."""
    entities = model.entity_embedding.weight
    relations = model.relation_embedding.weight
    norm = Tensor(model._norm.reshape(-1, 1))
    for layer in range(model.num_layers):
        source = gather_rows(entities, model._heads)
        edge_rel = gather_rows(relations, model._rels)
        messages = model.entity_transforms[layer](source * edge_rel)
        aggregated = segment_sum(messages, model._tails,
                                 model.kg.num_entities) * norm
        entities = aggregated.tanh()
        relations = model.relation_transforms[layer](relations)
    return entities, relations
