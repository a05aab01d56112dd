"""Operation-priority evolutionary search over primitive-op attention graphs.

The package splits into narrow layers: ``tensor`` (numpy autodiff engine),
``search_space`` (graph encoding, symbolic shapes, generation/mutation,
the parameter table), ``evolution`` (one search loop; priority-guided
search and two baselines as its proposal rules), ``supernet``
(bi-branch weight sharing), ``model`` (toy masked-token task), ``metrics``
(token-uniformity diagnostics), and ``cli``.
"""

from opnas.search_space import (
    AttentionDag,
    BackboneSpec,
    DagNode,
    IllegalGraph,
    LayerSpec,
)

__all__ = [
    "AttentionDag",
    "BackboneSpec",
    "DagNode",
    "IllegalGraph",
    "LayerSpec",
]

__version__ = "0.1.0"
