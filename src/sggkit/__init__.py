"""Scene-graph augmentation and evaluation toolkit. Submodules load on first
use (PEP 562), so a command pays only for the modules it runs."""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "model": "BoundingBox Dataset ObjectNode Relationship SceneGraph Triplet Vocabulary "
             "categorical_triplets degree",
    "ingest": "EmbeddingTable ParseError PerturbationRecord load_dataset "
              "load_embeddings load_feature_matrix load_predictions load_vocabulary "
              "save_dataset",
    "stats": "ShotSubsets SubsetBucket TripletFrequencyTable build_frequency_table "
             "marginal_distributions predicate_frequencies shot_subsets",
    "perturb": "CannotPerturbError PerturbationConfig PerturbationResources "
               "graphn_candidates perturb_dataset perturb_graph sample_nodes "
               "semantic_neighbors",
    "quality": "FrequencyStubScorer HttpScorer PlausibilityQuery ScorerError build_query "
               "hit_rate score_graphs",
    "evaluation": "PairScores PredictedGraph RankedTriplet iou mean_recall rank_triplets "
                  "recall_at_k recall_details reweight_scores",
    "featmetrics": "PRDCResult frechet_distance knn_radii precision_recall_density_coverage "
                   "summarize_feature_report",
    "losses": "ProbTable adv_d_loss adv_g_loss adv_totals box_margin_l1 cls_loss edge_loss "
              "node_loss rec_loss total_loss",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
