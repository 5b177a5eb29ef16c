"""Topic taxonomy completion over tokenized corpora."""

from .clustering import (ClusterConfig, SubtopicClustering, assign_documents,
                         assign_known_terms, cluster_node,
                         novelty_score, novelty_threshold, select_anchor_terms,
                         select_novel_k, significance_score, spherical_kmeans,
                         split_terms)
from .corpus import Corpus, Document, TermStats, compute_term_stats, context_pairs, load_corpus
from .embedding import (Batch, EmbedConfig, EmbeddingSpace, objective_value,
                        retrieve_local_corpus, train_node_embedding)
from .evaluation import (PlantedCorpusSpec, cluster_recovery_score,
                         generate_synthetic_corpus, novelty_detection_metrics)
from .pipeline import PipelineConfig, complete_taxonomy, run_cli
from .taxonomy import (Taxonomy, TopicNode, insert_children, parse_hierarchy,
                       serialize, subtree_keywords)
from .vmf import VmfParams, estimate_vmf, sample_vmf, vmf_log_density

__all__ = [
    "Batch", "ClusterConfig", "Corpus", "Document", "EmbedConfig",
    "EmbeddingSpace", "PipelineConfig", "PlantedCorpusSpec",
    "SubtopicClustering", "Taxonomy", "TermStats", "TopicNode", "VmfParams",
    "assign_documents", "assign_known_terms", "cluster_node",
    "cluster_recovery_score", "complete_taxonomy", "compute_term_stats",
    "context_pairs", "estimate_vmf", "generate_synthetic_corpus",
    "insert_children", "load_corpus", "novelty_detection_metrics",
    "novelty_score", "novelty_threshold", "objective_value", "parse_hierarchy",
    "retrieve_local_corpus", "run_cli", "sample_vmf", "select_anchor_terms",
    "select_novel_k", "serialize", "significance_score", "spherical_kmeans",
    "split_terms", "subtree_keywords", "train_node_embedding",
    "vmf_log_density",
]
