"""Radio environment knowledge pool: environment-to-channel knowledge
construction, storage, and path-loss prediction."""

__version__ = "0.1.0"

from .geometry import (Scatterer, Scene, Trajectory, canonical_street_scene,
                       load_scene, mirror_point, ray_box_intersect, save_scene,
                       segment_blocked)
from .propagation import (ChannelSample, OUTAGE_CAP_DB, Path, fspl_db, path_loss,
                          trace_paths)
from .features import (FEATURE_NAMES, GROUPS, RealizationConfig, align_streams,
                       extract_features, realize)
from .forest import ForestParams, RandomForestModel, fit, permutation_importance
from .spectrum import (GroupWeights, KnowledgeSpectrum, RelationshipGraph,
                       SUBSETS, build_graph, group_weights, knowledge_delta,
                       spectrum)
from .pool import Context, KnowledgeEntry, Outcome, Pool, load_pool, save_pool, similarity
from .predict import (ErrorReport, Prediction, evaluate, fit_logdistance,
                      predict_knn, predict_rekp)
