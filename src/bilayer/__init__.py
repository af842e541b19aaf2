"""Bilayer index/representation network over a symbolic triple store.

A symbolic layer (one unit per entity, class, attribute, predicate, and
observation instance) and a dense representation layer share one embedding
matrix.  Decoding walks instance -> subject -> labels -> object -> predicate;
running it in different modes realizes perception (feature-driven), episodic
memory (instance-driven), and semantic memory (pooled).  A Dirichlet mixture
fuses the memory faces after an observation.
"""

__version__ = "0.1.0"

from .dists import Categorical, DistError, dirichlet_fuse
from .evaluation import (
    EXPERIMENTS,
    EvalContext,
    EvalError,
    MetricReport,
    hits_at_k,
    run_experiment,
    top1_accuracy,
    zero_shot_split,
)
from .graph import Batch, GraphError, backward, forward, loss_and_grads
from .network import (
    DecodeRequest,
    DecodeTrace,
    NetworkError,
    NumericsError,
    SceneInput,
    chain_labels,
    decode,
    decode_many,
    fused_stream,
    sigmoid,
    softmax,
)
from .params import (
    ColumnMap,
    NetConfig,
    NetParams,
    ParamError,
    load_checkpoint,
    params_digest,
    save_checkpoint,
)
from .training import (
    Adam,
    SslReport,
    TrainConfig,
    TrainError,
    TrainingDiverged,
    consolidate,
    detect_novel_entity,
    forgetting_probe,
    ssl_step,
    train,
)
from .triple_store import (
    UNKNOWN,
    ConflictError,
    StoreError,
    TripleStore,
    is_known,
    read_jsonl,
    write_jsonl,
)
from .vocab import IDENTITY_FAMILY, Kind, VocabError, Vocabulary
from .world import (
    GroundTruthWorld,
    Ontology,
    WorldConfig,
    WorldError,
    export_world,
    gen_world,
    load_world,
)

__all__ = [name for name in dir() if not name.startswith("_")]
