"""netform: simulation and verification engine for a bidirected
network-formation game with distance-bounded reach utilities."""

from .model import (ALL_OTHERS, INF, BidirectedNetwork, Mode, Params,
                    TargetSets, agent_utility, utility, welfare)
from .dynamics import (Classification, EdgeKind, Move, MoveKind,
                       NeverReaddResult, ReachBalls, Trace, classify,
                       find_witness, never_readd_check, replay, run,
                       scan_witnesses, step)
from .equilibrium import (EfficiencyReport, PoAResult, StabilityReport,
                          all_complete, brute_force_nash, check_symmetric,
                          efficient_search, is_bi_pairwise_stable, is_stable,
                          poa_pos)
from .generators import (FlowerSpec, KautzSpec, balanced_flower, complete_net,
                         cycle, empty, kautz, lift, random_net,
                         unbalanced_flower)
from .convergence import (CertMove, ComponentGraph, PathCertificate, condense,
                          construct_path, lemma_checks, validate_certificate)
from .metrics import (StructureMetrics, clustering_coefficient, diameter,
                      metrics, structure_search)
from .errors import (CapacityError, ConstructionError, DocumentError,
                     LemmaCheckError, TraceError)

__version__ = "0.1.0"
