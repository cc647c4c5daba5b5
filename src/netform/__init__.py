"""netform: simulation and verification engine for a bidirected
network-formation game with distance-bounded reach utilities."""

from .model import (ALL_OTHERS, INF, BidirectedNetwork, Mode, Params,
                    TargetSets, agent_utility, all_complete, utility, welfare)
from .dynamics import (EdgeKind, Move, MoveKind, ReachBalls, Trace,
                       classify, find_witness, never_readd_check, replay, run,
                       scan_witnesses, step)
from .equilibrium import (StabilityReport, brute_force_nash, check_symmetric,
                          is_bi_pairwise_stable, is_stable)
from .generators import (FlowerSpec, balanced_flower, complete_net, cycle,
                         empty, kautz, lift, random_net, unbalanced_flower)
from .convergence import (CertificateVerdict, CertMove, ComponentGraph,
                          PathCertificate, condense, construct_path,
                          lemma_checks, validate_certificate)
from .metrics import StructureMetrics, diameter, metrics
from .errors import (CapacityError, ConstructionError, DocumentError,
                     LemmaCheckError, TraceError)

__version__ = "0.1.0"
