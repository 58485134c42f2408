// The DMFSGD public umbrella header: include this, and only this.
//
// Applications embedding the system — the quickstart is the reference
// client — get the supported surface from one include; everything not
// re-exported here is an internal layer whose headers may move or change
// between versions without notice (the delivery-channel stack, the wire
// codec, the netsim fabric, the linalg kernels, ...).
//
// Stability notes use three grades:
//   [stable]   — supported API; changes will be additive or versioned.
//   [evolving] — supported, but shapes may still change as the system
//                grows; expect mechanical call-site fixes on upgrade.
//   (internal layers carry no grade because they are not re-exported.)
//
// Removed from the [stable] surface, because no program called or set them
// (each removed setting is now a documented constant with its old default):
//   ann::PeerIndex::Add, ::Remove     membership is fixed at construction
//   ann::PeerIndex::Search(row, ...)  SearchFrom(node, ...) is the one query
//   ann::PeerIndexOptions::degree, ef_construction, entry_points,
//     drift_epsilon, rebuild_fraction, seed, ivf_sample, ivf_iterations
//                                     now ann::kDegree, kEfConstruction,
//                                     kEntryPoints, kDriftEpsilon,
//                                     kRebuildFraction, kLinkSeed,
//                                     kIvfSample, kIvfIterations
//   core::SimulationConfig::exploration
//                                     now core::kLossDrivenRandomPick
//   svc::ServiceConfig::message_loss, ::churn_rate
//                                     a served deployment runs with neither
#pragma once

// -- shared protocol configuration ------------------------------------------
// core::ProtocolConfig            [stable]   the knobs every deployment form
//                                            shares (rank, eta/lambda/loss,
//                                            tau, seed, burst, coalescing);
//                                            every measurement takes one
//                                            SGD step, whatever the knobs
// core::ValidateProtocolConfig    [stable]   the ONE validator those knobs go
//                                            through, whoever embeds them
#include "core/protocol_config.hpp"

// -- datasets ---------------------------------------------------------------
// datasets::Dataset               [stable]   ground-truth matrix + metadata
// datasets::Metric, MetricName    [stable]
// datasets::ClassOf               [stable]   the paper's binary class rule
// datasets::MakeMeridian          [stable]   synthetic clustered RTT space
// datasets::MakeHpS3              [stable]   synthetic ABW space
// datasets::MakeHarvard           [stable]   dynamic RTT trace
// datasets::MakeEuclideanRtt      [evolving] huge-n procedural matrices
// datasets::LoadDataset           [stable]   bring-your-own matrix
#include "datasets/dataset.hpp"
#include "datasets/harvard.hpp"
#include "datasets/hps3.hpp"
#include "datasets/io.hpp"
#include "datasets/meridian.hpp"
#include "datasets/procedural.hpp"

// -- deployment drivers -----------------------------------------------------
// core::SimulationConfig          [stable]   ProtocolConfig + driver knobs
// core::DmfsgdSimulation          [stable]   the round-based driver
// core::PredictionMode            [stable]
// core::AsyncSimulation           [evolving] event-driven async driver
// core::CoordinateSnapshot,
//   SaveSnapshot, LoadSnapshot    [stable]   full-image persistence (CSV)
// core::LevelOf / multiclass      [evolving] C-class threshold readout
#include "core/async_simulation.hpp"
#include "core/multiclass.hpp"
#include "core/simulation.hpp"
#include "core/snapshot.hpp"

// -- the resident service (DESIGN.md §17) -----------------------------------
// svc::ServiceConfig              [stable]   ProtocolConfig + serving knobs
// svc::CoordinateService          [stable]   ingest / query / snapshot planes
// svc::SnapshotLogWriter,
//   RecoverSnapshotLog            [evolving] the delta log underneath it —
//                                            exposed for tooling that reads
//                                            or rebuilds service state
#include "svc/coordinate_service.hpp"

// -- the query plane --------------------------------------------------------
// ann::PeerIndex, PeerIndexOptions [stable]  drift-tolerant k-NN peer index
//                                            over a fixed member set
// eval::KnnResult, KnnOrdering,
//   RegressionOrderingFor          [stable]
// eval::BruteForceKnn*             [stable]  the exact oracle
#include "ann/peer_index.hpp"

// -- evaluation -------------------------------------------------------------
// eval::CollectScoredPairs        [stable]   test pairs off any deployment
// eval::Auc                       [stable]
// eval::ConfusionFromScores       [stable]
// eval::PrecisionRecallCurve,
//   AveragePrecision              [stable]
// eval::SummarizeRelativeError,
//   RelativeErrorCdf              [stable]   regression-mode metrics
#include "eval/confusion.hpp"
#include "eval/precision_recall.hpp"
#include "eval/regression_metrics.hpp"
#include "eval/roc.hpp"
#include "eval/scored_pairs.hpp"

// -- client utilities -------------------------------------------------------
// common::Flags                   [stable]   --key=value CLI parsing
// common::ProtocolFlagNames,
//   WithProtocolFlagNames,
//   ApplyProtocolFlags            [stable]   the shared protocol-flag set
// common::Rng                     [stable]   the deterministic RNG
// common::Mean/Median/Percentile  [stable]   summary statistics
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
