// Index pins: FNV-1a digests of what PeerIndex builds and answers on fixed
// scenarios, compared against digests recorded once.
//
// The other ann tests bound recall and check determinism against a second
// run of the same code, so a change that moves every graph the same way
// passes them.  These pins catch that case: each digest is the index's
// output on a fixed scenario, recorded from the code as it stood before the
// change under test.  Re-record a digest only by running this test at a
// change's parent commit — never to make a change pass.
//
// Per scenario and stage, three digests:
//  * graph   — every member's NeighborsOf in slot order, the cell entries
//              and the stage's UpdateStats;
//  * answers — SearchFrom ids and score bits for ef ∈ {0, 1, 3, 12, 40} and
//              k ∈ {1, 10} over a query sample, both orderings;
//  * evals   — the ScoreEvaluations() delta of each of those searches.
// Stages: after construction, after an ApplyUpdates batch that relinks
// without escalating, for a member-subset index, and after an ApplyUpdates
// batch that escalates to RebuildAll.  Scenarios: n = 300 and n = 2048, flat
// and 16-cell IVF, classification and regression; n = 300 runs at rank 3
// (classification) and rank 7 (regression), n = 2048 at rank 10, so every
// body of the rank-specialised distance kernel is on a pinned path.
#include "ann/peer_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "datasets/procedural.hpp"

namespace dmfsgd::ann {
namespace {

using core::DmfsgdSimulation;
using core::SimulationConfig;
using eval::KnnOrdering;

class Fnv1a {
 public:
  void Add(std::uint64_t value) {
    unsigned char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof bytes);
    for (const unsigned char byte : bytes) {
      hash_ = (hash_ ^ byte) * 0x100000001b3ULL;
    }
  }
  void Add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    Add(bits);
  }
  [[nodiscard]] std::uint64_t Value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string Hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

struct StagePins {
  std::uint64_t graph;
  std::uint64_t answers;
  std::uint64_t evals;
};

struct ScenarioPins {
  StagePins built;
  StagePins relinked;
  StagePins subset;
  StagePins rebuilt;
};

struct Scenario {
  std::size_t nodes;
  std::size_t rank;
  std::size_t ivf_cells;
  bool regression;
};

std::string Name(const Scenario& scenario) {
  std::ostringstream out;
  out << "n=" << scenario.nodes << " r=" << scenario.rank
      << (scenario.ivf_cells > 0 ? " ivf" : " flat")
      << (scenario.regression ? " regression" : " classification");
  return out.str();
}

std::uint64_t GraphDigest(const PeerIndex& index,
                          const PeerIndex::UpdateStats& stats) {
  Fnv1a hash;
  for (const std::size_t id : index.Members()) {
    const std::vector<std::size_t> edges = index.NeighborsOf(id);
    hash.Add(std::uint64_t{edges.size()});
    for (const std::size_t e : edges) {
      hash.Add(std::uint64_t{e});
    }
  }
  for (const std::size_t entry : index.CellEntries()) {
    hash.Add(std::uint64_t{entry});
  }
  hash.Add(std::uint64_t{stats.relinked});
  hash.Add(std::uint64_t{stats.epsilon_skips});
  hash.Add(std::uint64_t{stats.rebuilt});
  return hash.Value();
}

void ExpectStage(const PeerIndex& index, std::size_t nodes,
                 const PeerIndex::UpdateStats& stats, const StagePins& pins,
                 const std::string& what) {
  Fnv1a answers;
  Fnv1a evals;
  constexpr std::size_t kQueries = 32;
  for (const std::size_t ef : {0u, 1u, 3u, 12u, 40u}) {
    for (const std::size_t k : {1u, 10u}) {
      for (std::size_t t = 0; t < kQueries; ++t) {
        const std::size_t query = t * nodes / kQueries + (ef + k) % 3;
        const KnnOrdering ordering = t % 2 == 0 ? KnnOrdering::kSmallestFirst
                                                : KnnOrdering::kLargestFirst;
        const std::uint64_t before = index.ScoreEvaluations();
        const eval::KnnResult result = index.SearchFrom(query, k, ordering, ef);
        evals.Add(index.ScoreEvaluations() - before);
        answers.Add(std::uint64_t{result.ids.size()});
        for (std::size_t p = 0; p < result.ids.size(); ++p) {
          answers.Add(std::uint64_t{result.ids[p]});
          answers.Add(result.scores[p]);
        }
      }
    }
  }
  EXPECT_EQ(Hex(GraphDigest(index, stats)), Hex(pins.graph)) << what << ", graph";
  EXPECT_EQ(Hex(answers.Value()), Hex(pins.answers)) << what << ", answers";
  EXPECT_EQ(Hex(evals.Value()), Hex(pins.evals)) << what << ", evals";
}

void ExpectScenario(const Scenario& scenario, const ScenarioPins& pins) {
  datasets::EuclideanRttConfig rtt;
  rtt.node_count = scenario.nodes;
  rtt.seed = 2011;
  const datasets::Dataset dataset = datasets::MakeEuclideanRtt(rtt);
  SimulationConfig config;
  config.rank = scenario.rank;
  config.neighbor_count = 10;
  config.tau = datasets::SampledMedianValue(dataset);
  config.seed = 17;
  if (scenario.regression) {
    config.mode = core::PredictionMode::kRegression;
    config.params.loss = core::LossKind::kL2;
  }
  DmfsgdSimulation simulation(dataset, config);
  simulation.RunRounds(20);
  simulation.EnableDriftTracking();
  const core::CoordinateStore& store = simulation.engine().store();
  const std::string name = Name(scenario);

  PeerIndexOptions options;
  options.ivf_cells = scenario.ivf_cells;
  options.ivf_nprobe = 4;
  PeerIndex index(store, options);
  ExpectStage(index, scenario.nodes, {}, pins.built, name + ", built");

  // A batch small enough to relink member by member: an eighth of the nodes
  // probe once, which dirties at most a quarter of them.
  for (std::size_t t = 0; t < scenario.nodes / 8; ++t) {
    (void)simulation.IngestProbe(static_cast<core::NodeId>(t * 37 % scenario.nodes));
  }
  const PeerIndex::UpdateStats relink =
      index.ApplyUpdates(simulation.TakeDirtyNodes());
  ASSERT_FALSE(relink.rebuilt) << name;
  ASSERT_GT(relink.relinked, 0u) << name;
  ExpectStage(index, scenario.nodes, relink, pins.relinked, name + ", relinked");

  // Two of every three nodes, in descending id order, so slots and ids
  // differ and non-members query too.
  std::vector<std::size_t> members;
  for (std::size_t id = scenario.nodes; id-- > 0;) {
    if (id % 3 != 1) {
      members.push_back(id);
    }
  }
  const PeerIndex subset(store, members, options);
  ExpectStage(subset, scenario.nodes, {}, pins.subset, name + ", subset");

  // A round dirties every node, which escalates to RebuildAll.
  simulation.RunRounds(1);
  const PeerIndex::UpdateStats rebuild =
      index.ApplyUpdates(simulation.TakeDirtyNodes());
  ASSERT_TRUE(rebuild.rebuilt) << name;
  ExpectStage(index, scenario.nodes, rebuild, pins.rebuilt, name + ", rebuilt");
}

// ------------------------------------------------------------------------

TEST(PeerIndexPin, N300FlatClassification) {
  ExpectScenario({300, 3, 0, false},
                 {{0x570efcfcce313ebfULL, 0xc4f4b5b1980517b8ULL, 0x31f0dc730d92977ULL},
                  {0x415cd72b88b5951eULL, 0x3dab945957c023cULL, 0x4be410a648f7ce1bULL},
                  {0x882949e0406708d9ULL, 0xb9ce7ad5b0146cadULL, 0xa0caffabd7539e54ULL},
                  {0x3f31fc4a00092269ULL, 0x3aa8731eade838b6ULL, 0xce9aa8adf426e9deULL}});
}

TEST(PeerIndexPin, N300FlatRegression) {
  ExpectScenario({300, 7, 0, true},
                 {{0x60da01dce76049a6ULL, 0x86f159795a5e99d0ULL, 0x95a9cf630973ff11ULL},
                  {0x69abec156cf44545ULL, 0x6f4a81ab085bd140ULL, 0x213b65eb1f8f1cbfULL},
                  {0x3f90229af5fcbe1ULL, 0xa1436f047e5aff3fULL, 0xab0dfebf7f36108dULL},
                  {0xd953c80b476149e2ULL, 0xb02b3bc467a50a77ULL, 0xca1a6dce70b72009ULL}});
}

TEST(PeerIndexPin, N300IvfClassification) {
  ExpectScenario({300, 3, 16, false},
                 {{0x204c18b9b6f5b1e0ULL, 0xf9bc32ec2dafcfdbULL, 0xdf93cfffdba6161eULL},
                  {0x9473d70a49836a19ULL, 0xaf2063b73bdeadd5ULL, 0x9604c80d56d478d3ULL},
                  {0xddb5b55105eecfe1ULL, 0xea2f63eb3b9ec12eULL, 0xb9c6c6d6dc7e2230ULL},
                  {0xb632e47074aea465ULL, 0xabf9eee4c5b1203aULL, 0xac360d39eb8c9ac5ULL}});
}

TEST(PeerIndexPin, N300IvfRegression) {
  ExpectScenario({300, 7, 16, true},
                 {{0xb3c613a4118ee740ULL, 0x66de744d65a16e30ULL, 0x5ded73643bf758f9ULL},
                  {0xfd965077bf5978dbULL, 0x30fcda607eaffa6fULL, 0x2ebcb5ca09a7850ULL},
                  {0xf84a3d67d5e8620dULL, 0x6319dfede810ae3fULL, 0xa9cc858b0351dd1bULL},
                  {0xc5e760b4873bcc8aULL, 0x6378af73e1a6c6baULL, 0xfcdb1a49fa4f5501ULL}});
}

TEST(PeerIndexPin, N2048FlatClassification) {
  ExpectScenario({2048, 10, 0, false},
                 {{0x273ca39ba505500dULL, 0x8363130b1012b6feULL, 0x3983394b8eb502a3ULL},
                  {0x73833ec9e74dd9fbULL, 0x5edca99937aa1000ULL, 0x86e9c2f8561e6b43ULL},
                  {0x45ccca296c6b7c6dULL, 0xdf9693653037a2c2ULL, 0x5edc8f8417788c69ULL},
                  {0xe03970a969e5fbddULL, 0x49aa68bda102e580ULL, 0x2e7715ac5159f689ULL}});
}

TEST(PeerIndexPin, N2048FlatRegression) {
  ExpectScenario({2048, 10, 0, true},
                 {{0x6b3b40bff59f17bdULL, 0x313d787ee257b043ULL, 0x1484ecb8d45356ceULL},
                  {0xca3251ece776fd17ULL, 0x681b32c7b9001a7aULL, 0xbb7942e31030c281ULL},
                  {0x9e31437bea5c9271ULL, 0x367648686e20f0b3ULL, 0x4972b7451f6a4c69ULL},
                  {0xb996878aad7ffc46ULL, 0x9dd5e2831c501ad5ULL, 0x34cd38583715129aULL}});
}

TEST(PeerIndexPin, N2048IvfClassification) {
  ExpectScenario({2048, 10, 16, false},
                 {{0x6d9fbfa8045ac75bULL, 0x314bc8f1ab05c284ULL, 0x2139984708ba6700ULL},
                  {0x54ce5fdd5115c621ULL, 0xdd90ed6b6f73a0b8ULL, 0xdd13e025fc206d3aULL},
                  {0x24912685ebe0f901ULL, 0x18ffb03f9e3ce25fULL, 0x45a87d295935353bULL},
                  {0x5154942106d1aaa4ULL, 0xa285edbca9f383b8ULL, 0x47fd1538c7115d7aULL}});
}

TEST(PeerIndexPin, N2048IvfRegression) {
  ExpectScenario({2048, 10, 16, true},
                 {{0x22d5487b4839e82bULL, 0x26637f52f1b8b508ULL, 0x920a0c0810a7ac73ULL},
                  {0xeb74731fff72aecdULL, 0xa4317c1f58970bbbULL, 0x5731ad28fa719679ULL},
                  {0x4d69db469941a0afULL, 0xa6667499253ece07ULL, 0x376f743437227d77ULL},
                  {0x8ed525901beb2d0eULL, 0x7f1629220fc51a84ULL, 0x25828bcc9742b420ULL}});
}

}  // namespace
}  // namespace dmfsgd::ann
