// Determinism contract of the parallel metrics layer: for every fixture
// topology, every parallelized measurement must be BIT-identical at 1, 2,
// and 7 threads (7 is deliberately odd and larger than most chunk counts'
// divisors, which flushes out chunk-boundary bugs that powers of two hide).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "metrics/bisection.h"
#include "metrics/path_metrics.h"
#include "metrics/resilience.h"
#include "sim/flowsim.h"
#include "sim/traffic.h"
#include "topology/factory.h"

namespace dcn {
namespace {

constexpr int kThreadCounts[] = {1, 2, 7};
constexpr std::uint64_t kSeed = 0xabccc2015u;

class ParallelDeterminism : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { SetThreadCount(0); }

  std::unique_ptr<topo::Topology> Net() const {
    return topo::MakeTopology(GetParam());
  }

  // Runs `measure` under each thread count and asserts all results compare
  // equal to the serial one via `same`.
  template <typename Fn, typename Eq>
  void ExpectInvariant(Fn measure, Eq same) {
    SetThreadCount(1);
    const auto serial = measure();
    for (int threads : {2, 7}) {
      SetThreadCount(threads);
      const auto parallel = measure();
      same(serial, parallel, threads);
    }
  }
};

TEST_P(ParallelDeterminism, ExactServerPathStats) {
  const auto net = Net();
  ExpectInvariant(
      [&] { return metrics::ExactServerPathStats(*net); },
      [](const metrics::ExactPathStats& a, const metrics::ExactPathStats& b,
         int threads) {
        EXPECT_EQ(a.diameter, b.diameter) << "threads=" << threads;
        // Bit-identical, not just close: same chunks, same merge order.
        EXPECT_EQ(a.average, b.average) << "threads=" << threads;
        EXPECT_EQ(a.pairs, b.pairs) << "threads=" << threads;
        EXPECT_EQ(a.connected, b.connected) << "threads=" << threads;
      });
}

TEST_P(ParallelDeterminism, SampledPathStats) {
  const auto net = Net();
  ExpectInvariant(
      [&] {
        Rng rng{kSeed};  // fresh stream per thread count
        return metrics::SamplePathStats(*net, 6, 12, rng);
      },
      [](const metrics::SampledPathStats& a, const metrics::SampledPathStats& b,
         int threads) {
        EXPECT_EQ(a.shortest.Buckets(), b.shortest.Buckets())
            << "threads=" << threads;
        EXPECT_EQ(a.routed.Buckets(), b.routed.Buckets())
            << "threads=" << threads;
        EXPECT_EQ(a.mean_stretch, b.mean_stretch) << "threads=" << threads;
        EXPECT_EQ(a.diameter_lower_bound, b.diameter_lower_bound)
            << "threads=" << threads;
      });
}

TEST_P(ParallelDeterminism, SampledPairCuts) {
  const auto net = Net();
  ExpectInvariant(
      [&] {
        Rng rng{kSeed + 1};
        return metrics::SampledPairCuts(*net, 10, rng);
      },
      [](const metrics::PairCutStats& a, const metrics::PairCutStats& b,
         int threads) {
        EXPECT_EQ(a.cuts.Buckets(), b.cuts.Buckets()) << "threads=" << threads;
        EXPECT_EQ(a.min_cut, b.min_cut) << "threads=" << threads;
        EXPECT_EQ(a.mean_cut, b.mean_cut) << "threads=" << threads;
      });
}

// With pairs in [S-1, 2(S-1)), one thread answers from the servers-only cut
// tree while 2 and 7 threads take the per-pair batch path, so this compares
// the two paths bit for bit.
TEST_P(ParallelDeterminism, SampledPairCutsTreeVsBatch) {
  const auto net = Net();
  const std::size_t pairs =
      net->ServerCount() - 1 + (net->ServerCount() - 1) / 2;
  ExpectInvariant(
      [&] {
        Rng rng{kSeed + 4};
        return metrics::SampledPairCuts(*net, pairs, rng);
      },
      [](const metrics::PairCutStats& a, const metrics::PairCutStats& b,
         int threads) {
        EXPECT_EQ(a.cuts.Buckets(), b.cuts.Buckets()) << "threads=" << threads;
        EXPECT_EQ(a.min_cut, b.min_cut) << "threads=" << threads;
        EXPECT_EQ(a.mean_cut, b.mean_cut) << "threads=" << threads;
      });
}

TEST_P(ParallelDeterminism, ResilienceTrials) {
  const auto net = Net();
  ExpectInvariant(
      [&] {
        Rng rng{kSeed + 2};
        graph::FailureSet failures{net->Network()};
        failures.KillNode(net->Servers()[0]);
        const double pair_fraction =
            metrics::PairDisconnectionFraction(*net, failures, 64, rng);
        const double worst =
            metrics::WorstSingleSwitchDisconnection(*net, 32, 5, rng);
        return std::pair{pair_fraction, worst};
      },
      [](const std::pair<double, double>& a, const std::pair<double, double>& b,
         int threads) {
        EXPECT_EQ(a.first, b.first) << "threads=" << threads;
        EXPECT_EQ(a.second, b.second) << "threads=" << threads;
      });
}

TEST_P(ParallelDeterminism, NativeRoutesAndFairRates) {
  const auto net = Net();
  ExpectInvariant(
      [&] {
        Rng rng{kSeed + 3};
        const std::vector<sim::Flow> flows = sim::PermutationTraffic(*net, rng);
        const std::vector<routing::Route> routes = sim::NativeRoutes(*net, flows);
        const sim::FlowSimResult rates =
            sim::MaxMinFairRates(net->Network(), routes);
        return std::pair{routes, rates.aggregate};
      },
      [](const auto& a, const auto& b, int threads) {
        ASSERT_EQ(a.first.size(), b.first.size()) << "threads=" << threads;
        for (std::size_t f = 0; f < a.first.size(); ++f) {
          ASSERT_EQ(a.first[f].hops, b.first[f].hops)
              << "flow " << f << " threads=" << threads;
        }
        EXPECT_EQ(a.second, b.second) << "threads=" << threads;
      });
}

INSTANTIATE_TEST_SUITE_P(Fixtures, ParallelDeterminism,
                         ::testing::Values("abccc:n=3,k=2,c=2",
                                           "bcube:n=3,k=1",
                                           "dcell:n=3,k=1",
                                           "fattree:k=4"));

// --- Rng::Fork(index) stream contract -------------------------------------

TEST(RngForkStreams, IndexForkDoesNotAdvanceParent) {
  Rng parent{99};
  Rng probe{99};
  (void)parent.Fork(0);
  (void)parent.Fork(17);
  // The parent's own stream is untouched by indexed forks.
  EXPECT_EQ(parent(), probe());
}

TEST(RngForkStreams, IndexForkIsAPureFunctionOfStateAndIndex) {
  const Rng parent{123};
  Rng a = parent.Fork(5);
  Rng b = parent.Fork(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
}

TEST(RngForkStreams, DistinctIndicesGiveIndependentStreams) {
  const Rng parent{7};
  // First outputs of 1000 sibling streams should essentially never collide.
  std::set<std::uint64_t> first_outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    Rng stream = parent.Fork(i);
    first_outputs.insert(stream());
  }
  EXPECT_EQ(first_outputs.size(), 1000u);

  // And adjacent streams must not be shifted copies of each other.
  Rng s0 = parent.Fork(0);
  Rng s1 = parent.Fork(1);
  (void)s1();  // offset by one draw
  int matches = 0;
  for (int i = 0; i < 64; ++i) {
    if (s0() == s1()) ++matches;
  }
  EXPECT_LT(matches, 4);
}

TEST(RngForkStreams, IndexedAndMutatingForksCoexist) {
  Rng parent{2024};
  const Rng snapshot = parent;
  Rng mutating = parent.Fork();       // advances parent
  Rng indexed = snapshot.Fork(0);     // does not
  // The two derivation paths give different streams (no accidental aliasing).
  int matches = 0;
  for (int i = 0; i < 64; ++i) {
    if (mutating() == indexed()) ++matches;
  }
  EXPECT_LT(matches, 4);
}

}  // namespace
}  // namespace dcn
