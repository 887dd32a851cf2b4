// Level-permutation strategies for ABCCC digit-fixing routing.
//
// ABCCC routing fixes the differing address digits one level at a time; the
// *order* decides how many crossbar repositioning hops the route pays and how
// traffic spreads over the level switches. The companion paper ("Permutation
// Generation for Routing in BCube Connected Crossbars", ICC 2015) studies
// exactly this choice for BCCC; these are the strategies it motivates,
// generalized to any c.
#pragma once

#include <vector>

#include "common/rng.h"
#include "topology/abccc.h"

namespace dcn::routing {

enum class PermutationStrategy {
  // Ascending level order. Already groups levels by agent role (agents own
  // consecutive levels) but ignores where src/dst sit in the row.
  kSequential,
  // Grouped by agent role with the source's group first and the
  // destination's last: minimizes crossbar hops for a single flow. This is
  // GeneralAbccc::DefaultLevelOrder and the library default.
  kGroupedFromSource,
  // Uniformly random order: pays extra crossbar hops but decorrelates link
  // usage across flows (the load-balancing end of the trade-off).
  kRandom,
  // Deterministic rotation of the ascending order keyed on (src, dst): every
  // server pair always picks the same order (no coordination, no RNG), but
  // distinct pairs start at different levels, spreading load across planes.
  // The stateless compromise between kGroupedFromSource and kRandom.
  kBalancedHash,
};

const char* ToString(PermutationStrategy strategy);

// The order in which to fix the levels where src and dst differ. `rng` is
// required for kRandom and ignored otherwise.
std::vector<int> MakeLevelOrder(const topo::Abccc& net,
                                const topo::AbcccAddress& src,
                                const topo::AbcccAddress& dst,
                                PermutationStrategy strategy,
                                Rng* rng = nullptr);

}  // namespace dcn::routing
