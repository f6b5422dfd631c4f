#include "matching/heuristics.hpp"

#include <algorithm>

namespace minim::matching {

MatchingResult greedy_matching(const BipartiteGraph& g) {
  MatchingResult result;
  result.left_to_right.assign(g.left_size(), MatchingResult::kUnmatched);
  std::vector<char> right_used(g.right_size(), 0);
  // One row-major sweep per distinct weight, heaviest first, so edges are
  // taken by descending weight, then left id, then right id.
  for (Weight level = g.max_weight(), next = 0; level > 0; level = next, next = 0) {
    for (std::uint32_t l = 0; l < g.left_size(); ++l)
      for (std::uint32_t r = 0; r < g.right_size(); ++r) {
        const Weight w = g.row(l)[r];
        if (w < level) next = std::max(next, w);
        if (w != level || result.left_to_right[l] != MatchingResult::kUnmatched ||
            right_used[r])
          continue;
        result.left_to_right[l] = r;
        right_used[r] = 1;
        result.total_weight += w;
      }
  }
  return result;
}

}  // namespace minim::matching
