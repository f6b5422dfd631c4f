#include "matching/hungarian.hpp"

#include <limits>
#include <vector>

namespace minim::matching {

MatchingResult max_weight_matching(const BipartiteGraph& g) {
  const std::size_t n = g.left_size();   // rows
  MatchingResult result;
  result.left_to_right.assign(n, MatchingResult::kUnmatched);
  if (n == 0) return result;

  // Pad columns so a row-perfect assignment always exists: columns
  // [0, R) are real right vertices, [R, R+n) are per-row dummy slots.
  const std::size_t r_real = g.right_size();
  const std::size_t m = r_real + n;

  // Costs: minimize (w_max - w), read straight off the weight matrix.  Non-
  // edges (w = 0) and dummy slots cost w_max, so they are used only when
  // unavoidable.
  const Weight w_max = g.max_weight();
  if (w_max == 0) return result;  // no edges at all

  constexpr Weight kInf = std::numeric_limits<Weight>::max() / 4;

  // e-maxx formulation with 1-based potentials; p[j] = row matched to col j.
  // The buffers are reused across calls, one set per thread.
  thread_local std::vector<Weight> u, v, minv;
  thread_local std::vector<std::size_t> p, way;  // p: 0 = free column
  thread_local std::vector<char> used;
  u.assign(n + 1, 0);
  v.assign(m + 1, 0);
  p.assign(m + 1, 0);
  way.assign(m + 1, 0);

  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    minv.assign(m + 1, kInf);
    used.assign(m + 1, 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = p[j0];
      Weight delta = kInf;
      std::size_t j1 = 0;
      const Weight* row = g.row(static_cast<std::uint32_t>(i0 - 1)).data();
      const Weight ui = u[i0];
      for (std::size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const Weight cur = w_max - (j <= r_real ? row[j - 1] : 0) - ui - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    // Augment along the alternating path.
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  for (std::size_t j = 1; j <= m; ++j) {
    if (p[j] == 0) continue;
    const std::size_t i = p[j] - 1;
    if (j > r_real) continue;                          // dummy slot: unmatched
    const Weight w = g.weight(static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j - 1));
    if (w <= 0) continue;                              // zero-cost non-edge
    result.left_to_right[i] = static_cast<std::uint32_t>(j - 1);
    result.total_weight += w;
  }
  return result;
}

}  // namespace minim::matching
