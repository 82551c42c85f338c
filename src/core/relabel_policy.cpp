#include "core/relabel_policy.hpp"

#include <algorithm>
#include <cmath>

namespace bpm::gpu {

std::int64_t next_global_relabel_loop(const GprOptions& options,
                                      graph::index_t max_level,
                                      std::int64_t loop) {
  double interval = 0.0;
  switch (options.strategy) {
    case RelabelStrategy::kFixed:
      interval = options.k;
      break;
    case RelabelStrategy::kAdaptive:
      interval = options.k * static_cast<double>(max_level);
      break;
  }
  // Clamped before the conversion, so a huge k means "rarely" rather than
  // an out-of-range llround.
  constexpr double kMaxInterval = 1e15;
  return loop + static_cast<std::int64_t>(
                    std::llround(std::clamp(interval, 1.0, kMaxInterval)));
}

}  // namespace bpm::gpu
