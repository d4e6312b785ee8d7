// Default size of a campaign's worker pool.
#pragma once

#include <algorithm>
#include <thread>

namespace avis::util {

// Every hardware thread, capped at 8: a lone cell's request barriers leave
// more idle. A many-group grid on one pool could keep more busy, but only
// 4-vCPU hosts have measured it. Always >= 1 (hardware_concurrency may be 0).
inline int default_worker_count() {
  return std::max(1, static_cast<int>(std::min(8u, std::thread::hardware_concurrency())));
}

}  // namespace avis::util
