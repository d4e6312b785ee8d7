// Shared worker-count policy for parallel checker campaigns.
#pragma once

#include <algorithm>
#include <thread>

namespace avis::util {

// Every hardware thread, capped at 8 — past that the checker's wave
// barrier tail dominates on the evaluation workload mix. Always >= 1
// (hardware_concurrency may report 0).
inline int default_worker_count() {
  return std::max(1, static_cast<int>(std::min(8u, std::thread::hardware_concurrency())));
}

// How a fixed hardware budget is divided between the two nested pool
// levels of a campaign: the campaign pool running whole (approach,
// personality, workload) cells concurrently, and each cell's experiment
// pool. campaign_workers * experiment_workers never exceeds the budget,
// so nested parallelism cannot oversubscribe the machine
// (docs/PERFORMANCE.md, "Campaign-level parallelism").
struct WorkerBudget {
  int campaign_workers = 1;    // cells simulated concurrently
  int experiment_workers = 1;  // experiment pool size inside each cell
};

// Favour cell-level parallelism: cells never synchronize, while experiment
// batches barrier at every wave boundary, so a worker spent on a cell buys
// more throughput than one spent inside a cell. Leftover workers (budget
// not divisible by the cell count) go to the experiment pools.
inline WorkerBudget split_worker_budget(int total_workers, int cells) {
  total_workers = std::max(1, total_workers);
  cells = std::max(1, cells);
  WorkerBudget split;
  split.campaign_workers = std::min(cells, total_workers);
  split.experiment_workers = std::max(1, total_workers / split.campaign_workers);
  return split;
}

}  // namespace avis::util
