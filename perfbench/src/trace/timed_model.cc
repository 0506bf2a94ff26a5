#include "trace/timed_model.h"

#include "probe.h"

namespace perfbench::trace {

mace::Result<std::vector<double>> TimedModel::ScaleObservation(
    int service_index, const std::vector<double>& row) const {
  PERFBENCH_SPAN("scale");
  return inner_->ScaleObservation(service_index, row);
}

mace::Result<std::vector<double>> TimedModel::ScoreWindow(
    int service_index,
    const std::vector<std::vector<double>>& scaled_rows) const {
  PERFBENCH_SPAN("kernel");
  kernel_calls_.fetch_add(1, std::memory_order_relaxed);
  kernel_windows_.fetch_add(1, std::memory_order_relaxed);
  return inner_->ScoreWindow(service_index, scaled_rows);
}

mace::Result<std::vector<std::vector<double>>> TimedModel::ScoreWindowBatch(
    int service_index,
    const std::vector<std::vector<std::vector<double>>>& windows) const {
  PERFBENCH_SPAN("kernel");
  kernel_calls_.fetch_add(1, std::memory_order_relaxed);
  kernel_windows_.fetch_add(windows.size(), std::memory_order_relaxed);
  return inner_->ScoreWindowBatch(service_index, windows);
}

}  // namespace perfbench::trace
