#ifndef PERFBENCH_TRACE_TIMED_MODEL_H_
#define PERFBENCH_TRACE_TIMED_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/detector.h"
#include "core/mace_detector.h"

namespace perfbench::trace {

/// \brief A core::ServingModel that forwards every call to a fitted
/// MaceDetector and records a span around the two calls the serving path
/// makes per observation and per due window: "scale" (ScaleObservation)
/// and "kernel" (ScoreWindow / ScoreWindowBatch), counting the windows
/// scored. Scores are the detector's own, so the serve path's outputs are
/// unchanged.
class TimedModel : public mace::core::ServingModel {
 public:
  explicit TimedModel(std::shared_ptr<const mace::core::MaceDetector> inner)
      : inner_(std::move(inner)) {}

  uint64_t kernel_calls() const { return kernel_calls_.load(); }
  uint64_t kernel_windows() const { return kernel_windows_.load(); }

  std::string name() const override { return inner_->name(); }
  bool fitted() const override { return inner_->fitted(); }
  int window() const override { return inner_->window(); }
  int score_stride() const override { return inner_->score_stride(); }
  int num_features() const override { return inner_->num_features(); }
  int num_services() const override { return inner_->num_services(); }
  mace::ts::NonFinitePolicy non_finite_policy() const override {
    return inner_->non_finite_policy();
  }
  std::vector<double> ImputationFallback(int service_index) const override {
    return inner_->ImputationFallback(service_index);
  }
  mace::Result<std::vector<double>> ScaleObservation(
      int service_index, const std::vector<double>& row) const override;
  mace::Result<std::vector<double>> ScoreWindow(
      int service_index,
      const std::vector<std::vector<double>>& scaled_rows) const override;
  mace::Result<std::vector<std::vector<double>>> ScoreWindowBatch(
      int service_index,
      const std::vector<std::vector<std::vector<double>>>& windows)
      const override;
  mace::Result<std::shared_ptr<const mace::core::ServingModel>> OnboardService(
      const mace::ts::TimeSeries& train) const override {
    return inner_->OnboardService(train);
  }
  mace::Status Save(const std::string& path) const override {
    return inner_->Save(path);
  }

 private:
  std::shared_ptr<const mace::core::MaceDetector> inner_;
  mutable std::atomic<uint64_t> kernel_calls_{0};
  mutable std::atomic<uint64_t> kernel_windows_{0};
};

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_TIMED_MODEL_H_
