#include "cache/feedback.h"

#include <algorithm>
#include <cmath>

namespace rankcube {

namespace {

/// EWMA smoothing weight in log space; higher adapts faster, lower resists
/// noise.
constexpr double kAlpha = 0.25;
/// Clamp range of the multiplicative correction factor.
constexpr double kMinFactor = 0.1;
constexpr double kMaxFactor = 10.0;

}  // namespace

std::string CostFeedback::Family(const std::string& engine) {
  if (engine == "grid" || engine == "fragments") return "grid";
  if (engine == "signature" || engine == "signature_lossy") return "signature";
  return engine;
}

double CostFeedback::Correction(const std::string& engine) const {
  if (!enabled()) return 1.0;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = state_.find(Family(engine));
  if (it == state_.end()) return 1.0;
  return std::clamp(std::exp(it->second.first), kMinFactor, kMaxFactor);
}

void CostFeedback::Observe(const std::string& engine, double estimated_pages,
                           double measured_pages) {
  if (!enabled()) return;
  double residual = std::log(std::max(measured_pages, 1.0) /
                             std::max(estimated_pages, 1.0));
  std::lock_guard<std::mutex> lock(mu_);
  auto& [log_c, count] = state_[Family(engine)];
  log_c += kAlpha * residual;
  log_c = std::clamp(log_c, std::log(kMinFactor), std::log(kMaxFactor));
  ++count;
}

std::map<std::string, CostFeedback::FamilyState> CostFeedback::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, FamilyState> out;
  for (const auto& [family, state] : state_) {
    out[family] = {std::clamp(std::exp(state.first), kMinFactor, kMaxFactor),
                   state.second};
  }
  return out;
}

void CostFeedback::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  state_.clear();
}

}  // namespace rankcube
