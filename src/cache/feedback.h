// True-cost planner feedback: per-engine-family multiplicative correction
// factors learned from measured query I/O.
//
// The analytic cost model (planner/cost_model.h) is parameterized on table
// geometry and selectivity, and on planner_test's mixed workload its
// estimates are off by ~1.4x geomean — fine for picking the cheapest of
// widely separated candidates, too coarse for admission page-budgets and
// partition scatter ordering. This class closes the loop: after every
// planner-routed (or forced) execution, RankCubeDb feeds (estimated pages,
// measured pages) back, and the planner multiplies later estimates of the
// same engine family by the learned correction.
//
// The correction is an EWMA in log space:
//
//   log_c  +=  alpha * log(measured / corrected_estimate)
//
// where corrected_estimate already includes the current correction — the
// observed plan estimate IS corrected, so the update drives the *residual*
// error to zero: at the fixed point, corrected estimates equal the measured
// geometric mean of the recent workload. Log space makes the factor
// symmetric (2x over and 2x under cancel) and matches the geomean metric
// planner_test's envelope case gates. Factors are clamped (feedback.cc
// holds alpha and the clamp as constants) so one wild observation (a cold
// cache, a pathological query) cannot poison routing. Feedback starts on;
// corrections start at 1.0, so routing is unchanged until measured I/O
// says otherwise.
//
// Families, not engines: grid and fragments share one cuboid cost shape,
// the two signature variants share another — pooling their observations
// converges faster and matches how the cost model's errors actually
// cluster. Everything else corrects under its own key.
//
// Thread-safety: internally synchronized (one mutex); Observe runs on the
// query path outside RankCubeDb's planning lock, Correction inside it.
#ifndef RANKCUBE_CACHE_FEEDBACK_H_
#define RANKCUBE_CACHE_FEEDBACK_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace rankcube {

class CostFeedback {
 public:
  /// The correction family an engine key pools its observations under.
  static std::string Family(const std::string& engine);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Runtime kill switch: while false, Correction() is 1 and Observe() is a
  /// no-op; the learned state is kept and resumes on re-enable (benches use
  /// this to measure the uncorrected cost model on a live db).
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Current multiplicative correction for `engine`'s family (1.0 when no
  /// observation exists or feedback is disabled).
  double Correction(const std::string& engine) const;

  /// Feeds one execution back. `estimated_pages` is the plan's estimate
  /// (already corrected), `measured_pages` the session's physical reads.
  /// Non-positive values clamp to 1 page, mirroring the geomean metric.
  void Observe(const std::string& engine, double estimated_pages,
               double measured_pages);

  struct FamilyState {
    double correction = 1.0;
    uint64_t observations = 0;
  };
  /// Snapshot per family, for STATS and tests.
  std::map<std::string, FamilyState> Snapshot() const;

  void Reset();

 private:
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  /// family -> (log correction, observation count); guarded by mu_.
  std::map<std::string, std::pair<double, uint64_t>> state_;
};

}  // namespace rankcube

#endif  // RANKCUBE_CACHE_FEEDBACK_H_
