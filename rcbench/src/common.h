// Shared pieces of the benchmark binary: its own seeded generator (so a
// change to the library's data generators cannot change the inputs), order
// statistics, process counters, and the outcome every workload hands back.
#ifndef RCBENCH_COMMON_H_
#define RCBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rcbench {

/// xoshiro256** seeded through splitmix64: the same seed gives the same
/// stream on every platform and standard library.
class Rand {
 public:
  explicit Rand(uint64_t seed);

  uint64_t Next();
  /// Uniform double in [0, 1) with 53 random bits.
  double Uniform01() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform01(); }
  /// Uniform integer in [0, n); n must be positive.
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

 private:
  uint64_t s_[4];
};

/// Seed of input stream `stream` (data, queries, writes, ...) of a run
/// started with `seed`; streams never share state.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Zipf(theta) over [0, n): index 0 is drawn most often.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta);
  size_t Sample(Rand& rng) const;

 private:
  std::vector<double> cdf_;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (0 for an empty sample).
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();
/// Bytes this process has passed to write(2) so far (/proc/self/io wchar).
uint64_t ProcWriteBytes();
/// Total size of the regular files under `dir`.
uint64_t TreeBytes(const std::string& dir);

/// One reported figure with the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// What one workload run hands back: operation tallies, the first few
/// check violations (for stderr), and every figure it measured.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when an operation that did not fail returned a wrong answer, or
  /// an invariant of the run (no structure built while timed, every
  /// acknowledged write recovered) broke.
  bool correct = true;
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Keeps the first few problem descriptions; a wrong answer also clears
  /// `correct`. Callers count failed operations themselves.
  void Problem(const std::string& what, bool wrong_answer);
  /// `<prefix>_p50_ms` and, from 1000 samples on (ten beyond the p99),
  /// `<prefix>_p99_ms` of latencies given in nanoseconds.
  void Latencies(const std::string& prefix, const std::vector<double>& ns);
};

}  // namespace rcbench

#endif  // RCBENCH_COMMON_H_
