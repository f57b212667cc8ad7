#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace rcbench {

namespace {

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rand::Rand(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix(&seed);
}

uint64_t Rand::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x2545F4914F6CDD1Dull + stream;
  return SplitMix(&x);
}

ZipfSampler::ZipfSampler(size_t n, double theta) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfSampler::Sample(Rand& rng) const {
  double u = rng.Uniform01();
  size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(i, cdf_.size() - 1);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t ProcWriteBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void Outcome::Problem(const std::string& what, bool wrong_answer) {
  if (wrong_answer) correct = false;
  if (problems.size() < 10) problems.push_back(what);
}

void Outcome::Latencies(const std::string& prefix,
                        const std::vector<double>& ns) {
  const uint64_t n = ns.size();
  if (n == 0) return;
  Set(prefix + "_p50_ms", Quantile(ns, 0.5) * 1e-6, "ms", n);
  // The p99 has at least ten samples beyond it from 1000 samples on.
  if (n >= 1000) Set(prefix + "_p99_ms", Quantile(ns, 0.99) * 1e-6, "ms", n);
}

}  // namespace rcbench
