// Deterministic pseudo-random number generation for simulation and search.
//
// Every stochastic component in this repository draws from an avis::util::Rng
// seeded from the experiment description, so that a simulation is a pure
// function of (firmware personality, workload, fault plan, seed). This is
// what makes the replayer and docs/CONFORMANCE.md's golden exact.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace avis::util {

// SplitMix64: tiny, fast, and statistically strong enough for sensor noise
// and randomized search. Chosen over std::mt19937_64 because its state is a
// single u64, which makes forking independent per-subsystem streams trivial
// and keeps experiment descriptions serializable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  // Next raw 64-bit value.
  std::uint64_t next_u64() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t next_below(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless bounded generation.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto l = static_cast<std::uint64_t>(m);
    if (l < n) {
      const std::uint64_t t = (0 - n) % n;
      while (l < t) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Standard normal via Marsaglia polar method.
  double next_gaussian() noexcept {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    has_spare_ = true;
    return u * mul;
  }

  // Gaussian with the given standard deviation.
  double gaussian(double stddev) noexcept { return next_gaussian() * stddev; }

  // Bernoulli trial.
  bool chance(double p) noexcept { return next_double() < p; }

  // Derive an independent stream; used to give each subsystem (sensor noise,
  // scheduler tie-breaks, ...) its own RNG so that adding draws in one
  // subsystem does not perturb another.
  Rng fork(std::uint64_t stream_id) noexcept {
    return Rng(next_u64() ^ (0xa0761d6478bd642fULL * (stream_id + 1)));
  }

 private:
  // The whole stream position, so a copy is a mid-stream snapshot
  // (experiment checkpoints hold Rng values). The cached Marsaglia spare
  // gaussian is part of it: dropping it would shift every draw after an odd
  // number of next_gaussian() calls.
  std::uint64_t state_;
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace avis::util
