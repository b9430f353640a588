// Deterministic random number generation for workloads and simulations.
//
// Every stochastic component takes an explicit seed so that experiments are
// reproducible run-to-run; nothing in the library reads global entropy.
#pragma once

#include <cmath>
#include <cstdint>
// This header is the seeded wrapper every random stream goes through.
#include <random>  // silo-analyze: allow(banned-include)

namespace silo {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential with the given mean (inter-arrival times of a Poisson
  /// process of rate 1/mean).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Generalized Pareto with location mu, scale sigma, shape xi — the
  /// distribution Facebook's ETC trace analysis fits to value sizes and
  /// inter-arrival gaps (Atikoglu et al., SIGMETRICS 2012).
  double generalized_pareto(double mu, double sigma, double xi) {
    const double u = 1.0 - uniform();  // in (0, 1]
    if (std::abs(xi) < 1e-12) return mu - sigma * std::log(u);
    return mu + sigma * (std::pow(u, -xi) - 1.0) / xi;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace silo
