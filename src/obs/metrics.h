// MetricsRegistry: the observability layer's named-metric store.
//
// Metrics are registered once (cold path, by name) and updated through
// cached handles — a handle is one pointer into registry-owned stable
// storage, so the hot path is a single add/store with no map lookup, no
// lock and no allocation. A default-constructed handle points at a
// process-wide sink cell: components can update their metrics
// unconditionally, wired or not, without a branch.
//
// Three metric kinds:
//   Counter   — monotonically increasing int64 (events, bytes)
//   Gauge     — settable int64, with a set_max convenience for peaks
//   Histogram — fixed buckets chosen at registration; recording a sample
//               is a short linear scan over the bucket bounds
//
// The catalog (docs/OBSERVABILITY.md) lists every registered name; CI
// greps the catalog against the registration literals in src/.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

namespace silo::obs {

namespace detail {
/// Sink cells for unwired handles. Per-thread, not process-global: a
/// default-constructed handle binds the sink of the thread that created
/// it, and handles are confined to the thread that runs their component
/// (one island runs on exactly one thread per window), so the unwired
/// fast path stays a single unconditional add with no data race under
/// parallel islands. The values are meaningless and never read.
inline thread_local std::int64_t sink_cell = 0;
struct SinkHist;
SinkHist& sink_hist();
}  // namespace detail

class MetricsRegistry;

class Counter {
 public:
  Counter() : cell_(&detail::sink_cell) {}
  void inc(std::int64_t n = 1) { *cell_ += n; }
  std::int64_t value() const { return *cell_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::int64_t* cell) : cell_(cell) {}
  std::int64_t* cell_;
};

class Gauge {
 public:
  Gauge() : cell_(&detail::sink_cell) {}
  void set(std::int64_t v) { *cell_ = v; }
  void set_max(std::int64_t v) {
    if (v > *cell_) *cell_ = v;
  }
  std::int64_t value() const { return *cell_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::int64_t* cell) : cell_(cell) {}
  std::int64_t* cell_;
};

/// Backing state of one histogram. `bounds` are upper-inclusive bucket
/// edges; a final overflow bucket catches everything above the last edge,
/// so `counts.size() == bounds.size() + 1`.
struct HistogramState {
  std::vector<double> bounds;
  std::vector<std::int64_t> counts;
  std::int64_t count = 0;
  double sum = 0;
};

namespace detail {
struct SinkHist {
  HistogramState state;
  SinkHist() { state.counts.resize(1); }
};
inline SinkHist& sink_hist() {
  // Write-only per-thread sink for unwired Histogram handles; never read.
  // thread_local for the same confinement argument as sink_cell above.
  static thread_local SinkHist s;
  return s;
}
}  // namespace detail

class Histogram {
 public:
  Histogram() : state_(&detail::sink_hist().state) {}
  void record(double v) {
    HistogramState& h = *state_;
    std::size_t i = 0;
    while (i < h.bounds.size() && v > h.bounds[i]) ++i;
    ++h.counts[i];
    ++h.count;
    h.sum += v;
  }
  const HistogramState& state() const { return *state_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(HistogramState* state) : state_(state) {}
  HistogramState* state_;
};

enum class MetricType { kCounter, kGauge, kHistogram };

const char* metric_type_name(MetricType t);

/// One metric's identity and current value, as returned by snapshot().
/// Histogram detail is copied out, so a snapshot stays valid after the
/// registry (e.g. a finished ClusterSim) is destroyed — benches snapshot
/// while the run is alive and write the manifest at exit.
struct MetricSample {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::string unit;   ///< "packets", "bytes", "ns", ...
  std::string owner;  ///< component that updates it ("port", "pacer", ...)
  std::int64_t value = 0;                ///< counter/gauge value
  std::optional<HistogramState> hist;    ///< histogram detail (else empty)
};

/// Value of the counter or gauge `name` in a snapshot (e.g. a cluster's
/// merged_metrics()); throws std::invalid_argument if the name is unknown
/// or a histogram.
std::int64_t metric_value(const std::vector<MetricSample>& snapshot,
                          const std::string& name);

/// Registration is cold-path and by unique name (duplicate names throw);
/// handle updates are the hot path. Cells live in deques so handles stay
/// valid as the registry grows.
class MetricsRegistry {
 public:
  Counter counter(const std::string& name, const std::string& unit,
                  const std::string& owner);
  Gauge gauge(const std::string& name, const std::string& unit,
              const std::string& owner);
  Histogram histogram(const std::string& name, const std::string& unit,
                      const std::string& owner, std::vector<double> bounds);

  /// Current value of every registered metric, in registration order.
  std::vector<MetricSample> snapshot() const;

  /// metric_value(snapshot(), name). Test/report convenience — not for hot
  /// paths.
  std::int64_t value(const std::string& name) const;

  bool has(const std::string& name) const;
  std::size_t size() const { return defs_.size(); }

 private:
  struct Def {
    std::string name, unit, owner;
    MetricType type = MetricType::kCounter;
    std::int64_t* cell = nullptr;
    HistogramState* hist = nullptr;
  };

  void check_new_name(const std::string& name) const;

  std::deque<std::int64_t> cells_;        ///< deque: stable addresses
  std::deque<HistogramState> hists_;
  std::vector<Def> defs_;
};

}  // namespace silo::obs
