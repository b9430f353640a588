#include "obs/metrics.h"

#include <stdexcept>

namespace silo::obs {

const char* metric_type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

void MetricsRegistry::check_new_name(const std::string& name) const {
  if (name.empty())
    throw std::invalid_argument("metric name must not be empty");
  for (const Def& d : defs_) {
    if (d.name == name)
      throw std::invalid_argument("duplicate metric name: " + name);
  }
}

Counter MetricsRegistry::counter(const std::string& name,
                                 const std::string& unit,
                                 const std::string& owner) {
  check_new_name(name);
  cells_.push_back(0);
  defs_.push_back(
      {name, unit, owner, MetricType::kCounter, &cells_.back(), nullptr});
  return Counter(&cells_.back());
}

Gauge MetricsRegistry::gauge(const std::string& name, const std::string& unit,
                             const std::string& owner) {
  check_new_name(name);
  cells_.push_back(0);
  defs_.push_back(
      {name, unit, owner, MetricType::kGauge, &cells_.back(), nullptr});
  return Gauge(&cells_.back());
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     const std::string& unit,
                                     const std::string& owner,
                                     std::vector<double> bounds) {
  check_new_name(name);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1])
      throw std::invalid_argument(
          "histogram bounds must be strictly increasing: " + name);
  }
  hists_.emplace_back();
  HistogramState& h = hists_.back();
  h.bounds = std::move(bounds);
  h.counts.assign(h.bounds.size() + 1, 0);
  defs_.push_back({name, unit, owner, MetricType::kHistogram, nullptr, &h});
  return Histogram(&h);
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(defs_.size());
  for (const Def& d : defs_) {
    // Histograms are copied: samples outlive the registry.
    out.push_back({d.name, d.type, d.unit, d.owner, d.cell ? *d.cell : 0,
                   d.hist ? std::optional(*d.hist) : std::nullopt});
  }
  return out;
}

std::int64_t metric_value(const std::vector<MetricSample>& snapshot,
                          const std::string& name) {
  for (const MetricSample& m : snapshot) {
    if (m.name == name) {
      if (m.type == MetricType::kHistogram)
        throw std::invalid_argument("metric is a histogram: " + name);
      return m.value;
    }
  }
  throw std::invalid_argument("unknown metric: " + name);
}

std::int64_t MetricsRegistry::value(const std::string& name) const {
  return metric_value(snapshot(), name);
}

bool MetricsRegistry::has(const std::string& name) const {
  for (const Def& d : defs_)
    if (d.name == name) return true;
  return false;
}

}  // namespace silo::obs
