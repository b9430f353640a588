// Shared helpers for the experiment benches: a tiny --key=value flag
// parser (every bench must also run sensibly with no arguments), common
// printing utilities, and a minimal JSON writer for machine-readable
// BENCH_*.json result files (--json mode).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/manifest.h"
#include "util/stats.h"

namespace silo::bench {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "1";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  double get(const std::string& key, double fallback) const {
    return number(key, fallback);
  }

  std::int64_t geti(const std::string& key, std::int64_t fallback) const {
    return number(key, fallback);
  }

  std::string gets(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  /// The whole value as a T. A malformed one ("2k", "abc") exits 2 naming
  /// the flag, instead of running with its numeric prefix or 0.
  template <class T>
  T number(const std::string& key, T fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    T out{};
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || end != v.data() + v.size()) {
      std::fprintf(stderr, "error: --%s=%s is not a number\n", key.c_str(),
                   v.c_str());
      std::exit(2);
    }
    return out;
  }

  std::map<std::string, std::string> values_;
};

inline void print_header(const char* experiment, const char* description) {
  const char* rule =
      "=============================================================";
  std::printf("%s\n%s\n%s\n%s\n", rule, experiment, description, rule);
}

/// Insertion-ordered JSON object builder. Values are rendered on insert;
/// nesting works by putting another JsonObject. Keys/strings are assumed
/// not to need escaping (bench identifiers only).
class JsonObject {
 public:
  JsonObject& put(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.8g", v);
    return raw(key, buf);
  }
  JsonObject& put(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& put(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& put(const std::string& key, int v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& put(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& put(const std::string& key, const JsonObject& obj) {
    return raw(key, obj.str());
  }
  JsonObject& put(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& put(const std::string& key, const std::vector<JsonObject>& arr) {
    std::string out = "[";
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) out += ", ";
      out += arr[i].str();
    }
    return raw(key, out + "]");
  }

  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  JsonObject& raw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Write `obj` to `path` (pretty enough for diffing: one line). Returns
/// false and prints a warning on IO failure.
inline bool write_json_file(const std::string& path, const JsonObject& obj) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string body = obj.str();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Handle the shared --metrics-json[=<path>] flag: write the versioned run
/// manifest (obs/manifest.h) with the bench's seed, topology, params and a
/// metrics snapshot taken while the simulation was alive. A bare
/// --metrics-json defaults the path to "BENCH_<bench>.manifest.json".
/// No-op when the flag is absent.
inline void maybe_write_manifest(
    const Flags& flags, const obs::RunManifest& m,
    const std::vector<obs::MetricSample>& metrics = {}) {
  if (!flags.has("metrics-json")) return;
  std::string path = flags.gets("metrics-json", "");
  if (path.empty() || path == "1")
    path = "BENCH_" + m.bench + ".manifest.json";
  // stderr: benches may be piping machine-readable output on stdout
  // (e.g. bench_micro_ops --benchmark_format=json > out.json).
  if (obs::write_manifest(path, m, metrics)) {
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }
}

}  // namespace silo::bench
