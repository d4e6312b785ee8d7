// In-memory span store for the traced run, written once at exit as Chrome
// trace-event JSON (opens in chrome://tracing or Perfetto) with a self-time
// table: a span's self time is its duration minus the time its direct
// children cover.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace avis::campaignbench {

struct Span {
  std::string name;
  std::string cat;
  int tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index of the causing span, -1 for a root
  std::vector<std::pair<std::string, double>> args;
};

struct SelfTimeRow {
  std::string name;
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Trace {
 public:
  int add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  Span& at(int id) { return spans_[static_cast<std::size_t>(id)]; }

  // Self time by span name, largest first.
  std::vector<SelfTimeRow> self_time() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, SelfTimeRow> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
      SelfTimeRow& row = rows[spans_[i].name];
      row.name = spans_[i].name;
      row.count += 1;
      row.total_ms += static_cast<double>(dur) / 1e6;
      row.self_ms += static_cast<double>(std::max<std::int64_t>(0, dur - child_ns[i])) / 1e6;
    }
    std::vector<SelfTimeRow> out;
    for (auto& [name, row] : rows) out.push_back(row);
    std::sort(out.begin(), out.end(),
              [](const SelfTimeRow& a, const SelfTimeRow& b) { return a.self_ms > b.self_ms; });
    return out;
  }

  // `other_data` is a JSON object body (without braces) recorded as the
  // document's otherData; times are microseconds from `origin_ns`.
  bool write_chrome(const std::string& path, const std::string& other_data,
                    std::int64_t origin_ns) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {" << other_data
       << ",\n\"self_time_ms\": [";
    bool first = true;
    for (const SelfTimeRow& row : self_time()) {
      os << (first ? "\n" : ",\n") << "  {\"name\": \"" << row.name << "\", \"count\": "
         << row.count << ", \"total_ms\": " << row.total_ms << ", \"self_ms\": " << row.self_ms
         << "}";
      first = false;
    }
    os << "]},\n\"traceEvents\": [";
    first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      os << (first ? "\n" : ",\n") << "{\"name\": \"" << span.name << "\", \"cat\": \""
         << span.cat << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.tid
         << ", \"ts\": " << static_cast<double>(span.start_ns - origin_ns) / 1e3
         << ", \"dur\": " << static_cast<double>(span.end_ns - span.start_ns) / 1e3
         << ", \"args\": {\"id\": " << i << ", \"parent\": " << span.parent;
      for (const auto& [key, value] : span.args) os << ", \"" << key << "\": " << value;
      os << "}}";
      first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace avis::campaignbench
