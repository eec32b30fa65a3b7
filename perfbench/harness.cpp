#include "harness.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

void put_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

/// Every digit of a measured value (JSON has no NaN or infinity).
void put_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

Samples Tracer::durations(const std::string& name) const {
  Samples out;
  std::lock_guard lock(mu_);
  for (const SpanBuffer& b : bufs_)
    for (const SpanRecord& s : b.spans())
      if (s.end_ns != 0 && name == s.name)
        out.add(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

std::map<std::string, std::pair<double, std::size_t>> Tracer::self_times()
    const {
  std::map<std::string, std::pair<double, std::size_t>> out;
  std::lock_guard lock(mu_);
  for (const SpanBuffer& b : bufs_) {
    const std::vector<SpanRecord>& spans = b.spans();
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
      self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].parent >= 0)
        self[static_cast<std::size_t>(spans[i].parent)] -= self[i];
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].end_ns == 0) continue;
      auto& [secs, count] = out[spans[i].name];
      secs += self[i] * 1e-9;
      ++count;
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const SpanBuffer& b : bufs_) n += b.spans().size();
  return n;
}

std::size_t Tracer::dropped() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const SpanBuffer& b : bufs_) n += b.dropped();
  return n;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  std::lock_guard lock(mu_);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanBuffer& b : bufs_) {
    for (std::size_t i = 0; i < b.spans().size(); ++i) {
      const SpanRecord& s = b.spans()[i];
      if (s.end_ns == 0) continue;
      os << (first ? "\n" : ",\n");
      first = false;
      os << "{\"name\":";
      put_string(os, s.name);
      os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << b.tid() << ",\"ts\":";
      put_number(os, static_cast<double>(s.start_ns) * 1e-3);
      os << ",\"dur\":";
      put_number(os, static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      os << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"request\":" << s.request << "}}";
    }
  }
  os << "\n]}\n";
}

void progress(const std::string& what) {
  char stamp[32];
  std::snprintf(stamp, sizeof stamp, "[%7.2f s] ",
                seconds_between(kProcessStart, Clock::now()));
  std::cout << stamp << what << std::endl;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

void write_result_json(const Result& r, const std::string& path) {
  std::ofstream os(path);
  os << "{\"workload\":";
  put_string(os, r.workload);
  os << ",\"seed\":" << r.seed << ",\"trace\":" << (r.trace ? 1 : 0)
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i) os << ',';
    put_string(os, r.failures[i]);
  }
  os << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) os << ',';
    first = false;
    put_string(os, name);
    os << ":{\"value\":";
    put_number(os, m.value);
    os << ",\"unit\":";
    put_string(os, m.unit);
    os << '}';
  }
  const auto put_counts = [&os](const std::map<std::string, std::uint64_t>& m) {
    os << '{';
    bool f = true;
    for (const auto& [k, v] : m) {
      if (!f) os << ',';
      f = false;
      put_string(os, k);
      os << ':' << v;
    }
    os << '}';
  };
  os << "},\"sample_counts\":";
  put_counts(r.sample_counts);
  os << ",\"pins\":";
  put_counts(r.pins);
  os << ",\"self_time_s\":{";
  first = true;
  for (const auto& [name, st] : r.self_time) {
    if (!first) os << ',';
    first = false;
    put_string(os, name);
    os << ":{\"seconds\":";
    put_number(os, st.first);
    os << ",\"spans\":" << st.second << '}';
  }
  os << "},\"build\":{";
  first = true;
  for (const auto& [k, v] : r.build) {
    if (!first) os << ',';
    first = false;
    put_string(os, k);
    os << ':';
    put_string(os, v);
  }
  os << "}}\n";
}

}  // namespace perfbench
