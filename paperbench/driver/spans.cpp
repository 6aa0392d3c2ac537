#include "spans.hpp"

#include <iomanip>
#include <stdexcept>

namespace paperbench {

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

int SpanLog::track(const std::string& label) {
  tracks_.push_back(label);
  return static_cast<int>(tracks_.size()) - 1;
}

int SpanLog::open(std::string name, int run, int track) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run;
  s.track = track;
  s.start = now_s();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  const double t = now_s();
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    spans_[static_cast<std::size_t>(top)].end = t;
    if (top == id) return;
  }
  throw std::logic_error("SpanLog::close: span is not open");
}

SpanSums SpanLog::sums_since(std::size_t first) const {
  const auto key = [this](const Span& s) {
    if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].name == "resume") {
      return "resume/" + s.name;
    }
    return s.name;
  };
  SpanSums out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = s.end - s.start;
    const std::string k = key(s);
    out.total[k] += dur;
    out.self[k] += dur;
    if (s.parent >= static_cast<int>(first)) {
      out.self[key(spans_[static_cast<std::size_t>(s.parent)])] -= dur;
    }
  }
  return out;
}

void SpanLog::write_chrome_trace(std::ostream& os) const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    sep();
    os << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << t << R"(,"args":{"name":)";
    write_json_string(os, tracks_[t]);
    os << "}}";
  }
  os << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    sep();
    os << R"({"name":)";
    write_json_string(os, s.name);
    os << R"(,"ph":"X","pid":1,"tid":)" << s.track << R"(,"ts":)" << (s.start - origin) * 1e6
       << R"(,"dur":)" << (s.end - s.start) * 1e6 << R"(,"args":{"id":)" << i
       << R"(,"parent":)" << s.parent << R"(,"run":)" << s.run << "}}";
  }
  os << "]}\n";
}

}  // namespace paperbench
