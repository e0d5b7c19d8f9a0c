#include "harness/trace.hpp"

#include <cstdio>

#include "harness/proc.hpp"

namespace perfbench {

std::int32_t Tracer::open(const char* name) {
  if (!enabled_) return -1;
  thread_local const std::uint32_t tid = threadId();
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.tid = tid;
  const auto id = static_cast<std::int32_t>(spans_.size());
  open_.push_back(id);
  span.startNs = wallNs();
  spans_.push_back(span);
  return id;
}

void Tracer::close(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].endNs = wallNs();
  while (!open_.empty()) {
    const auto top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const auto self = selfTimes(spans_);
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& t = out[spans_[i].name];
    ++t.count;
    t.totalNs += spans_[i].endNs - spans_[i].startNs;
    t.selfNs += self[i];
  }
  return out;
}

TimeNs Tracer::totalNs(const std::string& name) const {
  TimeNs total = 0;
  for (const auto& span : spans_) {
    if (name == span.name) total += span.endNs - span.startNs;
  }
  return total;
}

std::vector<TimeNs> Tracer::durations(const std::string& name) const {
  std::vector<TimeNs> out;
  for (const auto& span : spans_) {
    if (name == span.name) out.push_back(span.endNs - span.startNs);
  }
  return out;
}

bool Tracer::writeJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto self = selfTimes(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"tid\":%u,\"self_ns\":%lld}\n",
                 s.name, static_cast<long long>(s.startNs),
                 static_cast<long long>(s.endNs), s.parent, s.tid,
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
