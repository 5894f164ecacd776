#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "sealpaa/obs/json.hpp"

namespace bench {

Tracer::Tracer(std::size_t capacity) : spans_(capacity) {}

std::uint32_t Tracer::name(std::string_view text) {
  const auto found = std::find(names_.begin(), names_.end(), text);
  if (found != names_.end()) {
    return static_cast<std::uint32_t>(found - names_.begin());
  }
  names_.emplace_back(text);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Id Tracer::open(std::uint32_t name, Id parent, std::uint64_t request,
                        std::uint32_t lane) {
  const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  Span& span = spans_[index];
  span.name = name;
  span.parent = parent;
  span.lane = lane;
  span.request = request;
  return static_cast<Id>(index + 1);
}

void Tracer::finish(Id id, std::int64_t start_ns, std::int64_t end_ns) {
  if (id == 0) return;
  Span& span = spans_[id - 1];
  span.start_ns = start_ns;
  span.end_ns = end_ns;
}

void Tracer::record(std::uint32_t name, Id parent, std::uint64_t request,
                    std::uint32_t lane, std::int64_t start_ns,
                    std::int64_t end_ns) {
  finish(open(name, parent, request, lane), start_ns, end_ns);
}

std::size_t Tracer::used() const noexcept {
  return std::min(next_.load(std::memory_order_relaxed), spans_.size());
}

std::map<std::string, Tracer::Totals> Tracer::all_totals() const {
  const std::size_t count = used();
  std::vector<double> child_ns(count, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    const Span& span = spans_[i];
    if (span.parent != 0) {
      child_ns[span.parent - 1] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < count; ++i) {
    const Span& span = spans_[i];
    const double wall = static_cast<double>(span.end_ns - span.start_ns);
    Totals& totals = out[names_[span.name]];
    totals.count += 1;
    totals.wall_ns += wall;
    totals.self_ns += wall - child_ns[i];
  }
  return out;
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  const std::map<std::string, Totals> all = all_totals();
  const auto found = all.find(std::string(name));
  return found == all.end() ? Totals{} : found->second;
}

bool Tracer::write(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return false;
  const std::size_t count = used();
  std::int64_t origin = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (origin == 0 || spans_[i].start_ns < origin) origin = spans_[i].start_ns;
  }
  std::vector<std::string> quoted;
  quoted.reserve(names_.size());
  for (const std::string& name : names_) {
    quoted.push_back(sealpaa::obs::Json::escape(name));
  }
  std::fprintf(file.get(), "{\"displayTimeUnit\":\"ns\",\"dropped\":%llu,"
                           "\"self_time\":{",
               static_cast<unsigned long long>(dropped()));
  const char* separator = "";
  for (const auto& [name, totals] : all_totals()) {
    std::fprintf(file.get(),
                 "%s\n%s:{\"count\":%llu,\"wall_ns\":%.0f,\"self_ns\":%.0f}",
                 separator, sealpaa::obs::Json::escape(name).c_str(),
                 static_cast<unsigned long long>(totals.count), totals.wall_ns,
                 totals.self_ns);
    separator = ",";
  }
  std::fprintf(file.get(), "},\n\"traceEvents\":[\n");
  for (std::size_t i = 0; i < count; ++i) {
    const Span& span = spans_[i];
    std::fprintf(
        file.get(),
        "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
        "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%u,\"request\":%llu}}",
        i == 0 ? "" : ",\n", quoted[span.name].c_str(), span.lane,
        static_cast<double>(span.start_ns - origin) / 1e3,
        static_cast<double>(span.end_ns - span.start_ns) / 1e3, i + 1,
        span.parent, static_cast<unsigned long long>(span.request));
  }
  std::fprintf(file.get(), "\n]}\n");
  return std::fflush(file.get()) == 0 && std::ferror(file.get()) == 0;
}

}  // namespace bench
