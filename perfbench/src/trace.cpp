// Tracer, result bookkeeping and statistics helpers.

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "perfbench.hpp"
#include "sys/rusage.hpp"

namespace perfbench {

size_t Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
  span.run = run_;
  span.start = synapse::sys::steady_now();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(size_t index) {
  spans_[index].end = synapse::sys::steady_now();
  // Scopes nest, so the span being closed is the innermost open one.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name,
                                     bool setup) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name && (s.run >= kSetupRun) == setup) {
      out.push_back(s.end - s.start);
    }
  }
  return out;
}

std::map<uint64_t, double> Tracer::total_per_run(const std::string& name,
                                                bool setup) const {
  std::map<uint64_t, double> out;
  for (const auto& s : spans_) {
    if (s.name == name && (s.run >= kSetupRun) == setup) {
      out[s.run] += s.end - s.start;
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.run >= kSetupRun) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += (s.end - s.start) - child_time[i];
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path,
                                const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
                  "\"%s\"},\"traceEvents\":[\n",
               workload.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"run\":%llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), layer.c_str(),
                 (s.start - t0) * 1e6, (s.end - s.start) * 1e6, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.run));
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median_of(const std::map<uint64_t, double>& per_run) {
  std::vector<double> v;
  for (const auto& [run, value] : per_run) v.push_back(value);
  return median(std::move(v));
}

double peak_rss_mb() {
  return static_cast<double>(synapse::sys::rusage_self().max_rss_bytes) /
         (1024.0 * 1024.0);
}

namespace {

template <class Visit>
void walk(const std::string& path, const Visit& visit) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = path + "/" + name;
    struct stat st {};
    if (::lstat(child.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) walk(child, visit);
    visit(child, st);
  }
  ::closedir(dir);
}

}  // namespace

void settle_disk(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

void remove_tree(const std::string& path) {
  walk(path, [](const std::string& child, const struct stat& st) {
    if (S_ISDIR(st.st_mode)) {
      ::rmdir(child.c_str());
    } else {
      ::unlink(child.c_str());
    }
  });
  ::rmdir(path.c_str());
}

uint64_t tree_bytes(const std::string& path) {
  uint64_t bytes = 0;
  walk(path, [&bytes](const std::string&, const struct stat& st) {
    if (S_ISREG(st.st_mode)) bytes += static_cast<uint64_t>(st.st_size);
  });
  return bytes;
}

}  // namespace perfbench
