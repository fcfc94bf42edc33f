#pragma once
// Shared pieces of the perfbench binary: run options, the span tracer,
// the result record every workload fills, and small statistics helpers.
//
// Every workload is a closed loop driven by this one single-threaded
// process: it sets up its inputs several times (setup_s is the median),
// then repeats its operation until the run's time is used up, timing
// each repetition and checking its outputs. Spans are recorded only
// around the public calls into the Synapse layers, from these files;
// nothing inside the library is instrumented.

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sys/clock.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory owned by this run
};

// --- tracing -----------------------------------------------------------------

/// In-memory span recorder. One span per public-call boundary: name
/// ("<layer>.<call>"), start, end, parent span and run id. Disabled, a
/// Scope costs one branch; enabled, two clock reads and a vector push.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;  ///< index into spans(), -1 for a root
    uint64_t run = 0;     ///< repetition the span belongs to
  };

  /// Setup k records its spans under run id kSetupRun + k; repetitions
  /// use their index.
  static constexpr uint64_t kSetupRun = 1ull << 32;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Tag later spans with this repetition id.
  void set_run(uint64_t run) { run_ = run; }

  size_t open(const char* name);
  void close(size_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of the spans called `name`, in recording order: those of
  /// the setups when `setup`, else those of the repetitions.
  std::vector<double> durations(const std::string& name,
                                bool setup = false) const;
  /// Per run (setup or repetition, as above): summed duration of the
  /// spans called `name`.
  std::map<uint64_t, double> total_per_run(const std::string& name,
                                           bool setup = false) const;
  /// Self time of the repetitions' spans summed per layer (the name up
  /// to its first '.'): a span's duration minus the part its child spans
  /// cover.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Chrome trace-event JSON (Perfetto / chrome://tracing can open it).
  void write_chrome_trace(const std::string& path,
                          const std::string& workload) const;

 private:
  bool enabled_ = false;
  uint64_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;  ///< open spans, innermost last
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name) : kNone) {}
  ~Scope() {
    if (index_ != kNone) tracer_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);
  Tracer& tracer_;
  size_t index_;
};

// --- results -----------------------------------------------------------------

/// One repetition's headline measurement: `units` of work (samples,
/// roundtrips, store operations) done in `seconds`.
struct Rep {
  double units = 0.0;
  double seconds = 0.0;
  bool traced = false;
};

/// A workload-specific end-to-end figure (median over the
/// run's repetitions, with their count).
struct Named {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t n = 0;
};

struct Result {
  std::vector<double> setup_seconds;   ///< one per setup
  std::vector<Rep> reps;
  std::vector<Named> named;
  std::map<std::string, double> layer; ///< per-layer metrics set by the workload
  std::vector<std::string> shape;      ///< workload-shape report lines
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;   ///< first few failure messages

  /// Count one checked operation; `ok` false records a failure.
  void check(bool ok, const std::string& what);
};

// --- helpers ----------------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty input.
double percentile(std::vector<double> v, double p);
/// Median of a per-run map's values.
double median_of(const std::map<uint64_t, double>& per_run);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Write back the dirty data of the filesystem holding `dir` (syncfs).
/// Called before every repetition, outside its timing, so a repetition
/// does not pay for the writeback and journal work the previous one left
/// behind (fsync latency on a shared disk follows how much is queued).
void settle_disk(const std::string& dir);
/// Remove a directory tree (the run's own scratch only).
void remove_tree(const std::string& path);
/// Total size of the regular files under `path`.
uint64_t tree_bytes(const std::string& path);

using Rng = std::mt19937_64;

// --- workloads ---------------------------------------------------------------

Result run_replay_dispatch(const RunOptions& options, Tracer& tracer);
Result run_replay_mixed(const RunOptions& options, Tracer& tracer);
Result run_mdsim_roundtrip(const RunOptions& options, Tracer& tracer);
Result run_store_ensemble(const RunOptions& options, Tracer& tracer);

/// Closed-loop stop rule shared by the workloads: keep repeating until
/// the run's time is used and at least `min_reps` repetitions ran.
inline bool keep_going(const synapse::sys::Stopwatch& clock,
                       const RunOptions& options, size_t reps,
                       size_t min_reps) {
  return reps < min_reps || clock.elapsed() < options.seconds;
}

}  // namespace perfbench
