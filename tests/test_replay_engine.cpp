#include "emulator/replay_engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "emulator/emulator.hpp"
#include "profile/metrics.hpp"
#include "resource/resource_spec.hpp"
#include "sys/clock.hpp"
#include "sys/error.hpp"

namespace atoms = synapse::atoms;
namespace emulator = synapse::emulator;
namespace profile = synapse::profile;
namespace resource = synapse::resource;
namespace m = synapse::metrics;
namespace sys = synapse::sys;

namespace {

struct HostGuard {
  HostGuard() { resource::activate_resource("host"); }
  ~HostGuard() { resource::activate_resource("host"); }
};

/// Synthetic profile: `samples` periods with compute, storage and
/// memory consumption per period.
profile::Profile synthetic_profile(size_t samples, double cycles_per_sample,
                                   double bytes_per_sample = 0,
                                   double alloc_per_sample = 0) {
  profile::Profile p;
  p.command = "synthetic";
  p.sample_rate_hz = 10.0;

  profile::TimeSeries trace;
  trace.watcher = "trace";
  double cycles = 0, alloc = 0;
  for (size_t i = 0; i < samples; ++i) {
    profile::Sample s;
    s.timestamp = 100.0 + static_cast<double>(i) * 0.1;
    cycles += cycles_per_sample;
    alloc += alloc_per_sample;
    s.set(m::kCyclesUsed, cycles);
    s.set(m::kMemAllocated, alloc);
    trace.samples.push_back(std::move(s));
  }
  p.series.push_back(trace);

  profile::TimeSeries io;
  io.watcher = "io";
  double b = 0;
  for (size_t i = 0; i < samples; ++i) {
    profile::Sample s;
    s.timestamp = 100.0 + static_cast<double>(i) * 0.1;
    b += bytes_per_sample;
    s.set(m::kBytesWritten, b);
    io.samples.push_back(std::move(s));
  }
  p.series.push_back(io);
  return p;
}

emulator::EmulatorOptions tmp_options() {
  emulator::EmulatorOptions opts;
  opts.storage.base_dir = "/tmp";
  return opts;
}

/// Custom atom that tallies the deltas it is fed (the "user-pluggable
/// emulation" of paper section 4.5, without touching emulator code).
class TallyAtom final : public atoms::Atom {
 public:
  TallyAtom() : Atom("tally") {}

  bool wants(const profile::SampleDelta&) const override { return true; }
  void consume(const profile::SampleDelta& delta) override {
    stats_.samples_consumed += 1;
    stats_.cycles += delta.get(m::kCyclesUsed);
  }
};

/// Legacy-interface atom whose consume() throws on every third sample
/// (the default consume_frame adapter catches and counts it).
class FlakyAtom final : public atoms::Atom {
 public:
  FlakyAtom() : Atom("flaky") {}

  bool wants(const profile::SampleDelta&) const override { return true; }
  void consume(const profile::SampleDelta&) override {
    if (++calls_ % 3 == 0) throw sys::SynapseError("flaky sample");
    stats_.samples_consumed += 1;
  }

 private:
  size_t calls_ = 0;
};

/// Frame-native atom whose consume_frame() always throws (the replay's
/// consumer loop catches and counts it, once per window received).
class BrokenFrameAtom final : public atoms::Atom {
 public:
  BrokenFrameAtom() : Atom("broken") {}

  bool wants(const profile::SampleDelta&) const override { return true; }
  void consume(const profile::SampleDelta&) override {}
  std::vector<std::string> wanted_metrics() const override {
    return {std::string(m::kCyclesUsed)};
  }
  void consume_frame(const profile::DeltaFrame&,
                     const atoms::LaneMask&) override {
    throw sys::SynapseError("broken frame");
  }
};

}  // namespace

TEST(ReplayEngine, ResolvesFlagsToBuiltinSet) {
  emulator::EmulatorOptions opts;
  auto names = emulator::ReplayEngine::resolve_atom_set(opts);
  EXPECT_EQ(names, (std::vector<std::string>{"compute", "memory", "storage"}));

  opts.emulate_network = true;
  names = emulator::ReplayEngine::resolve_atom_set(opts);
  EXPECT_EQ(names, (std::vector<std::string>{"compute", "memory", "storage",
                                             "network"}));

  opts.emulate_memory = false;
  opts.emulate_network = false;
  names = emulator::ReplayEngine::resolve_atom_set(opts);
  EXPECT_EQ(names, (std::vector<std::string>{"compute", "storage"}));
}

TEST(ReplayEngine, ExplicitAtomSetWinsOverFlags) {
  emulator::EmulatorOptions opts;
  opts.emulate_compute = false;  // ignored: atom_set is explicit
  opts.atom_set = {"compute"};
  const auto names = emulator::ReplayEngine::resolve_atom_set(opts);
  EXPECT_EQ(names, (std::vector<std::string>{"compute"}));
}

TEST(ReplayEngine, DuplicateAtomNamesCollapse) {
  emulator::EmulatorOptions opts;
  opts.atom_set = {"compute", "storage", "compute"};
  const auto names = emulator::ReplayEngine::resolve_atom_set(opts);
  EXPECT_EQ(names, (std::vector<std::string>{"compute", "storage"}));
}

TEST(ReplayEngine, ReplaysProfileAndReportsPerAtomStats) {
  HostGuard guard;
  const double hz = resource::active_resource().turbo_hz;
  const auto p = synthetic_profile(4, 0.02 * hz, 64 * 1024);

  emulator::ReplayEngine engine(tmp_options());
  const auto r = engine.replay(p);
  EXPECT_EQ(r.samples_replayed, 4u);
  EXPECT_NEAR(r.compute.cycles, 0.08 * hz, 0.01 * hz);
  EXPECT_EQ(r.storage.bytes_written, 4u * 64 * 1024);
  // The named mirrors and the generic per-atom map agree.
  ASSERT_TRUE(r.atom_stats.count("compute"));
  ASSERT_TRUE(r.atom_stats.count("storage"));
  EXPECT_EQ(r.atom_stats.at("compute").cycles, r.compute.cycles);
  EXPECT_EQ(r.atom_stats.at("storage").bytes_written,
            r.storage.bytes_written);
}

TEST(ReplayEngine, UnknownAtomInSetFailsAtStartup) {
  HostGuard guard;
  auto opts = tmp_options();
  opts.atom_set = {"compute", "warp-drive"};
  emulator::ReplayEngine engine(opts);
  EXPECT_THROW(engine.replay(synthetic_profile(1, 1e6)), sys::ConfigError);
}

TEST(ReplayEngine, CustomAtomParticipatesInReplay) {
  HostGuard guard;
  atoms::AtomRegistry registry;
  registry.register_atom("tally", [](const atoms::AtomBuildContext&) {
    return std::make_unique<TallyAtom>();
  });

  auto opts = tmp_options();
  opts.atom_set = {"compute", "tally"};
  emulator::ReplayEngine engine(opts, &registry);
  const auto r = engine.replay(synthetic_profile(5, 1e6));

  ASSERT_TRUE(r.atom_stats.count("tally"));
  EXPECT_EQ(r.atom_stats.at("tally").samples_consumed, 5u);
  EXPECT_NEAR(r.atom_stats.at("tally").cycles, 5e6, 1.0);
}

TEST(ReplayEngine, AtomErrorsAreCountedNotSwallowed) {
  HostGuard guard;
  atoms::AtomRegistry registry;
  registry.register_atom("flaky", [](const atoms::AtomBuildContext&) {
    return std::make_unique<FlakyAtom>();
  });
  registry.register_atom("broken", [](const atoms::AtomBuildContext&) {
    return std::make_unique<BrokenFrameAtom>();
  });
  // 9 samples: flaky throws on samples 3, 6 and 9; broken throws once
  // per window it receives (9 windows of 1, or 4 + 4 + 1).
  for (const size_t batch : {size_t{1}, size_t{4}}) {
    auto opts = tmp_options();
    opts.atom_set = {"flaky", "broken"};
    opts.replay_batch = batch;
    emulator::ReplayEngine engine(opts, &registry);
    const auto r = engine.replay(synthetic_profile(9, 1e6));
    const std::string context = "batch " + std::to_string(batch);
    EXPECT_EQ(r.samples_replayed, 9u) << context;
    EXPECT_EQ(r.atom_stats.at("flaky").errors, 3u) << context;
    EXPECT_EQ(r.atom_stats.at("flaky").samples_consumed, 6u) << context;
    EXPECT_EQ(r.atom_stats.at("broken").errors, batch == 1 ? 9u : 3u)
        << context;
  }

  // Process mode sums every rank's count (each rank replays every
  // sample of the flaky atom).
  auto opts = tmp_options();
  opts.atom_set = {"flaky"};
  opts.parallel_mode = emulator::ParallelMode::Process;
  opts.parallel_degree = 2;
  emulator::Emulator emu(opts, &registry);
  const auto r = emu.emulate(synthetic_profile(9, 1e6));
  ASSERT_EQ(r.ranks_ok, 2);
  EXPECT_EQ(r.atom_stats.at("flaky").errors, 2u * 3);
}

TEST(ReplayEngine, CustomAtomRunsThroughEmulatorDriver) {
  HostGuard guard;
  atoms::AtomRegistry registry;
  registry.register_atom("tally", [](const atoms::AtomBuildContext&) {
    return std::make_unique<TallyAtom>();
  });

  auto opts = tmp_options();
  opts.atom_set = {"tally"};
  emulator::Emulator emu(opts, &registry);
  const auto r = emu.emulate(synthetic_profile(3, 1e6));
  ASSERT_TRUE(r.atom_stats.count("tally"));
  EXPECT_EQ(r.atom_stats.at("tally").samples_consumed, 3u);
}

TEST(ReplayEngine, NetworkFlagWiresNetworkAtom) {
  HostGuard guard;
  profile::Profile p;
  p.command = "net-synthetic";
  p.sample_rate_hz = 10.0;
  profile::TimeSeries net;
  net.watcher = "net";
  double sent = 0;
  for (size_t i = 0; i < 3; ++i) {
    profile::Sample s;
    s.timestamp = 100.0 + static_cast<double>(i) * 0.1;
    sent += 32 * 1024;
    s.set(m::kNetBytesWritten, sent);
    net.samples.push_back(std::move(s));
  }
  p.series.push_back(net);

  auto opts = tmp_options();
  opts.emulate_compute = false;
  opts.emulate_memory = false;
  opts.emulate_storage = false;
  opts.emulate_network = true;
  emulator::ReplayEngine engine(opts);
  const auto r = engine.replay(p);
  EXPECT_EQ(r.network.net_bytes_sent, 3u * 32 * 1024);
  ASSERT_TRUE(r.atom_stats.count("network"));
}

TEST(ReplayEngine, RefusesProcessModeDirectly) {
  HostGuard guard;
  auto opts = tmp_options();
  opts.parallel_mode = emulator::ParallelMode::Process;
  opts.parallel_degree = 4;
  emulator::ReplayEngine engine(opts);
  // Forking and budget-splitting belong to the Emulator driver; the
  // engine must refuse rather than consume the full 4-rank budget.
  EXPECT_THROW(engine.replay(synthetic_profile(1, 1e6)), sys::ConfigError);
}

TEST(ReplayEngine, ProcessModeRejectsUnknownAtomInParent) {
  HostGuard guard;
  auto opts = tmp_options();
  opts.atom_set = {"warp-drive"};
  opts.parallel_mode = emulator::ParallelMode::Process;
  opts.parallel_degree = 2;
  emulator::Emulator emu(opts);
  // Must throw in the parent, not die silently inside the forked ranks.
  EXPECT_THROW(emu.emulate(synthetic_profile(1, 1e6)), sys::ConfigError);
}

TEST(ReplayEngine, CustomAtomAggregatesAcrossRanks) {
  HostGuard guard;
  atoms::AtomRegistry registry;
  registry.register_atom("tally", [](const atoms::AtomBuildContext&) {
    return std::make_unique<TallyAtom>();
  });

  auto opts = tmp_options();
  opts.atom_set = {"tally"};
  opts.parallel_mode = emulator::ParallelMode::Process;
  opts.parallel_degree = 2;
  emulator::Emulator emu(opts, &registry);
  const auto r = emu.emulate(synthetic_profile(4, 1e6));
  ASSERT_EQ(r.ranks_ok, 2);
  ASSERT_TRUE(r.atom_stats.count("tally"));
  // Every rank replays every sample (memory/storage-style duplication).
  EXPECT_EQ(r.atom_stats.at("tally").samples_consumed, 2u * 4);
}

// --- batched replay pipeline -----------------------------------------------

namespace {

/// Non-timing fields of two AtomStats must match bit-for-bit; only the
/// wall-time field (busy_seconds) is allowed to differ between feed
/// modes.
void expect_stats_parity(const atoms::AtomStats& a, const atoms::AtomStats& b,
                         const std::string& label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.flops, b.flops) << label;
  EXPECT_EQ(a.bytes_read, b.bytes_read) << label;
  EXPECT_EQ(a.bytes_written, b.bytes_written) << label;
  EXPECT_EQ(a.bytes_allocated, b.bytes_allocated) << label;
  EXPECT_EQ(a.bytes_freed, b.bytes_freed) << label;
  EXPECT_EQ(a.net_bytes_sent, b.net_bytes_sent) << label;
  EXPECT_EQ(a.net_bytes_received, b.net_bytes_received) << label;
  EXPECT_EQ(a.samples_consumed, b.samples_consumed) << label;
  EXPECT_EQ(a.errors, b.errors) << label;
}

}  // namespace

TEST(ReplayEngine, BatchModeMatchesSingleModeStats) {
  HostGuard guard;
  const double hz = resource::active_resource().turbo_hz;
  // 10 samples with batch 4 exercises the partial tail batch (4+4+2).
  const auto p = synthetic_profile(10, 0.005 * hz, 64 * 1024, 256 * 1024);

  emulator::ReplayEngine single(tmp_options());
  const auto rs = single.replay(p);

  auto opts = tmp_options();
  opts.replay_batch = 4;
  emulator::ReplayEngine batched(opts);
  const auto rb = batched.replay(p);

  EXPECT_EQ(rb.samples_replayed, rs.samples_replayed);
  ASSERT_EQ(rb.atom_stats.size(), rs.atom_stats.size());
  for (const auto& [name, stats] : rs.atom_stats) {
    ASSERT_TRUE(rb.atom_stats.count(name)) << name;
    expect_stats_parity(rb.atom_stats.at(name), stats, name);
  }
}

TEST(ReplayEngine, BatchModePartialTailBatchNotDropped) {
  HostGuard guard;
  auto opts = tmp_options();
  opts.atom_set = {"storage"};
  opts.replay_batch = 8;  // 5 samples => a single, partial batch
  emulator::ReplayEngine engine(opts);
  const auto r = engine.replay(synthetic_profile(5, 0, 32 * 1024));
  EXPECT_EQ(r.samples_replayed, 5u);
  EXPECT_EQ(r.storage.bytes_written, 5u * 32 * 1024);
  EXPECT_EQ(r.storage.samples_consumed, 5u);
}

TEST(ReplayEngine, BatchModeFiresHooksInRecordedOrder) {
  HostGuard guard;
  auto opts = tmp_options();
  opts.atom_set = {"memory"};
  opts.replay_batch = 3;
  emulator::ReplayEngine engine(opts);
  std::vector<size_t> seen;
  const auto r = engine.replay(
      synthetic_profile(7, 0, 0, 128 * 1024),
      [&seen](size_t index) { seen.push_back(index); });
  EXPECT_EQ(r.samples_replayed, 7u);
  ASSERT_EQ(seen.size(), 7u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ReplayEngine, BatchModeFeedsCustomAtomInOrder) {
  HostGuard guard;
  atoms::AtomRegistry registry;
  registry.register_atom("tally", [](const atoms::AtomBuildContext&) {
    return std::make_unique<TallyAtom>();
  });

  auto opts = tmp_options();
  opts.atom_set = {"tally"};
  opts.replay_batch = 2;
  emulator::ReplayEngine engine(opts, &registry);
  const auto r = engine.replay(synthetic_profile(5, 1e6));
  ASSERT_TRUE(r.atom_stats.count("tally"));
  EXPECT_EQ(r.atom_stats.at("tally").samples_consumed, 5u);
  EXPECT_NEAR(r.atom_stats.at("tally").cycles, 5e6, 1.0);
}

TEST(ReplayEngine, BatchModeWorksUnderProcessParallelDriver) {
  HostGuard guard;
  const double hz = resource::active_resource().turbo_hz;
  const auto p = synthetic_profile(6, 0.005 * hz, 32 * 1024);

  auto opts = tmp_options();
  opts.replay_batch = 4;
  opts.parallel_mode = emulator::ParallelMode::Process;
  opts.parallel_degree = 2;
  emulator::Emulator emu(opts);
  const auto r = emu.emulate(p);
  ASSERT_EQ(r.ranks_ok, 2);
  EXPECT_EQ(r.samples_replayed, 6u);
  // Storage duplicates per rank, exactly as in single-sample mode.
  EXPECT_EQ(r.storage.bytes_written, 2u * 6u * 32 * 1024);
}

TEST(ReplayEngine, SingleAndProcessParallelStatsParity) {
  HostGuard guard;
  const double hz = resource::active_resource().turbo_hz;
  constexpr int kRanks = 2;
  const auto p =
      synthetic_profile(3, 0.02 * hz, 64 * 1024, 512 * 1024);

  emulator::Emulator single(tmp_options());
  const auto rs = single.emulate(p);

  auto opts = tmp_options();
  opts.parallel_mode = emulator::ParallelMode::Process;
  opts.parallel_degree = kRanks;
  emulator::Emulator parallel(opts);
  const auto rp = parallel.emulate(p);

  ASSERT_EQ(rp.ranks_ok, kRanks);
  // Compute is spread across ranks: the aggregate cycle budget matches
  // the single-mode replay of the same profile.
  EXPECT_NEAR(rp.compute.cycles, rs.compute.cycles, 0.05 * rs.compute.cycles);
  // Storage and memory consumption is duplicated per rank (the paper's
  // "naive way", E.4).
  EXPECT_EQ(rp.storage.bytes_written, kRanks * rs.storage.bytes_written);
  EXPECT_EQ(rp.memory.bytes_allocated, kRanks * rs.memory.bytes_allocated);
  EXPECT_EQ(rp.samples_replayed, rs.samples_replayed);
  // Both modes surface the same per-atom view.
  ASSERT_TRUE(rp.atom_stats.count("compute"));
  EXPECT_EQ(rp.atom_stats.at("compute").cycles, rp.compute.cycles);
}

namespace {

/// Variable-rate profile with a known recorded trajectory: samples at
/// the given offsets from t=100 s, tiny per-sample storage consumption
/// so the replay itself is near-instant and wall time is dominated by
/// pacing.
profile::Profile variable_profile(const std::vector<double>& offsets) {
  profile::Profile p;
  p.command = "variable";
  p.sample_rate_hz = 100.0;
  profile::TimeSeries io;
  io.watcher = "io";
  io.sample_rate_hz = 100.0;
  io.variable_rate = true;
  double b = 0;
  for (const double off : offsets) {
    profile::Sample s;
    s.timestamp = 100.0 + off;
    b += 1024;
    s.set(m::kBytesWritten, b);
    io.samples.push_back(std::move(s));
  }
  p.series.push_back(io);
  return p;
}

}  // namespace

namespace {

constexpr const char* kBusyMetric = "test.busy_s";

/// Atom that stays busy for the recorded seconds of kBusyMetric in each
/// row: a replay whose rows each take their full recorded period.
class BusyAtom final : public atoms::Atom {
 public:
  BusyAtom() : Atom("busy") {}

  bool wants(const profile::SampleDelta& delta) const override {
    return delta.get(kBusyMetric) > 0;
  }
  void consume(const profile::SampleDelta& delta) override {
    sys::sleep_for(delta.get(kBusyMetric));
    stats_.samples_consumed += 1;
  }
};

/// Fixed-rate profile recorded the way watchers record: the first sample
/// at the start of the run, then one per period, each period fully busy.
/// Row 0 carries nothing; rows 1..rows-1 carry one period of work each,
/// so the recorded span is (rows - 1) periods.
profile::Profile busy_profile(size_t rows, double period) {
  profile::Profile p;
  p.command = "busy";
  p.sample_rate_hz = 1.0 / period;
  profile::TimeSeries ts;
  ts.watcher = "busy";
  ts.sample_rate_hz = p.sample_rate_hz;
  for (size_t i = 0; i < rows; ++i) {
    profile::Sample s;
    s.timestamp = 100.0 + static_cast<double>(i) * period;
    s.set(kBusyMetric, static_cast<double>(i) * period);
    ts.samples.push_back(std::move(s));
  }
  p.series.push_back(std::move(ts));
  return p;
}

}  // namespace

TEST(ReplayPacing, ParsesAndNamesRoundTrip) {
  EXPECT_EQ(emulator::replay_pace_from_string("auto"),
            emulator::ReplayPace::Auto);
  EXPECT_EQ(emulator::replay_pace_from_string("off"),
            emulator::ReplayPace::Off);
  EXPECT_EQ(emulator::replay_pace_from_string("on"),
            emulator::ReplayPace::On);
  EXPECT_THROW(emulator::replay_pace_from_string("maybe"), sys::ConfigError);
  for (const auto pace : {emulator::ReplayPace::Auto, emulator::ReplayPace::Off,
                          emulator::ReplayPace::On}) {
    EXPECT_EQ(emulator::replay_pace_from_string(emulator::replay_pace_name(pace)),
              pace);
  }
}

TEST(ReplayPacing, AutoPacesVariableRateProfilesByRecordedGaps) {
  HostGuard guard;
  // Burst of 3 samples 10 ms apart, then a 0.4 s idle gap: the paced
  // replay must take at least the recorded span (~0.42 s), the unpaced
  // one must not.
  const auto p = variable_profile({0.0, 0.01, 0.02, 0.42});
  ASSERT_TRUE(p.variable_rate());

  auto opts = tmp_options();
  opts.atom_set = {"storage"};
  emulator::ReplayEngine paced(opts);
  sys::Stopwatch watch;
  const auto rp = paced.replay(p);
  const double paced_s = watch.elapsed();

  opts.pace = emulator::ReplayPace::Off;
  emulator::ReplayEngine unpaced(opts);
  watch.reset();
  const auto ru = unpaced.replay(p);
  const double unpaced_s = watch.elapsed();

  EXPECT_GE(paced_s, 0.3);
  EXPECT_LE(unpaced_s, 0.2);
  // Pacing is timing-only: the consumed stats are identical.
  EXPECT_EQ(rp.samples_replayed, ru.samples_replayed);
  EXPECT_EQ(rp.storage.bytes_written, ru.storage.bytes_written);
}

TEST(ReplayPacing, AutoLeavesFixedRateProfilesUnpaced) {
  HostGuard guard;
  // 6 fixed-rate periods of 0.1 s: paced would take ~0.5 s; Auto must
  // replay as fast as the atoms allow.
  const auto p = synthetic_profile(6, 0, 1024);
  ASSERT_FALSE(p.variable_rate());
  auto opts = tmp_options();
  opts.atom_set = {"storage"};
  emulator::ReplayEngine engine(opts);
  sys::Stopwatch watch;
  engine.replay(p);
  EXPECT_LE(watch.elapsed(), 0.2);
}

TEST(ReplayPacing, OnForcesPacingForFixedRateProfiles) {
  HostGuard guard;
  const auto p = synthetic_profile(4, 0, 1024);  // 0.1 s periods
  auto opts = tmp_options();
  opts.atom_set = {"storage"};
  opts.pace = emulator::ReplayPace::On;
  emulator::ReplayEngine engine(opts);
  sys::Stopwatch watch;
  const auto r = engine.replay(p);
  // Rows 2..3 are released one 0.1 s period apart, at the start of
  // their recorded periods, and the replay lasts the 0.3 s recorded span.
  EXPECT_GE(watch.elapsed(), 0.25);
  EXPECT_EQ(r.samples_replayed, 4u);
}

TEST(ReplayPacing, PacedReplayOfFullyBusyPeriodsEndsAtTheRecordedSpan) {
  // Each row's work starts at the start of its recorded period, so a
  // replay whose rows take their full period ends with the recorded
  // span: no earlier (pacing waits out an idle tail) and no period
  // later (the release point is the period's start, not its end).
  constexpr size_t kRows = 6;
  constexpr double kPeriod = 0.1;
  const double span = (kRows - 1) * kPeriod;
  const auto p = busy_profile(kRows, kPeriod);
  atoms::AtomRegistry registry;
  registry.register_atom("busy", [](const atoms::AtomBuildContext&) {
    return std::make_unique<BusyAtom>();
  });
  for (const size_t batch : {1u, 2u}) {
    SCOPED_TRACE("replay_batch " + std::to_string(batch));
    auto opts = tmp_options();
    opts.atom_set = {"busy"};
    opts.pace = emulator::ReplayPace::On;
    opts.replay_batch = batch;
    emulator::ReplayEngine engine(opts, &registry);
    sys::Stopwatch watch;
    const auto r = engine.replay(p);
    const double elapsed = watch.elapsed();
    EXPECT_GE(elapsed, span);
    EXPECT_LT(elapsed, span + kPeriod / 2);
    EXPECT_EQ(r.samples_replayed, kRows);
    EXPECT_EQ(r.atom_stats.at("busy").samples_consumed, kRows - 1);
  }
}

TEST(ReplayPacing, BatchedFeedPacesAtBatchGranularity) {
  HostGuard guard;
  // The idle gap lands on a batch boundary: batches are {s0,s1} and
  // {s2,s3}, and the gap is the recorded period of the second batch's
  // FIRST sample. Batch-granularity pacing releases that batch when the
  // period starts (0.01 s) and must not finish before the 0.43 s span.
  const auto p = variable_profile({0.0, 0.01, 0.42, 0.43});
  auto opts = tmp_options();
  opts.atom_set = {"storage"};
  opts.replay_batch = 2;
  emulator::ReplayEngine engine(opts);
  sys::Stopwatch watch;
  const auto r = engine.replay(p);
  // The replay lasts the recorded span, idle gap included.
  EXPECT_GE(watch.elapsed(), 0.3);
  EXPECT_EQ(r.samples_replayed, 4u);
  EXPECT_EQ(r.storage.bytes_written, 4u * 1024);
}

TEST(ReplayPacing, PacedAndUnpacedBatchedStatsMatch) {
  HostGuard guard;
  const auto p = variable_profile({0.0, 0.05, 0.1, 0.3});
  auto base = tmp_options();
  base.atom_set = {"storage"};

  auto paced_opts = base;
  paced_opts.replay_batch = 2;
  emulator::ReplayEngine paced(paced_opts);
  const auto rp = paced.replay(p);

  auto off_opts = base;
  off_opts.replay_batch = 2;
  off_opts.pace = emulator::ReplayPace::Off;
  emulator::ReplayEngine unpaced(off_opts);
  const auto ru = unpaced.replay(p);

  ASSERT_TRUE(rp.atom_stats.count("storage"));
  expect_stats_parity(rp.atom_stats.at("storage"),
                      ru.atom_stats.at("storage"), "storage");
}
