// The compiled replay plan (emulator/replay_plan.hpp +
// profile/delta_frame.hpp): columnar DeltaTable construction against
// the pinned map-walk tables (fixtures/delta_tables.golden), lane
// interning, and — the load-bearing property — non-timing AtomStats
// bit-identical to the golden fixtures recorded from the retired
// map-based SampleDelta feed (fixtures/replay_atom_stats.golden),
// across the builtin scenario catalog, replay windows 1, 3 and 8,
// fixed- and variable-rate profiles, and custom atoms that only
// implement the legacy consume() interface. Also the replay loop's
// barrier semantics observed from inside the atoms: lockstep at window
// 1, concurrent start of every atom of a sample, and hook-error abort.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "delta_golden.hpp"
#include "emulator/emulator.hpp"
#include "emulator/replay_engine.hpp"
#include "emulator/replay_plan.hpp"
#include "profile/binary_codec.hpp"
#include "profile/delta_frame.hpp"
#include "profile/metrics.hpp"
#include "profile/profile.hpp"
#include "resource/resource_spec.hpp"
#include "sys/clock.hpp"
#include "sys/error.hpp"
#include "workload/scenario.hpp"

namespace atoms = synapse::atoms;
namespace emulator = synapse::emulator;
namespace profile = synapse::profile;
namespace resource = synapse::resource;
namespace workload = synapse::workload;
namespace m = synapse::metrics;
namespace sys = synapse::sys;

namespace {

/// Activates a resource spec for one test and restores "host" after.
struct ResourceGuard {
  explicit ResourceGuard(const std::string& name = "host") {
    resource::activate_resource(name);
  }
  ~ResourceGuard() { resource::activate_resource("host"); }
};

/// The golden fixtures were recorded on this named spec: the "host"
/// spec takes cache sizes from the running CPU, which moves `flops`.
constexpr const char* kGoldenResource = "thinkie";

emulator::EmulatorOptions tmp_options() {
  emulator::EmulatorOptions opts;
  opts.storage.base_dir = "/tmp";
  return opts;
}

using delta_golden::fixed_profile;
using delta_golden::variable_profile;

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

/// One golden record: what the map feed replayed for one atom.
struct GoldenStats {
  size_t samples_replayed = 0;
  atoms::AtomStats stats;
};

/// fixtures/replay_atom_stats.golden, keyed by profile label, then by
/// atom name. The file's header comment documents the format.
const std::map<std::string, std::map<std::string, GoldenStats>>& golden() {
  static const auto table = [] {
    std::map<std::string, std::map<std::string, GoldenStats>> out;
    std::ifstream in(SYNAPSE_TEST_FIXTURE_DIR "/replay_atom_stats.golden");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream row(line);
      std::string label, atom, cycles, flops;
      GoldenStats g;
      atoms::AtomStats& s = g.stats;
      row >> label >> atom >> g.samples_replayed >> cycles >> flops >>
          s.bytes_read >> s.bytes_written >> s.bytes_allocated >>
          s.bytes_freed >> s.net_bytes_sent >> s.net_bytes_received >>
          s.samples_consumed;
      // strtod reads the %.17g text back to the exact recorded double.
      s.cycles = std::strtod(cycles.c_str(), nullptr);
      s.flops = std::strtod(flops.c_str(), nullptr);
      out[label][atom] = g;
    }
    return out;
  }();
  return table;
}

/// Replay `p` at windows 1, 3 and 8 (pacing off) and require every
/// atom's non-timing stats to match the golden record bit for bit.
void expect_golden(const std::string& label, const profile::Profile& p,
                   emulator::EmulatorOptions opts,
                   const atoms::AtomRegistry* registry = nullptr) {
  const auto it = golden().find(label);
  ASSERT_NE(it, golden().end()) << "no golden record for " << label;
  opts.pace = emulator::ReplayPace::Off;
  for (const size_t batch : {size_t{1}, size_t{3}, size_t{8}}) {
    opts.replay_batch = batch;
    const std::string context = label + "/batch" + std::to_string(batch);
    emulator::ReplayEngine engine(opts, registry);
    const auto r = engine.replay(p);
    ASSERT_EQ(r.atom_stats.size(), it->second.size()) << context;
    for (const auto& [name, g] : it->second) {
      ASSERT_TRUE(r.atom_stats.count(name)) << context << "/" << name;
      EXPECT_EQ(r.samples_replayed, g.samples_replayed) << context;
      expect_stats_parity(r.atom_stats.at(name), g.stats,
                          context + "/" + name);
    }
  }
}

/// Legacy-interface custom atom: no wanted_metrics()/consume_frame()
/// overrides, so the engine must route it through the unbox adapter.
class TallyAtom final : public atoms::Atom {
 public:
  TallyAtom() : Atom("tally") {}
  bool wants(const profile::SampleDelta& delta) const override {
    return delta.get(m::kCyclesUsed) > 0;
  }
  void consume(const profile::SampleDelta& delta) override {
    stats_.samples_consumed += 1;
    stats_.cycles += delta.get(m::kCyclesUsed);
  }
};

/// Counts every sample it consumes into a counter that outlives the
/// replay (a replay that throws returns no stats).
class CountingAtom final : public atoms::Atom {
 public:
  explicit CountingAtom(std::atomic<size_t>* consumed)
      : Atom("counter"), consumed_(consumed) {}
  bool wants(const profile::SampleDelta&) const override { return true; }
  void consume(const profile::SampleDelta&) override {
    stats_.samples_consumed += 1;
    consumed_->fetch_add(1);
  }

 private:
  std::atomic<size_t>* consumed_;
};

/// What two LockstepAtoms share: how many samples each has finished
/// and entered, and what they observed.
struct LockstepProbe {
  std::atomic<size_t> finished[2] = {};
  std::atomic<size_t> entered[2] = {};
  std::atomic<int> lockstep_violations{0};
  std::atomic<bool> missed_rendezvous{false};
};

/// Wants every sample. On entering sample k it records whether both
/// atoms had finished samples 0..k-1, then waits (bounded) for the
/// other atom to enter sample k too.
class LockstepAtom final : public atoms::Atom {
 public:
  LockstepAtom(int self, LockstepProbe* probe)
      : Atom(self == 0 ? "left" : "right"), self_(self), probe_(probe) {}
  bool wants(const profile::SampleDelta&) const override { return true; }
  void consume(const profile::SampleDelta&) override {
    const size_t k = stats_.samples_consumed;
    if (probe_->finished[0].load() < k || probe_->finished[1].load() < k) {
      probe_->lockstep_violations.fetch_add(1);
    }
    probe_->entered[self_].store(k + 1);
    const double deadline = sys::steady_now() + 5.0;
    while (probe_->entered[1 - self_].load() < k + 1 &&
           !probe_->missed_rendezvous.load()) {
      if (sys::steady_now() > deadline) probe_->missed_rendezvous.store(true);
      std::this_thread::yield();
    }
    stats_.samples_consumed += 1;
    probe_->finished[self_].store(k + 1);
  }

 private:
  int self_;
  LockstepProbe* probe_;
};

/// `p` as built by the appender and as decoded from its SYNB payload:
/// delta_table() runs the kernel over each one's own columns, and both
/// must reproduce the fixture.
std::vector<std::pair<std::string, profile::Profile>> both_routes(
    const profile::Profile& p) {
  return {{"built", p},
          {"decoded", profile::Profile::from_binary(p.to_binary())}};
}

}  // namespace

// --- DeltaTable construction ------------------------------------------------

TEST(DeltaTable, LaneTableInternsSortedNames) {
  const profile::LaneTable lanes({"alpha", "beta", "gamma"});
  EXPECT_EQ(lanes.size(), 3u);
  EXPECT_EQ(lanes.id("alpha"), 0u);
  EXPECT_EQ(lanes.id("beta"), 1u);
  EXPECT_EQ(lanes.id("gamma"), 2u);
  EXPECT_EQ(lanes.id("delta"), profile::LaneTable::kNoLane);
  EXPECT_EQ(lanes.name(1), "beta");
}

TEST(DeltaTable, MatchesGoldenFixtureWithAndWithoutPayload) {
  size_t checked = 0;
  for (const auto& g : delta_golden::golden_profiles()) {
    for (const auto& [route, p] : both_routes(g.profile)) {
      SCOPED_TRACE(g.label + " / " + route);
      delta_golden::expect_table_matches_golden(g.label, p.delta_table());
    }
    ++checked;
  }
  // Every record in the fixture is exercised.
  EXPECT_EQ(checked, delta_golden::golden_tables().size());
}

TEST(DeltaTable, UnboxMatchesSampleDeltasOnFixedRateProfile) {
  for (const auto& [route, p] : both_routes(fixed_profile(6))) {
    SCOPED_TRACE(route);
    const auto table = p.delta_table();
    delta_golden::expect_table_matches_golden("fixed", table);
    delta_golden::expect_deltas_match_golden("fixed", p.sample_deltas());
    for (size_t i = 0; i < table.rows(); ++i) {
      // Lane reads agree with the unboxed map, including absent keys.
      for (const auto& [name, value] : table.unbox(i).deltas) {
        EXPECT_EQ(table.get(table.lanes().id(name), i), value) << name;
      }
    }
    EXPECT_EQ(table.get(profile::LaneTable::kNoLane, 0), 0.0);
  }
}

TEST(DeltaTable, UnboxMatchesSampleDeltasOnBinaryPayload) {
  // from_binary copies the SYNB columns in; delta_table() runs the
  // kernel straight over them.
  auto p = profile::Profile::from_binary(fixed_profile(10).to_binary());
  delta_golden::expect_table_matches_golden("binary", p.delta_table());
  delta_golden::expect_deltas_match_golden("binary", p.sample_deltas());
}

TEST(DeltaTable, UnboxMatchesSampleDeltasOnVariableRateProfile) {
  for (const auto& [route, p] : both_routes(variable_profile())) {
    SCOPED_TRACE(route);
    ASSERT_TRUE(p.variable_rate());
    delta_golden::expect_table_matches_golden("variable", p.delta_table());
    delta_golden::expect_deltas_match_golden("variable", p.sample_deltas());
  }
}

TEST(DeltaTable, PresenceDistinguishesRecordedZeroFromAbsent) {
  const auto p = fixed_profile(3);
  const auto table = p.delta_table();
  const uint32_t lane = table.lanes().id(m::kCyclesUsed);
  ASSERT_NE(lane, profile::LaneTable::kNoLane);
  EXPECT_TRUE(table.present(lane, 0));
  // A metric the profile never recorded has no lane at all.
  EXPECT_EQ(table.lanes().id(m::kNetBytesWritten),
            profile::LaneTable::kNoLane);
}

// --- golden parity (the retired map feed's outputs) ------------------------

TEST(ReplayFrames, ParityAcrossBuiltinScenarioCatalog) {
  ResourceGuard guard(kGoldenResource);
  for (const auto& spec : workload::builtin_scenarios()) {
    expect_golden("scenario:" + spec.name, spec.make_profile(),
                  spec.make_options(tmp_options()));
  }
}

TEST(ReplayFrames, ParityOnVariableRateProfile) {
  ResourceGuard guard(kGoldenResource);
  const auto p = variable_profile();
  ASSERT_TRUE(p.variable_rate());
  expect_golden("variable", p, tmp_options());
}

TEST(ReplayFrames, ParityOnBinaryPayloadProfile) {
  ResourceGuard guard(kGoldenResource);
  const auto p = profile::Profile::from_binary(fixed_profile(10).to_binary());
  expect_golden("binary", p, tmp_options());
}

TEST(ReplayFrames, ParityUnderWorkloadScales) {
  ResourceGuard guard(kGoldenResource);
  // Scales off the identity path: the plan bakes them into lanes once,
  // the map feed multiplied per sample — the same single multiplication
  // either way, so the results stay bit-identical.
  auto opts = tmp_options();
  opts.cycle_scale = 0.5;
  opts.memory_scale = 2.0;
  opts.io_scale = 3.0;
  expect_golden("scaled", fixed_profile(8), opts);
}

TEST(ReplayFrames, LegacyCustomAtomRunsThroughAdapter) {
  ResourceGuard guard(kGoldenResource);
  // TallyAtom implements only wants()/consume(): the plan must mark it
  // adapter-dispatched and unbox every row for it, at every window.
  atoms::AtomRegistry registry;
  registry.register_atom("tally", [](const atoms::AtomBuildContext&) {
    return std::make_unique<TallyAtom>();
  });
  const auto p = fixed_profile(9);
  auto opts = tmp_options();
  opts.atom_set = {"compute", "tally"};
  emulator::ReplayEngine engine(opts, &registry);
  const auto r = engine.replay(p);
  ASSERT_TRUE(r.atom_stats.count("tally"));
  EXPECT_EQ(r.atom_stats.at("tally").samples_consumed, 9u);
  expect_golden("tally", p, opts, &registry);
}

TEST(ReplayFrames, AtomWithNoRecordedMetricsStaysIdle) {
  ResourceGuard guard(kGoldenResource);
  // The profile records no network metrics: the plan marks the network
  // atom idle (no consumer at all) and it must consume nothing.
  const auto p = fixed_profile(5);
  auto opts = tmp_options();
  opts.emulate_network = true;
  expect_golden("idle-net", p, opts);
  for (const size_t batch : {size_t{1}, size_t{3}}) {
    opts.replay_batch = batch;
    emulator::ReplayEngine engine(opts);
    const auto r = engine.replay(p);
    EXPECT_EQ(r.network.samples_consumed, 0u);
    EXPECT_EQ(r.network.net_bytes_sent, 0u);
  }
}

TEST(ReplayFrames, FrameFeedFiresHooksInRecordedOrder) {
  ResourceGuard guard;
  auto opts = tmp_options();
  opts.atom_set = {"memory"};
  opts.replay_batch = 3;
  emulator::ReplayEngine engine(opts);
  std::vector<size_t> seen;
  const auto r = engine.replay(fixed_profile(8), [&seen](size_t index) {
    seen.push_back(index);
  });
  EXPECT_EQ(r.samples_replayed, 8u);
  ASSERT_EQ(seen.size(), 8u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ReplayFrames, HookErrorAbortsFramePipelineWithoutDeadlock) {
  ResourceGuard guard;
  // A throwing hook must propagate out of replay() with every consumer
  // joined. In lockstep (batch 1) no atom may consume a sample past the
  // one whose hook threw; batch 2 keeps several windows in flight.
  std::atomic<size_t> consumed{0};
  atoms::AtomRegistry registry;
  registry.register_atom("counter",
                         [&consumed](const atoms::AtomBuildContext&) {
                           return std::make_unique<CountingAtom>(&consumed);
                         });
  for (const size_t batch : {size_t{1}, size_t{2}}) {
    consumed = 0;
    auto opts = tmp_options();
    opts.atom_set = {"memory", "counter"};
    opts.replay_batch = batch;
    emulator::ReplayEngine engine(opts, &registry);
    EXPECT_THROW(engine.replay(fixed_profile(64),
                               [](size_t index) {
                                 if (index >= 3) {
                                   throw sys::SynapseError("hook failed");
                                 }
                               }),
                 sys::SynapseError)
        << "batch " << batch;
    if (batch == 1) {
      EXPECT_EQ(consumed.load(), 4u);  // samples 0..3 only
    }
  }
}

TEST(ReplayFrames, LockstepAtWindowOneAndConcurrentStartWithinASample) {
  ResourceGuard guard;
  // Two atoms that want every sample check the barrier from inside:
  // each meets the other inside sample k (so both started it), and at
  // window 1 each finds, on entering sample k, that both finished all
  // k earlier samples.
  for (const size_t batch : {size_t{1}, size_t{4}}) {
    LockstepProbe probe;
    atoms::AtomRegistry registry;
    for (const int self : {0, 1}) {
      registry.register_atom(
          self == 0 ? "left" : "right",
          [&probe, self](const atoms::AtomBuildContext&) {
            return std::make_unique<LockstepAtom>(self, &probe);
          });
    }
    auto opts = tmp_options();
    opts.atom_set = {"left", "right"};
    opts.replay_batch = batch;
    emulator::ReplayEngine engine(opts, &registry);
    const auto r = engine.replay(fixed_profile(12));
    const std::string context = "batch " + std::to_string(batch);
    EXPECT_EQ(r.samples_replayed, 12u) << context;
    EXPECT_EQ(r.atom_stats.at("left").samples_consumed, 12u) << context;
    EXPECT_EQ(r.atom_stats.at("right").samples_consumed, 12u) << context;
    EXPECT_FALSE(probe.missed_rendezvous.load()) << context;
    if (batch == 1) {
      EXPECT_EQ(probe.lockstep_violations.load(), 0) << context;
    }
  }
}
