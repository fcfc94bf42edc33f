// mdsim-roundtrip: the paper's Fig. 1 loop on the `thinkie` resource.
//
// Each repetition runs mdsim natively once (the Fig. 4 reference and a
// control: Synapse changes must not move it), then times the roundtrip
// the paper describes: profile mdsim, put and flush the profile into a
// files store, reopen the store cold, find_latest, and emulate with
// default options. Watchers and atoms dominate; dispatch (tens of
// samples) and the store (one profile) barely register. 1000 steps is
// well past the length at which the Fig. 5 comparison converges.

#include <cmath>
#include <cstdio>
#include <optional>

#include "apps/mdsim.hpp"
#include "emulator/replay_engine.hpp"
#include "profile/metrics.hpp"
#include "profile/profile_store.hpp"
#include "replay_check.hpp"
#include "resource/resource_spec.hpp"
#include "watchers/profiler.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace apps = synapse::apps;
namespace emulator = synapse::emulator;
namespace profile = synapse::profile;
namespace watchers = synapse::watchers;

namespace {

/// Fig. 5 fidelity. The paper's difference converges to a few percent
/// once Tx is well above the emulator's startup; at 1000 steps it is
/// well under 1% here. The run's median difference must stay within
/// kMedianTxTolerancePct. Each roundtrip on its own must stay within
/// kTxTolerancePct: the storage atom fsyncs every sample, so one stall of
/// a shared disk lands in a single emulation (+6% has been seen).
constexpr double kMedianTxTolerancePct = 2.0;
constexpr double kTxTolerancePct = 10.0;

/// Gaps between consecutive samples minus the nominal period, in ms.
void append_jitter(const profile::Profile& p, std::vector<double>& out) {
  for (const auto& series : p.series) {
    const double rate =
        series.sample_rate_hz > 0 ? series.sample_rate_hz : p.sample_rate_hz;
    for (size_t i = 1; i < series.samples.size(); ++i) {
      const double gap =
          series.samples[i].timestamp - series.samples[i - 1].timestamp;
      out.push_back(1e3 * (gap - 1.0 / rate));
    }
  }
}

}  // namespace

Result run_mdsim_roundtrip(const RunOptions& options, Tracer& tracer) {
  synapse::resource::activate_resource("thinkie");
  Rng rng(options.seed);
  static const uint64_t kIntervals[] = {50, 100, 200};

  apps::MdOptions md;
  md.steps = 1000;
  md.write_interval = kIntervals[rng() % 3];
  md.scratch_dir = options.work_dir;
  const std::string command =
      "mdsim --steps 1000 --write-interval " + std::to_string(md.write_interval);
  const std::vector<std::string> tags = {
      "perfbench", "seed-" + std::to_string(options.seed)};

  watchers::ProfilerOptions popts;
  popts.scratch_dir = options.work_dir;
  emulator::EmulatorOptions eopts;
  eopts.storage.base_dir = options.work_dir;

  Result result;
  // Setup: create the files store the roundtrips will use, and pay the
  // emulator's one-time startup with a short warm-up replay. The warm-up
  // profile has compute work only, so the setup does no fsync.
  synapse::workload::ScenarioSpec warm;
  warm.name = "perfbench-warm-up";
  warm.source.samples = 4;
  warm.source.deltas[std::string(synapse::metrics::kCyclesUsed)] = 2e6;
  constexpr size_t kSetups = 15;
  for (size_t k = 0; k < kSetups; ++k) {
    settle_disk(options.work_dir);
    tracer.set_run(Tracer::kSetupRun + k);
    tracer.set_enabled(options.trace);
    const std::string dir = options.work_dir + "/setup-store";
    const synapse::sys::Stopwatch w;
    {
      Scope s(tracer, "bench.setup");
      {
        Scope call(tracer, "profile.store.open");
        profile::ProfileStore store("files", dir);
      }
      emulator::ReplayEngine(eopts).replay(warm.make_profile());
    }
    result.setup_seconds.push_back(w.elapsed());
    remove_tree(dir);
  }

  ReplayFigures figures;
  std::vector<double> native_s, overhead_pct, samples, jitter_ms,
      tx_diff_pct, app_tx, encoded, decoded, disk, all_diffs;
  const synapse::sys::Stopwatch clock;
  for (size_t rep = 0; keep_going(clock, options, rep, options.trace ? 4 : 3);
       ++rep) {
    settle_disk(options.work_dir);
    tracer.set_run(rep);
    tracer.set_enabled(options.trace && rep % 2 == 1);
    const bool traced = tracer.enabled();
    const std::string dir = options.work_dir + "/store-" + std::to_string(rep);

    apps::MdReport native;
    const synapse::sys::Stopwatch native_clock;
    {
      Scope call(tracer, "apps.run_md");
      native = apps::run_md(md);
    }
    const double native_wall = native_clock.elapsed();

    profile::Profile recorded;
    std::optional<profile::Profile> found;
    emulator::EmulationResult emulated;
    double emulate_wall = 0.0;
    bool acknowledged = false;
    const synapse::sys::Stopwatch w;
    {
      Scope s(tracer, "bench.rep");
      {
        Scope call(tracer, "watchers.profile_function");
        recorded = watchers::Profiler(popts).profile_function(
            [md] {
              apps::run_md(md);
              return 0;
            },
            command, tags);
      }
      {
        std::optional<profile::ProfileStore> store;
        {
          Scope call(tracer, "profile.store.open");
          store.emplace("files", dir);
        }
        {
          Scope call(tracer, "profile.store.put");
          store->put(recorded);
          acknowledged = true;
        }
        Scope call(tracer, "profile.store.flush");
        store->flush();
      }
      std::optional<profile::ProfileStore> store;
      {
        Scope call(tracer, "profile.store.open");
        store.emplace("files", dir);
      }
      {
        Scope call(tracer, "profile.store.find_latest");
        found = store->find_latest(command, tags);
      }
      if (found) {
        const synapse::sys::Stopwatch ew;
        Scope call(tracer, "emulator.emulate");
        emulated = emulator::Emulator(eopts).emulate(*found);
        emulate_wall = ew.elapsed();
      }
    }
    const double roundtrip = w.elapsed();
    result.reps.push_back({1.0, roundtrip, traced});

    // --- checks (outside the timed roundtrip) ------------------------------
    const double tx = recorded.runtime();
    const double diff = 100.0 * (emulated.wall_seconds - tx) / tx;
    all_diffs.push_back(diff);
    const bool identity =
        found && found->command == command &&
        profile::ProfileStore::tags_key(found->tags) ==
            profile::ProfileStore::tags_key(tags) &&
        found->sample_count() == recorded.sample_count();
    char what[200];
    std::snprintf(what, sizeof(what),
                  "roundtrip %zu: acknowledged=%d found=%d, app Tx %.3fs, "
                  "emulated Tx %.3fs (%+.2f%%), native steps %llu",
                  rep, acknowledged, identity, tx, emulated.wall_seconds, diff,
                  static_cast<unsigned long long>(native.steps));
    result.check(acknowledged && identity && tx > 0 &&
                     std::fabs(diff) <= kTxTolerancePct &&
                     native.steps == md.steps && std::isfinite(native.energy),
                 what);
    if (found) {
      Expected expected;
      {
        Scope call(tracer, "profile.delta_table");
        expected =
            expected_consumption(found->delta_table(), eopts.compute.kernel);
      }
      figures.add(emulated, expected, emulate_wall, traced || !options.trace,
                  result);
    }
    if (traced || !options.trace) app_tx.push_back(tx);

    if (traced) {
      native_s.push_back(native_wall);
      overhead_pct.push_back(100.0 * (tx - native_wall) / native_wall);
      samples.push_back(static_cast<double>(recorded.sample_count()));
      append_jitter(recorded, jitter_ms);
      tx_diff_pct.push_back(diff);
      disk.push_back(static_cast<double>(tree_bytes(dir)));
      std::string bytes;
      {
        Scope call(tracer, "profile.to_binary");
        bytes = recorded.to_binary();
      }
      encoded.push_back(static_cast<double>(bytes.size()));
      Scope call(tracer, "profile.from_binary");
      decoded.push_back(static_cast<double>(
          profile::Profile::from_binary(std::move(bytes)).decoded_bytes()));
    }
    remove_tree(dir);
  }
  tracer.set_enabled(false);

  std::vector<double> roundtrip_s;
  for (const auto& rep : result.reps) {
    if (!rep.traced) roundtrip_s.push_back(rep.seconds);
  }
  result.named.push_back(
      {"roundtrip_s", median(roundtrip_s), "s", roundtrip_s.size()});
  char what[120];
  std::snprintf(what, sizeof(what),
                "median emulated-vs-app Tx difference %+.2f%% over %zu "
                "roundtrips",
                median(all_diffs), all_diffs.size());
  result.check(std::fabs(median(all_diffs)) <= kMedianTxTolerancePct, what);

  figures.publish(result);
  auto& layer = result.layer;
  layer["apps.md_native_s"] = median(native_s);
  layer["watchers.profile_s"] =
      median(tracer.durations("watchers.profile_function"));
  layer["watchers.overhead_pct"] = median(overhead_pct);
  layer["watchers.samples"] = median(samples);
  layer["watchers.jitter_ms.p50"] = percentile(jitter_ms, 50);
  layer["watchers.jitter_ms.p99"] = percentile(jitter_ms, 99);
  layer["emulator.tx_diff_pct"] = median(tx_diff_pct);
  layer["profile.encode_s"] = median(tracer.durations("profile.to_binary"));
  layer["profile.decode_s"] = median(tracer.durations("profile.from_binary"));
  layer["profile.delta_table_s"] =
      median(tracer.durations("profile.delta_table"));
  layer["profile.encoded_bytes"] = median(encoded);
  layer["profile.decoded_bytes"] = median(decoded);
  layer["profile.store.open_s"] =
      median_of(tracer.total_per_run("profile.store.open"));
  const auto puts = tracer.durations("profile.store.put");
  layer["profile.store.put_ms.p50"] = 1e3 * percentile(puts, 50);
  layer["profile.store.put_ms.p99"] = 1e3 * percentile(puts, 99);
  layer["profile.store.flush_s"] =
      median(tracer.durations("profile.store.flush"));
  layer["profile.store.disk_bytes"] = median(disk);
  const auto finds = tracer.durations("profile.store.find_latest");
  layer["profile.store.cold_find_ms.p50"] = 1e3 * percentile(finds, 50);
  layer["profile.store.cold_find_ms.p99"] = 1e3 * percentile(finds, 99);

  const double startup = figures.startup_median();
  const double tx = median(app_tx);
  layer["shape.startup_over_app_tx"] = tx > 0 ? startup / tx : 0.0;
  char line[200];
  std::snprintf(line, sizeof(line),
                "mdsim-roundtrip: app Tx %.3fs vs emulator startup %.6fs "
                "(startup share %.2e)",
                tx, startup, tx > 0 ? startup / tx : 0.0);
  result.shape.push_back(line);
  return result;
}

}  // namespace perfbench
