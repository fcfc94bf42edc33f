// End-to-end tests of the command-line tools (synapse-profile,
// synapse-emulate, synapse-inspect), exercised exactly as a user would:
// spawned as child processes. Binary paths are injected by CMake.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "sys/procfs.hpp"
#include "sys/spawn.hpp"
#include "workload/scenario.hpp"

#ifndef SYNAPSE_PROFILE_BIN
#error "SYNAPSE_PROFILE_BIN must be defined by the build"
#endif

namespace sys = synapse::sys;

namespace {

const std::string kStore = "/tmp/synapse_cli_store";

struct StoreGuard {
  StoreGuard() { std::system(("rm -rf " + kStore).c_str()); }
  ~StoreGuard() { std::system(("rm -rf " + kStore).c_str()); }
};

sys::ExitStatus run_tool(const std::vector<std::string>& argv,
                         const std::string& out_path) {
  sys::SpawnOptions opts;
  opts.stdout_path = out_path;
  opts.stderr_path = out_path + ".err";
  return sys::run_command(argv, opts);
}

std::string slurp(const std::string& path) {
  return sys::slurp_file(path).value_or("");
}

}  // namespace

TEST(Cli, ProfileThenEmulateRoundTrip) {
  StoreGuard guard;
  const std::string out = "/tmp/synapse_cli_out.txt";

  auto status = run_tool({SYNAPSE_PROFILE_BIN, "--store", kStore, "--rate",
                          "20", "--tag", "cli-test", "--", "sleep", "0.2"},
                         out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  const std::string profile_output = slurp(out);
  EXPECT_NE(profile_output.find("profiled: sleep 0.2"), std::string::npos);
  EXPECT_NE(profile_output.find("Tx"), std::string::npos);

  status = run_tool({SYNAPSE_EMULATE_BIN, "--store", kStore, "--tag",
                     "cli-test", "--", "sleep", "0.2"},
                    out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  const std::string emulate_output = slurp(out);
  EXPECT_NE(emulate_output.find("emulated: sleep 0.2"), std::string::npos);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, EmulateWithoutProfileFails) {
  StoreGuard guard;
  const std::string out = "/tmp/synapse_cli_fail.txt";
  const auto status = run_tool(
      {SYNAPSE_EMULATE_BIN, "--store", kStore, "--", "never", "profiled"},
      out);
  EXPECT_EQ(status.exit_code, 1);
  EXPECT_NE(slurp(out + ".err").find("no profile stored"),
            std::string::npos);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, InspectShowAndStats) {
  StoreGuard guard;
  const std::string out = "/tmp/synapse_cli_inspect.txt";

  // Two repetitions so stats have n=2.
  for (int i = 0; i < 2; ++i) {
    const auto status = run_tool({SYNAPSE_PROFILE_BIN, "--store", kStore,
                                  "--", "sleep", "0.1"},
                                 out);
    ASSERT_TRUE(status.success());
  }

  auto status = run_tool(
      {SYNAPSE_INSPECT_BIN, "--store", kStore, "show", "--", "sleep", "0.1"},
      out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  EXPECT_NE(slurp(out).find("system.runtime_s"), std::string::npos);

  status = run_tool({SYNAPSE_INSPECT_BIN, "--store", kStore, "stats", "--",
                     "sleep", "0.1"},
                    out);
  ASSERT_TRUE(status.success());
  EXPECT_NE(slurp(out).find("repetitions: 2"), std::string::npos);

  status = run_tool({SYNAPSE_INSPECT_BIN, "--store", kStore, "diff", "--",
                     "sleep", "0.1"},
                    out);
  ASSERT_TRUE(status.success());
  EXPECT_NE(slurp(out).find("diff%"), std::string::npos);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, InspectStatsFlagReportsBackendAndReadCache) {
  StoreGuard guard;
  const std::string out = "/tmp/synapse_cli_inspect_stats.txt";

  auto status = run_tool(
      {SYNAPSE_PROFILE_BIN, "--store", kStore, "--", "sleep", "0.05"}, out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");

  // --stats appends the backend (by registry name) and the read-cache
  // counters the subcommand's queries accumulated.
  status = run_tool({SYNAPSE_INSPECT_BIN, "--store", kStore, "--stats",
                     "show", "--", "sleep", "0.05"},
                    out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  const std::string output = slurp(out);
  EXPECT_NE(output.find("store stats:"), std::string::npos);
  EXPECT_NE(output.find("backend             : files"), std::string::npos);
  EXPECT_NE(output.find("cache hits"), std::string::npos);
  EXPECT_NE(output.find("cache misses"), std::string::npos);
  EXPECT_NE(output.find("cache invalidations"), std::string::npos);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, ClusterStoreEndToEnd) {
  // The whole cluster surface through the real binaries: profile into a
  // 2-instance cluster (--store-cluster implies the backend), emulate
  // from it, and inspect it WITHOUT the spec (persisted placement).
  const std::string base = "/tmp/synapse_cli_cluster";
  const std::string store = base + "/store";
  const std::string spec = base + "/cluster.json";
  const std::string out = "/tmp/synapse_cli_cluster_out.txt";
  std::system(("rm -rf " + base).c_str());
  ::system(("mkdir -p " + base).c_str());
  {
    std::ofstream f(spec);
    f << "{\"instances\": ["
      << "{\"name\": \"a\", \"root\": \"" << base << "/inst-a\"},"
      << "{\"name\": \"b\", \"root\": \"" << base << "/inst-b\"}]}";
  }

  auto status = run_tool({SYNAPSE_PROFILE_BIN, "--store", store,
                          "--store-cluster", spec, "--", "sleep", "0.1"},
                         out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");

  status = run_tool({SYNAPSE_EMULATE_BIN, "--store", store,
                     "--store-cluster", spec, "--", "sleep", "0.1"},
                    out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  EXPECT_NE(slurp(out).find("emulated: sleep 0.1"), std::string::npos);

  // detect_backend reads "cluster" from the meta file; the persisted
  // placement supplies the instance roots, so no spec flag is needed.
  status = run_tool({SYNAPSE_INSPECT_BIN, "--store", store, "--stats",
                     "show", "--", "sleep", "0.1"},
                    out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  const std::string output = slurp(out);
  EXPECT_NE(output.find("backend             : cluster"),
            std::string::npos);
  EXPECT_NE(output.find("instance a"), std::string::npos);
  EXPECT_NE(output.find("instance b"), std::string::npos);
  std::system(("rm -rf " + base).c_str());
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, ProfileAndEmulateOpenAStoreWithTheBackendItRecords) {
  // Without --store-backend, synapse-profile and synapse-emulate open an
  // existing store with the backend its meta file records, the rule
  // synapse-inspect follows: a docstore store works without the flag.
  const std::string store = "/tmp/synapse_cli_recorded_backend";
  const std::string out = "/tmp/synapse_cli_recorded_backend_out.txt";
  std::filesystem::remove_all(store);
  std::filesystem::copy(
      SYNAPSE_TEST_FIXTURE_DIR "/legacy_json_store/docstore", store,
      std::filesystem::copy_options::recursive);

  auto status = run_tool({SYNAPSE_EMULATE_BIN, "--store", store, "--tag",
                          "fmt", "--kernel", "sleep", "--", "legacy-a"},
                         out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  EXPECT_NE(slurp(out).find("emulated: legacy-a"), std::string::npos);

  status = run_tool({SYNAPSE_PROFILE_BIN, "--store", store, "--rate", "20",
                     "--", "sleep", "0.1"},
                    out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");

  status = run_tool({SYNAPSE_INSPECT_BIN, "--store", store, "--stats",
                     "show", "--", "sleep", "0.1"},
                    out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  EXPECT_NE(slurp(out).find("backend             : docstore"),
            std::string::npos);
  std::filesystem::remove_all(store);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, InspectRejectsClusterSpecOnNonClusterStore) {
  StoreGuard guard;
  const std::string out = "/tmp/synapse_cli_inspect_wrongspec.txt";
  auto status = run_tool(
      {SYNAPSE_PROFILE_BIN, "--store", kStore, "--", "sleep", "0.05"}, out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  // An explicitly given spec must not be silently dropped (it usually
  // means the --store path is wrong).
  status = run_tool({SYNAPSE_INSPECT_BIN, "--store", kStore,
                     "--store-cluster", "/tmp/nonexistent-spec.json", "show",
                     "--", "sleep", "0.05"},
                    out);
  EXPECT_EQ(status.exit_code, 2);
  EXPECT_NE(slurp(out + ".err").find("not a cluster store"),
            std::string::npos);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, ListStoreBackendsShowsRegistry) {
  const std::string out = "/tmp/synapse_cli_backends.txt";
  ASSERT_TRUE(run_tool({SYNAPSE_PROFILE_BIN, "--list-store-backends"}, out)
                  .success());
  const std::string listing = slurp(out);
  for (const std::string name : {"memory", "docstore", "files", "cluster"}) {
    EXPECT_NE(listing.find(name), std::string::npos) << name;
  }
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, UnknownStoreBackendListsRegisteredNames) {
  StoreGuard guard;
  const std::string out = "/tmp/synapse_cli_badbackend.txt";
  const auto status =
      run_tool({SYNAPSE_PROFILE_BIN, "--store", kStore, "--store-backend",
                "oracle", "--", "sleep", "0.05"},
               out);
  EXPECT_EQ(status.exit_code, 1);
  const std::string err = slurp(out + ".err");
  EXPECT_NE(err.find("unknown store backend: oracle"), std::string::npos);
  EXPECT_NE(err.find("registered:"), std::string::npos);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, InspectExportCsv) {
  StoreGuard guard;
  const std::string out = "/tmp/synapse_cli_export.txt";
  const std::string csv = "/tmp/synapse_cli_export.csv";

  auto status = run_tool(
      {SYNAPSE_PROFILE_BIN, "--store", kStore, "--", "sleep", "0.05"}, out);
  ASSERT_TRUE(status.success());

  status = run_tool({SYNAPSE_INSPECT_BIN, "--store", kStore, "export", csv,
                     "--", "sleep", "0.05"},
                    out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  const std::string content = slurp(csv);
  EXPECT_NE(content.find("command,tags,created_at,sample_rate_hz"),
            std::string::npos);
  EXPECT_NE(content.find("sleep 0.05"), std::string::npos);
  ::unlink(csv.c_str());
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, ListScenariosShowsCatalog) {
  const std::string out = "/tmp/synapse_cli_scenarios.txt";
  ASSERT_TRUE(run_tool({SYNAPSE_EMULATE_BIN, "--list-scenarios"}, out)
                  .success());
  const std::string listing = slurp(out);
  for (const auto& s : synapse::workload::builtin_scenarios()) {
    EXPECT_NE(listing.find(s.name), std::string::npos) << s.name;
  }
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, EveryBuiltinScenarioRunsEndToEnd) {
  // Acceptance sweep: every catalog entry replays through the real
  // binary and reports non-zero per-atom stats.
  const std::string out = "/tmp/synapse_cli_scenario_run.txt";
  for (const auto& s : synapse::workload::builtin_scenarios()) {
    const auto status =
        run_tool({SYNAPSE_EMULATE_BIN, "--scenario", s.name}, out);
    ASSERT_TRUE(status.success()) << s.name << ": " << slurp(out + ".err");
    const std::string output = slurp(out);
    EXPECT_NE(output.find("scenario : " + s.name), std::string::npos);
    for (const auto& atom : s.atom_set) {
      EXPECT_NE(output.find("atom " + atom), std::string::npos)
          << s.name << "/" << atom;
    }
    // Every atom consumed every sample; none reports samples=0.
    EXPECT_EQ(output.find("samples=0 "), std::string::npos) << s.name;
    // Every atom line reports its failure count, and none failed.
    for (const auto& atom : s.atom_set) {
      const size_t line = output.find("atom " + atom);
      if (line == std::string::npos) continue;
      const std::string row =
          output.substr(line, output.find('\n', line) - line);
      EXPECT_NE(row.find(" errors=0"), std::string::npos) << row;
    }
  }
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, ScenarioFromJsonFile) {
  const std::string out = "/tmp/synapse_cli_scenario_file.txt";
  const std::string path = "/tmp/synapse_cli_scenario.json";
  {
    std::ofstream f(path);
    f << R"({"name": "file-scn", "atoms": ["storage"], "samples": 4,
             "deltas": {"storage.bytes_written": 65536}})";
  }
  const auto status = run_tool({SYNAPSE_EMULATE_BIN, "--scenario", path}, out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  const std::string output = slurp(out);
  EXPECT_NE(output.find("scenario : file-scn"), std::string::npos);
  EXPECT_NE(output.find("atom storage"), std::string::npos);
  std::remove(path.c_str());
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, ScenarioAndCommandAreMutuallyExclusive) {
  const std::string out = "/tmp/synapse_cli_scenario_conflict.txt";
  const auto status = run_tool({SYNAPSE_EMULATE_BIN, "--scenario",
                                "cpu-bound", "--", "sleep", "0.1"},
                               out);
  EXPECT_EQ(status.exit_code, 2);
  EXPECT_NE(slurp(out + ".err").find("mutually exclusive"),
            std::string::npos);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, BadScenarioIsDiagnosedNotCrashed) {
  const std::string out = "/tmp/synapse_cli_scenario_bad.txt";
  auto status = run_tool(
      {SYNAPSE_EMULATE_BIN, "--scenario", "no-such-scenario"}, out);
  EXPECT_EQ(status.exit_code, 1);
  EXPECT_NE(slurp(out + ".err").find("cpu-bound"), std::string::npos);

  const std::string path = "/tmp/synapse_cli_scenario_broken.json";
  {
    std::ofstream f(path);
    f << "{ definitely not json";
  }
  status = run_tool({SYNAPSE_EMULATE_BIN, "--scenario", path}, out);
  EXPECT_EQ(status.exit_code, 1);
  EXPECT_FALSE(slurp(out + ".err").empty());
  std::remove(path.c_str());
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, HelpAndBadUsage) {
  const std::string out = "/tmp/synapse_cli_help.txt";
  EXPECT_TRUE(run_tool({SYNAPSE_PROFILE_BIN, "--help"}, out).success());
  EXPECT_TRUE(run_tool({SYNAPSE_EMULATE_BIN, "--help"}, out).success());
  EXPECT_TRUE(run_tool({SYNAPSE_INSPECT_BIN, "--help"}, out).success());
  EXPECT_EQ(run_tool({SYNAPSE_PROFILE_BIN}, out).exit_code, 2);
  EXPECT_EQ(run_tool({SYNAPSE_INSPECT_BIN, "bogus-subcommand", "--", "x"},
                     out)
                .exit_code,
            2);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, ListWatchersShowsRegistry) {
  const std::string out = "/tmp/synapse_cli_watchers.txt";
  ASSERT_TRUE(run_tool({SYNAPSE_PROFILE_BIN, "--list-watchers"}, out)
                  .success());
  const std::string listing = slurp(out);
  for (const char* name : {"cpu", "mem", "io", "sys", "trace", "net"}) {
    EXPECT_NE(listing.find(name), std::string::npos) << name;
  }
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, ProfileWithExplicitWatchersRecordsNetSeries) {
  StoreGuard guard;
  const std::string out = "/tmp/synapse_cli_net.txt";

  auto status = run_tool(
      {SYNAPSE_PROFILE_BIN, "--store", kStore, "--rate", "20", "--watchers",
       "cpu, net", "--scheduler", "multiplexed", "--", "sleep", "0.2"},
      out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  // The summary reports the net row only when the watcher ran.
  EXPECT_NE(slurp(out).find("net rx/tx"), std::string::npos);

  status = run_tool(
      {SYNAPSE_INSPECT_BIN, "--store", kStore, "show", "--", "sleep", "0.2"},
      out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  const std::string shown = slurp(out);
  // The per-series listing names both watchers with their rates.
  EXPECT_NE(shown.find("net"), std::string::npos);
  EXPECT_NE(shown.find("cpu"), std::string::npos);
  EXPECT_NE(shown.find("@ 20.0 Hz"), std::string::npos);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, ScenarioProfileRoundTrip) {
  // The paper's "(-)" row, driven purely through the CLIs: record a
  // profiled scenario emulation, then replay the stored profile.
  StoreGuard guard;
  const std::string out = "/tmp/synapse_cli_scn_profile.txt";

  auto status = run_tool({SYNAPSE_EMULATE_BIN, "--scenario",
                          "network-loopback", "--profile", "--store", kStore},
                         out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  const std::string recorded = slurp(out);
  EXPECT_NE(recorded.find("stored as : scenario:network-loopback"),
            std::string::npos);

  status = run_tool({SYNAPSE_EMULATE_BIN, "--store", kStore, "--tag",
                     "builtin", "--tag", "network", "--atoms", "network",
                     "--", "scenario:network-loopback"},
                    out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  EXPECT_NE(slurp(out).find("emulated: scenario:network-loopback"),
            std::string::npos);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, WatcherFlagDiagnostics) {
  const std::string out = "/tmp/synapse_cli_watcher_diag.txt";
  // Unknown watcher: diagnosed (with the registered list) before any
  // child is spawned.
  auto status = run_tool({SYNAPSE_PROFILE_BIN, "--watchers", "bogus", "--",
                          "sleep", "5"},
                         out);
  EXPECT_EQ(status.exit_code, 1);
  EXPECT_NE(slurp(out + ".err").find("unknown watcher"), std::string::npos);
  // Malformed per-watcher rate.
  status = run_tool({SYNAPSE_PROFILE_BIN, "--watcher-rate", "cpu", "--",
                     "true"},
                    out);
  EXPECT_EQ(status.exit_code, 2);
  // Rate override for a watcher that is not in the running set.
  status = run_tool({SYNAPSE_PROFILE_BIN, "--watchers", "cpu,net",
                     "--watcher-rate", "nett=100", "--", "true"},
                    out);
  EXPECT_EQ(status.exit_code, 2);
  EXPECT_NE(slurp(out + ".err").find("not in the watcher set"),
            std::string::npos);
  // Unknown scheduler mode.
  status = run_tool({SYNAPSE_PROFILE_BIN, "--scheduler", "fancy", "--",
                     "true"},
                    out);
  EXPECT_EQ(status.exit_code, 2);
  // --profile without --scenario.
  status = run_tool({SYNAPSE_EMULATE_BIN, "--profile", "--", "true"}, out);
  EXPECT_EQ(status.exit_code, 2);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, AdaptiveProfileEmulateRoundTrip) {
  StoreGuard guard;
  const std::string out = "/tmp/synapse_cli_adaptive.txt";

  // Record under the adaptive scheduler with explicit gate knobs.
  auto status = run_tool(
      {SYNAPSE_PROFILE_BIN, "--store", kStore, "--rate", "50", "--scheduler",
       "adaptive", "--gate-floor", "5", "--gate-hold", "0.2",
       "--watcher-gate", "cpu=5:50:0:0.2", "--tag", "adaptive", "--",
       "sleep", "0.3"},
      out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");

  // The inspect listing explains the variable-rate trajectory (tag
  // filters are conjunctive, so the query names the recording tag).
  status = run_tool({SYNAPSE_INSPECT_BIN, "--store", kStore, "--tag",
                     "adaptive", "show", "--", "sleep", "0.3"},
                    out);
  ASSERT_TRUE(status.success()) << slurp(out + ".err");
  const std::string shown = slurp(out);
  EXPECT_NE(shown.find("variable rate"), std::string::npos) << shown;
  EXPECT_NE(shown.find("gap min/mean/max"), std::string::npos) << shown;

  // The adaptive recording replays: single feed, batched pipeline, and
  // with pacing disabled.
  for (const std::vector<std::string> extra :
       {std::vector<std::string>{},
        std::vector<std::string>{"--replay-batch", "3"},
        std::vector<std::string>{"--pace", "off"}}) {
    std::vector<std::string> argv = {SYNAPSE_EMULATE_BIN, "--store", kStore,
                                     "--tag", "adaptive"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    argv.insert(argv.end(), {"--", "sleep", "0.3"});
    status = run_tool(argv, out);
    ASSERT_TRUE(status.success()) << slurp(out + ".err");
    EXPECT_NE(slurp(out).find("emulated: sleep 0.3"), std::string::npos);
  }
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}

TEST(Cli, AdaptiveFlagDiagnostics) {
  const std::string out = "/tmp/synapse_cli_adaptive_diag.txt";
  // Malformed --watcher-gate spec shapes.
  auto status = run_tool({SYNAPSE_PROFILE_BIN, "--watcher-gate", "cpu=1:2",
                          "--", "true"},
                         out);
  EXPECT_EQ(status.exit_code, 2);
  // Gate override for a watcher outside the running set.
  status = run_tool({SYNAPSE_PROFILE_BIN, "--watchers", "cpu",
                     "--watcher-gate", "mem=1:0:0:2", "--", "true"},
                    out);
  EXPECT_EQ(status.exit_code, 2);
  EXPECT_NE(slurp(out + ".err").find("not in the watcher set"),
            std::string::npos);
  // Out-of-range gate values are rejected before any spawn, naming the
  // watcher.
  status = run_tool({SYNAPSE_PROFILE_BIN, "--scheduler", "adaptive",
                     "--watcher-gate", "cpu=-1:0:0:2", "--", "sleep", "5"},
                    out);
  EXPECT_EQ(status.exit_code, 1);
  EXPECT_NE(slurp(out + ".err").find("cpu"), std::string::npos);
  // Unknown --pace value on the emulator side.
  status = run_tool({SYNAPSE_EMULATE_BIN, "--pace", "sometimes", "--",
                     "true"},
                    out);
  EXPECT_EQ(status.exit_code, 2);
  ::unlink(out.c_str());
  ::unlink((out + ".err").c_str());
}
