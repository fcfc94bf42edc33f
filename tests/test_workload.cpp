#include "workload/scheduler.hpp"
#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include "profile/metrics.hpp"
#include "resource/resource_spec.hpp"
#include "sys/error.hpp"

namespace workload = synapse::workload;
namespace profile = synapse::profile;
namespace resource = synapse::resource;
namespace m = synapse::metrics;

namespace {

struct HostGuard {
  HostGuard() { resource::activate_resource("host"); }
  ~HostGuard() { resource::activate_resource("host"); }
};

/// A compute-only profile consuming ~`seconds` of CPU on the host.
profile::Profile compute_profile(double seconds) {
  profile::Profile p;
  p.command = "synthetic";
  p.sample_rate_hz = 10.0;
  profile::TimeSeries trace;
  trace.watcher = "trace";
  const size_t row = trace.samples.add_row(100.0);
  trace.samples.set(row, m::kCyclesUsed,
                    seconds * resource::get_resource("host").turbo_hz);
  p.series.push_back(std::move(trace));
  return p;
}

workload::TaskSpec compute_task(const std::string& name, double seconds) {
  workload::TaskSpec task;
  task.name = name;
  task.profile = compute_profile(seconds);
  task.options.emulate_storage = false;
  task.options.emulate_memory = false;
  return task;
}

}  // namespace

TEST(Workload, BuildAndValidate) {
  workload::Workload w("test");
  auto& stage = w.add_stage("sim");
  stage.tasks.push_back(compute_task("a", 0.01));
  stage.tasks.push_back(compute_task("b", 0.01));
  w.add_stage("analysis").tasks.push_back(compute_task("c", 0.01));
  EXPECT_EQ(w.task_count(), 3u);
  EXPECT_NO_THROW(w.validate());
}

TEST(Workload, ValidationCatchesErrors) {
  workload::Workload empty_stage("w");
  empty_stage.add_stage("s");
  EXPECT_THROW(empty_stage.validate(), synapse::sys::ConfigError);

  workload::Workload dup("w");
  auto& stage = dup.add_stage("s");
  stage.tasks.push_back(compute_task("same", 0.01));
  stage.tasks.push_back(compute_task("same", 0.01));
  EXPECT_THROW(dup.validate(), synapse::sys::ConfigError);

  workload::Workload bad_iter("w");
  auto task = compute_task("t", 0.01);
  task.iterations = 0;
  bad_iter.add_stage("s").tasks.push_back(task);
  EXPECT_THROW(bad_iter.validate(), synapse::sys::ConfigError);

  workload::Workload unnamed("w");
  auto anon = compute_task("", 0.01);
  unnamed.add_stage("s").tasks.push_back(anon);
  EXPECT_THROW(unnamed.validate(), synapse::sys::ConfigError);
}

TEST(Workload, ReplicateTask) {
  workload::Workload w("ensemble");
  w.replicate_task(compute_task("member", 0.01), 5);
  EXPECT_EQ(w.task_count(), 5u);
  EXPECT_EQ(w.stages().front().tasks[0].name, "member-0");
  EXPECT_EQ(w.stages().front().tasks[4].name, "member-4");
  EXPECT_NO_THROW(w.validate());
}

TEST(Scheduler, RunsAllTasks) {
  HostGuard guard;
  workload::Workload w("run-all");
  w.replicate_task(compute_task("t", 0.02), 6);

  workload::Scheduler scheduler({.max_concurrent = 3, .keep_going = true});
  const auto result = scheduler.run(w);
  EXPECT_EQ(result.tasks.size(), 6u);
  EXPECT_TRUE(result.all_ok());
  EXPECT_GT(result.makespan_seconds, 0.0);
  EXPECT_EQ(result.stage_end_seconds.size(), 1u);
}

TEST(Scheduler, ConcurrencyShortensMakespan) {
  HostGuard guard;
  workload::Workload w("scaling");
  w.replicate_task(compute_task("t", 0.05), 8);

  workload::Scheduler serial({.max_concurrent = 1, .keep_going = true});
  const double t1 = serial.run(w).makespan_seconds;

  workload::Scheduler parallel({.max_concurrent = 8, .keep_going = true});
  const double t8 = parallel.run(w).makespan_seconds;

  EXPECT_LT(t8, t1 * 0.5);
}

TEST(Scheduler, StagesAreBarriers) {
  HostGuard guard;
  workload::Workload w("barrier");
  auto& s1 = w.add_stage("first");
  s1.tasks.push_back(compute_task("long", 0.1));
  s1.tasks.push_back(compute_task("short", 0.01));
  w.add_stage("second").tasks.push_back(compute_task("after", 0.01));

  workload::Scheduler scheduler({.max_concurrent = 4, .keep_going = true});
  const auto result = scheduler.run(w);
  ASSERT_TRUE(result.all_ok());

  // Find task start times by name.
  double long_end = 0.0, after_start = 0.0;
  for (const auto& t : result.tasks) {
    if (t.name == "long") long_end = t.end_seconds;
    if (t.name == "after") after_start = t.start_seconds;
  }
  // The second stage must not start before the slowest first-stage task
  // finished.
  EXPECT_GE(after_start + 1e-3, long_end);
}

TEST(Scheduler, IterationsMultiplyWork) {
  HostGuard guard;
  workload::Workload w("iters");
  auto task = compute_task("looped", 0.03);
  task.iterations = 3;
  w.add_stage("s").tasks.push_back(task);

  workload::Scheduler scheduler({.max_concurrent = 1, .keep_going = true});
  const auto result = scheduler.run(w);
  ASSERT_EQ(result.tasks.size(), 1u);
  EXPECT_GE(result.tasks[0].busy_seconds, 0.07);
}

TEST(Scheduler, UtilizationBounded) {
  HostGuard guard;
  workload::Workload w("util");
  w.replicate_task(compute_task("t", 0.04), 4);
  workload::Scheduler scheduler({.max_concurrent = 2, .keep_going = true});
  const auto result = scheduler.run(w);
  const double u = result.utilization(2);
  EXPECT_GT(u, 0.3);
  EXPECT_LE(u, 1.05);  // slight over-read possible from timer granularity
}

TEST(Scheduler, HeterogeneousTasksPerStage) {
  HostGuard guard;
  // The Ensemble Toolkit motivation: vary duration and count per stage.
  workload::Workload w("hetero");
  auto& sim = w.add_stage("simulation");
  sim.tasks.push_back(compute_task("md-big", 0.06));
  sim.tasks.push_back(compute_task("md-small-1", 0.01));
  sim.tasks.push_back(compute_task("md-small-2", 0.01));
  auto& ana = w.add_stage("analysis");
  ana.tasks.push_back(compute_task("reduce", 0.02));

  workload::Scheduler scheduler({.max_concurrent = 3, .keep_going = true});
  const auto result = scheduler.run(w);
  EXPECT_TRUE(result.all_ok());
  EXPECT_EQ(result.tasks.size(), 4u);
  EXPECT_EQ(result.stage_end_seconds.size(), 2u);
  EXPECT_LT(result.stage_end_seconds[0], result.stage_end_seconds[1]);
}

TEST(Scheduler, InvalidWorkloadThrows) {
  workload::Workload w("invalid");
  w.add_stage("empty");
  workload::Scheduler scheduler;
  EXPECT_THROW(scheduler.run(w), synapse::sys::ConfigError);
}
