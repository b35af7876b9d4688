// Exec subsystem tests: thread-pool lifecycle, parallel_for_each exception
// propagation / cancellation / oversubscription / empty input, ordered
// reduction, and the headline guarantee — run_monte_carlo and the mesh
// packet engine are bit-identical across jobs values for a fixed seed.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/shard_plan.h"
#include "exec/thread_pool.h"
#include "mesh/runner.h"
#include "obs/telemetry.h"
#include "runner/montecarlo.h"

namespace paai::exec {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndShutsDownCleanly) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains the queue and joins
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.shutdown();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ParallelForEach, ZeroItemsReturnsImmediately) {
  const ExecTelemetry t =
      parallel_for_each(0, [](std::size_t) { FAIL(); }, 8);
  EXPECT_EQ(t.task_seconds.count(), 0u);
}

TEST(ParallelForEach, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{7}}) {
    std::vector<std::atomic<int>> hits(257);
    const ExecTelemetry t = parallel_for_each(
        hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); }, jobs);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(t.task_seconds.count(), hits.size());
  }
}

TEST(ParallelForEach, OversubscriptionClampsToItemCount) {
  const ExecTelemetry t =
      parallel_for_each(3, [](std::size_t) {}, 64);
  EXPECT_EQ(t.jobs, 3u);
  EXPECT_EQ(t.task_seconds.count(), 3u);
}

TEST(ParallelForEach, PropagatesExceptionAndCancelsPendingWork) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<std::size_t> executed{0};
    EXPECT_THROW(
        parallel_for_each(
            10000,
            [&executed](std::size_t) {
              executed.fetch_add(1);
              throw std::runtime_error("boom");
            },
            jobs),
        std::runtime_error);
    // Cancellation: the overwhelming majority of items never ran.
    EXPECT_LT(executed.load(), 10000u);
  }
}

TEST(ShardPlan, SeedsAreFixedUpFrontAndAdditive) {
  const ShardPlan plan(1000, 5);
  ASSERT_EQ(plan.count(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(plan.seed(i), 1000u + i);
}

TEST(ShardPlan, PartitionCoversRangeContiguously) {
  const ShardPlan plan(0, 10);
  const auto shards = plan.partition(3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards.front().first, 0u);
  EXPECT_EQ(shards.back().second, 10u);
  for (std::size_t s = 1; s < shards.size(); ++s) {
    EXPECT_EQ(shards[s].first, shards[s - 1].second);
  }
  EXPECT_TRUE(plan.partition(0).size() == 1u);
  EXPECT_TRUE(ShardPlan(0, 0).partition(4).empty());
}

TEST(OrderedReducer, FoldsInIndexOrderRegardlessOfCommitOrder) {
  std::vector<std::size_t> folded;
  OrderedReducer<std::size_t> reducer(
      4, [&folded](std::size_t i, std::size_t&& v) {
        EXPECT_EQ(i, v);
        folded.push_back(v);
      });
  reducer.commit(2, 2);
  reducer.commit(0, 0);
  EXPECT_EQ(folded, (std::vector<std::size_t>{0}));
  reducer.commit(1, 1);
  EXPECT_EQ(folded, (std::vector<std::size_t>{0, 1, 2}));
  reducer.commit(3, 3);
  EXPECT_EQ(reducer.completed(), 4u);
}

runner::MonteCarloConfig small_mc(std::size_t jobs) {
  runner::MonteCarloConfig mc;
  mc.base = runner::paper_config(protocols::ProtocolKind::kFullAck, 1500, 0);
  mc.base.checkpoints = runner::log_checkpoints(100, 1500, 6);
  mc.base.storage_sample_period = sim::milliseconds(20.0);
  mc.runs = 8;
  mc.seed0 = 4242;
  mc.storage_bins = 12;
  mc.storage_horizon_seconds = 16.0;
  mc.jobs = jobs;
  return mc;
}

// The headline determinism guarantee: jobs=8 is bit-identical to jobs=1.
TEST(Determinism, MonteCarloIsBitIdenticalAcrossJobCounts) {
  const runner::MonteCarloResult serial =
      runner::run_monte_carlo(small_mc(1));
  const runner::MonteCarloResult parallel =
      runner::run_monte_carlo(small_mc(8));

  ASSERT_EQ(serial.curve.size(), parallel.curve.size());
  for (std::size_t i = 0; i < serial.curve.size(); ++i) {
    EXPECT_EQ(serial.curve[i].packets, parallel.curve[i].packets);
    EXPECT_EQ(serial.curve[i].fp, parallel.curve[i].fp);
    EXPECT_EQ(serial.curve[i].fn, parallel.curve[i].fn);
  }
  EXPECT_EQ(serial.detection_packets, parallel.detection_packets);
  EXPECT_EQ(serial.per_run_detection_packets.count(),
            parallel.per_run_detection_packets.count());
  EXPECT_EQ(serial.per_run_detection_packets.mean(),
            parallel.per_run_detection_packets.mean());
  EXPECT_EQ(serial.per_run_detection_packets.stddev(),
            parallel.per_run_detection_packets.stddev());
  EXPECT_EQ(serial.final_e2e_rate.mean(), parallel.final_e2e_rate.mean());
  EXPECT_EQ(serial.total_events, parallel.total_events);
  ASSERT_EQ(serial.final_thetas.size(), parallel.final_thetas.size());
  for (std::size_t i = 0; i < serial.final_thetas.size(); ++i) {
    EXPECT_EQ(serial.final_thetas[i].mean(), parallel.final_thetas[i].mean());
    EXPECT_EQ(serial.final_thetas[i].variance(),
              parallel.final_thetas[i].variance());
  }
  ASSERT_EQ(serial.storage_grids.size(), parallel.storage_grids.size());
  for (std::size_t g = 0; g < serial.storage_grids.size(); ++g) {
    ASSERT_EQ(serial.storage_grids[g].size(), parallel.storage_grids[g].size());
    for (std::size_t i = 0; i < serial.storage_grids[g].size(); ++i) {
      EXPECT_EQ(serial.storage_grids[g].stat(i).mean(),
                parallel.storage_grids[g].stat(i).mean());
      EXPECT_EQ(serial.storage_grids[g].stat(i).max(),
                parallel.storage_grids[g].stat(i).max());
    }
  }
}

TEST(Determinism, FleetIsBitIdenticalAcrossJobCounts) {
  // A Corollary 2 fleet: the mesh packet engine on four link-disjoint
  // chains, path p's hop j at mesh link 6p + j.
  mesh::MeshConfig cfg;
  cfg.topo = mesh::Topology::parse("linear@4:hops=6");
  cfg.paths = cfg.topo.enumerate_paths(4, /*seed=*/0);
  cfg.engine = mesh::MeshEngine::kPacket;
  cfg.packet_base =
      runner::paper_config(protocols::ProtocolKind::kFullAck, 800, 0);
  cfg.packet_base.link_faults.clear();
  cfg.link_faults = {{4, 0.05}, {6 + 2, 0.05}, {18 + 1, 0.05}, {18 + 3, 0.05}};
  cfg.seed0 = 777;

  cfg.jobs = 1;
  const mesh::MeshResult serial = mesh::run_mesh(cfg);
  cfg.jobs = 4;
  const mesh::MeshResult parallel = mesh::run_mesh(cfg);

  EXPECT_EQ(serial.total_damage, parallel.total_damage);
  EXPECT_EQ(serial.baseline_delivery, parallel.baseline_delivery);
  ASSERT_EQ(serial.path_outcomes.size(), parallel.path_outcomes.size());
  for (std::size_t i = 0; i < serial.path_outcomes.size(); ++i) {
    const mesh::MeshPathOutcome& s = serial.path_outcomes[i];
    const mesh::MeshPathOutcome& p = parallel.path_outcomes[i];
    EXPECT_EQ(s.ground_truth_delivery, p.ground_truth_delivery);
    EXPECT_EQ(s.observed_e2e_rate, p.observed_e2e_rate);
    EXPECT_EQ(s.convicted, p.convicted);
    EXPECT_EQ(s.all_malicious_convicted, p.all_malicious_convicted);
  }
  ASSERT_EQ(serial.links.size(), parallel.links.size());
  for (std::size_t l = 0; l < serial.links.size(); ++l) {
    EXPECT_EQ(serial.links[l].units, parallel.links[l].units);
    EXPECT_EQ(serial.links[l].blames, parallel.links[l].blames);
    EXPECT_EQ(serial.links[l].convicted, parallel.links[l].convicted);
    EXPECT_EQ(serial.links[l].witnesses, parallel.links[l].witnesses);
  }
}

TEST(Progress, IsMonotonicCompletedCountUnderParallelism) {
  runner::MonteCarloConfig mc = small_mc(4);
  mc.storage_bins = 0;  // keep it light
  mc.base.storage_sample_period = 0;
  // A sink sampling every unit sees one tick per completed run, from the
  // serialized reducer: units 1..runs in order.
  std::ostringstream lines;
  obs::TelemetrySink sink(lines, 1);
  mc.telemetry = &sink;
  const runner::MonteCarloResult r = runner::run_monte_carlo(mc);
  EXPECT_EQ(r.runs, mc.runs);
  std::istringstream in(lines.str());
  const obs::TelemetryLog log = obs::read_telemetry(in);
  EXPECT_EQ(log.bad_lines, 0u) << log.first_error;
  ASSERT_EQ(log.samples.size(), mc.runs);
  for (std::size_t i = 0; i < log.samples.size(); ++i) {
    EXPECT_EQ(log.samples[i].units, i + 1);
  }
}

TEST(Telemetry, PopulatedOnSerialAndParallelPaths) {
  runner::MonteCarloConfig mc = small_mc(1);
  mc.storage_bins = 0;
  mc.base.storage_sample_period = 0;
  mc.runs = 3;
  const runner::MonteCarloResult serial = runner::run_monte_carlo(mc);
  EXPECT_EQ(serial.exec.jobs, 1u);
  EXPECT_EQ(serial.exec.task_seconds.count(), 3u);
  EXPECT_GT(serial.exec.wall_seconds, 0.0);
  EXPECT_GT(serial.exec.utilization(), 0.0);

  mc.jobs = 2;
  const runner::MonteCarloResult parallel = runner::run_monte_carlo(mc);
  EXPECT_EQ(parallel.exec.jobs, 2u);
  EXPECT_EQ(parallel.exec.task_seconds.count(), 3u);
}

}  // namespace
}  // namespace paai::exec
