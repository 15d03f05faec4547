// Input-script interpreter: command parsing, state sequencing, error
// reporting, and an end-to-end production-style protocol.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "app/interpreter.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "snap/snap_potential.hpp"

namespace ember::app {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

TEST(Interpreter, BuildsLatticeSystems) {
  std::ostringstream out;
  Interpreter interp(out);
  interp.execute("mass 12.011");
  interp.execute("lattice diamond 3.567 repeat 2 2 2");
  EXPECT_TRUE(interp.has_system());
  EXPECT_EQ(interp.system().nlocal(), 64);
  EXPECT_DOUBLE_EQ(interp.system().mass(), 12.011);
  EXPECT_NE(out.str().find("created 64 atoms"), std::string::npos);
}

TEST(Interpreter, CommentsAndBlankLinesAreNoOps) {
  std::ostringstream out;
  Interpreter interp(out);
  interp.execute("");
  interp.execute("   ");
  interp.execute("# a comment");
  interp.execute("lattice fcc 5.26 repeat 2 2 2  # trailing comment");
  EXPECT_EQ(interp.system().nlocal(), 32);
}

TEST(Interpreter, RejectsUnknownCommandsWithLineNumbers) {
  std::ostringstream out;
  Interpreter interp(out);
  try {
    interp.run_script("lattice fcc 5.26\nfrobnicate 3\n");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
  }
}

TEST(Interpreter, RejectsMalformedArguments) {
  std::ostringstream out;
  Interpreter interp(out);
  EXPECT_THROW(interp.execute("lattice diamond"), Error);       // missing a
  EXPECT_THROW(interp.execute("lattice pyrite 3.0"), Error);    // bad kind
  EXPECT_THROW(interp.execute("potential unobtainium"), Error); // bad pot
  EXPECT_THROW(interp.execute("run 10"), Error);  // no system/potential
}

TEST(Interpreter, RunsLjDynamicsEndToEnd) {
  std::ostringstream out;
  Interpreter interp(out);
  interp.run_script(R"(
    mass 39.948
    lattice fcc 5.26 repeat 3 3 3
    potential lj 0.0104 3.4 6.5
    thermalize 40 seed 7
    timestep 0.002
    log every 25
    run 50
  )");
  EXPECT_EQ(interp.total_steps(), 50);
  EXPECT_NE(out.str().find("step 25"), std::string::npos);
  EXPECT_NE(out.str().find("step 50"), std::string::npos);
}

TEST(Interpreter, ThermostatAndTimestepApplyMidRun) {
  std::ostringstream out;
  Interpreter interp(out);
  interp.run_script(R"(
    mass 39.948
    lattice fcc 5.26 repeat 2 2 2
    potential lj 0.0104 3.4 6.5
    thermalize 10 seed 3
    timestep 0.002
    run 20
    thermostat langevin 80 0.05
    run 300
  )");
  // Langevin attached after the first run must have heated the system.
  EXPECT_GT(interp.simulation()->system().temperature(), 40.0);
}

TEST(Interpreter, DumpAndCheckpointFiles) {
  const std::string xyz = "/tmp/ember_interp_test.xyz";
  const std::string ckpt = "/tmp/ember_interp_test.bin";
  std::remove(xyz.c_str());
  std::remove(ckpt.c_str());
  std::ostringstream out;
  Interpreter interp(out);
  interp.run_script("mass 39.948\n"
                    "lattice fcc 5.26 repeat 2 2 2\n"
                    "potential lj 0.0104 3.4 6.5\n"
                    "timestep 0.002\n"
                    "dump every 10 " + xyz + "\n"
                    "checkpoint every 10 " + ckpt + "\n"
                    "run 20\n");
  std::ifstream xyz_in(xyz);
  EXPECT_TRUE(xyz_in.good());
  int frames = 0;
  std::string line;
  while (std::getline(xyz_in, line)) {
    if (line == "32") ++frames;
  }
  EXPECT_EQ(frames, 2);  // steps 10 and 20

  // Restart from the checkpoint in a fresh interpreter.
  std::ostringstream out2;
  Interpreter interp2(out2);
  interp2.run_script("read_checkpoint " + ckpt + "\n"
                     "potential lj 0.0104 3.4 6.5\n"
                     "timestep 0.002\n"
                     "run 5\n");
  EXPECT_EQ(interp2.total_steps(), 5);
  std::remove(xyz.c_str());
  std::remove(ckpt.c_str());
}

TEST(Interpreter, AnalyzeReportsPhases) {
  std::ostringstream out;
  Interpreter interp(out);
  interp.run_script(R"(
    lattice bc8 4.46 repeat 2 2 2
    analyze
  )");
  EXPECT_NE(out.str().find("bc8 100%"), std::string::npos);
}

TEST(Interpreter, ThreadsCommandSetsExecutionPolicy) {
  std::ostringstream out;
  Interpreter interp(out);
  // Before the simulation exists the count is staged...
  interp.run_script(R"(
    mass 39.948
    lattice fcc 5.26 repeat 2 2 2
    potential lj 0.0104 3.4 6.5
    threads 3
    run 5
  )");
  ASSERT_NE(interp.simulation(), nullptr);
  EXPECT_EQ(interp.simulation()->context().nthreads(), 3);
  // ...and after it exists the policy is swapped in place.
  interp.execute("threads 1");
  EXPECT_EQ(interp.simulation()->context().nthreads(), 1);
  interp.execute("run 5");
  EXPECT_EQ(interp.total_steps(), 10);
  EXPECT_THROW(interp.execute("threads 0"), Error);
  EXPECT_THROW(interp.execute("threads lots"), Error);
}

TEST(Interpreter, RanksCommandRunsDomainDecomposed) {
  std::ostringstream out;
  Interpreter interp(out);
  interp.run_script(R"(
    mass 39.948
    lattice fcc 5.26 repeat 3 3 3
    potential lj 0.0104 3.4 6.5
    thermalize 40 seed 7
    timestep 0.002
    ranks 2
    log every 15
    run 30
  )");
  EXPECT_EQ(interp.total_steps(), 30);
  // State gathered back after the run: full system, no serial Simulation.
  EXPECT_EQ(interp.system().nlocal(), 108);
  EXPECT_EQ(interp.simulation(), nullptr);
  EXPECT_NE(out.str().find("step 30"), std::string::npos);
  // Back to serial mode, the gathered state keeps evolving.
  interp.execute("ranks 1");
  interp.execute("run 5");
  EXPECT_EQ(interp.total_steps(), 35);
}

TEST(Interpreter, TransportCommandSelectsBackend) {
  std::ostringstream out;
  Interpreter interp(out);
  interp.execute("transport socket");
  EXPECT_NE(out.str().find("transport socket"), std::string::npos);
  interp.execute("transport thread");
  EXPECT_NE(out.str().find("transport thread"), std::string::npos);
  EXPECT_THROW(interp.execute("transport avian"), Error);
  EXPECT_THROW(interp.execute("transport"), Error);
}

TEST(Interpreter, SocketTransportRunsDomainDecomposed) {
  // Same protocol as RanksCommandRunsDomainDecomposed, but the ranks are
  // forked processes. Log lines land on the child's stdout, not on our
  // ostringstream, so assert on the gathered state instead.
  std::ostringstream out;
  Interpreter interp(out);
  interp.run_script(R"(
    mass 39.948
    lattice fcc 5.26 repeat 3 3 3
    potential lj 0.0104 3.4 6.5
    thermalize 40 seed 7
    timestep 0.002
    transport socket
    ranks 2
    run 30
  )");
  EXPECT_EQ(interp.total_steps(), 30);
  EXPECT_EQ(interp.system().nlocal(), 108);
  EXPECT_EQ(interp.simulation(), nullptr);
  // The gathered state keeps evolving back in serial mode.
  interp.execute("ranks 1");
  interp.execute("run 5");
  EXPECT_EQ(interp.total_steps(), 35);
}

TEST(Interpreter, ElasticRescaleAcrossCheckpoint) {
  // The rescaling story from DESIGN.md: checkpoint a 4-rank socket run,
  // then restart the same trajectory on 2 ranks. The checkpoint is a
  // plain global-system file, so rank geometry is free to change.
  const std::string ckpt = "/tmp/ember_interp_rescale.bin";
  std::remove(ckpt.c_str());
  std::ostringstream out;
  Interpreter interp(out);
  interp.run_script("mass 39.948\n"
                    "lattice fcc 5.26 repeat 3 3 3\n"
                    "potential lj 0.0104 3.4 6.5\n"
                    "thermalize 40 seed 11\n"
                    "timestep 0.002\n"
                    "transport socket\n"
                    "ranks 4\n"
                    "checkpoint every 20 " + ckpt + "\n"
                    "run 20\n");
  EXPECT_EQ(interp.system().nlocal(), 108);

  std::ostringstream out2;
  Interpreter interp2(out2);
  interp2.run_script("read_checkpoint " + ckpt + "\n"
                     "potential lj 0.0104 3.4 6.5\n"
                     "timestep 0.002\n"
                     "transport socket\n"
                     "ranks 2\n"
                     "run 10\n");
  EXPECT_EQ(interp2.total_steps(), 10);
  EXPECT_EQ(interp2.system().nlocal(), 108);
  std::remove(ckpt.c_str());
}

TEST(Interpreter, AsyncIoElasticRestartAcrossRankCounts) {
  // The PR-8 restart story: the checkpoint is written through the async
  // writer pipeline by forked socket ranks (rank 0 drains before the
  // gather, and tmp+rename means the file on disk is always complete),
  // then a fresh interpreter restarts the run on a DIFFERENT rank count,
  // dumping a compressed trajectory that streams back through the
  // analysis layer.
  const std::string ckpt = "/tmp/ember_interp_async_rescale.bin";
  const std::string traj = "/tmp/ember_interp_async_rescale.embt1";
  std::remove(ckpt.c_str());
  std::remove(traj.c_str());
  std::ostringstream out;
  Interpreter interp(out);
  interp.run_script("io async\n"
                    "mass 39.948\n"
                    "lattice fcc 5.26 repeat 3 3 3\n"
                    "potential lj 0.0104 3.4 6.5\n"
                    "thermalize 40 seed 13\n"
                    "timestep 0.002\n"
                    "transport socket\n"
                    "ranks 4\n"
                    "checkpoint every 20 " + ckpt + "\n"
                    "run 20\n");
  EXPECT_EQ(interp.system().nlocal(), 108);

  std::ostringstream out2;
  Interpreter interp2(out2);
  interp2.run_script("io async\n"
                     "read_checkpoint " + ckpt + "\n"
                     "potential lj 0.0104 3.4 6.5\n"
                     "timestep 0.002\n"
                     "transport socket\n"
                     "ranks 2\n"
                     "dump every 5 " + traj + " ember_traj\n"
                     "run 10\n"
                     "analyze trajectory " + traj + "\n");
  EXPECT_EQ(interp2.total_steps(), 10);
  EXPECT_EQ(interp2.system().nlocal(), 108);
  EXPECT_NE(out2.str().find("analyzed 2 frames from " + traj),
            std::string::npos)
      << out2.str();
  EXPECT_NE(out2.str().find("atoms 108"), std::string::npos) << out2.str();
  std::remove(ckpt.c_str());
  std::remove(traj.c_str());
}

TEST(Interpreter, ReplicasCommandRunsLockstepBatch) {
  const std::string ckpt = "/tmp/ember_interp_batch.bin";
  std::remove(ckpt.c_str());
  std::ostringstream out;
  Interpreter interp(out);
  interp.run_script("mass 39.948\n"
                    "lattice fcc 5.26 repeat 2 2 2\n"
                    "potential lj 0.0104 3.4 6.5\n"
                    "thermalize 30 seed 5\n"
                    "timestep 0.002\n"
                    "replicas 3\n"
                    "checkpoint every 10 " + ckpt + "\n"
                    "run 20\n");
  EXPECT_EQ(interp.total_steps(), 20);
  ASSERT_NE(interp.batched(), nullptr);
  EXPECT_EQ(interp.batched()->num_replicas(), 3);

  // The checkpoint is the multi-replica format; restoring it re-enters
  // replica mode in a fresh interpreter.
  std::ostringstream out2;
  Interpreter interp2(out2);
  interp2.run_script("read_checkpoint " + ckpt + "\n"
                     "potential lj 0.0104 3.4 6.5\n"
                     "timestep 0.002\n"
                     "run 5\n");
  ASSERT_NE(interp2.batched(), nullptr);
  EXPECT_EQ(interp2.batched()->num_replicas(), 3);
  EXPECT_NE(out2.str().find("restored 3 replicas"), std::string::npos);
  std::remove(ckpt.c_str());
}

TEST(Interpreter, RanksAndReplicasAreMutuallyExclusive) {
  std::ostringstream out;
  Interpreter interp(out);
  interp.execute("ranks 2");
  EXPECT_THROW(interp.execute("replicas 2"), Error);
  interp.execute("ranks 1");
  interp.execute("replicas 2");
  EXPECT_THROW(interp.execute("ranks 4"), Error);
}

TEST(Interpreter, BarostatRequiresSerialMode) {
  std::ostringstream out;
  Interpreter interp(out);
  interp.run_script(R"(
    mass 39.948
    lattice fcc 5.26 repeat 3 3 3
    potential lj 0.0104 3.4 6.5
    barostat berendsen 1000 0.1 1e-6
    ranks 2
  )");
  EXPECT_THROW(interp.execute("run 10"), Error);
}

TEST(Interpreter, TraceAndMetricsCommandsWriteValidJson) {
  const char* trace_path = "/tmp/ember_test_trace.json";
  const char* metrics_path = "/tmp/ember_test_metrics.json";
  std::ostringstream out;
  {
    Interpreter interp(out);
    interp.run_script(R"(
      mass 39.948
      lattice fcc 5.26 repeat 2 2 2
      potential lj 0.0104 3.4 6.5
      thermalize 40 seed 7
      timestep 0.002
      trace on /tmp/ember_test_trace.json
      run 20
      trace off
      metrics dump /tmp/ember_test_metrics.json
    )");
  }
  EXPECT_NE(out.str().find("trace written to"), std::string::npos);
  EXPECT_NE(out.str().find("metrics written to"), std::string::npos);

  const std::string trace = slurp(trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(obs::json_valid(trace));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"step\""), std::string::npos);

  const std::string metrics = slurp(metrics_path);
  ASSERT_FALSE(metrics.empty());
  EXPECT_TRUE(obs::json_valid(metrics));
  EXPECT_NE(metrics.find("md.steps"), std::string::npos);

  std::remove(trace_path);
  std::remove(metrics_path);
}

TEST(Interpreter, ActiveTraceFlushesWhenTheInterpreterDies) {
  const char* trace_path = "/tmp/ember_test_trace_dtor.json";
  std::ostringstream out;
  {
    Interpreter interp(out);
    interp.run_script(R"(
      mass 39.948
      lattice fcc 5.26 repeat 2 2 2
      potential lj 0.0104 3.4 6.5
      timestep 0.002
      trace on /tmp/ember_test_trace_dtor.json
      run 5
    )");
    // Script ended with the trace still on; the destructor flushes it.
  }
  const std::string trace = slurp(trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(obs::json_valid(trace));
  std::remove(trace_path);
}

TEST(Interpreter, ProductionStyleProtocol) {
  // Miniature version of the paper's production input: Tersoff carbon,
  // Langevin schedule, barostat, periodic analyze.
  std::ostringstream out;
  Interpreter interp(out);
  interp.run_script(R"(
    mass 12.011
    lattice diamond 3.70 repeat 2 2 2
    potential tersoff
    thermalize 300 seed 9
    timestep 0.0002
    thermostat langevin 5000 0.05
    barostat berendsen 2e6 0.1 2e-7
    run 150
    analyze
  )");
  EXPECT_EQ(interp.total_steps(), 150);
  EXPECT_NE(out.str().find("phases:"), std::string::npos);
  // Pressure coupling engaged: box must have shrunk from the initial 7.4.
  EXPECT_LT(interp.simulation()->system().box().length(0), 7.4);
}

TEST(Interpreter, SnapPotentialLoadsModelFile) {
  const std::string model_path = "interp_snap_model.txt";
  {
    snap::SnapParams p;
    p.twojmax = 4;
    p.rcut = 2.0;
    snap::SnapModel m;
    m.params = p;
    m.beta.assign(snap::SnapIndex(p.twojmax).num_b(), 0.05);
    m.beta0 = -1.0;
    m.save(model_path);
  }

  std::ostringstream out;
  Interpreter interp(out);
  interp.run_script("mass 12.011\n"
                    "lattice diamond 3.567 repeat 2 2 2\n"
                    "potential snap " + model_path + "\n"
                    "thermalize 300 seed 4\n"
                    "timestep 0.0005\n"
                    "run 10\n");
  EXPECT_EQ(interp.total_steps(), 10);
  EXPECT_NE(out.str().find("snap/adjoint"), std::string::npos);
  std::remove(model_path.c_str());

  // A missing model file is an error that names the path.
  try {
    interp.execute("potential snap no_such_model.snap");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_model.snap"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace ember::app
