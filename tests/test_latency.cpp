#include "analysis/latency.hpp"

#include <gtest/gtest.h>

#include "protocol/rounds.hpp"

namespace pbl::analysis {
namespace {

const protocol::Timing kPaperTiming{};  // delta = 40 ms, T = 300 ms

TEST(Latency, ZeroLossIsPureSerialization) {
  // With p = 0 every scheme takes one round: k (or k+h) packet slots.
  const double d = kPaperTiming.delta;
  EXPECT_NEAR(expected_latency_nofec(7, 0.0, 1e6, kPaperTiming), 7 * d, 1e-12);
  EXPECT_NEAR(expected_latency_layered(7, 2, 0.0, 1e6, kPaperTiming), 9 * d,
              1e-12);
  EXPECT_NEAR(expected_latency_integrated(7, 0.0, 1e6, kPaperTiming), 7 * d,
              1e-12);
  EXPECT_NEAR(expected_latency_stream(7, 0.0, 1e6, kPaperTiming), 7 * d,
              1e-12);
}

TEST(Latency, Validation) {
  EXPECT_THROW(expected_latency_nofec(7, 1.0, 10, kPaperTiming),
               std::invalid_argument);
  EXPECT_THROW(expected_latency_nofec(7, 0.1, 0.5, kPaperTiming),
               std::invalid_argument);
  protocol::Timing bad;
  bad.delta = 0.0;
  EXPECT_THROW(expected_latency_nofec(7, 0.1, 10, bad), std::invalid_argument);
}

TEST(Latency, MonotoneInReceiversAndLoss) {
  double prev = 0.0;
  for (double r : {1.0, 10.0, 1e3, 1e6}) {
    const double t = expected_latency_integrated(7, 0.01, r, kPaperTiming);
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_GT(expected_latency_nofec(7, 0.05, 100, kPaperTiming),
            expected_latency_nofec(7, 0.01, 100, kPaperTiming));
}

TEST(Latency, StreamIsTheLatencyOptimum) {
  // FEC1 has no feedback gaps: it must be the fastest integrated scheme.
  for (double r : {1.0, 100.0, 1e5}) {
    EXPECT_LT(expected_latency_stream(7, 0.01, r, kPaperTiming),
              expected_latency_integrated(7, 0.01, r, kPaperTiming) + 1e-12);
  }
}

TEST(Latency, IntegratedBeatsNofecAtScale) {
  // Fewer rounds and fewer transmissions: the paper's expected latency
  // reduction, quantified.
  const double nofec = expected_latency_nofec(7, 0.01, 1e5, kPaperTiming);
  const double integrated =
      expected_latency_integrated(7, 0.01, 1e5, kPaperTiming);
  EXPECT_LT(integrated, nofec);
}

class LatencyVsSimulation
    : public ::testing::TestWithParam<std::tuple<std::int64_t, double>> {};

TEST_P(LatencyVsSimulation, NofecModelTracksSimulatedCompletionTime) {
  const auto [receivers, p] = GetParam();
  loss::BernoulliLossModel model(p);
  protocol::ProcessBatchTransmitter tx(model,
                                       static_cast<std::size_t>(receivers),
                                       Rng(11));
  protocol::McConfig cfg;
  cfg.k = 7;
  cfg.num_tgs = 1500;
  cfg.timing = kPaperTiming;
  const auto sim = protocol::sim_nofec(tx, cfg);
  const double model_t = expected_latency_nofec(7, p, receivers, kPaperTiming);
  // The model inherits Eq. (17)'s upper-bound character: it must cover
  // the simulated time without grossly overshooting it.
  EXPECT_GE(model_t, 0.95 * sim.mean_time) << "R=" << receivers << " p=" << p;
  EXPECT_LE(model_t, 1.45 * sim.mean_time) << "R=" << receivers << " p=" << p;
}

TEST_P(LatencyVsSimulation, IntegratedModelTracksSimulatedCompletionTime) {
  const auto [receivers, p] = GetParam();
  loss::BernoulliLossModel model(p);
  protocol::ProcessBatchTransmitter tx(model,
                                       static_cast<std::size_t>(receivers),
                                       Rng(13));
  protocol::McConfig cfg;
  cfg.k = 7;
  cfg.num_tgs = 1500;
  cfg.timing = kPaperTiming;
  const auto sim = protocol::sim_integrated_naks(tx, cfg);
  const double model_t =
      expected_latency_integrated(7, p, receivers, kPaperTiming);
  EXPECT_GE(model_t, 0.95 * sim.mean_time) << "R=" << receivers << " p=" << p;
  EXPECT_LE(model_t, 1.45 * sim.mean_time) << "R=" << receivers << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LatencyVsSimulation,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 20, 200),
                       ::testing::Values(0.02, 0.1)));

TEST(Latency, LayeredModelTracksSimulation) {
  loss::BernoulliLossModel model(0.05);
  protocol::ProcessBatchTransmitter tx(model, 100, Rng(17));
  protocol::McConfig cfg;
  cfg.k = 7;
  cfg.h = 2;
  cfg.num_tgs = 1500;
  cfg.timing = kPaperTiming;
  const auto sim = protocol::sim_layered(tx, cfg);
  const double model_t = expected_latency_layered(7, 2, 0.05, 100, kPaperTiming);
  EXPECT_GE(model_t, 0.95 * sim.mean_time);
  EXPECT_LE(model_t, 1.45 * sim.mean_time);
}

TEST(Latency, StreamModelTracksSimulation) {
  loss::BernoulliLossModel model(0.05);
  protocol::ProcessBatchTransmitter tx(model, 100, Rng(19));
  protocol::McConfig cfg;
  cfg.k = 7;
  cfg.num_tgs = 1500;
  cfg.timing = kPaperTiming;
  const auto sim = protocol::sim_integrated_stream(tx, cfg);
  const double model_t = expected_latency_stream(7, 0.05, 100, kPaperTiming);
  // The stream scheme has no rounds, so the model is tight here.
  EXPECT_NEAR(sim.mean_time, model_t, 0.05 * model_t);
}

}  // namespace
}  // namespace pbl::analysis
