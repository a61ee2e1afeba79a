// Exact pins of the round-level Monte-Carlo engine's output.
//
// Each case runs one seeded scheme over one loss environment and compares
// the whole McResult (mean_tx, ci95, mean_rounds, mean_time,
// packets_sent) and a CRC-32 of the per-round NAK log (McConfig::nak_log)
// against literals.  Everything is rendered into one line, %.17g for the
// doubles (which round-trips them exactly), so a mismatch prints the
// whole new line in the table's own syntax.
//
// Non-tree cases run three ways against the same pin: the one-shard
// sim_* entry over a per-receiver transmitter, and sim_batched with the
// IID fast path off at 1 and at 3 shards (37 receivers, so shard
// boundaries and the last word are not word-aligned).  Tree cases have
// no LossModel to shard and run through the sim_* entry only; their RNG
// draw order is the output of Figs 11/12.
//
// Any change that moves one RNG draw, one round or one rounding step of
// a pinned run fails here; a deliberate change re-records the pins and
// says why.  Seeds are fixed: the point is the exact schedule.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "loss/loss_model.hpp"
#include "protocol/batch_rounds.hpp"
#include "protocol/rounds.hpp"
#include "tree/multicast_tree.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace pbl::protocol {
namespace {

constexpr std::size_t kReceivers = 37;

struct Pin {
  double mean_tx, ci95, mean_rounds, mean_time;
  std::uint64_t packets_sent;
  std::uint32_t nak_crc;
};

std::string render(const Pin& p) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{%.17g, %.17g, %.17g, %.17g, %" PRIu64
                ", 0x%08" PRIx32 "}",
                p.mean_tx, p.ci95, p.mean_rounds, p.mean_time,
                p.packets_sent, p.nak_crc);
  return buf;
}

Pin pin_of(const McResult& r, const std::vector<std::uint32_t>& naks) {
  const auto bytes = std::as_bytes(std::span(naks));
  return {r.mean_tx, r.ci95, r.mean_rounds, r.mean_time, r.packets_sent,
          crc32({reinterpret_cast<const std::uint8_t*>(bytes.data()),
                 bytes.size()})};
}

const BatchScheme kSchemes[] = {
    BatchScheme::kNoFec, BatchScheme::kLayered, BatchScheme::kIntegratedNaks,
    BatchScheme::kIntegratedFinite, BatchScheme::kIntegratedStream};

const char* name_of(BatchScheme s) {
  switch (s) {
    case BatchScheme::kNoFec: return "nofec";
    case BatchScheme::kLayered: return "layered";
    case BatchScheme::kIntegratedNaks: return "naks";
    case BatchScheme::kIntegratedFinite: return "finite";
    case BatchScheme::kIntegratedStream: return "stream";
  }
  return "?";
}

McConfig config(double q_f, std::vector<std::uint32_t>* naks) {
  McConfig cfg;
  cfg.k = 7;
  cfg.h = 2;
  cfg.num_tgs = 6;
  cfg.q_f = q_f;
  cfg.nak_log = naks;
  return cfg;
}

/// The one-shard entry for `scheme` over the caller's transmitter.
template <class Tx>
McResult run_entry(BatchScheme scheme, Tx& tx, const McConfig& cfg) {
  switch (scheme) {
    case BatchScheme::kNoFec: return sim_nofec(tx, cfg);
    case BatchScheme::kLayered: return sim_layered(tx, cfg);
    case BatchScheme::kIntegratedNaks: return sim_integrated_naks(tx, cfg);
    case BatchScheme::kIntegratedFinite: return sim_integrated_finite(tx, cfg);
    case BatchScheme::kIntegratedStream: return sim_integrated_stream(tx, cfg);
  }
  return {};
}

/// pins[2 * scheme + (q_f > 0)]: every scheme at q_f = 0 and 0.3.
using SchemePins = Pin[10];

void expect_model_pins(const loss::LossModel& model, const SchemePins& pins) {
  const Rng rng(2024);
  std::size_t at = 0;
  for (const BatchScheme scheme : kSchemes) {
    for (const double q_f : {0.0, 0.3}) {
      const Pin& want = pins[at++];
      const std::string where =
          std::string(name_of(scheme)) + " q_f=" + std::to_string(q_f);

      std::vector<std::uint32_t> naks;
      ProcessBatchTransmitter tx(model, kReceivers, rng);
      const McResult entry = run_entry(scheme, tx, config(q_f, &naks));
      EXPECT_EQ(render(pin_of(entry, naks)), render(want)) << where;

      for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
        std::vector<std::uint32_t> batched_naks;
        const McResult batched = sim_batched(
            scheme, model, kReceivers, config(q_f, &batched_naks), rng,
            {.shards = shards, .threads = 1, .allow_fast_path = false});
        EXPECT_EQ(render(pin_of(batched, batched_naks)), render(want))
            << where << " shards=" << shards;
      }
    }
  }
}

void expect_tree_pins(const tree::MulticastTree& tree, double p_node,
                      const SchemePins& pins) {
  std::size_t at = 0;
  for (const BatchScheme scheme : kSchemes) {
    for (const double q_f : {0.0, 0.3}) {
      std::vector<std::uint32_t> naks;
      TreeBatchTransmitter tx(tree, p_node, Rng(4242));
      const McResult res = run_entry(scheme, tx, config(q_f, &naks));
      EXPECT_EQ(render(pin_of(res, naks)), render(pins[at++]))
          << name_of(scheme) << " q_f=" << q_f;
    }
  }
}

loss::GilbertLossModel gilbert() {
  return loss::GilbertLossModel::from_packet_stats(0.1, 3.0, Timing{}.delta);
}

TEST(RoundPins, Bernoulli) {
  const SchemePins pins = {
      {3.0952380952380949, 0.17209816320280044, 4.166666666666667,
       1.8166666666666618, 130, 0xe975ebee},
      {3.0952380952380949, 0.17209816320280044, 6.166666666666667,
       2.4166666666666576, 130, 0xe975ebee},
      {2.8775510204081636, 0.41221353689562407, 2.833333333333333,
       1.5699999999999945, 153, 0x37c9aaf1},
      {2.8775510204081636, 0.41221353689562407, 4.333333333333333,
       2.0199999999999907, 153, 0x37c9aaf1},
      {1.7857142857142856, 0.11988883740087454, 2.666666666666667,
       1.0000000000000002, 75, 0x2c76336c},
      {1.7857142857142856, 0.11988883740087454, 4.166666666666667,
       1.4499999999999973, 75, 0x2c76336c},
      {3.0408163265306123, 0.19541409024598758, 5.833333333333333,
       2.5033333333333228, 158, 0xdad44539},
      {3.0408163265306123, 0.19541409024598758, 8.1666666666666661,
       3.2033333333333203, 158, 0xdad44539},
      {1.7857142857142856, 0.11988883740087454, 1,
       0.50000000000000022, 75, 0x00000000},
      {1.7857142857142856, 0.11988883740087454, 1,
       0.50000000000000022, 75, 0x00000000},
  };
  expect_model_pins(loss::BernoulliLossModel(0.2), pins);
}

TEST(RoundPins, TwoClass) {
  const SchemePins pins = {
      {2.9523809523809521, 0.26726599318115857, 4.6666666666666661,
       1.9266666666666614, 124, 0xfe6f2b0f},
      {2.9523809523809521, 0.26726599318115857, 6.6666666666666661,
       2.5266666666666584, 124, 0xfe6f2b0f},
      {2.8163265306122449, 0.36791303320214136, 3,
       1.6799999999999933, 162, 0x6858236a},
      {2.8163265306122449, 0.36791303320214136, 4.666666666666667,
       2.1799999999999891, 162, 0x6858236a},
      {1.8809523809523809, 0.19688688235747054, 3.666666666666667,
       1.3266666666666653, 79, 0xbc1ae838},
      {1.8809523809523809, 0.19688688235747054, 5.5,
       1.8766666666666634, 79, 0xbc1ae838},
      {2.8333333333333321, 0.49911031957986113, 6.5,
       2.7833333333333217, 170, 0x78730860},
      {2.8333333333333321, 0.49911031957986113, 9.5,
       3.6833333333333194, 170, 0x78730860},
      {1.8809523809523809, 0.19688688235747054, 1,
       0.52666666666666695, 79, 0x00000000},
      {1.8809523809523809, 0.19688688235747054, 1,
       0.52666666666666695, 79, 0x00000000},
  };
  expect_model_pins(loss::HeterogeneousLossModel(kReceivers, 0.25, 0.05, 0.3),
                    pins);
}

TEST(RoundPins, MultiClass) {
  const SchemePins pins = {
      {3.9523809523809526, 0.39377376471494108, 6.166666666666667,
       2.6566666666666556, 166, 0xde2031e3},
      {3.9523809523809526, 0.39377376471494108, 8.8333333333333339,
       3.4566666666666528, 166, 0xde2031e3},
      {4.3775510204081627, 0.44979995553579155, 5.166666666666667,
       3.1099999999999786, 279, 0x43cef602},
      {4.3775510204081627, 0.44979995553579155, 7.3333333333333339,
       3.7599999999999736, 279, 0x43cef602},
      {2.3571428571428572, 0.24781713688389947, 4,
       1.5599999999999963, 99, 0xf6d3b51d},
      {2.3571428571428572, 0.24781713688389947, 5.833333333333333,
       2.1099999999999941, 99, 0xf6d3b51d},
      {4.0714285714285712, 0.44979995553579205, 10.833333333333334,
       4.8699999999999752, 288, 0xe730dd4f},
      {4.0714285714285712, 0.44979995553579205, 17.333333333333336,
       6.8199999999999648, 288, 0xe730dd4f},
      {2.3571428571428572, 0.24781713688389947, 1,
       0.66000000000000036, 99, 0x00000000},
      {2.3571428571428572, 0.24781713688389947, 1,
       0.66000000000000036, 99, 0x00000000},
  };
  expect_model_pins(
      loss::MultiClassLossModel({{0.02, 10}, {0.15, 17}, {0.4, 10}}), pins);
}

TEST(RoundPins, Gilbert) {
  const SchemePins pins = {
      {2.5476190476190474, 0.30171362433789944, 3.166666666666667,
       1.3633333333333311, 107, 0x87e12e67},
      {2.5476190476190474, 0.30171362433789944, 4.833333333333333,
       1.8633333333333271, 107, 0x87e12e67},
      {2.6020408163265309, 0.40958515598102441, 2.5,
       1.349999999999997, 135, 0x1a02096d},
      {2.6020408163265309, 0.40958515598102441, 4,
       1.7999999999999943, 135, 0x1a02096d},
      {2, 0.14459137825841015, 2,
       0.86000000000000021, 84, 0xb0050b7f},
      {2, 0.14459137825841015, 2.6666666666666665,
       1.0600000000000001, 84, 0xb0050b7f},
      {2.5714285714285712, 0.14459137825841001, 4,
       1.6533333333333293, 113, 0x3319688a},
      {2.5238095238095237, 0.17209816320280041, 5.666666666666667,
       2.1399999999999926, 111, 0xf2136b81},
      {2.2619047619047619, 0.23333333333333336, 1,
       0.63333333333333375, 95, 0x00000000},
      {2.2619047619047619, 0.23333333333333336, 1,
       0.63333333333333375, 95, 0x00000000},
  };
  expect_model_pins(gilbert(), pins);
}

TEST(RoundPins, FullBinaryTree) {
  const SchemePins pins = {
      {2.4761904761904763, 0.18666666666666684, 4.3333333333333339,
       1.6933333333333307, 104, 0x0754f35c},
      {2.4761904761904763, 0.18666666666666684, 6.333333333333333,
       2.2933333333333268, 104, 0x0754f35c},
      {2.7551020408163267, 0.39436024140371961, 3.166666666666667,
       1.7899999999999923, 171, 0x3783190c},
      {2.7551020408163267, 0.39436024140371961, 4.833333333333333,
       2.2899999999999894, 171, 0x3783190c},
      {1.6904761904761905, 0.2218508007147546, 2.5,
       0.92333333333333367, 71, 0xf0ea4ba1},
      {1.6904761904761905, 0.2218508007147546, 4,
       1.3733333333333331, 71, 0xf0ea4ba1},
      {2.3877551020408156, 0.46475800154488961, 5,
       2.0999999999999934, 135, 0xa91d49af},
      {2.3877551020408156, 0.46475800154488961, 7.166666666666667,
       2.7499999999999898, 135, 0xa91d49af},
      {1.6904761904761905, 0.2218508007147546, 1,
       0.47333333333333361, 71, 0x00000000},
      {1.6904761904761905, 0.2218508007147546, 1,
       0.47333333333333361, 71, 0x00000000},
  };
  const auto tree = tree::MulticastTree::full_binary(5);
  expect_tree_pins(tree, tree.node_loss_for_leaf_loss(0.2), pins);
}

TEST(RoundPins, RandomSplitTree) {
  const SchemePins pins = {
      {2.7857142857142856, 0.4500370355130045, 4.3333333333333339,
       1.7799999999999958, 117, 0xd4ec9f74},
      {2.7857142857142856, 0.4500370355130045, 6.333333333333333,
       2.3799999999999928, 117, 0xd4ec9f74},
      {2.8775510204081636, 0.20079840636817817, 3,
       1.6799999999999935, 162, 0xe37f5bf0},
      {2.8775510204081636, 0.20079840636817817, 4.6666666666666661,
       2.1799999999999899, 162, 0xe37f5bf0},
      {1.857142857142857, 0.35417509793885843, 2.833333333333333,
       1.0700000000000003, 78, 0x9a8774f4},
      {1.857142857142857, 0.35417509793885843, 4.333333333333333,
       1.5199999999999967, 78, 0x9a8774f4},
      {2.9013605442176855, 0.57516760842190773, 6.6666666666666661,
       2.8933333333333215, 179, 0x0a7f0510},
      {2.9013605442176855, 0.57516760842190773, 9.6666666666666661,
       3.793333333333317, 179, 0x0a7f0510},
      {1.857142857142857, 0.35417509793885843, 1,
       0.52000000000000024, 78, 0x00000000},
      {1.857142857142857, 0.35417509793885843, 1,
       0.52000000000000024, 78, 0x00000000},
  };
  Rng shape(77);
  const auto tree = tree::MulticastTree::random_split(kReceivers, 4, shape);
  expect_tree_pins(tree, 0.05, pins);
}

// Interleaved layered FEC at depths 2 and 4 (num_tgs = 6, so depth 4
// also covers a partial last window), q_f = 0 and 0.3.  The NAK log is
// not pinned here: the interleaved loop these pins were recorded from
// logged nothing.
std::string render(const McResult& r) {
  return render(Pin{r.mean_tx, r.ci95, r.mean_rounds, r.mean_time,
                    r.packets_sent, 0});
}

TEST(RoundPins, InterleavedLayeredGilbert) {
  const Pin pins[4] = {
      {2.4795918367346941, 0.2749545416973504, 2.333333333333333,
       2.0800000000000014, 126, 0x00000000},
      {2.4795918367346941, 0.2749545416973504, 3.333333333333333,
       2.3800000000000012, 126, 0x00000000},
      {2.1811224489795915, 0.10621743198337495, 2.1250000000000004,
       3.3974999999999973, 153, 0x00000000},
      {2.1811224489795915, 0.10621743198337495, 2.75,
       3.5849999999999906, 153, 0x00000000},
  };
  const auto model = gilbert();
  std::size_t at = 0;
  for (const std::size_t depth : {std::size_t{2}, std::size_t{4}}) {
    for (const double q_f : {0.0, 0.3}) {
      ProcessBatchTransmitter tx(model, kReceivers, Rng(2024));
      const McResult res =
          sim_layered_interleaved(tx, config(q_f, nullptr), depth);
      EXPECT_EQ(render(res), render(pins[at++]))
          << "depth=" << depth << " q_f=" << q_f;
    }
  }
}

TEST(RoundPins, InterleavedLayeredTree) {
  const Pin pins[4] = {
      {2.6938775510204085, 0.31749015732775082, 3,
       2.759999999999986, 162, 0x00000000},
      {2.6938775510204085, 0.31749015732775082, 5.5,
       3.5099999999999825, 162, 0x00000000},
      {2.6632653061224492, 0.46641489807129555, 2.75,
       4.4849999999999666, 198, 0x00000000},
      {2.6632653061224492, 0.46641489807129555, 3.875,
       4.8224999999999634, 198, 0x00000000},
  };
  const auto tree = tree::MulticastTree::full_binary(5);
  std::size_t at = 0;
  for (const std::size_t depth : {std::size_t{2}, std::size_t{4}}) {
    for (const double q_f : {0.0, 0.3}) {
      TreeBatchTransmitter tx(tree, tree.node_loss_for_leaf_loss(0.2),
                              Rng(4242));
      const McResult res =
          sim_layered_interleaved(tx, config(q_f, nullptr), depth);
      EXPECT_EQ(render(res), render(pins[at++]))
          << "depth=" << depth << " q_f=" << q_f;
    }
  }
}

}  // namespace
}  // namespace pbl::protocol
