#include "protocol/batch_rounds.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fec/interleaver.hpp"
#include "sim/replicator.hpp"
#include "util/numerics.hpp"

namespace pbl::protocol {

IidBatchTransmitter::IidBatchTransmitter(const std::vector<Segment>& segments,
                                         Rng rng)
    : rng_(rng) {
  std::size_t off = 0;
  for (const auto& seg : segments) {
    if (seg.count == 0) continue;
    const std::size_t lo = off;
    const std::size_t hi = off + seg.count;
    const unsigned head = static_cast<unsigned>(lo % 64);
    const unsigned tail = static_cast<unsigned>(hi % 64);
    spans_.push_back(Span{lo / 64, (hi - 1) / 64 + 1,
                          ~std::uint64_t{0} << head,
                          tail == 0 ? ~std::uint64_t{0}
                                    : ~std::uint64_t{0} >> (64 - tail),
                          lo, seg.count,
                          loss::BinomialDist(seg.count, seg.p)});
    off = hi;
  }
  receivers_ = off;
  if (receivers_ == 0)
    throw std::invalid_argument("IidBatchTransmitter: need receivers >= 1");
  scratch_.resize((receivers_ + 63) / 64, 0);
}

/// Marks `target` distinct uniform lanes of `sp` in scratch_, by
/// rejection on already-marked lanes (the caller keeps target <= half
/// the segment, so the expected number of redraws is < 2 per lane).
void IidBatchTransmitter::place_lanes(const Span& sp, std::size_t target) {
  std::size_t placed = 0;
  while (placed < target) {
    const std::size_t lane = sp.begin_lane + rng_.below(sp.lanes);
    std::uint64_t& word = scratch_[lane >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (lane & 63);
    if (!(word & bit)) {
      word |= bit;
      ++placed;
    }
  }
}

void IidBatchTransmitter::transmit(double /*t*/, const sim::BitVec& active,
                                   sim::BitVec& received) {
  for (std::size_t w = 0; w < received.num_words(); ++w)
    received.data()[w] = 0;
  for (const Span& sp : spans_) {
    const std::uint64_t lost = sp.count(rng_);
    if (lost == sp.lanes) continue;  // everybody lost it: nothing received
    const bool rare_is_lost = lost <= sp.lanes / 2;
    if (lost != 0) {
      for (std::size_t w = sp.begin_word; w < sp.end_word; ++w)
        scratch_[w] = 0;
      place_lanes(sp, rare_is_lost ? static_cast<std::size_t>(lost)
                                   : sp.lanes - static_cast<std::size_t>(lost));
    }
    for (std::size_t w = sp.begin_word; w < sp.end_word; ++w) {
      std::uint64_t mask = ~std::uint64_t{0};
      if (w == sp.begin_word) mask &= sp.first_mask;
      if (w + 1 == sp.end_word) mask &= sp.last_mask;
      std::uint64_t got = active.word(w) & mask;
      if (lost != 0) got &= rare_is_lost ? ~scratch_[w] : scratch_[w];
      received.data()[w] |= got;
    }
  }
}

ProcessBatchTransmitter::ProcessBatchTransmitter(const loss::LossModel& model,
                                                 std::size_t first_receiver,
                                                 std::size_t receivers,
                                                 Rng base) {
  if (receivers == 0)
    throw std::invalid_argument("ProcessBatchTransmitter: need receivers >= 1");
  processes_.reserve(receivers);
  // One substream per global receiver index, so a shard split never
  // changes any receiver's loss sequence.
  for (std::size_t r = 0; r < receivers; ++r)
    processes_.push_back(
        model.make_process(base.split(first_receiver + r), first_receiver + r));
}

void ProcessBatchTransmitter::transmit(double t, const sim::BitVec& active,
                                       sim::BitVec& received) {
  if (active.bits() != processes_.size() ||
      received.bits() != processes_.size())
    throw std::invalid_argument("ProcessBatchTransmitter: size mismatch");
  received.fill(false);
  for (std::size_t r = 0; r < processes_.size(); ++r) {
    if (!active.test(r)) continue;
    if (!processes_[r]->lost(t)) received.set(r);
  }
}

TreeBatchTransmitter::TreeBatchTransmitter(const tree::MulticastTree& tree,
                                           double p_node, Rng rng)
    : tree_(&tree),
      p_node_(p_node),
      rng_(rng),
      active_(tree.num_leaves()),
      received_(tree.num_leaves()) {
  if (p_node < 0.0 || p_node >= 1.0)
    throw std::invalid_argument("TreeBatchTransmitter: p_node in [0,1)");
}

void TreeBatchTransmitter::transmit(double /*t*/, const sim::BitVec& active,
                                    sim::BitVec& received) {
  if (active.bits() != active_.size() || received.bits() != active_.size())
    throw std::invalid_argument("TreeBatchTransmitter: size mismatch");
  for (std::size_t r = 0; r < active_.size(); ++r) {
    active_[r] = active.test(r);
    received_[r] = 0;
  }
  tree_->multicast_once(p_node_, rng_, active_, received_);
  received.fill(false);
  for (std::size_t r = 0; r < received_.size(); ++r)
    if (received_[r]) received.set(r);
}

namespace {

/// The piecewise-constant-p segments of shard [first, first + count)
/// under an IID loss model, empty when the model has no IID fast path
/// (e.g. Gilbert, whose loss is time-dependent).
std::vector<IidBatchTransmitter::Segment> iid_segments(
    const loss::LossModel& model, std::size_t first_receiver,
    std::size_t count) {
  std::vector<IidBatchTransmitter::Segment> segs;
  const std::size_t lo = first_receiver;
  const std::size_t hi = first_receiver + count;
  const auto add = [&](std::size_t a, std::size_t b, double p) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (a < b) segs.push_back({b - a, p});
  };
  if (const auto* bern = dynamic_cast<const loss::BernoulliLossModel*>(&model)) {
    segs.push_back({count, bern->mean_loss_probability()});
  } else if (const auto* het =
                 dynamic_cast<const loss::HeterogeneousLossModel*>(&model)) {
    if (hi > het->receivers())
      throw std::invalid_argument(
          "make_batch_transmitter: shard exceeds model population");
    const std::size_t boundary = het->receivers() - het->high_loss_count();
    if (boundary > 0) add(0, boundary, het->receiver_loss_probability(0));
    if (boundary < het->receivers())
      add(boundary, het->receivers(),
          het->receiver_loss_probability(boundary));
  } else if (const auto* mc =
                 dynamic_cast<const loss::MultiClassLossModel*>(&model)) {
    if (hi > mc->receivers())
      throw std::invalid_argument(
          "make_batch_transmitter: shard exceeds model population");
    std::size_t at = 0;
    for (const auto& cls : mc->classes()) {
      add(at, at + cls.count, cls.loss_prob);
      at += cls.count;
    }
  }
  return segs;
}

}  // namespace

std::unique_ptr<BatchTransmitter> make_batch_transmitter(
    const loss::LossModel& model, std::size_t first_receiver,
    std::size_t count, Rng base, Rng fast_rng, bool allow_fast_path) {
  if (count == 0)
    throw std::invalid_argument("make_batch_transmitter: need receivers >= 1");
  if (allow_fast_path) {
    const auto segs = iid_segments(model, first_receiver, count);
    if (!segs.empty())
      return std::make_unique<IidBatchTransmitter>(segs, fast_rng);
  }
  return std::make_unique<ProcessBatchTransmitter>(model, first_receiver,
                                                   count, base);
}

namespace {

using sim::BitVec;
using sim::ReceiverShard;
/// One transmitter per shard, in receiver order.
using Shards = std::span<BatchTransmitter* const>;

struct ShardRange {
  std::size_t first = 0;
  std::size_t count = 0;
};

std::vector<ShardRange> partition(std::size_t receivers, std::size_t shards) {
  shards = std::clamp<std::size_t>(shards, 1, receivers);
  std::vector<ShardRange> out(shards);
  const std::size_t base = receivers / shards;
  const std::size_t rem = receivers % shards;
  std::size_t first = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    out[s].first = first;
    out[s].count = base + (s < rem ? 1 : 0);
    first += out[s].count;
  }
  return out;
}

void validate(const McConfig& cfg) {
  if (cfg.k < 1) throw std::invalid_argument("McConfig: need k >= 1");
  if (cfg.h < 0) throw std::invalid_argument("McConfig: need h >= 0");
  if (cfg.num_tgs < 1)
    throw std::invalid_argument("McConfig: need num_tgs >= 1");
  if (cfg.q_f < 0.0 || cfg.q_f >= 1.0)
    throw std::invalid_argument("McConfig: need q_f in [0, 1)");
  cfg.timing.validate();
}

/// Extra feedback exchanges forced by control-plane loss: each NAK/POLL
/// exchange is independently lost with probability q_f, and every lost
/// one costs a timeout gap before the retry (geometric).  With q_f = 0
/// the Rng is never touched.
std::uint64_t lost_feedback_rounds(double q_f, Rng& rng) {
  std::uint64_t extra = 0;
  while (q_f > 0.0 && rng.bernoulli(q_f)) ++extra;
  return extra;
}

/// Charges the inter-round feedback gap, inflated by any lost feedback
/// exchanges; returns the rounds the retries added.
std::uint64_t charge_feedback_gap(const McConfig& cfg, Rng& rng, double& t) {
  const std::uint64_t lost = lost_feedback_rounds(cfg.q_f, rng);
  t += cfg.timing.gap * static_cast<double>(1 + lost);
  return lost;
}

/// Appends one per-round feedback aggregate to cfg.nak_log when attached.
void log_nak(const McConfig& cfg, std::size_t value) {
  if (cfg.nak_log != nullptr)
    cfg.nak_log->push_back(static_cast<std::uint32_t>(value));
}

McResult finish(const RunningStats& tx_stats, const RunningStats& round_stats,
                const RunningStats& time_stats, std::uint64_t sent) {
  McResult res;
  res.mean_tx = tx_stats.mean();
  res.ci95 = tx_stats.ci95_halfwidth();
  res.mean_rounds = round_stats.mean();
  res.mean_time = time_stats.mean();
  res.packets_sent = sent;
  return res;
}

/// active = receivers of the shard missing at least one of `have`'s planes.
void fill_union_missing(const ReceiverShard& have, BitVec& active) {
  for (std::size_t w = 0; w < active.num_words(); ++w) {
    std::uint64_t all = ~std::uint64_t{0};
    for (std::size_t i = 0; i < have.num_planes(); ++i)
      all &= have.plane(i).word(w);
    active.data()[w] = ~all & active.live_mask(w);
  }
}

/// Applies one reception mask to slot-count planes: counts[j] holds the
/// receivers with >= j+1 receptions, so the update runs j descending —
/// counts[j] |= counts[j-1] & b reads the not-yet-updated j-1 plane.
void bump_counts(std::vector<BitVec>& counts, const BitVec& received) {
  const std::size_t k = counts.size();
  for (std::size_t w = 0; w < received.num_words(); ++w) {
    const std::uint64_t b = received.word(w);
    if (b == 0) continue;
    for (std::size_t j = k - 1; j > 0; --j)
      counts[j].data()[w] |= counts[j - 1].word(w) & b;
    counts[0].data()[w] |= b;
  }
}

/// Applies one reception mask to deficit planes: plane j holds the
/// receivers with deficit >= j+1, so a reception demotes plane j to the
/// old plane j+1 — in-place ascending, each step reads only the untouched
/// j+1 plane.
void drop_deficits(ReceiverShard& deficits, const BitVec& received) {
  const std::size_t k = deficits.num_planes();
  for (std::size_t w = 0; w < received.num_words(); ++w) {
    const std::uint64_t b = received.word(w);
    if (b == 0) continue;
    for (std::size_t j = 0; j < k; ++j) {
      std::uint64_t& dj = deficits.plane(j).data()[w];
      const std::uint64_t next =
          j + 1 < k ? deficits.plane(j + 1).word(w) : 0;
      dj = (dj & ~b) | (next & b);
    }
  }
}

/// Largest j with deficit plane j-1 non-empty: the shard's NAK value.
std::size_t max_deficit(const ReceiverShard& deficits) {
  for (std::size_t j = deficits.num_planes(); j > 0; --j)
    if (deficits.plane(j - 1).any()) return j;
  return 0;
}

McResult run_nofec(Shards txs, const std::vector<ShardRange>& ranges,
                   const McConfig& cfg, unsigned threads) {
  const std::size_t k = static_cast<std::size_t>(cfg.k);
  struct State {
    ReceiverShard have;
    BitVec active, received;
  };
  std::vector<State> st;
  st.reserve(ranges.size());
  for (const auto& rr : ranges)
    st.push_back(
        {ReceiverShard(rr.first, rr.count, k), BitVec(rr.count), BitVec(rr.count)});

  RunningStats tx_stats, round_stats, time_stats;
  std::uint64_t sent_total = 0;
  double t = 0.0;
  Rng fb_rng(cfg.seed ^ 0xfeedbaccULL);

  for (std::int64_t tg = 0; tg < cfg.num_tgs; ++tg) {
    const double tg_start = t;
    for (auto& s : st) s.have.fill(false);
    std::vector<std::size_t> pending(k);
    for (std::size_t i = 0; i < k; ++i) pending[i] = i;

    std::uint64_t sent = 0;
    std::uint64_t rounds = 0;
    while (!pending.empty()) {
      ++rounds;
      const double t0 = t;
      sim::detail::run_indexed(st.size(), threads, [&](std::uint64_t s) {
        State& sh = st[s];
        double tt = t0;
        for (const std::size_t i : pending) {
          BitVec& h = sh.have.plane(i);
          for (std::size_t w = 0; w < sh.active.num_words(); ++w)
            sh.active.data()[w] = ~h.word(w) & sh.active.live_mask(w);
          txs[s]->transmit(tt, sh.active, sh.received);
          h |= sh.received;
          tt += cfg.timing.delta;
        }
      });
      // Repeated addition, not one multiply: t (and cost) accumulate per
      // packet, the rounding sequence every pinned mean_time was recorded
      // with.
      for (std::size_t i = 0; i < pending.size(); ++i) t += cfg.timing.delta;
      sent += pending.size();

      std::vector<std::size_t> next;
      for (const std::size_t i : pending) {
        std::size_t miss = 0;
        for (const auto& sh : st) miss += sh.have.missing(i);
        if (miss > 0) next.push_back(i);
      }
      pending = std::move(next);
      log_nak(cfg, pending.size());
      if (!pending.empty()) rounds += charge_feedback_gap(cfg, fb_rng, t);
    }
    sent_total += sent;
    tx_stats.add(static_cast<double>(sent) / static_cast<double>(k));
    round_stats.add(static_cast<double>(rounds));
    time_stats.add(t - tg_start);
    t += cfg.timing.gap;
  }
  return finish(tx_stats, round_stats, time_stats, sent_total);
}

McResult run_naks(Shards txs, const std::vector<ShardRange>& ranges,
                  const McConfig& cfg, unsigned threads) {
  const std::size_t k = static_cast<std::size_t>(cfg.k);
  const std::size_t a = static_cast<std::size_t>(cfg.h);
  struct State {
    ReceiverShard deficits;  // plane j: receivers with deficit >= j+1
    BitVec received;
    std::size_t nak = 0;
  };
  std::vector<State> st;
  st.reserve(ranges.size());
  for (const auto& rr : ranges)
    st.push_back({ReceiverShard(rr.first, rr.count, k), BitVec(rr.count), 0});

  RunningStats tx_stats, round_stats, time_stats;
  std::uint64_t sent_total = 0;
  double t = 0.0;
  Rng fb_rng(cfg.seed ^ 0xfeedbaccULL);

  for (std::int64_t tg = 0; tg < cfg.num_tgs; ++tg) {
    const double tg_start = t;
    for (auto& s : st) s.deficits.fill(true);  // everyone starts k short
    std::uint64_t sent = 0;
    std::uint64_t rounds = 0;
    std::size_t burst = k + a;
    while (true) {
      ++rounds;
      const double t0 = t;
      const std::size_t slots = burst;
      sim::detail::run_indexed(st.size(), threads, [&](std::uint64_t s) {
        State& sh = st[s];
        double tt = t0;
        for (std::size_t slot = 0; slot < slots; ++slot) {
          // Active receivers = deficit >= 1 = plane 0, re-read every slot.
          txs[s]->transmit(tt, sh.deficits.plane(0), sh.received);
          drop_deficits(sh.deficits, sh.received);
          tt += cfg.timing.delta;
        }
        sh.nak = max_deficit(sh.deficits);
      });
      for (std::size_t slot = 0; slot < slots; ++slot) t += cfg.timing.delta;
      sent += slots;

      std::size_t l = 0;
      for (const auto& sh : st) l = std::max(l, sh.nak);
      log_nak(cfg, l);
      if (l == 0) break;
      burst = l;
      rounds += charge_feedback_gap(cfg, fb_rng, t);
    }
    sent_total += sent;
    tx_stats.add(static_cast<double>(sent) / static_cast<double>(k));
    round_stats.add(static_cast<double>(rounds));
    time_stats.add(t - tg_start);
    t += cfg.timing.gap;
  }
  return finish(tx_stats, round_stats, time_stats, sent_total);
}

/// One shard's input to the counts-based NP engine: its IID segments and
/// its RNG substream (the same substream index the bitmap fast path
/// would hand its IidBatchTransmitter).
struct ShardSegments {
  std::vector<IidBatchTransmitter::Segment> segments;
  Rng rng;
};

/// Protocol NP on deficit-class counts — the IID fast path taken to its
/// limit.  Under segmented IID loss the receivers of a segment are
/// exchangeable, and the only per-receiver state NP keeps is the scalar
/// parity deficit, so the whole segment is described by how many
/// receivers sit at each deficit d in [1, k].  A round of `slots`
/// transmissions moves a receiver at deficit d to max(0, d - r) with
/// r ~ Binomial(slots, 1 - p) receptions, independently — i.e. each
/// class splits multinomially.  Advancing a round costs O(k * slots)
/// exact binomial draws (loss::sample_binomial), independent of R: this
/// is what makes NP at R = 10^6 almost free (bench/ext_scale_r).
/// Distribution-identical to run_naks over an IidBatchTransmitter and
/// over the per-receiver path (tests/test_shard_equivalence.cpp); round
/// structure, NAK logging, timing and feedback draws stay in lock-step
/// with run_naks.
McResult run_naks_counts(const std::vector<ShardSegments>& shards,
                         const McConfig& cfg, unsigned threads) {
  const std::size_t k = static_cast<std::size_t>(cfg.k);
  const std::size_t a = static_cast<std::size_t>(cfg.h);
  struct SegState {
    double p = 0.0;              // segment loss probability
    std::size_t receivers = 0;
    std::vector<std::uint64_t> cnt;  // cnt[d]: receivers at deficit d (1..k)
  };
  struct State {
    std::vector<SegState> segs;
    Rng rng;
    std::size_t nak = 0;
  };
  std::vector<State> st;
  st.reserve(shards.size());
  for (const auto& sh : shards) {
    State s{{}, sh.rng, 0};
    for (const auto& seg : sh.segments)
      s.segs.push_back({seg.p, seg.count,
                        std::vector<std::uint64_t>(k + 1, 0)});
    st.push_back(std::move(s));
  }

  // One round for one shard: split every occupied deficit class by its
  // exact reception-count pmf.  Receptions beyond d - 1 all land at
  // deficit 0, so each class needs at most min(slots, d) splits.
  const auto advance = [&](State& s, std::size_t slots) {
    std::size_t nak = 0;
    for (SegState& seg : s.segs) {
      const double q = 1.0 - seg.p;  // per-slot reception probability
      std::vector<std::uint64_t> next(k + 1, 0);
      for (std::size_t d = k; d >= 1; --d) {
        std::uint64_t rem = seg.cnt[d];
        if (rem == 0) continue;
        const std::size_t m = std::min(slots, d);
        double mass = 1.0;
        for (std::size_t r = 0; r < m && rem > 0; ++r) {
          const double pmf =
              binomial_pmf(static_cast<std::int64_t>(slots),
                           static_cast<std::int64_t>(r), q);
          const double pr =
              mass > 0.0 ? std::clamp(pmf / mass, 0.0, 1.0) : 0.0;
          const std::uint64_t n_r = loss::sample_binomial(s.rng, rem, pr);
          if (n_r > 0) next[d - r] += n_r;
          rem -= n_r;
          mass -= pmf;
        }
        // Leftover receivers got >= m receptions: still d - slots short
        // when the round was shorter than their deficit, done otherwise.
        if (rem > 0 && d > slots) next[d - slots] += rem;
      }
      seg.cnt = std::move(next);
      for (std::size_t d = k; d >= 1; --d)
        if (seg.cnt[d] > 0) {
          nak = std::max(nak, d);
          break;
        }
    }
    s.nak = nak;
  };

  RunningStats tx_stats, round_stats, time_stats;
  std::uint64_t sent_total = 0;
  double t = 0.0;
  Rng fb_rng(cfg.seed ^ 0xfeedbaccULL);

  for (std::int64_t tg = 0; tg < cfg.num_tgs; ++tg) {
    const double tg_start = t;
    for (auto& s : st)
      for (auto& seg : s.segs) {  // everyone starts k short
        std::fill(seg.cnt.begin(), seg.cnt.end(), std::uint64_t{0});
        seg.cnt[k] = seg.receivers;
      }
    std::uint64_t sent = 0;
    std::uint64_t rounds = 0;
    std::size_t burst = k + a;
    while (true) {
      ++rounds;
      const std::size_t slots = burst;
      sim::detail::run_indexed(st.size(), threads,
                               [&](std::uint64_t s) { advance(st[s], slots); });
      for (std::size_t slot = 0; slot < slots; ++slot) t += cfg.timing.delta;
      sent += slots;

      std::size_t l = 0;
      for (const auto& sh : st) l = std::max(l, sh.nak);
      log_nak(cfg, l);
      if (l == 0) break;
      burst = l;
      rounds += charge_feedback_gap(cfg, fb_rng, t);
    }
    sent_total += sent;
    tx_stats.add(static_cast<double>(sent) / static_cast<double>(k));
    round_stats.add(static_cast<double>(rounds));
    time_stats.add(t - tg_start);
    t += cfg.timing.gap;
  }
  return finish(tx_stats, round_stats, time_stats, sent_total);
}

/// Layered FEC, `depth` FEC blocks per interleaving window (depth = 1:
/// one TG at a time).  Window slot s carries packet (group, index) =
/// fec::Interleaver::slot_to_packet(s); a slot whose group is already
/// complete carries unrelated traffic, so time passes but nothing is
/// sampled.
McResult run_layered(Shards txs, const std::vector<ShardRange>& ranges,
                     const McConfig& cfg, unsigned threads,
                     std::size_t depth) {
  const std::size_t k = static_cast<std::size_t>(cfg.k);
  const std::size_t n = k + static_cast<std::size_t>(cfg.h);
  const fec::Interleaver interleaver(depth, n);
  struct Block {                 // one shard's view of one FEC block
    ReceiverShard have;          // plane i: receivers holding original i
    std::vector<BitVec> counts;  // plane j: >= j+1 block slots this round
    std::vector<BitVec> direct;  // plane i: original i received directly
    BitVec active;               // receivers missing any original
  };
  struct State {
    std::vector<Block> blocks;   // one per group of the window
    BitVec received;
  };
  struct Group {                 // the sender's view of one FEC block
    std::vector<char> pending;   // originals carried by the next block
    std::size_t pending_count = 0;
    double cost = 0.0;
    std::uint64_t rounds = 0;
    double start = 0.0;
    bool finished = false;
  };
  std::vector<State> st;
  st.reserve(ranges.size());
  for (const auto& rr : ranges) {
    State s{{}, BitVec(rr.count)};
    for (std::size_t g = 0; g < depth; ++g) {
      Block b{ReceiverShard(rr.first, rr.count, k), {}, {}, BitVec(rr.count)};
      b.counts.assign(k, BitVec(rr.count));
      b.direct.assign(k, BitVec(rr.count));
      s.blocks.push_back(std::move(b));
    }
    st.push_back(std::move(s));
  }
  std::vector<Group> groups(depth);

  RunningStats tx_stats, round_stats, time_stats;
  std::uint64_t sent_total = 0;
  double t = 0.0;
  Rng fb_rng(cfg.seed ^ 0xfeedbaccULL);

  // Whole windows of `depth` TGs: num_tgs rounds up to a multiple.
  const auto d = static_cast<std::int64_t>(depth);
  for (std::int64_t win = 0; win < (cfg.num_tgs + d - 1) / d; ++win) {
    for (auto& s : st)
      for (auto& b : s.blocks) b.have.fill(false);
    for (auto& g : groups) g = Group{std::vector<char>(k, 1), k, 0.0, 0, t};
    std::size_t unfinished = depth;

    while (unfinished > 0) {
      std::size_t sending = 0;
      for (auto& g : groups) {
        if (g.finished) continue;
        ++g.rounds;
        // Each pending original is charged the n/k overhead of the block
        // that carries it (Eq. (3) accounting).
        g.cost += static_cast<double>(g.pending_count) *
                  static_cast<double>(n) / static_cast<double>(k);
        ++sending;
      }
      const double t0 = t;
      sim::detail::run_indexed(st.size(), threads, [&](std::uint64_t s) {
        State& sh = st[s];
        for (std::size_t gi = 0; gi < depth; ++gi) {
          if (groups[gi].finished) continue;
          Block& b = sh.blocks[gi];
          // Receivers missing any original participate; fixed for the
          // round.
          fill_union_missing(b.have, b.active);
          for (auto& c : b.counts) c.fill(false);
          for (std::size_t i = 0; i < k; ++i)
            if (groups[gi].pending[i]) b.direct[i].fill(false);
        }

        double tt = t0;
        for (std::size_t slot = 0; slot < interleaver.window(); ++slot) {
          const auto [gi, idx] = interleaver.slot_to_packet(slot);
          const Group& g = groups[gi];
          if (g.finished) {
            tt += cfg.timing.delta;
            continue;
          }
          // Slot idx < k carries original idx (a fresh packet of another
          // group if it is not pending — it still counts towards
          // decodability); slots >= k carry the block's parities.
          Block& b = sh.blocks[gi];
          txs[s]->transmit(tt, b.active, sh.received);
          tt += cfg.timing.delta;
          bump_counts(b.counts, sh.received);
          if (idx < k && g.pending[idx]) {
            BitVec& dir = b.direct[idx];
            const BitVec& h = b.have.plane(idx);
            for (std::size_t w = 0; w < dir.num_words(); ++w)
              dir.data()[w] |= sh.received.word(w) & ~h.word(w);
          }
        }

        // Harvest: decodable receivers (>= k slots) recover every pending
        // original; the rest keep their direct receptions.
        for (std::size_t gi = 0; gi < depth; ++gi) {
          if (groups[gi].finished) continue;
          Block& b = sh.blocks[gi];
          const BitVec& decodable = b.counts[k - 1];
          for (std::size_t i = 0; i < k; ++i) {
            if (!groups[gi].pending[i]) continue;
            BitVec& h = b.have.plane(i);
            for (std::size_t w = 0; w < h.num_words(); ++w)
              h.data()[w] |= decodable.word(w) | b.direct[i].word(w);
          }
        }
      });
      for (std::size_t slot = 0; slot < interleaver.window(); ++slot)
        t += cfg.timing.delta;
      sent_total += sending * n;

      // Originals still missing anywhere ride in the group's next block.
      std::size_t nak = 0;
      for (std::size_t gi = 0; gi < depth; ++gi) {
        Group& g = groups[gi];
        if (g.finished) continue;
        std::fill(g.pending.begin(), g.pending.end(), char{0});
        g.pending_count = 0;
        for (std::size_t i = 0; i < k; ++i) {
          std::size_t miss = 0;
          for (const auto& sh : st) miss += sh.blocks[gi].have.missing(i);
          if (miss > 0) {
            g.pending[i] = 1;
            ++g.pending_count;
          }
        }
        nak += g.pending_count;
        if (g.pending_count == 0) {
          g.finished = true;
          --unfinished;
          tx_stats.add(g.cost / static_cast<double>(k));
          round_stats.add(static_cast<double>(g.rounds));
          time_stats.add(t - g.start);
        }
      }
      log_nak(cfg, nak);
      if (unfinished > 0) {
        // A lost exchange stalls the whole window, so every still-active
        // group pays the retry rounds.
        const std::uint64_t lost = charge_feedback_gap(cfg, fb_rng, t);
        for (auto& g : groups)
          if (!g.finished) g.rounds += lost;
      }
    }
    t += cfg.timing.gap;
  }
  return finish(tx_stats, round_stats, time_stats, sent_total);
}

McResult run_finite(Shards txs, const std::vector<ShardRange>& ranges,
                    const McConfig& cfg, unsigned threads) {
  const std::size_t k = static_cast<std::size_t>(cfg.k);
  const std::size_t h = static_cast<std::size_t>(cfg.h);
  struct State {
    ReceiverShard have;          // plane i: receivers holding original i
    std::vector<BitVec> counts;  // plane j: >= j+1 block packets this block
    std::vector<BitVec> slots;   // plane i: data slot i received this block
    BitVec missers;              // miss > 0, fixed for the block
    BitVec active, received;
    std::size_t nak = 0;
  };
  std::vector<State> st;
  st.reserve(ranges.size());
  for (const auto& rr : ranges) {
    State s{ReceiverShard(rr.first, rr.count, k), {},           {},
            BitVec(rr.count),                     BitVec(rr.count),
            BitVec(rr.count),                     0};
    s.counts.assign(k, BitVec(rr.count));
    s.slots.assign(k, BitVec(rr.count));
    st.push_back(std::move(s));
  }

  // One parity/data burst of `slots` packets starting at t0; data bursts
  // also record per-slot reception planes.  Active receivers are the
  // block's missers that cannot yet decode, re-read every slot.
  const auto run_burst = [&](State& sh, BatchTransmitter& tx, double t0,
                             std::size_t slots, bool record_slots) {
    double tt = t0;
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const BitVec& full = sh.counts[k - 1];
      for (std::size_t w = 0; w < sh.active.num_words(); ++w)
        sh.active.data()[w] = sh.missers.word(w) & ~full.word(w);
      tx.transmit(tt, sh.active, sh.received);
      tt += cfg.timing.delta;
      bump_counts(sh.counts, sh.received);
      if (record_slots) {
        BitVec& rec = sh.slots[slot];
        for (std::size_t w = 0; w < rec.num_words(); ++w)
          rec.data()[w] = sh.received.word(w);
      }
    }
    // Shard NAK: k minus the smallest packet count among the missers.
    sh.nak = 0;
    for (std::size_t c = 0; c < k; ++c) {
      bool hit = false;
      const BitVec& plane = sh.counts[c];
      for (std::size_t w = 0; w < plane.num_words(); ++w) {
        if (sh.missers.word(w) & ~plane.word(w)) {
          hit = true;
          break;
        }
      }
      if (hit) {
        sh.nak = k - c;
        break;
      }
    }
  };

  RunningStats tx_stats, round_stats, time_stats;
  std::uint64_t sent_total = 0;
  double t = 0.0;
  Rng fb_rng(cfg.seed ^ 0xfeedbaccULL);

  for (std::int64_t tg = 0; tg < cfg.num_tgs; ++tg) {
    const double tg_start = t;
    for (auto& s : st) s.have.fill(false);
    std::vector<char> pending(k, 1);
    std::size_t pending_count = k;

    double cost = 0.0;
    std::uint64_t rounds = 0;
    while (pending_count > 0) {
      // ---- one FEC block: k data slots + up to h on-demand parities ----
      const double share =
          static_cast<double>(pending_count) / static_cast<double>(k);
      ++rounds;
      const double t0 = t;
      sim::detail::run_indexed(st.size(), threads, [&](std::uint64_t s) {
        State& sh = st[s];
        fill_union_missing(sh.have, sh.missers);
        for (auto& c : sh.counts) c.fill(false);
        run_burst(sh, *txs[s], t0, k, /*record_slots=*/true);
      });
      // Per-packet accumulation, as in run_nofec.
      for (std::size_t slot = 0; slot < k; ++slot) {
        t += cfg.timing.delta;
        cost += share;
      }
      sent_total += k;

      std::size_t parities_used = 0;
      while (true) {
        std::size_t l = 0;
        for (const auto& sh : st) l = std::max(l, sh.nak);
        log_nak(cfg, l);
        if (l == 0) break;
        l = std::min(l, h - parities_used);
        if (l == 0) break;  // budget exhausted
        rounds += charge_feedback_gap(cfg, fb_rng, t);
        ++rounds;
        const double tp = t;
        const std::size_t slots = l;
        sim::detail::run_indexed(st.size(), threads, [&](std::uint64_t s) {
          run_burst(st[s], *txs[s], tp, slots, /*record_slots=*/false);
        });
        for (std::size_t slot = 0; slot < slots; ++slot) {
          t += cfg.timing.delta;
          cost += share;
        }
        sent_total += slots;
        parities_used += slots;
      }

      // Harvest: decodable receivers recover every pending original; the
      // rest keep the data slots they caught directly.
      sim::detail::run_indexed(st.size(), threads, [&](std::uint64_t s) {
        State& sh = st[s];
        const BitVec& decodable = sh.counts[k - 1];
        for (std::size_t i = 0; i < k; ++i) {
          if (!pending[i]) continue;
          BitVec& hv = sh.have.plane(i);
          for (std::size_t w = 0; w < hv.num_words(); ++w)
            hv.data()[w] |= decodable.word(w) | sh.slots[i].word(w);
        }
      });

      std::fill(pending.begin(), pending.end(), char{0});
      pending_count = 0;
      for (std::size_t i = 0; i < k; ++i) {
        std::size_t miss = 0;
        for (const auto& sh : st) miss += sh.have.missing(i);
        if (miss > 0) {
          pending[i] = 1;
          ++pending_count;
        }
      }
      if (pending_count > 0) rounds += charge_feedback_gap(cfg, fb_rng, t);
    }
    tx_stats.add(cost / static_cast<double>(k));
    round_stats.add(static_cast<double>(rounds));
    time_stats.add(t - tg_start);
    t += cfg.timing.gap;
  }
  return finish(tx_stats, round_stats, time_stats, sent_total);
}

McResult run_stream(Shards txs, const std::vector<ShardRange>& ranges,
                    const McConfig& cfg, unsigned threads) {
  const std::size_t k = static_cast<std::size_t>(cfg.k);
  struct State {
    ReceiverShard deficits;
    BitVec received;
    bool busy = true;
  };
  std::vector<State> st;
  st.reserve(ranges.size());
  for (const auto& rr : ranges)
    st.push_back({ReceiverShard(rr.first, rr.count, k), BitVec(rr.count), true});

  RunningStats tx_stats, round_stats, time_stats;
  std::uint64_t sent_total = 0;
  double t = 0.0;

  for (std::int64_t tg = 0; tg < cfg.num_tgs; ++tg) {
    const double tg_start = t;
    for (auto& s : st) {
      s.deficits.fill(true);
      s.busy = true;
    }
    std::uint64_t sent = 0;
    bool unfinished = true;
    while (unfinished) {
      const double t0 = t;
      sim::detail::run_indexed(st.size(), threads, [&](std::uint64_t s) {
        State& sh = st[s];
        if (!sh.busy) return;  // all of this shard already left the group
        txs[s]->transmit(t0, sh.deficits.plane(0), sh.received);
        drop_deficits(sh.deficits, sh.received);
        sh.busy = sh.deficits.plane(0).any();
      });
      t += cfg.timing.delta;
      ++sent;
      unfinished = false;
      for (const auto& sh : st) unfinished = unfinished || sh.busy;
    }
    sent_total += sent;
    tx_stats.add(static_cast<double>(sent) / static_cast<double>(k));
    round_stats.add(1.0);
    time_stats.add(t - tg_start);
    t += cfg.timing.gap;
  }
  return finish(tx_stats, round_stats, time_stats, sent_total);
}


/// Validates cfg and runs `scheme`'s round loop over `txs`, shard s
/// covering the receivers that follow shards 0..s-1.
McResult run_rounds(BatchScheme scheme, Shards txs, const McConfig& cfg,
                    unsigned threads, std::size_t depth = 1) {
  validate(cfg);
  std::vector<ShardRange> ranges;
  std::size_t first = 0;
  for (const BatchTransmitter* tx : txs) {
    ranges.push_back({first, tx->receivers()});
    first += tx->receivers();
  }
  switch (scheme) {
    case BatchScheme::kNoFec:
      return run_nofec(txs, ranges, cfg, threads);
    case BatchScheme::kLayered:
      return run_layered(txs, ranges, cfg, threads, depth);
    case BatchScheme::kIntegratedNaks:
      return run_naks(txs, ranges, cfg, threads);
    case BatchScheme::kIntegratedFinite:
      return run_finite(txs, ranges, cfg, threads);
    case BatchScheme::kIntegratedStream:
      return run_stream(txs, ranges, cfg, threads);
  }
  throw std::invalid_argument("run_rounds: unknown scheme");
}

McResult one_shard(BatchScheme scheme, BatchTransmitter& tx,
                   const McConfig& cfg, std::size_t depth = 1) {
  BatchTransmitter* const shard[] = {&tx};
  return run_rounds(scheme, shard, cfg, /*threads=*/1, depth);
}

}  // namespace

McResult sim_nofec(BatchTransmitter& tx, const McConfig& cfg) {
  return one_shard(BatchScheme::kNoFec, tx, cfg);
}

McResult sim_layered(BatchTransmitter& tx, const McConfig& cfg) {
  return one_shard(BatchScheme::kLayered, tx, cfg);
}

McResult sim_layered_interleaved(BatchTransmitter& tx, const McConfig& cfg,
                                 std::size_t depth) {
  if (depth == 0)
    throw std::invalid_argument("sim_layered_interleaved: depth >= 1");
  return one_shard(BatchScheme::kLayered, tx, cfg, depth);
}

McResult sim_integrated_naks(BatchTransmitter& tx, const McConfig& cfg) {
  return one_shard(BatchScheme::kIntegratedNaks, tx, cfg);
}

McResult sim_integrated_finite(BatchTransmitter& tx, const McConfig& cfg) {
  return one_shard(BatchScheme::kIntegratedFinite, tx, cfg);
}

McResult sim_integrated_stream(BatchTransmitter& tx, const McConfig& cfg) {
  return one_shard(BatchScheme::kIntegratedStream, tx, cfg);
}

McResult sim_batched(BatchScheme scheme, const loss::LossModel& model,
                     std::size_t receivers, const McConfig& cfg, Rng rng,
                     const BatchOptions& opts) {
  validate(cfg);
  if (receivers == 0)
    throw std::invalid_argument("sim_batched: need receivers >= 1");
  const auto ranges = partition(receivers, opts.shards);
  const unsigned threads = sim::resolve_threads(opts.threads);

  // Protocol NP under IID loss never needs per-receiver identity at all:
  // route it to the deficit-class-counts engine, whose cost per round is
  // independent of R (see run_naks_counts).
  if (scheme == BatchScheme::kIntegratedNaks && opts.allow_fast_path) {
    std::vector<ShardSegments> shards;
    shards.reserve(ranges.size());
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      auto segs = iid_segments(model, ranges[s].first, ranges[s].count);
      if (segs.empty()) break;  // no IID fast path: fall through below
      shards.push_back({std::move(segs), rng.split(receivers + s)});
    }
    if (shards.size() == ranges.size())
      return run_naks_counts(shards, cfg, threads);
  }

  std::vector<std::unique_ptr<BatchTransmitter>> owned;
  std::vector<BatchTransmitter*> txs;
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    owned.push_back(make_batch_transmitter(model, ranges[s].first,
                                           ranges[s].count, rng,
                                           rng.split(receivers + s),
                                           opts.allow_fast_path));
    txs.push_back(owned.back().get());
  }
  return run_rounds(scheme, txs, cfg, threads);
}

}  // namespace pbl::protocol
