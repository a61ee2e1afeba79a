// Workload shapes and the per-layer replays of the traced ext_e2e run.
//
// The traced run times each layer's public functions in isolation, on the
// workload's own shapes (k, h, packet length, receivers, TGs per session),
// and maps the costs onto the paper's Section 5 processing terms so
// analysis::np_rates() can be compared with the throughput the server
// actually reached (Fig 17/18 on today's hardware).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "analysis/processing.hpp"
#include "trace.hpp"

namespace pbl::e2e {

/// One traffic mix.  Every session of a run has the same shape; the
/// closed loop keeps `concurrency` of them in flight.
struct Workload {
  std::string_view name;
  std::size_t receivers;
  std::size_t k;
  std::size_t h;
  std::size_t packet_len;
  double loss;              ///< iid DATA/PARITY loss at each receiver
  std::size_t tgs;          ///< TGs per session
  std::size_t concurrency;  ///< sessions kept in flight
  /// Sizes a run: a run of `--seconds` t holds rate x t sessions, about
  /// t seconds of work on the reference host (bench/e2e/README.md).
  double sessions_per_s;
  bool hardened;  ///< journal + authenticated guard + NAK suppression
};

/// Poll window of every workload: about the loopback RTT plus epoll's
/// 1 ms timeout rounding.
inline constexpr double kPollWindow = 0.002;

/// Seconds per operation of each replayed stage.
struct StageCosts {
  double data_frame = 0.0;    ///< TgEncoder::write_data_frame
  double parity_frame = 0.0;  ///< TgEncoder::write_parity_frame
  double parse = 0.0;         ///< fec::deserialize of a data frame
  double decoder_add = 0.0;   ///< TgDecoder::add, per packet
  double decode_per_tg = 0.0; ///< add + reconstruct of one TG, mean
  /// reconstruct() time per (k x lost data packet): the paper's cd.
  double reconstruct_per_lost = 0.0;
  double send_per_frame = 0.0;  ///< send_batch of one TG burst, per frame
  double recv_per_frame = 0.0;  ///< receive_batch, per frame
  double send_to = 0.0;         ///< one NAK through send_to (tagged if auth)
  double arena = 0.0;           ///< PacketArena acquire + release
  double timer = 0.0;           ///< Reactor timer add + fire, ManualClock
  double dispatch = 0.0;        ///< Reactor readable fd -> handler
  double guard_check = 0.0;     ///< PeerGuard::check of an authenticated NAK
  double journal_append = 0.0;  ///< SessionJournal record_* per record
};

/// Replays every stage.  `scale` shrinks the repetition counts (smoke
/// runs); `workdir` receives throwaway journals.  Throws if a replayed
/// call returns a wrong result.
StageCosts replay_stages(const Workload& w, std::uint64_t seed, double scale,
                         const std::string& workdir, Tracer& tracer);

/// Section 5 terms assembled from the stage costs, and the CPU seconds per
/// data packet they predict for one sender plus `receivers` receivers
/// sharing one thread: 1/sender + R/receiver from np_rates().
struct ModelTerms {
  analysis::ProcessingCosts costs;
  double cpu_per_packet = 0.0;
};

ModelTerms model_terms(const Workload& w, const StageCosts& s);

}  // namespace pbl::e2e
