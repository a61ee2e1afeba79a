// Generic receiver-initiated ARQ multicast without FEC — the N2-class
// baseline of Towsley, Kurose & Pingali that Section 5 compares protocol
// NP against.  Loss recovery retransmits the ORIGINAL packets that were
// lost, so feedback must identify them: NAKs carry a bitmap of missing
// packets, and a receiver suppresses its NAK only if an overheard NAK
// covers its whole missing set.  This is what makes ARQ feedback per
// packet rather than per transmission group, and what causes duplicate
// receptions at receivers that did not need a retransmission.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "loss/loss_model.hpp"

namespace pbl::protocol {

struct ArqConfig {
  std::size_t k = 20;           ///< packets per transmission group
  std::size_t packet_len = 256;
  double delta = 0.001;         ///< packet spacing [s]
  double slot = 0.005;          ///< NAK suppression slot size [s]
  double delay = 0.010;         ///< one-way propagation delay [s]
};

struct ArqStats {
  std::uint64_t data_sent = 0;           ///< first transmissions
  std::uint64_t retransmissions = 0;     ///< repair transmissions
  std::uint64_t polls_sent = 0;
  std::uint64_t naks_sent = 0;
  std::uint64_t naks_suppressed = 0;
  std::uint64_t duplicate_receptions = 0;
  double completion_time = 0.0;
  bool all_delivered = false;
  double tx_per_packet = 0.0;            ///< (data+retx)/(k*num_tgs), E[M]
};

class ArqSession {
 public:
  ArqSession(const loss::LossModel& loss, std::size_t receivers,
             std::size_t num_tgs, const ArqConfig& config,
             std::uint64_t seed = 1);
  ~ArqSession();

  ArqSession(const ArqSession&) = delete;
  ArqSession& operator=(const ArqSession&) = delete;

  ArqStats run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pbl::protocol
