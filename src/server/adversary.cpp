#include "server/adversary.hpp"

#include <algorithm>

#include "fec/packet.hpp"
#include "net/peer_guard.hpp"
#include "net/udp/udp_np.hpp"

namespace pbl::server {

const char* to_string(AdversaryProfile profile) noexcept {
  switch (profile) {
    case AdversaryProfile::kStorm:
      return "storm";
    case AdversaryProfile::kSpoof:
      return "spoof";
    case AdversaryProfile::kReplay:
      return "replay";
    case AdversaryProfile::kGarbage:
      return "garbage";
    case AdversaryProfile::kFalseCompletion:
      return "false-completion";
  }
  return "?";
}

bool parse_adversary_profile(const std::string& name, AdversaryProfile& out) {
  if (name == "storm")
    out = AdversaryProfile::kStorm;
  else if (name == "spoof")
    out = AdversaryProfile::kSpoof;
  else if (name == "replay")
    out = AdversaryProfile::kReplay;
  else if (name == "garbage")
    out = AdversaryProfile::kGarbage;
  else if (name == "false-completion")
    out = AdversaryProfile::kFalseCompletion;
  else
    return false;
  return true;
}

AdversaryPeer::AdversaryPeer(Reactor& reactor, AdversaryConfig config)
    : reactor_(reactor), cfg_(std::move(config)), rng_(cfg_.seed) {
  if (cfg_.auth)
    member_key_ = net::derive_member_key(cfg_.auth_key, socket_.port());
}

AdversaryPeer::~AdversaryPeer() { stop(); }

void AdversaryPeer::join(net::UdpGroup& group) {
  group_socket_ = group.join(socket_.port());
}

void AdversaryPeer::start() {
  if (started_) return;
  started_ = true;
  reactor_.add_fd(socket_.fd(), [this] { learn_from(socket_); });
  if (group_socket_)
    reactor_.add_fd(group_socket_->fd(),
                    [this] { learn_from(*group_socket_); });
  // A non-positive rate attacks at 100 frames/s rather than unpaced.
  pacer_ = net::Pacer(cfg_.rate > 0.0 ? cfg_.rate : 100.0, kBurst,
                      reactor_.now());
  timer_ = reactor_.add_timer(reactor_.now(), [this] { on_timer(); });
}

void AdversaryPeer::stop() {
  if (!started_) return;
  started_ = false;
  reactor_.remove_fd(socket_.fd());
  if (group_socket_) reactor_.remove_fd(group_socket_->fd());
  reactor_.cancel_timer(timer_);
}

void AdversaryPeer::on_timer() {
  const double now = reactor_.now();
  while (pacer_.ready(now)) {
    pacer_.consume(now);
    attack_once();
  }
  timer_ = reactor_.add_timer(pacer_.earliest(now), [this] { on_timer(); });
}

void AdversaryPeer::learn_from(net::UdpSocket& socket) {
  while (auto dg = socket.receive_from(0.0)) {
    const auto& hdr = dg->packet.header;
    last_inc_ = std::max(last_inc_, hdr.incarnation);
    if (hdr.type == fec::PacketType::kPoll) {
      last_seq_ = hdr.seq;
      if (hdr.tg != net::kUdpEndOfSession) last_tg_ = hdr.tg;
    } else if (hdr.tg != net::kUdpEndOfSession &&
               hdr.tg < static_cast<std::uint32_t>(cfg_.num_tgs)) {
      last_tg_ = hdr.tg;
    }
    // Keep a bounded capture buffer of genuine sender frames to replay.
    if (cfg_.profile == AdversaryProfile::kReplay &&
        captured_frames_.size() < 64)
      captured_frames_.push_back(fec::serialize(dg->packet));
  }
}

void AdversaryPeer::attack_once() {
  // Sends ignore kernel pushback: a dropped attack frame is just loss.
  //
  // A plausible insider NAK: correct type, current TG and round, own
  // identity.  Each profile corrupts a different aspect of it.
  const auto base_nak = [&](std::uint16_t count) {
    fec::Packet nak;
    nak.header.type = fec::PacketType::kNak;
    nak.header.tg = last_tg_;
    nak.header.count = count;
    nak.header.seq = last_seq_;
    nak.header.incarnation = last_inc_;
    nak.header.index = socket_.port();
    return nak;
  };

  switch (cfg_.profile) {
    case AdversaryProfile::kStorm: {
      // Max-demand NAKs, correctly identified and (when auth is on)
      // correctly tagged: every accepted one inflates the parity burst,
      // so the ONLY effective defense is per-peer rate policing.
      auto nak = base_nak(static_cast<std::uint16_t>(cfg_.k));
      if (cfg_.auth) net::append_auth_trailer(nak, member_key_, fbseq_++);
      socket_.send_to(cfg_.sender_port, nak);
      break;
    }

    case AdversaryProfile::kSpoof: {
      // Feedback wearing a victim's identity: forged max-demand NAKs to
      // inflate their apparent need, forged ACKs to mark them served.
      if (cfg_.victims.empty()) break;
      const std::uint16_t victim = cfg_.victims[static_cast<std::size_t>(
          rng_.below(cfg_.victims.size()))];
      auto fb = base_nak(rng_.bernoulli(0.5)
                             ? static_cast<std::uint16_t>(cfg_.k)
                             : std::uint16_t{0});
      fb.header.index = victim;
      // The adversary does not know the victim's key; its own is the
      // best it has (and exactly what the addr-mismatch check catches).
      if (cfg_.auth) net::append_auth_trailer(fb, member_key_, fbseq_++);
      socket_.send_to(cfg_.sender_port, fb);
      break;
    }

    case AdversaryProfile::kReplay: {
      // Verbatim replays: its own first sealed NAK (same fbseq forever —
      // the replay window must reject the repeats) and captured sender
      // frames bounced back at the sender and injected at victims
      // (forged end markers arrive from the wrong source port).
      if (replay_feedback_.empty()) {
        auto nak = base_nak(1);
        if (cfg_.auth) net::append_auth_trailer(nak, member_key_, fbseq_++);
        replay_feedback_ = fec::serialize(nak);
      }
      socket_.send_frame(cfg_.sender_port, replay_feedback_);
      if (!captured_frames_.empty()) {
        const auto& frame = captured_frames_[static_cast<std::size_t>(
            rng_.below(captured_frames_.size()))];
        socket_.send_frame(cfg_.sender_port, frame);
        if (!cfg_.victims.empty())
          socket_.send_frame(cfg_.victims[static_cast<std::size_t>(
                                 rng_.below(cfg_.victims.size()))],
                             frame);
      }
      break;
    }

    case AdversaryProfile::kGarbage: {
      // Rotate through malformation classes.  Sealed-but-invalid frames
      // (valid CRC, nonsense semantics) matter most: they are the ones
      // only the shape check — not the parser — can stop.
      const std::uint64_t kind = rng_.below(4);
      if (kind == 0) {
        // Raw noise: exercises the datagram parser and resync salvage.
        std::vector<std::uint8_t> noise(1 + rng_.below(96));
        for (auto& b : noise)
          b = static_cast<std::uint8_t>(rng_.below(256));
        socket_.send_frame(cfg_.sender_port, noise);
        if (!cfg_.victims.empty())
          socket_.send_frame(cfg_.victims[static_cast<std::size_t>(
                                 rng_.below(cfg_.victims.size()))],
                             noise);
      } else if (kind == 1) {
        // Truncated genuine frame: CRC cannot match.
        auto bytes = fec::serialize(base_nak(1));
        bytes.resize(bytes.size() - 1 - rng_.below(bytes.size() - 1));
        socket_.send_frame(cfg_.sender_port, bytes);
      } else if (kind == 2) {
        // Bit-malleated sealed frame: one flipped bit, stale CRC.
        auto nak = base_nak(1);
        if (cfg_.auth) net::append_auth_trailer(nak, member_key_, fbseq_++);
        auto bytes = fec::serialize(nak);
        bytes[rng_.below(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng_.below(8));
        socket_.send_frame(cfg_.sender_port, bytes);
      } else {
        // Sealed-but-invalid: parses fine, demands the impossible.
        auto nak = base_nak(static_cast<std::uint16_t>(cfg_.k + 1 +
                                                       rng_.below(1000)));
        if (rng_.bernoulli(0.5))
          nak.header.tg = static_cast<std::uint32_t>(cfg_.num_tgs) +
                          static_cast<std::uint32_t>(rng_.below(1000));
        if (cfg_.auth) net::append_auth_trailer(nak, member_key_, fbseq_++);
        socket_.send_to(cfg_.sender_port, nak);
      }
      break;
    }

    case AdversaryProfile::kFalseCompletion: {
      // Claim the current round is done: a valid ACK for itself (it
      // decoded nothing) and a forged ACK for a victim.  The spoofed one
      // is the dangerous one — it could strand the victim unrepaired.
      auto ack = base_nak(0);
      if (cfg_.auth) net::append_auth_trailer(ack, member_key_, fbseq_++);
      socket_.send_to(cfg_.sender_port, ack);
      if (!cfg_.victims.empty()) {
        auto forged = base_nak(0);
        forged.header.index = cfg_.victims[static_cast<std::size_t>(
            rng_.below(cfg_.victims.size()))];
        if (cfg_.auth)
          net::append_auth_trailer(forged, member_key_, fbseq_++);
        socket_.send_to(cfg_.sender_port, forged);
      }
      break;
    }
  }
}

}  // namespace pbl::server
