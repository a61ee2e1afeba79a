// Seeded Byzantine receiver for hostile-peer testing (tests/test_hostile,
// soak --scenario hostile).  An AdversaryPeer binds its own UDP socket,
// joins a session's multicast group like any member, and then misbehaves
// according to a profile: NAK storms, identity spoofing, verbatim frame
// replay, malformed garbage, or false completion claims.
//
// The adversary is deliberately WELL-INFORMED: it watches the sender's
// multicast traffic (it is an admitted member), so its forged feedback
// carries plausible TG numbers, round sequences and incarnations.  The
// defenses under test (net/peer_guard.hpp, the receiver-side source and
// auth checks) must win against an insider, not just against noise.
//
// It runs on its session's Reactor like the drivers: its sockets are
// reactor fds, and one reactor timer paces the attack through a
// net::Pacer on the reactor's clock.  All attack content derives from
// util::Rng(seed); on a ManualClock the frame counts are exact too.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/pacer.hpp"
#include "net/udp/udp_transport.hpp"
#include "server/reactor.hpp"
#include "util/rng.hpp"

namespace pbl::server {

enum class AdversaryProfile {
  kStorm,           ///< max-demand NAKs at far above the honest rate
  kSpoof,           ///< feedback claiming victims' identities
  kReplay,          ///< verbatim re-sends of captured frames
  kGarbage,         ///< malformed, truncated and sealed-but-invalid frames
  kFalseCompletion  ///< ACKs (own and spoofed) claiming TGs it never decoded
};

const char* to_string(AdversaryProfile profile) noexcept;

/// Parses "storm"/"spoof"/"replay"/"garbage"/"false-completion" (the CLI
/// --hostile values); returns false and leaves `out` alone on nonsense.
bool parse_adversary_profile(const std::string& name, AdversaryProfile& out);

struct AdversaryConfig {
  AdversaryProfile profile = AdversaryProfile::kStorm;
  std::uint16_t sender_port = 0;        ///< where feedback attacks aim
  std::vector<std::uint16_t> victims;   ///< honest members to spoof/inject at
  double rate = 200.0;                  ///< attack frames per second
  std::uint64_t seed = 1;               ///< drives all attack content
  std::size_t k = 4;                    ///< protocol k (bounds forged demand)
  std::size_t num_tgs = 1;              ///< forged TG numbers stay plausible
  bool auth = false;                    ///< tag feedback like a real member
  std::uint64_t auth_key = 0;           ///< session key (it IS admitted)
};

/// One hostile group member.  Construct (binds the socket), join() the
/// session's group, then start(); stop() takes it off the reactor.
class AdversaryPeer {
 public:
  /// Attack frames the pacer may send back to back: a reactor that
  /// fires the timer late catches up by at most one interval.
  static constexpr double kBurst = 2.0;

  AdversaryPeer(Reactor& reactor, AdversaryConfig config);
  ~AdversaryPeer();

  AdversaryPeer(const AdversaryPeer&) = delete;
  AdversaryPeer& operator=(const AdversaryPeer&) = delete;

  /// The adversary's own bound port — its admitted group identity.
  std::uint16_t port() const noexcept { return socket_.port(); }

  /// Joins `group` like any member: port() becomes a member identity
  /// and, under group delivery, the adversary overhears the group.
  void join(net::UdpGroup& group);

  /// Registers both sockets on the reactor (each readable event teaches
  /// the adversary the sender's TG/round/incarnation) and arms the
  /// attack timer.
  void start();
  /// Unregisters both sockets and cancels the timer; idempotent.
  void stop();

 private:
  void learn_from(net::UdpSocket& socket);  ///< drain + learn sender traffic
  void on_timer();  ///< attack while the pacer has tokens, then re-arm
  void attack_once();  ///< emit one attack frame (profile)

  Reactor& reactor_;
  AdversaryConfig cfg_;
  net::UdpSocket socket_;
  std::optional<net::UdpSocket> group_socket_;  ///< set by join() on a group
  Rng rng_;
  net::Pacer pacer_;
  bool started_ = false;
  Reactor::TimerId timer_ = 0;

  std::uint32_t last_tg_ = 0;        ///< latest TG seen in sender traffic
  std::uint32_t last_seq_ = 0;       ///< latest POLL round id
  std::uint8_t last_inc_ = 0;        ///< latest sender incarnation
  std::uint32_t fbseq_ = 0;          ///< own auth sequence (storm/false-ack)
  std::uint64_t member_key_ = 0;     ///< own (legitimate) feedback key
  std::vector<std::uint8_t> replay_feedback_;  ///< one sealed NAK, re-sent
  std::vector<std::vector<std::uint8_t>> captured_frames_;  ///< for replay
};

}  // namespace pbl::server
