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
// Determinism: all attack content derives from util::Rng(seed).  Timing
// is wall-clock paced (a real thread against a real socket), so frame
// COUNTS vary run to run, but the attack byte-streams per slot do not.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "net/udp/udp_transport.hpp"
#include "util/rng.hpp"

namespace pbl::net {

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
  std::uint8_t incarnation = 0;         ///< stamped on forged feedback
};

/// Counters filled by the attack thread; read them after stop().
struct AdversaryStats {
  std::uint64_t sent = 0;          ///< attack frames handed to the kernel
  std::uint64_t captured = 0;      ///< sender frames observed (and learned)
  std::uint64_t polls_seen = 0;    ///< POLLs among them (round tracking)
  std::uint64_t would_block = 0;   ///< sends the kernel pushed back on
};

/// One hostile group member.  Construct (binds the socket), join() the
/// session's group, then start(); stop() joins the thread.
class AdversaryPeer {
 public:
  explicit AdversaryPeer(AdversaryConfig config);
  ~AdversaryPeer();

  AdversaryPeer(const AdversaryPeer&) = delete;
  AdversaryPeer& operator=(const AdversaryPeer&) = delete;

  /// The adversary's own bound port — its admitted group identity.
  std::uint16_t port() const noexcept { return socket_.port(); }

  /// Joins `group` like any member: port() becomes a member identity
  /// and, under group delivery, the adversary overhears the group.
  void join(UdpGroup& group);

  void start();
  void stop();  ///< idempotent; joins the attack thread

  /// Valid after stop() (undefined while the thread runs).
  const AdversaryStats& stats() const noexcept { return stats_; }

 private:
  void run();
  void observe(double wait_s);  ///< wait, then learn from both sockets
  void learn_from(UdpSocket& socket);  ///< drain + learn sender traffic
  void attack_once(Rng& rng);   ///< emit one attack frame (profile)

  AdversaryConfig cfg_;
  UdpSocket socket_;
  std::optional<UdpSocket> group_socket_;  ///< set by join() on a group
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  // Attack-thread state (no locking: only run() touches these).
  AdversaryStats stats_;
  std::uint32_t last_tg_ = 0;        ///< latest TG seen in sender traffic
  std::uint32_t last_seq_ = 0;       ///< latest POLL round id
  std::uint8_t last_inc_ = 0;        ///< latest sender incarnation
  std::uint32_t fbseq_ = 0;          ///< own auth sequence (storm/false-ack)
  std::uint64_t member_key_ = 0;     ///< own (legitimate) feedback key
  std::vector<std::uint8_t> replay_feedback_;  ///< one sealed NAK, re-sent
  std::vector<std::vector<std::uint8_t>> captured_frames_;  ///< for replay
};

}  // namespace pbl::net
