// Restartable transfer: a multicast file transfer that survives sender
// crashes across PROCESS restarts, not just within one run.
//
// Each invocation is one sender life.  The sender's progress lives in a
// write-ahead journal on disk; the receivers' decoded bitmaps persist in
// a sibling journal (standing in for receivers that, in a real
// deployment, simply outlive the sender).  Run it repeatedly:
//
//   $ ./restartable_transfer        # life 1: crashes partway, journals kept
//   $ ./restartable_transfer        # life 2: resumes, crashes again
//   $ ./restartable_transfer        # life 3: finishes, verifies, cleans up
//
// The first two lives die on a scripted schedule (override with
// --crash-after=N, disable with --crash-after=0); every restart resumes
// at the first incomplete TG, serves only fresh parity indices, and
// stamps a bumped incarnation so straggler packets from the dead life
// are rejected.  --reset discards the journals and starts over.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/file_transfer.hpp"
#include "core/session_state.hpp"
#include "loss/loss_model.hpp"
#include "protocol/np_protocol.hpp"
#include "util/cli.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

using namespace pbl;

namespace {

/// The "file": deterministic bytes, so every invocation agrees on the
/// payload without shipping state outside the journals.
std::vector<std::uint8_t> demo_blob(std::size_t bytes) {
  Rng rng(0xF17E);
  std::vector<std::uint8_t> blob(bytes);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
  return blob;
}

/// Latest persisted decoded-bitmap per receiver, from the receiver-side
/// journal (empty file or missing snapshots = receivers start cold).
std::vector<std::vector<bool>> load_receiver_priors(util::Journal& rx_journal,
                                                    std::size_t receivers,
                                                    std::size_t num_tgs,
                                                    std::uint64_t session_id) {
  if (rx_journal.recovered().empty()) return {};  // all receivers cold
  std::vector<std::vector<bool>> priors(receivers,
                                        std::vector<bool>(num_tgs, false));
  for (const auto& rec : rx_journal.recovered()) {
    if (rec.type !=
        static_cast<std::uint32_t>(core::SessionRecordType::kReceiverSnapshot))
      continue;
    const auto state = core::ReceiverSessionState::deserialize(rec.payload);
    if (state.session_id == session_id && state.receiver < receivers &&
        state.decoded.size() == num_tgs)
      priors[state.receiver] = state.decoded;  // later snapshot wins
  }
  return priors;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string path = cli.get_string("journal", "/tmp/pbl_restartable");
  const std::size_t receivers =
      static_cast<std::size_t>(cli.get_int64("receivers", 5));
  const double p = cli.get_double("p", 0.05);
  const std::int64_t crash_flag = cli.get_int64("crash-after", -1);
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }
  const std::string rx_path = path + ".rx";
  if (cli.has("reset")) {
    std::remove(path.c_str());
    std::remove(rx_path.c_str());
    std::puts("journals removed; next run starts a fresh session");
    return 0;
  }

  // Segment the demo file: 12 TGs of k = 4 packets, 64 bytes each.
  protocol::NpConfig cfg;
  cfg.k = 4;
  cfg.h = 8;
  cfg.packet_len = 64;
  cfg.reliable_control = true;
  const auto blob = demo_blob(3000);
  const auto groups = core::segment_blob(blob, cfg.k, cfg.packet_len);

  // Sender journal: create fresh or recover the previous life.  Opening
  // folds the record stream, checks the shape, journals the incarnation
  // bump before we send anything, and hands the journaled progress and
  // the write-ahead hooks to cfg.
  constexpr std::uint64_t kSessionId = 0x5e55;
  const auto journal = core::open_session_journal(
      path, kSessionId, groups.size(), cfg, {.checkpoint_interval = 8});
  core::SessionJournal& sj = *journal;

  const auto& st = sj.state();
  std::printf("life %u (%s): %zu/%u TGs already confirmed complete\n",
              st.incarnation + 1, sj.resumed() ? "resumed" : "fresh session",
              st.first_incomplete() == st.num_tgs
                  ? static_cast<std::size_t>(st.num_tgs)
                  : static_cast<std::size_t>(
                        std::count(st.completed.begin(), st.completed.end(),
                                   true)),
              st.num_tgs);

  // Receiver journal: the surviving receivers' decoded bitmaps.
  auto rx_journal = util::Journal::open(rx_path, {.sync_every = 1});
  auto priors =
      load_receiver_priors(rx_journal, receivers, groups.size(), kSessionId);

  // Scripted demo: the first two lives die partway unless overridden.
  std::size_t crash_after = protocol::kNoSenderCrash;
  if (crash_flag > 0) crash_after = static_cast<std::size_t>(crash_flag);
  if (crash_flag < 0 && st.incarnation < 2)
    crash_after = 40;  // enough to confirm a few TGs, not the whole file

  cfg.resume.receiver_incarnation = st.incarnation;  // heard the last life
  cfg.resume.receiver_decoded = priors;
  cfg.crash_after_tx = crash_after;

  loss::BernoulliLossModel loss(p);
  protocol::NpSession session(loss, receivers, groups, cfg, kSessionId);
  const auto stats = session.run();

  // Persist what the receivers now hold, whatever happened to the sender.
  for (std::size_t r = 0; r < stats.report.delivered.size(); ++r) {
    core::ReceiverSessionState rx_state;
    rx_state.session_id = kSessionId;
    rx_state.receiver = static_cast<std::uint32_t>(r);
    rx_state.incarnation = sj.state().incarnation;
    rx_state.num_tgs = static_cast<std::uint32_t>(groups.size());
    rx_state.decoded = stats.report.delivered[r];
    rx_journal.append(
        static_cast<std::uint32_t>(core::SessionRecordType::kReceiverSnapshot),
        rx_state.serialize());
  }

  std::printf("  skipped %llu journaled TGs, sent %llu data + %llu parity, "
              "rejected %llu stale packets\n",
              static_cast<unsigned long long>(stats.resumed_tgs_skipped),
              static_cast<unsigned long long>(stats.data_sent),
              static_cast<unsigned long long>(stats.parity_sent +
                                              stats.proactive_sent),
              static_cast<unsigned long long>(stats.stale_rejected));

  if (stats.sender_crashed) {
    std::printf("  sender CRASHED mid-transfer; journal holds %zu/%u TGs "
                "(%zu bytes) — run me again to resume\n",
                static_cast<std::size_t>(std::count(
                    sj.state().completed.begin(), sj.state().completed.end(),
                    true)),
                sj.state().num_tgs, sj.journal().size_bytes());
    return 0;
  }

  const bool ok = stats.all_delivered && sj.state().all_complete();
  std::printf("  transfer COMPLETE in %u life/lives: %zu bytes to %zu "
              "receivers, byte-exact = %s\n",
              sj.state().incarnation + 1, blob.size(), receivers,
              ok ? "yes" : "NO");
  std::remove(path.c_str());
  std::remove(rx_path.c_str());
  std::puts("  journals removed; next run starts a fresh session");
  return ok ? 0 : 1;
}
