#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "core/session_state.hpp"
#include "fec/fec_block.hpp"
#include "fec/packet.hpp"
#include "net/peer_guard.hpp"
#include "net/udp/packet_arena.hpp"
#include "net/udp/udp_transport.hpp"
#include "server/reactor.hpp"
#include "util/rng.hpp"

namespace pbl::e2e {

namespace {

/// Times batches of one stage, each under its own span, and reports the
/// median per-operation time — robust to the odd descheduled batch.
class StageTimer {
 public:
  StageTimer(Tracer& tracer, const char* name)
      : tracer_(tracer), name_(tracer.intern(name)) {}

  /// `fn` runs one batch and returns how many operations it performed.
  template <typename Fn>
  void batch(Fn&& fn) {
    const std::size_t span = tracer_.begin(name_);
    const std::int64_t t0 = mono_ns();
    const std::size_t ops = fn();
    const std::int64_t t1 = mono_ns();
    tracer_.end(span);
    if (ops == 0) throw std::logic_error("replay: empty batch");
    per_op_.push_back(static_cast<double>(t1 - t0) * 1e-9 /
                      static_cast<double>(ops));
  }

  double median() {
    if (per_op_.empty()) throw std::logic_error("replay: no batches");
    const auto mid = per_op_.begin() + static_cast<long>(per_op_.size() / 2);
    std::nth_element(per_op_.begin(), mid, per_op_.end());
    return *mid;
  }

 private:
  Tracer& tracer_;
  Tracer::NameId name_;
  std::vector<double> per_op_;
};

std::vector<std::vector<std::uint8_t>> random_tg(Rng& rng, std::size_t k,
                                                 std::size_t len) {
  std::vector<std::vector<std::uint8_t>> data(k,
                                              std::vector<std::uint8_t>(len));
  for (auto& pkt : data)
    for (auto& b : pkt) b = static_cast<std::uint8_t>(rng());
  return data;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("replay: ") + what);
}

}  // namespace

StageCosts replay_stages(const Workload& w, std::uint64_t seed, double scale,
                         const std::string& workdir, Tracer& tracer) {
  const auto reps = std::max<std::size_t>(
      5, static_cast<std::size_t>(std::lround(200.0 * std::min(1.0, scale))));
  Rng rng = Rng(seed).split(0xE2E0);
  const std::size_t k = w.k;
  const std::size_t r = w.receivers;
  const std::size_t wire = fec::wire_size(w.packet_len);
  const fec::RseCode code(k, k + w.h);
  const auto data = random_tg(rng, k, w.packet_len);
  fec::TgEncoder enc(0, code, data);
  StageCosts c;

  // Arena: acquire a burst's frames, then release them all, as the
  // sender's pump does per burst.
  net::PacketArena arena(wire, std::max(k, w.h));
  {
    StageTimer t(tracer, "replay.net.udp.arena");
    for (std::size_t i = 0; i < reps; ++i)
      t.batch([&] {
        for (std::size_t j = 0; j < k; ++j)
          require(arena.acquire().has_value(), "arena exhausted");
        arena.release_all();
        return k;
      });
    c.arena = t.median();
  }

  std::vector<net::PacketArena::Frame> frames;
  for (std::size_t i = 0; i < k; ++i) frames.push_back(*arena.acquire());
  {
    StageTimer t(tracer, "replay.fec.data_frame");
    for (std::size_t i = 0; i < reps; ++i)
      t.batch([&] {
        for (std::size_t j = 0; j < k; ++j)
          require(enc.write_data_frame(j, 0, frames[j].bytes) == wire,
                  "data frame size");
        return k;
      });
    c.data_frame = t.median();
  }
  {
    // The first min(h, k) parities cover what one repair round sends.
    const std::size_t np = std::min(w.h, k);
    std::vector<std::uint8_t> buf(wire);
    StageTimer t(tracer, "replay.fec.parity_frame");
    for (std::size_t i = 0; i < reps; ++i)
      t.batch([&] {
        for (std::size_t j = 0; j < np; ++j)
          require(enc.write_parity_frame(j, 0, buf) == wire,
                  "parity frame size");
        return np;
      });
    c.parity_frame = t.median();
  }
  {
    StageTimer t(tracer, "replay.fec.parse");
    for (std::size_t i = 0; i < reps; ++i)
      t.batch([&] {
        for (std::size_t j = 0; j < k; ++j) {
          const fec::Packet p = fec::deserialize(frames[j].bytes.first(wire));
          require(p.header.index == j, "parse index");
        }
        return k;
      });
    c.parse = t.median();
  }

  // Decode: each TG loses every data packet with the workload's p and is
  // completed with as many parities — the receive path of one repair.
  {
    std::vector<fec::Packet> data_pkts;
    for (std::size_t j = 0; j < k; ++j) data_pkts.push_back(enc.data_packet(j));
    std::vector<fec::Packet> parity_pkts;
    for (std::size_t j = 0; j < w.h; ++j)
      parity_pkts.push_back(enc.parity_packet(j));
    const Tracer::NameId name = tracer.intern("replay.fec.decode");
    std::int64_t add_ns = 0, rec_ns = 0;
    std::size_t added = 0, lost_total = 0;
    std::vector<const fec::Packet*> received;
    for (std::size_t i = 0; i < reps; ++i) {
      received.clear();
      std::size_t lost = 0;
      for (std::size_t j = 0; j < k; ++j) {
        if (lost < w.h && rng.bernoulli(w.loss))
          ++lost;
        else
          received.push_back(&data_pkts[j]);
      }
      for (std::size_t j = 0; j < lost; ++j)
        received.push_back(&parity_pkts[j]);
      const std::size_t span = tracer.begin(name);
      const std::int64_t t0 = mono_ns();
      fec::TgDecoder dec(0, code, w.packet_len);
      for (const fec::Packet* p : received) dec.add(*p);
      const std::int64_t t1 = mono_ns();
      const auto& out = dec.reconstruct();
      const std::int64_t t2 = mono_ns();
      tracer.end(span);
      require(out == data, "decoded bytes differ");
      add_ns += t1 - t0;
      rec_ns += t2 - t1;
      added += received.size();
      lost_total += lost;
    }
    c.decoder_add =
        static_cast<double>(add_ns) * 1e-9 / static_cast<double>(added);
    c.decode_per_tg =
        static_cast<double>(add_ns + rec_ns) * 1e-9 / static_cast<double>(reps);
    c.reconstruct_per_lost =
        static_cast<double>(rec_ns) * 1e-9 /
        static_cast<double>(k * std::max<std::size_t>(lost_total, 1));
  }

  // Transport: one TG burst (k x R frames, packet-major, member-minor as
  // the sender stages it) to R receivers that are drained every time.
  {
    net::UdpSocket tx;
    std::vector<net::UdpSocket> rx(r);
    std::vector<net::FrameRef> burst;
    for (std::size_t j = 0; j < k; ++j)
      for (const auto& s : rx)
        burst.push_back({s.port(), frames[j].bytes.first(wire)});
    StageTimer send(tracer, "replay.net.udp.send_batch");
    StageTimer recv(tracer, "replay.net.udp.receive_batch");
    std::vector<fec::Packet> got;
    got.reserve(k);
    for (std::size_t i = 0; i < reps; ++i) {
      send.batch([&] {
        const auto res = tx.send_batch(burst);
        if (res.sent < burst.size())
          tx.send_batch_blocking(std::span(burst).subspan(res.sent));
        return burst.size();
      });
      recv.batch([&] {
        for (auto& s : rx) {
          got.clear();
          while (got.size() < k)
            require(s.receive_batch(got, k - got.size(), 1.0) > 0,
                    "burst frame missing");
          require(got.back().header.index == k - 1, "burst order");
        }
        return k * r;
      });
    }
    c.send_per_frame = send.median();
    c.recv_per_frame = recv.median();

    // A receiver's NAK: one datagram, tagged when the guard authenticates.
    const std::uint64_t key = net::derive_member_key(seed, rx[0].port());
    fec::Packet nak;
    nak.header.type = fec::PacketType::kNak;
    nak.header.k = static_cast<std::uint16_t>(k);
    nak.header.count = 1;
    nak.header.index = rx[0].port();
    std::uint32_t fbseq = 0;
    constexpr std::size_t kNaks = 16;
    StageTimer t(tracer, "replay.net.udp.send_to");
    for (std::size_t i = 0; i < reps; ++i) {
      t.batch([&] {
        for (std::size_t j = 0; j < kNaks; ++j) {
          fec::Packet p = nak;
          if (w.hardened) net::append_auth_trailer(p, key, fbseq++);
          rx[0].send_to(tx.port(), p);
        }
        return kNaks;
      });
      got.clear();
      while (got.size() < kNaks)
        require(tx.receive_batch(got, kNaks - got.size(), 1.0) > 0,
                "NAK missing");
    }
    c.send_to = t.median();
  }

  // Reactor timers: add a round's worth, then one poll_once fires them.
  {
    protocol::ManualClock clock(0.0);
    server::Reactor reactor(server::Reactor::Backend::kAuto, &clock);
    constexpr std::size_t kTimers = 64;
    std::size_t fired = 0;
    StageTimer t(tracer, "replay.server.timer");
    for (std::size_t i = 0; i < reps; ++i)
      t.batch([&] {
        for (std::size_t j = 0; j < kTimers; ++j)
          reactor.add_timer(clock.now(), [&fired] { ++fired; });
        reactor.poll_once(0.0);
        return kTimers;
      });
    require(fired == reps * kTimers, "timers did not fire");
    c.timer = t.median();
  }

  // Reactor dispatch: sockets left readable (level-triggered), so every
  // poll_once hands each one to its handler without a new datagram.
  {
    server::Reactor reactor;
    const std::size_t fds =
        std::min<std::size_t>(64, w.concurrency * (r + 1));
    std::vector<net::UdpSocket> socks(fds);
    net::UdpSocket src;
    std::size_t dispatched = 0;
    fec::Packet ping;
    ping.header.type = fec::PacketType::kPoll;
    for (auto& s : socks) {
      reactor.add_fd(s.fd(), [&dispatched] { ++dispatched; });
      src.send_to(s.port(), ping);
    }
    constexpr std::size_t kPolls = 8;
    StageTimer t(tracer, "replay.server.dispatch");
    for (std::size_t i = 0; i < reps; ++i)
      t.batch([&] {
        const std::size_t before = dispatched;
        for (std::size_t j = 0; j < kPolls; ++j) reactor.poll_once(0.0);
        return dispatched - before;
      });
    c.dispatch = t.median();
    for (auto& s : socks) reactor.remove_fd(s.fd());
  }

  // Guard: authenticated NAKs from every member, fresh feedback sequence
  // numbers so the replay window admits each one.
  {
    net::PeerGuardConfig gc;
    gc.enabled = true;
    gc.auth = true;
    gc.auth_key = seed | 1;
    std::vector<std::uint16_t> members;
    for (std::size_t m = 0; m < r; ++m)
      members.push_back(static_cast<std::uint16_t>(20000 + m));
    net::PeerGuard guard(gc, members, k, w.tgs, 0.0);
    const std::size_t per_batch = 4 * r;
    std::vector<fec::Packet> naks(reps * per_batch);
    std::vector<std::uint32_t> fbseq(r, 0);
    for (std::size_t i = 0; i < naks.size(); ++i) {
      const std::size_t m = i % r;
      fec::Packet& p = naks[i];
      p.header.type = fec::PacketType::kNak;
      p.header.tg = static_cast<std::uint32_t>((i / r) % w.tgs);
      p.header.k = static_cast<std::uint16_t>(k);
      p.header.count = static_cast<std::uint16_t>(i % (k + 1));
      p.header.index = members[m];
      net::append_auth_trailer(
          p, net::derive_member_key(gc.auth_key, members[m]), fbseq[m]++);
    }
    StageTimer t(tracer, "replay.net.guard_check");
    for (std::size_t i = 0; i < reps; ++i)
      t.batch([&] {
        for (std::size_t j = i * per_batch; j < (i + 1) * per_batch; ++j)
          require(guard.check(members[j % r], naks[j], 0.0) ==
                      net::PeerVerdict::kAccept,
                  "guard rejected an honest NAK");
        return per_batch;
      });
    c.guard_check = t.median();
  }

  // Journal: one session's worth of records into a fresh journal, with the
  // server's options (checkpoint every 16 deltas, OS-buffered appends).
  {
    const auto journals = std::max<std::size_t>(
        3, static_cast<std::size_t>(std::lround(20.0 * std::min(1.0, scale))));
    const double repair =
        1.0 - std::pow(1.0 - w.loss, static_cast<double>(k * r));
    StageTimer t(tracer, "replay.core.journal_append");
    for (std::size_t i = 0; i < journals; ++i) {
      const std::string path =
          workdir + "/replay_" + std::to_string(i) + ".journal";
      std::filesystem::remove(path);
      core::SenderSessionState fresh;
      fresh.session_id = i;
      fresh.k = static_cast<std::uint32_t>(k);
      fresh.h = static_cast<std::uint32_t>(w.h);
      fresh.packet_len = static_cast<std::uint32_t>(w.packet_len);
      fresh.num_tgs = static_cast<std::uint32_t>(w.tgs);
      fresh.completed.assign(w.tgs, false);
      fresh.parities_sent.assign(w.tgs, 0);
      {
        core::SessionJournal journal(path, fresh, {16, 0});
        t.batch([&] {
          std::size_t records = 0;
          for (std::size_t tg = 0; tg < w.tgs; ++tg) {
            if (rng.bernoulli(repair)) {
              journal.record_parities_sent(tg, 1);
              ++records;
            }
            journal.record_tg_completed(tg);
            ++records;
          }
          return records;
        });
        require(journal.state().all_complete(), "journal lost a record");
      }
      std::filesystem::remove(path);
    }
    c.journal_append = t.median();
  }
  return c;
}

ModelTerms model_terms(const Workload& w, const StageCosts& s) {
  const double r = static_cast<double>(w.receivers);
  const double k = static_cast<double>(w.k);
  ModelTerms m;
  analysis::ProcessingCosts& c = m.costs;
  // Multicast is unicast fan-out here, so one send pays R per-frame sends.
  c.xp = s.data_frame + s.arena + r * s.send_per_frame;
  c.yp = s.recv_per_frame + s.decoder_add;
  c.xn = s.recv_per_frame + (w.hardened ? s.guard_check : 0.0);
  c.yn = s.send_to;
  c.yn2 = 0.0;  // receivers never hear each other's NAKs on unicast fan-out
  c.xt = s.timer;
  c.yt = s.timer;
  // Encoding one parity touches all k data packets: k x ce.
  c.ce = std::max(0.0, s.parity_frame - s.data_frame) / k;
  c.cd = s.reconstruct_per_lost;
  const auto rates = analysis::np_rates(static_cast<std::int64_t>(w.k), w.loss,
                                        r, c);
  m.cpu_per_packet = 1.0 / rates.sender + r / rates.receiver;
  return m;
}

}  // namespace pbl::e2e
