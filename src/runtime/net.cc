#include "runtime/net.h"

#include <netinet/in.h>
#include <sched.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>

namespace carousel::runtime {

namespace {

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

constexpr size_t kFrameHeaderBytes = 12;
constexpr size_t kMaxIov = 64;

}  // namespace

TransportStats& TransportStats::operator+=(const NetStats& s) {
  const auto ld = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  frames_enqueued += ld(s.frames_enqueued);
  frames_sent += ld(s.frames_sent);
  bytes_sent += ld(s.bytes_sent);
  send_syscalls += ld(s.send_syscalls);
  send_eagain += ld(s.send_eagain);
  frames_received += ld(s.frames_received);
  reconnects += ld(s.reconnects);
  drops_queue_full += ld(s.drops_queue_full);
  drops_connect_fail += ld(s.drops_connect_fail);
  drops_decode_fail += ld(s.drops_decode_fail);
  return *this;
}

// --------------------------------------------------------------- poller --

NetPoller::NetPoller() = default;

NetPoller::~NetPoller() {
  Stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool NetPoller::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return false;
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return false;
  // Slot 0 is the wakeup entry, so entry id 0 never names a connection
  // (nets use 0 as "no entry").
  const uint64_t id = AddEntry(kWake, nullptr, 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0;
}

void NetPoller::Start() {
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this]() { IoLoop(); });
}

void NetPoller::Stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    thread_.join();
    if (std::getenv("CAROUSEL_NET_DEBUG") != nullptr) {
      std::fprintf(stderr,
                   "net-poller: polls=%llu events=%llu wake-writes=%llu\n",
                   static_cast<unsigned long long>(dbg_polls_),
                   static_cast<unsigned long long>(dbg_events_),
                   static_cast<unsigned long long>(
                       dbg_wake_writes_.load(std::memory_order_relaxed)));
    }
  }
  io_tid_.store(std::thread::id{}, std::memory_order_relaxed);
  running_.store(false, std::memory_order_release);
  // Any RunSync task that raced the shutdown still completes (inline, on
  // this thread — the I/O thread is gone so its state is ours now).
  RunTasks();
}

void NetPoller::Wake() {
  if (!wake_pending_.exchange(true, std::memory_order_acq_rel)) {
    dbg_wake_writes_.fetch_add(1, std::memory_order_relaxed);
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void NetPoller::RunSync(std::function<void()> fn) {
  if (!thread_.joinable() || OnIoThread() ||
      stop_.load(std::memory_order_acquire)) {
    fn();
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  {
    std::lock_guard<std::mutex> lk(task_mu_);
    tasks_.push_back([&]() {
      fn();
      std::lock_guard<std::mutex> dlk(mu);
      done = true;
      cv.notify_one();
    });
  }
  Wake();
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&]() { return done; });
}

uint64_t NetPoller::AddEntry(EvKind kind, NodeNet* net, uint32_t idx) {
  uint64_t id;
  if (!free_entries_.empty()) {
    id = free_entries_.back();
    free_entries_.pop_back();
  } else {
    id = entries_.size();
    entries_.emplace_back();
  }
  entries_[id] = EvEntry{kind, net, idx};
  return id;
}

void NetPoller::FreeEntry(uint64_t id) {
  entries_[id] = EvEntry{};
  // Not reusable until the next loop iteration: a stale event for the
  // closed fd may still sit in the current epoll batch.
  deferred_free_.push_back(id);
}

uint8_t* NetPoller::RxArena(size_t bytes) {
  assert(InIoContext());
  if (rx_arena_bytes_ < bytes) {
    rx_arena_ = std::make_unique_for_overwrite<uint8_t[]>(bytes);
    rx_arena_bytes_ = bytes;
  }
  return rx_arena_.get();
}

void NetPoller::AttachNet(NodeNet* net) { nets_.push_back(net); }

void NetPoller::DetachNet(NodeNet* net) {
  nets_.erase(std::remove(nets_.begin(), nets_.end(), net), nets_.end());
}

void NetPoller::RunTasks() {
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lk(task_mu_);
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void NetPoller::IoLoop() {
  io_tid_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    free_entries_.insert(free_entries_.end(), deferred_free_.begin(),
                         deferred_free_.end());
    deferred_free_.clear();
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone; shutdown race.
    }
    dbg_polls_++;
    dbg_events_ += static_cast<uint64_t>(n);
    for (int i = 0; i < n; ++i) {
      const EvEntry e = entries_[events[i].data.u64];
      const uint32_t evs = events[i].events;
      switch (e.kind) {
        case kFree:
          break;  // fd closed earlier in this batch.
        case kWake: {
          uint64_t drain;
          [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drain, sizeof(drain));
          break;
        }
        case kListen:
          e.net->AcceptNew();
          break;
        case kOut: {
          const NodeId peer = static_cast<NodeId>(e.idx);
          NodeNet::OutConn& c = e.net->out_[peer];
          if (c.fd < 0) break;
          if ((evs & (EPOLLERR | EPOLLHUP)) != 0 && !c.connecting) {
            e.net->CloseOut(peer, /*count_drops=*/true);
            break;
          }
          if ((evs & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
            if (c.connecting) {
              e.net->OnConnectWritable(peer);
            } else {
              e.net->TryWrite(peer);
            }
          }
          break;
        }
        case kIn:
          if (e.idx < e.net->in_.size() && e.net->in_[e.idx].fd >= 0) {
            e.net->OnReadable(e.idx);
          }
          break;
      }
    }
    // End of pass: hand each net's decoded inbound to its owner loop in
    // one bulk enqueue (one lock, one wakeup), then run RunSync tasks and
    // gather egress. Clear the wakeup flag BEFORE both: a task or a frame
    // enqueued after this store either lands in this pass or sees the
    // flag false and writes the eventfd, so nothing is ever stranded
    // behind the next epoll_wait.
    for (NodeNet* net : nets_) net->FlushInbound();
    wake_pending_.store(false, std::memory_order_release);
    RunTasks();
    if (stop_.load(std::memory_order_acquire)) return;
    for (NodeNet* net : nets_) net->DrainEgress();
  }
}

// -------------------------------------------------------------- NodeNet --

NodeNet::NodeNet(NodeId id, size_t num_nodes, NetPoller* poller,
                 WireCodec codec, DeliverFn deliver, NetOptions options)
    : id_(id),
      poller_(poller),
      codec_(std::move(codec)),
      deliver_(std::move(deliver)),
      options_(options),
      out_(num_nodes),
      peer_ports_(num_nodes, 0) {}

NodeNet::~NodeNet() { Stop(); }

bool NodeNet::Bind(uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, options_.listen_backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = ntohs(addr.sin_port);
  return true;
}

void NodeNet::SetPeerPort(NodeId node, uint16_t port) {
  std::lock_guard<std::mutex> lk(peer_mu_);
  peer_ports_.at(node) = port;
}

void NodeNet::Start() {
  poller_->RunSync([this]() {
    poller_->AttachNet(this);
    listen_entry_ = poller_->AddEntry(NetPoller::kListen, this, 0);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = listen_entry_;
    ::epoll_ctl(poller_->epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  });
  running_.store(true, std::memory_order_release);
}

void NodeNet::Stop() {
  running_.store(false, std::memory_order_release);
  poller_->RunSync([this]() {
    CloseAll();
    poller_->DetachNet(this);
  });
}

void NodeNet::CloseAll() {
  // Runs on the I/O thread (or inline once the poller has stopped).
  // Messages already decoded still deliver; queued egress is discarded
  // uncounted — teardown is not a network fault.
  FlushInbound();
  for (NodeId peer = 0; peer < static_cast<NodeId>(out_.size()); ++peer) {
    OutConn& c = out_[peer];
    if (c.fd >= 0) {
      ::close(c.fd);
      if (c.entry != 0) poller_->FreeEntry(c.entry);
    }
    c.fd = -1;
    c.entry = 0;
    c.connecting = false;
    c.want_write = false;
    c.inflight.clear();
    c.offset = 0;
  }
  {
    std::lock_guard<std::mutex> lk(egress_mu_);
    for (OutConn& c : out_) {
      c.pending.clear();
      c.dirty = false;
    }
    dirty_.clear();
    any_dirty_.store(false, std::memory_order_relaxed);
  }
  for (InConn& c : in_) {
    if (c.fd >= 0) {
      ::close(c.fd);
      if (c.entry != 0) poller_->FreeEntry(c.entry);
    }
    c.fd = -1;
    c.entry = 0;
    HoldInbound(c, 0, nullptr, 0);
  }
  in_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    if (listen_entry_ != 0) poller_->FreeEntry(listen_entry_);
  }
  listen_fd_ = -1;
  listen_entry_ = 0;
}

std::vector<uint8_t> NodeNet::GetBuffer() {
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (pool_.empty()) return {};
  std::vector<uint8_t> buf = std::move(pool_.back());
  pool_.pop_back();
  return buf;
}

void NodeNet::PutBuffer(std::vector<uint8_t> buf) {
  if (buf.capacity() > options_.max_pooled_buffer_bytes) return;
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (pool_.size() >= options_.max_pooled_buffers) return;
  buf.clear();
  pool_.push_back(std::move(buf));
}

bool NodeNet::Send(NodeId to, const Message& msg) {
  if (!running_.load(std::memory_order_acquire)) return false;
  std::vector<uint8_t> frame = GetBuffer();
  frame.resize(kFrameHeaderBytes);
  if (codec_.encode_append) {
    codec_.encode_append(msg, &frame);
  } else {
    const std::vector<uint8_t> payload = codec_.encode(msg);
    frame.insert(frame.end(), payload.begin(), payload.end());
  }
  PutU32(frame.data(), static_cast<uint32_t>(frame.size() - 4));
  PutU32(frame.data() + 4, static_cast<uint32_t>(msg.type()));
  PutU32(frame.data() + 8, static_cast<uint32_t>(id_));
  {
    std::lock_guard<std::mutex> lk(egress_mu_);
    OutConn& c = out_.at(to);
    if (c.pending.size() >= options_.max_egress_frames) {
      stats_.drops_queue_full.fetch_add(1, std::memory_order_relaxed);
      PutBuffer(std::move(frame));
      return false;
    }
    c.pending.push_back(std::move(frame));
    if (!c.dirty) {
      c.dirty = true;
      dirty_.push_back(to);
    }
    any_dirty_.store(true, std::memory_order_release);
  }
  stats_.frames_enqueued.fetch_add(1, std::memory_order_relaxed);
  poller_->Wake();
  return true;
}

void NodeNet::FlushInbound() {
  assert(poller_->InIoContext());
  if (rx_batch_.empty()) return;
  deliver_(rx_batch_);  // Moves the messages out, keeps the allocation.
  rx_batch_.clear();
}

void NodeNet::DrainEgress() {
  assert(poller_->InIoContext());
  if (!any_dirty_.load(std::memory_order_acquire)) return;
  // Swap out the dirty list so senders keep enqueueing while we write.
  // Peers parked on EAGAIN resume via EPOLLOUT, not here; peers mid-
  // connect flush from OnConnectWritable.
  drain_scratch_.clear();
  {
    std::lock_guard<std::mutex> lk(egress_mu_);
    any_dirty_.store(false, std::memory_order_relaxed);
    if (dirty_.empty()) return;
    drain_scratch_.swap(dirty_);
    for (NodeId peer : drain_scratch_) out_[peer].dirty = false;
  }
  for (NodeId peer : drain_scratch_) {
    OutConn& c = out_[peer];
    if (c.fd < 0) EnsureConnected(peer);
    if (c.fd >= 0 && !c.connecting && !c.want_write) TryWrite(peer);
  }
}

void NodeNet::EnsureConnected(NodeId peer) {
  assert(poller_->InIoContext() &&
         "connect() runs only on the net I/O thread, never a loop thread");
  OutConn& c = out_[peer];
  if (c.fd >= 0) return;
  uint16_t port;
  {
    std::lock_guard<std::mutex> lk(peer_mu_);
    port = peer_ports_[peer];
  }
  const int fd =
      port == 0
          ? -1
          : ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    CloseOut(peer, /*count_drops=*/true);
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.so_sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                 sizeof(options_.so_sndbuf));
  }
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    CloseOut(peer, /*count_drops=*/true);
    return;
  }
  c.fd = fd;
  c.connecting = rc != 0;
  c.want_write = c.connecting;  // Completion is signaled by writability.
  c.entry = poller_->AddEntry(NetPoller::kOut, this, static_cast<uint32_t>(peer));
  epoll_event ev{};
  ev.events = EPOLLRDHUP | (c.connecting ? uint32_t{EPOLLOUT} : 0u);
  ev.data.u64 = c.entry;
  if (::epoll_ctl(poller_->epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    poller_->FreeEntry(c.entry);
    c.fd = -1;
    c.entry = 0;
    c.connecting = false;
    c.want_write = false;
    CloseOut(peer, /*count_drops=*/true);
  }
}

void NodeNet::OnConnectWritable(NodeId peer) {
  assert(poller_->InIoContext());
  OutConn& c = out_[peer];
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    CloseOut(peer, /*count_drops=*/true);
    return;
  }
  c.connecting = false;
  UpdateOutEvents(peer, /*want_write=*/false);
  TryWrite(peer);
}

void NodeNet::UpdateOutEvents(NodeId peer, bool want_write) {
  OutConn& c = out_[peer];
  if (c.fd < 0 || c.want_write == want_write) {
    c.want_write = want_write;
    return;
  }
  c.want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLRDHUP | (want_write ? uint32_t{EPOLLOUT} : 0u);
  ev.data.u64 = c.entry;
  ::epoll_ctl(poller_->epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void NodeNet::TryWrite(NodeId peer) {
  assert(poller_->InIoContext() &&
         "socket writes run only on the net I/O thread, never a loop thread");
  OutConn& c = out_[peer];
  for (;;) {
    if (c.inflight.size() < options_.max_frames_per_batch) {
      std::lock_guard<std::mutex> lk(egress_mu_);
      while (!c.pending.empty() &&
             c.inflight.size() < options_.max_frames_per_batch) {
        c.inflight.push_back(std::move(c.pending.front()));
        c.pending.pop_front();
      }
    }
    if (c.inflight.empty()) {
      if (c.want_write) UpdateOutEvents(peer, false);
      return;
    }
    iovec iov[kMaxIov];
    size_t iovcnt = 0;
    size_t off = c.offset;
    for (auto& frame : c.inflight) {
      if (iovcnt == options_.max_frames_per_batch || iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base = frame.data() + off;
      iov[iovcnt].iov_len = frame.size() - off;
      off = 0;
      ++iovcnt;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(c.fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        stats_.send_eagain.fetch_add(1, std::memory_order_relaxed);
        if (!c.want_write) UpdateOutEvents(peer, true);
        return;
      }
      CloseOut(peer, /*count_drops=*/true);
      return;
    }
    stats_.send_syscalls.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_sent.fetch_add(static_cast<uint64_t>(n),
                                std::memory_order_relaxed);
    size_t rem = static_cast<size_t>(n);
    uint64_t completed = 0;
    while (rem > 0) {
      std::vector<uint8_t>& frame = c.inflight.front();
      const size_t left = frame.size() - c.offset;
      if (rem < left) {
        c.offset += rem;  // Partial frame; resume from here next round.
        rem = 0;
        break;
      }
      rem -= left;
      c.offset = 0;
      ++completed;
      PutBuffer(std::move(frame));
      c.inflight.pop_front();
    }
    if (completed > 0) {
      stats_.frames_sent.fetch_add(completed, std::memory_order_relaxed);
    }
  }
}

void NodeNet::CloseOut(NodeId peer, bool count_drops) {
  assert(poller_->InIoContext());
  OutConn& c = out_[peer];
  if (c.fd >= 0) {
    ::close(c.fd);  // Kernel removes it from the epoll set.
    if (c.entry != 0) poller_->FreeEntry(c.entry);
    stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
  }
  c.fd = -1;
  c.entry = 0;
  c.connecting = false;
  c.want_write = false;
  c.offset = 0;
  size_t lost = c.inflight.size();
  for (auto& frame : c.inflight) PutBuffer(std::move(frame));
  c.inflight.clear();
  {
    std::lock_guard<std::mutex> lk(egress_mu_);
    lost += c.pending.size();
    for (auto& frame : c.pending) PutBuffer(std::move(frame));
    c.pending.clear();
  }
  if (count_drops && lost > 0) {
    stats_.drops_connect_fail.fetch_add(lost, std::memory_order_relaxed);
  }
}

void NodeNet::AcceptNew() {
  assert(poller_->InIoContext() &&
         "accept() runs only on the net I/O thread, never a loop thread");
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener shut down.
    }
    size_t slot = in_.size();
    for (size_t i = 0; i < in_.size(); ++i) {
      if (in_[i].fd < 0) {
        slot = i;
        break;
      }
    }
    if (slot == in_.size()) in_.emplace_back();
    InConn& c = in_[slot];
    c.fd = fd;
    c.entry = poller_->AddEntry(NetPoller::kIn, this, static_cast<uint32_t>(slot));
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = c.entry;
    if (::epoll_ctl(poller_->epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseIn(slot);
    }
  }
}

void NodeNet::OnReadable(size_t slot) {
  assert(poller_->InIoContext() &&
         "socket reads run only on the net I/O thread, never a loop thread");
  InConn& c = in_[slot];
  const size_t cap = std::max(options_.read_chunk, kFrameHeaderBytes);
  uint8_t* const arena = poller_->RxArena(cap);
  // Unparsed bytes at the front of the arena: the carry from the last
  // readable event first, then each recv's partial tail. A carry is
  // always shorter than read_chunk, so the recv below has room.
  size_t have = 0;
  if (c.size > 0 && c.size <= cap) {
    have = c.len;
    std::memcpy(arena, c.buf.get(), have);
    HoldInbound(c, 0, nullptr, 0);
  }
  for (;;) {
    // A frame longer than the arena reads straight into its own buffer,
    // exactly up to its end; the bytes after it go through the arena.
    const bool large = c.size > cap;
    uint8_t* const dst = large ? c.buf.get() + c.len : arena + have;
    const size_t room = large ? c.size - c.len : cap - have;
    const ssize_t n = ::recv(c.fd, dst, room, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseIn(slot);
      return;
    }
    if (n == 0) {  // Peer closed; what is held can be no full frame.
      CloseIn(slot);
      return;
    }
    if (large) {
      c.len += static_cast<size_t>(n);
      if (c.len == c.size) {
        ParseFrames(c.buf.get(), c.size);  // Exactly one frame.
        HoldInbound(c, 0, nullptr, 0);
      }
    } else {
      have += static_cast<size_t>(n);
      const size_t used = ParseFrames(arena, have);
      if (used == SIZE_MAX) {
        CloseIn(slot);  // Malformed stream; the peer reconnects fresh.
        return;
      }
      have -= used;
      // ParseFrames validated the tail's header once it is whole; a frame
      // the arena cannot hold moves to its own buffer.
      const size_t frame = have >= kFrameHeaderBytes
                               ? 4 + static_cast<size_t>(GetU32(arena + used))
                               : 0;
      if (frame > cap) {
        HoldInbound(c, frame, arena + used, have);
        have = 0;
      } else if (have > 0 && used > 0) {
        std::memmove(arena, arena + used, have);
      }
    }
    if (static_cast<size_t>(n) < room) break;  // Drained.
  }
  if (have > 0) HoldInbound(c, have, arena, have);  // Carry the tail.
}

size_t NodeNet::ParseFrames(const uint8_t* data, size_t n) {
  // Frames: [u32 len][u32 type][u32 from][payload].
  size_t pos = 0;
  uint64_t received = 0;
  while (n - pos >= kFrameHeaderBytes) {
    const uint8_t* p = data + pos;
    const uint32_t len = GetU32(p);
    if (len < 8 || len > options_.max_frame_bytes) {
      pos = SIZE_MAX;
      break;
    }
    if (n - pos < 4 + static_cast<size_t>(len)) break;
    const uint32_t type = GetU32(p + 4);
    const NodeId from = static_cast<NodeId>(GetU32(p + 8));
    MessagePtr msg = codec_.decode(static_cast<int>(type), p + 12, len - 8);
    if (msg == nullptr || static_cast<size_t>(from) >= out_.size()) {
      stats_.drops_decode_fail.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++received;
      rx_batch_.emplace_back(from, std::move(msg));
    }
    pos += 4 + static_cast<size_t>(len);
  }
  if (received > 0) {
    stats_.frames_received.fetch_add(received, std::memory_order_relaxed);
  }
  return pos;
}

void NodeNet::HoldInbound(InConn& c, size_t size, const uint8_t* data,
                          size_t len) {
  if (c.size > 0) {
    stats_.inbound_buffer_bytes.fetch_sub(c.size, std::memory_order_relaxed);
  }
  c.buf = size == 0 ? nullptr : std::make_unique_for_overwrite<uint8_t[]>(size);
  if (len > 0) std::memcpy(c.buf.get(), data, len);
  c.size = size;
  c.len = len;
  if (size > 0) {
    stats_.inbound_buffer_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void NodeNet::CloseIn(size_t slot) {
  assert(poller_->InIoContext());
  InConn& c = in_[slot];
  if (c.fd >= 0) {
    ::close(c.fd);
    if (c.entry != 0) poller_->FreeEntry(c.entry);
  }
  c.fd = -1;
  c.entry = 0;
  HoldInbound(c, 0, nullptr, 0);
}

}  // namespace carousel::runtime
