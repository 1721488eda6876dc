#include "runtime/threaded.h"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace carousel::runtime {

namespace {

int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------- clock --

SteadyClock::SteadyClock() : start_nanos_(MonotonicNanos()) {}

SimTime SteadyClock::now() const {
  return (MonotonicNanos() - start_nanos_) / 1000;
}

// ----------------------------------------------------------- event loop --

EventLoop::EventLoop(const Clock* clock, size_t max_inbound)
    : clock_(clock), max_inbound_(max_inbound) {}

EventLoop::~EventLoop() { Stop(); }

void EventLoop::Schedule(SimTime delay, EventFn fn) {
  ScheduleAt(clock_->now() + (delay < 0 ? 0 : delay), std::move(fn));
}

void EventLoop::ScheduleAt(SimTime t, EventFn fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    timers_.push_back(Timer{t, next_timer_seq_++, std::move(fn)});
    std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
  }
  cv_.notify_one();
}

void EventLoop::Post(EventFn fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

bool EventLoop::PostMessage(NodeId from, MessagePtr msg) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_ || inbound_.size() >= max_inbound_) {
      // A stopped (killed) node accepts no input; overflow is the bounded
      // asynchronous-network model. Either way, a counted drop.
      dropped_++;
      return false;
    }
    inbound_.emplace_back(from, std::move(msg));
  }
  // Notify after unlock so the woken loop thread doesn't immediately
  // block on mu_ held here.
  cv_.notify_one();
  return true;
}

void EventLoop::PostMessages(std::vector<std::pair<NodeId, MessagePtr>>& msgs) {
  if (msgs.empty()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [from, msg] : msgs) {
      if (stop_ || inbound_.size() >= max_inbound_) {
        dropped_++;
        continue;
      }
      inbound_.emplace_back(from, std::move(msg));
    }
  }
  cv_.notify_one();
}

void EventLoop::Start(Endpoint* endpoint) {
  endpoint_ = endpoint;
  thread_ = std::thread([this]() { Run(); });
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) {
      // Already stopping; just make sure the thread is joined below.
    }
    stop_ = true;
    cv_.notify_one();
  }
  if (thread_.joinable()) thread_.join();
}

void EventLoop::Restart(Endpoint* endpoint) {
  if (thread_.joinable()) thread_.join();  // Stop() normally already did.
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Nothing volatile survives the kill: queued messages, posted tasks
    // and armed timers of the previous life are gone.
    inbound_.clear();
    tasks_.clear();
    timers_.clear();
    stop_ = false;
    endpoint_ = endpoint;
  }
  thread_ = std::thread([this]() { Run(); });
}

bool EventLoop::stopped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stop_;
}

uint64_t EventLoop::dropped_messages() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

void EventLoop::Run() {
  std::unique_lock<std::mutex> lk(mu_);
  std::vector<std::pair<NodeId, MessagePtr>> msgs;
  std::vector<EventFn> work;
  while (!stop_) {
    const SimTime now = clock_->now();
    if (inbound_.empty() && tasks_.empty() &&
        (timers_.empty() || timers_.front().at > now)) {
      if (timers_.empty()) {
        cv_.wait(lk);
      } else {
        cv_.wait_for(lk,
                     std::chrono::microseconds(timers_.front().at - now));
      }
      continue;
    }
    // Drain one batch of work under the lock, then run it unlocked so
    // handlers can freely Schedule/Post/Send (including to this loop).
    msgs.clear();
    work.clear();
    while (!inbound_.empty()) {
      msgs.push_back(std::move(inbound_.front()));
      inbound_.pop_front();
    }
    while (!tasks_.empty()) {
      work.push_back(std::move(tasks_.front()));
      tasks_.pop_front();
    }
    std::vector<EventFn> due;
    while (!timers_.empty() && timers_.front().at <= now) {
      std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
      due.push_back(std::move(timers_.back().fn));
      timers_.pop_back();
    }
    lk.unlock();
    for (auto& [from, msg] : msgs) endpoint_->HandleMessage(from, msg);
    for (auto& fn : work) fn();
    for (auto& fn : due) fn();
    msgs.clear();
    work.clear();
    lk.lock();
  }
}

// -------------------------------------------------------------- runtime --

ThreadedRuntime::ThreadedRuntime(size_t num_nodes,
                                 ThreadedRuntimeOptions options)
    : options_(std::move(options)) {
  loops_.reserve(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    loops_.push_back(
        std::make_unique<EventLoop>(&clock_, options_.max_inbound_queue));
  }
  endpoints_.resize(num_nodes, nullptr);
}

ThreadedRuntime::~ThreadedRuntime() { Stop(); }

void ThreadedRuntime::Register(Endpoint* endpoint) {
  endpoint->BindRuntime(this, &clock_, loops_[endpoint->id()].get());
  endpoints_[endpoint->id()] = endpoint;
}

bool ThreadedRuntime::Start() {
  if (options_.use_tcp && !StartTcp()) return false;
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->Start(endpoints_[i]);
  }
  started_ = true;
  return true;
}

void ThreadedRuntime::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // Transport first: once the nets are down no I/O thread can deliver
  // into a loop, so the loops drain and join without new inbound work.
  for (auto& net : nets_) {
    if (net != nullptr) net->Stop();
  }
  if (poller_ != nullptr) poller_->Stop();
  for (auto& loop : loops_) loop->Stop();
}

void ThreadedRuntime::Send(NodeId from, NodeId to, MessagePtr msg) {
  if (from != to && faults_active_.load(std::memory_order_relaxed)) {
    SimTime delay = 0;
    {
      std::lock_guard<std::mutex> lk(fault_mu_);
      auto it = faults_.find(LinkKey(from, to));
      if (it != faults_.end()) {
        const LinkFault& fault = it->second;
        if (fault.blocked) {
          fault_dropped_++;
          return;
        }
        if (fault.drop_prob > 0.0 &&
            std::uniform_real_distribution<double>(0.0, 1.0)(fault_rng_) <
                fault.drop_prob) {
          fault_dropped_++;
          return;
        }
        delay = fault.delay;
      }
    }
    if (delay > 0) {
      // In TCP mode the delayed write must still happen on the sender's
      // loop thread (frames on an edge never interleave); in-process the
      // receiver's loop is the natural carrier. A stopped carrier loop
      // discards the timer — a drop, as a dead link would.
      EventLoop* carrier = loops_[options_.use_tcp ? from : to].get();
      carrier->Schedule(delay, [this, from, to, m = std::move(msg)]() {
        DeliverDirect(from, to, m);
      });
      return;
    }
  }
  DeliverDirect(from, to, std::move(msg));
}

void ThreadedRuntime::DeliverDirect(NodeId from, NodeId to, MessagePtr msg) {
  if (!options_.use_tcp || from == to) {
    // In-process handoff: the receiver's loop takes a reference to the
    // same immutable message. Loopback always takes this path — a real
    // process doesn't route to itself through the kernel either.
    loops_[to]->PostMessage(from, std::move(msg));
    return;
  }
  if (nets_.empty()) {
    // TCP requested but the transport never came up (StartTcp failed).
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Encode + enqueue on the sender's NodeNet; never touches a socket on
  // this (the loop) thread. Drops are counted inside the net by reason.
  nets_[from]->Send(to, *msg);
}

void ThreadedRuntime::SetLinkFault(NodeId a, NodeId b, const LinkFault& fault) {
  if (a == b) return;
  std::lock_guard<std::mutex> lk(fault_mu_);
  faults_[LinkKey(a, b)] = fault;
  faults_[LinkKey(b, a)] = fault;
  faults_active_.store(true, std::memory_order_relaxed);
}

void ThreadedRuntime::ClearLinkFault(NodeId a, NodeId b) {
  std::lock_guard<std::mutex> lk(fault_mu_);
  faults_.erase(LinkKey(a, b));
  faults_.erase(LinkKey(b, a));
  if (faults_.empty()) faults_active_.store(false, std::memory_order_relaxed);
}

void ThreadedRuntime::ClearAllLinkFaults() {
  std::lock_guard<std::mutex> lk(fault_mu_);
  faults_.clear();
  faults_active_.store(false, std::memory_order_relaxed);
}

uint64_t ThreadedRuntime::fault_dropped_messages() const {
  std::lock_guard<std::mutex> lk(fault_mu_);
  return fault_dropped_;
}

void ThreadedRuntime::StopNode(NodeId id) { loops_[id]->Stop(); }

void ThreadedRuntime::RestartNode(Endpoint* endpoint) {
  const NodeId id = endpoint->id();
  endpoint->BindRuntime(this, &clock_, loops_[id].get());
  endpoints_[id] = endpoint;
  loops_[id]->Restart(endpoint);
}

uint64_t ThreadedRuntime::dropped_messages() const {
  uint64_t total = dropped_.load(std::memory_order_relaxed);
  for (const auto& loop : loops_) total += loop->dropped_messages();
  TransportStats net;
  for (const auto& n : nets_) {
    if (n != nullptr) net += n->stats();
  }
  return total + net.dropped_total();
}

TransportStats ThreadedRuntime::transport_stats() const {
  TransportStats total;
  for (const auto& net : nets_) {
    if (net != nullptr) total += net->stats();
  }
  return total;
}

bool ThreadedRuntime::StartTcp() {
  poller_ = std::make_unique<NetPoller>();
  if (!poller_->Init()) {
    poller_.reset();
    return false;
  }
  const size_t n = loops_.size();
  nets_.reserve(n);
  // Bind every node's listener first so all ports are known before the
  // I/O thread (and hence any connect) starts.
  for (size_t i = 0; i < n; ++i) {
    const NodeId owner = static_cast<NodeId>(i);
    // The deliver hook runs on the I/O thread once per drain pass and
    // hands everything decoded for this node to its event loop in one
    // bounded, non-blocking bulk enqueue that counts its own drops.
    auto deliver = [this,
                    owner](std::vector<std::pair<NodeId, MessagePtr>>& msgs) {
      loops_[owner]->PostMessages(msgs);
    };
    nets_.push_back(std::make_unique<NodeNet>(owner, n, poller_.get(),
                                              options_.codec,
                                              std::move(deliver),
                                              options_.net));
    if (!nets_.back()->Bind()) {
      nets_.clear();
      poller_.reset();
      return false;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t peer = 0; peer < n; ++peer) {
      nets_[i]->SetPeerPort(static_cast<NodeId>(peer), nets_[peer]->port());
    }
  }
  // Attach runs inline (the poller thread isn't up yet); Start it last.
  for (auto& net : nets_) net->Start();
  poller_->Start();
  return true;
}

}  // namespace carousel::runtime
