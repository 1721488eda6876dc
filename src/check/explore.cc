#include "check/explore.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "common/topology.h"
#include "harness/cluster.h"

namespace carousel::check {

namespace {

/// Crash choices arm on delivering one of these to a server: the Raft
/// append that persists prepare/decision state, and the two Carousel
/// prepare messages (coordinator-side and participant-side) — the §4.3.3
/// persistence boundaries recovery evidence must survive.
const int kDefaultCrashPoints[] = {102 /*RaftAppendEntries*/,
                                   202 /*CarouselPrepareDecision*/,
                                   203 /*CarouselCoordPrepare*/};

/// One recorded branch point of a run: how many alternatives were enabled
/// (after the branch bound) and which one this run took.
struct Frame {
  size_t alternatives = 0;
  size_t chosen = 0;
};

/// An enabled scheduling choice at one step.
struct Choice {
  TraceStep step;
  uint64_t seq = 0;  // Pending-event seq for kDeliver/kTimer; 0 otherwise.
};

struct TxnFlag {
  bool done = false;
};

core::CarouselOptions MakeOptions(const ExploreConfig& config) {
  core::CarouselOptions options;
  options.fast_path = config.fast_path;
  options.local_reads = config.local_reads;
  options.raft.election_timeout_min = 300'000;
  options.raft.election_timeout_max = 600'000;
  options.raft.heartbeat_interval = 60'000;
  options.heartbeat_interval = 200'000;
  options.client_retry_timeout = 1'500'000;
  options.coordinator_retry_interval = 1'500'000;
  options.pending_gc_interval = 5'000'000;
  options.bug_fast_path_skip_leader_check = config.inject_bug_fast_path;
  options.bug_skip_stale_read_check = config.inject_bug_stale_read;
  return options;
}

Topology MakeTopology(const ExploreConfig& config) {
  Topology topo =
      Topology::Uniform(config.num_dcs, static_cast<double>(config.rtt_ms));
  topo.PlacePartitions(config.partitions, config.replication);
  for (DcId dc = 0; dc < config.num_dcs; ++dc) {
    for (int i = 0; i < config.clients_per_dc; ++i) topo.AddClient(dc);
  }
  return topo;
}

/// The workload's key set: key j lives on partition j % partitions, found
/// by probing the hash directory. Deterministic per config.
KeyList ProbeKeys(const core::Cluster& cluster, const ExploreConfig& config) {
  KeyList keys;
  std::set<Key> used;
  for (int j = 0; j < config.keys; ++j) {
    const PartitionId target =
        static_cast<PartitionId>(j % config.partitions);
    for (int i = 0; i < 100000; ++i) {
      Key k = "k";
      k += std::to_string(i);  // Appends: see the -Wrestrict note below.
      if (used.count(k) > 0) continue;
      if (cluster.directory().PartitionFor(k) == target) {
        used.insert(k);
        keys.push_back(k);
        break;
      }
    }
  }
  return keys;
}

/// Drives one transaction through the 2FI API (read round -> buffered
/// writes -> commit), setting `flag` once a client-visible outcome exists.
void IssueExploreTxn(core::CarouselClient* client, const KeyList& reads,
                     const WriteSet& writes,
                     const std::shared_ptr<TxnFlag>& flag) {
  const TxnId tid = client->Begin();
  KeyList write_keys;
  for (const auto& [k, v] : writes) write_keys.push_back(k);
  client->ReadAndPrepare(
      tid, reads, write_keys,
      [client, tid, writes, flag](
          Status status, const core::CarouselClient::ReadResults&) {
        if (writes.empty() || !status.ok()) {
          flag->done = true;
          return;
        }
        for (const auto& [k, v] : writes) client->Write(tid, k, v);
        client->Commit(tid, [flag](Status) { flag->done = true; });
      });
}

/// One planned transaction of a run's workload.
struct TxnPlan {
  int client = 0;
  KeyList reads;
  WriteSet writes;
};

/// Sequential-mode chain: issues plan i and, from its done-callback,
/// plan i+1 — the next transaction races only the previous one's trailing
/// writebacks.
struct SeqState {
  core::Cluster* cluster = nullptr;
  std::vector<TxnPlan> plans;
  std::vector<std::shared_ptr<TxnFlag>> flags;
};

void IssueSeq(const std::shared_ptr<SeqState>& st, size_t i) {
  if (i >= st->plans.size()) return;
  const TxnPlan& plan = st->plans[i];
  core::CarouselClient* client = st->cluster->client(plan.client);
  const std::shared_ptr<TxnFlag> flag = st->flags[i];
  const TxnId tid = client->Begin();
  KeyList write_keys;
  for (const auto& [k, v] : plan.writes) write_keys.push_back(k);
  const WriteSet writes = plan.writes;
  client->ReadAndPrepare(
      tid, plan.reads, write_keys,
      [client, tid, writes, flag, st, i](
          Status status, const core::CarouselClient::ReadResults&) {
        if (writes.empty() || !status.ok()) {
          flag->done = true;
          IssueSeq(st, i + 1);
          return;
        }
        for (const auto& [k, v] : writes) client->Write(tid, k, v);
        client->Commit(tid, [flag, st, i](Status) {
          flag->done = true;
          IssueSeq(st, i + 1);
        });
      });
}

bool IsPrefix(const std::vector<TxnId>& prefix,
              const std::vector<TxnId>& full) {
  if (prefix.size() > full.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), full.begin());
}

bool IsCrashPoint(const ExploreConfig& config, int msg_type) {
  if (!config.crash_point_types.empty()) {
    return std::find(config.crash_point_types.begin(),
                     config.crash_point_types.end(),
                     msg_type) != config.crash_point_types.end();
  }
  for (int t : kDefaultCrashPoints) {
    if (t == msg_type) return true;
  }
  return false;
}

/// Executes one complete schedule: controlled phase (DFS prefix, forced
/// trace, or all-defaults), then a drain that recovers crashed nodes and
/// settles, then certification. Deterministic in (config, prefix/forced).
RunOutcome RunSchedule(const ExploreConfig& config,
                       const std::vector<size_t>& prefix, int depth_bound,
                       const std::vector<TraceStep>* forced,
                       std::vector<Frame>* frames,
                       std::string* replay_error) {
  RunOutcome outcome;
  sim::NetworkOptions net;
  net.jitter_fraction = 0.0;  // Timing diversity is the scheduler's job.
  net.controlled_scheduling = true;
  core::Cluster cluster(MakeTopology(config), MakeOptions(config), net,
                        config.seed);
  cluster.AttachHistory(&outcome.history);
  cluster.Start();
  sim::Simulator& sim = cluster.sim();

  // ---- Inject the workload: txn i reads every key and writes
  // key[i % K] and key[(i+1) % K] — maximally conflicting. ----
  const KeyList keys = ProbeKeys(cluster, config);
  const auto& client_nodes = cluster.topology().clients();
  const int num_clients = static_cast<int>(client_nodes.size());
  std::vector<std::shared_ptr<TxnFlag>> flags;
  std::vector<TxnPlan> plans;
  for (int i = 0; i < config.txns; ++i) {
    flags.push_back(std::make_shared<TxnFlag>());
    TxnPlan plan;
    plan.client = i % num_clients;
    plan.reads = keys;
    // Values by appends: GCC 12's -Wrestrict misfires on literal +
    // std::string in Release builds.
    Value value = "t";
    value += std::to_string(i);
    plan.writes[keys[static_cast<size_t>(i) % keys.size()]] = value;
    if (keys.size() > 1) {
      plan.writes[keys[static_cast<size_t>(i + 1) % keys.size()]] =
          value + 'b';
    }
    plans.push_back(std::move(plan));
  }
  if (config.sequential) {
    auto st = std::make_shared<SeqState>();
    st->cluster = &cluster;
    st->plans = plans;
    st->flags = flags;
    sim.ScheduleLabeledAt(
        sim.now(),
        sim::EventLabel{sim::EventLabel::Kind::kInternal,
                        client_nodes[plans.front().client], kInvalidNode, 0},
        [st] { IssueSeq(st, 0); });
  } else {
    for (int i = 0; i < config.txns; ++i) {
      const TxnPlan& plan = plans[static_cast<size_t>(i)];
      core::CarouselClient* client = cluster.client(plan.client);
      const std::shared_ptr<TxnFlag>& flag = flags[static_cast<size_t>(i)];
      sim.ScheduleLabeledAt(
          sim.now(),
          sim::EventLabel{sim::EventLabel::Kind::kInternal,
                          client_nodes[plan.client], kInvalidNode, 0},
          [client, plan, flag] {
            IssueExploreTxn(client, plan.reads, plan.writes, flag);
          });
    }
  }
  auto all_done = [&flags] {
    for (const auto& f : flags) {
      if (!f->done) return false;
    }
    return true;
  };

  // ---- Controlled phase ----
  using Kind = sim::EventLabel::Kind;
  std::map<uint64_t, NodeId> sleep;  // Sleeping delivery seq -> dest node.
  std::set<NodeId> crashed;
  NodeId crash_armed = kInvalidNode;
  int crashes_used = 0;
  int steps_executed = 0;
  size_t trace_idx = 0;

  while (true) {
    if (all_done()) break;
    if (steps_executed >= config.max_steps) {
      outcome.truncated = true;
      break;
    }
    const std::vector<sim::Simulator::ReadyEvent> ready = sim.ReadyEvents();
    if (ready.empty()) break;

    // Harness-internal events (workload injection and anything scheduled
    // outside a node context) run eagerly: they are not protocol
    // nondeterminism.
    bool ran_eager = false;
    for (const auto& ev : ready) {
      if (ev.label.kind == Kind::kInternal) {
        sim.RunSeq(ev.seq);
        steps_executed++;
        ran_eager = true;
        break;
      }
      // A delivery to a crashed node is a drop; run it eagerly (the
      // network discards it) instead of branching on a no-op.
      if (ev.label.kind == Kind::kDelivery && crashed.count(ev.label.node)) {
        sim.RunSeq(ev.seq);
        steps_executed++;
        ran_eager = true;
        break;
      }
    }
    if (ran_eager) continue;

    // Enabled deliveries: the earliest pending delivery per (from, to)
    // edge — per-edge FIFO is a transport guarantee (fifo_pairs), not
    // adversary freedom.
    std::map<std::pair<NodeId, NodeId>, const sim::Simulator::ReadyEvent*>
        edge_min;
    for (const auto& ev : ready) {
      if (ev.label.kind != Kind::kDelivery) continue;
      auto [it, inserted] =
          edge_min.emplace(std::make_pair(ev.label.from, ev.label.node), &ev);
      if (!inserted && ev.seq < it->second->seq) it->second = &ev;
    }
    std::vector<const sim::Simulator::ReadyEvent*> deliveries;
    deliveries.reserve(edge_min.size());
    for (const auto& [edge, ev] : edge_min) deliveries.push_back(ev);
    std::sort(deliveries.begin(), deliveries.end(),
              [](const auto* a, const auto* b) { return a->seq < b->seq; });

    std::vector<Choice> choices;
    for (const auto* d : deliveries) {
      if (config.sleep_sets && forced == nullptr && sleep.count(d->seq) > 0) {
        continue;
      }
      choices.push_back(Choice{TraceStep{TraceStep::Kind::kDeliver,
                                         d->label.node, d->label.from,
                                         d->label.msg_type},
                               d->seq});
    }
    const bool had_deliveries = !deliveries.empty();
    if (crash_armed != kInvalidNode) {
      const NodeId cand = crash_armed;
      crash_armed = kInvalidNode;  // One-step window.
      if (crashes_used < config.max_crashes && crashed.count(cand) == 0) {
        choices.push_back(Choice{
            TraceStep{TraceStep::Kind::kCrash, cand, kInvalidNode, 0}, 0});
      }
    }

    if (choices.empty()) {
      if (had_deliveries) {
        // Every enabled delivery is asleep: every continuation from here
        // reorders commuting deliveries of an already-explored schedule.
        outcome.pruned = true;
        break;
      }
      // Delivery-quiescence: the earliest live-node timer fires (a forced
      // choice — timer-vs-delivery races are modeled by delaying the
      // delivery past quiescence instead); crashed nodes may recover.
      const sim::Simulator::ReadyEvent* timer = nullptr;
      for (const auto& ev : ready) {
        if (ev.label.kind != Kind::kTimer) continue;
        if (crashed.count(ev.label.node) > 0) continue;
        if (timer == nullptr || ev.time < timer->time ||
            (ev.time == timer->time && ev.seq < timer->seq)) {
          timer = &ev;
        }
      }
      if (timer != nullptr) {
        choices.push_back(Choice{
            TraceStep{TraceStep::Kind::kTimer, timer->label.node,
                      kInvalidNode, 0},
            timer->seq});
      }
      for (NodeId x : crashed) {
        choices.push_back(Choice{
            TraceStep{TraceStep::Kind::kRecover, x, kInvalidNode, 0}, 0});
      }
      if (choices.empty()) break;  // Only crashed-node timers remain.
    }

    // ---- Pick ----
    size_t alternatives = choices.size();
    if (config.branch_bound > 0 &&
        alternatives > static_cast<size_t>(config.branch_bound)) {
      alternatives = static_cast<size_t>(config.branch_bound);
    }
    size_t chosen = 0;
    if (forced != nullptr) {
      if (trace_idx < forced->size()) {
        const TraceStep& want = (*forced)[trace_idx];
        bool found = false;
        for (size_t j = 0; j < choices.size(); ++j) {
          const TraceStep& have = choices[j].step;
          if (have.kind == want.kind && have.node == want.node &&
              have.from == want.from && have.msg_type == want.msg_type) {
            chosen = j;
            found = true;
            break;
          }
        }
        if (!found) {
          if (replay_error != nullptr) {
            std::ostringstream err;
            err << "replay diverged at step " << trace_idx << ": recorded "
                << "kind=" << static_cast<int>(want.kind)
                << " node=" << want.node << " from=" << want.from
                << " type=" << want.msg_type << " is not enabled ("
                << choices.size() << " choices)";
            *replay_error = err.str();
          }
          return outcome;
        }
        trace_idx++;
      }
    } else if (alternatives > 1 &&
               frames->size() < static_cast<size_t>(depth_bound)) {
      const size_t idx = frames->size();
      chosen = idx < prefix.size() ? prefix[idx] : 0;
      if (chosen >= alternatives) chosen = alternatives - 1;  // Defensive.
      frames->push_back(Frame{alternatives, chosen});
    }

    const Choice choice = choices[chosen];
    if (config.sleep_sets && forced == nullptr) {
      // Sleep-set update (Godefroid): earlier siblings were fully explored
      // from this state, so put them to sleep for this subtree; executing
      // a dependent event (same target node) wakes a sleeper.
      for (size_t j = 0; j < chosen; ++j) {
        if (choices[j].step.kind == TraceStep::Kind::kDeliver) {
          sleep[choices[j].seq] = choices[j].step.node;
        }
      }
      for (auto it = sleep.begin(); it != sleep.end();) {
        it = (it->second == choice.step.node) ? sleep.erase(it)
                                              : std::next(it);
      }
    }

    switch (choice.step.kind) {
      case TraceStep::Kind::kDeliver:
      case TraceStep::Kind::kTimer:
        sim.RunSeq(choice.seq);
        break;
      case TraceStep::Kind::kCrash:
        cluster.network().Crash(choice.step.node);
        crashed.insert(choice.step.node);
        crashes_used++;
        break;
      case TraceStep::Kind::kRecover:
        cluster.network().Recover(choice.step.node);
        crashed.erase(choice.step.node);
        break;
    }
    outcome.steps.push_back(choice.step);
    steps_executed++;

    if (choice.step.kind == TraceStep::Kind::kDeliver &&
        crashes_used < config.max_crashes &&
        crashed.count(choice.step.node) == 0 &&
        !cluster.topology().nodes()[choice.step.node].is_client &&
        IsCrashPoint(config, choice.step.msg_type)) {
      crash_armed = choice.step.node;
    }
  }

  // ---- Drain: recover everything, settle to outcomes, certify ----
  // RunFor in controlled mode executes in (time, seq) order, so the drain
  // is plain simulation.
  const std::vector<NodeId> still_crashed(crashed.begin(), crashed.end());
  for (NodeId x : still_crashed) cluster.network().Recover(x);
  for (int round = 0; round < 400 && !all_done(); ++round) {
    sim.RunFor(250 * kMicrosPerMilli);
  }
  for (int round = 0; round < 100; ++round) {
    bool all = true;
    for (PartitionId p = 0; p < config.partitions; ++p) {
      if (cluster.LeaderOf(p) == nullptr) all = false;
    }
    if (all) break;
    sim.RunFor(500 * kMicrosPerMilli);
  }
  // Writebacks/decision propagation may trail the last client outcome by a
  // couple of WAN roundtrips.
  sim.RunFor(2 * kMicrosPerSecond);

  outcome.chains = ExtractWriterChains(&cluster, &outcome.check.violations);
  CheckResult check = CheckSerializability(outcome.history, outcome.chains);
  for (Violation& v : check.violations) {
    outcome.check.violations.push_back(std::move(v));
  }
  outcome.check.committed = check.committed;
  outcome.check.aborted = check.aborted;
  outcome.check.indeterminate = check.indeterminate;
  outcome.check.edges = check.edges;
  if (!outcome.check.violations.empty()) {
    outcome.violation = outcome.check.violations.front().kind + ": " +
                        outcome.check.violations.front().description;
  }
  return outcome;
}

}  // namespace

WriterChains ExtractWriterChains(core::Cluster* cluster,
                                 std::vector<Violation>* violations) {
  WriterChains chains;
  for (PartitionId p = 0; p < cluster->topology().num_partitions(); ++p) {
    // Longest chain across alive replicas is the truth; every other alive
    // replica must hold a prefix of it (they all apply the same Raft log).
    std::map<Key, std::vector<const std::vector<TxnId>*>> per_key;
    for (NodeId id : cluster->topology().Replicas(p)) {
      core::CarouselServer* server = cluster->server(id);
      if (!server->alive()) continue;
      for (const auto& [key, chain] : server->store().writer_log()) {
        per_key[key].push_back(&chain);
      }
    }
    for (auto& [key, candidates] : per_key) {
      const std::vector<TxnId>* longest = candidates.front();
      for (const auto* c : candidates) {
        if (c->size() > longest->size()) longest = c;
      }
      for (const auto* c : candidates) {
        if (!IsPrefix(*c, *longest)) {
          violations->push_back(Violation{
              "replica-divergence",
              "replicas of partition " + std::to_string(p) +
                  " disagree on the write order of '" + key + "'",
              {}});
          break;
        }
      }
      chains[key] = *longest;
    }
  }
  return chains;
}

ExploreResult Explore(const ExploreConfig& config) {
  ExploreResult result;
  result.config = config;

  // Delay-bounded mode: a single DFS where every branch point is
  // recordable (no positional cutoff) and the budget below limits how
  // many deviate from the default.
  const bool delay_mode = config.delay_bound > 0;
  std::vector<int> bounds;
  if (delay_mode) {
    bounds.push_back(std::numeric_limits<int>::max());
  } else if (config.iterative_step > 0) {
    for (int b = config.iterative_step; b < config.max_depth;
         b += config.iterative_step) {
      bounds.push_back(b);
    }
    bounds.push_back(config.max_depth);
  } else {
    bounds.push_back(config.max_depth);
  }

  int prev_bound = 0;
  bool stopped = false;
  for (int bound : bounds) {
    std::vector<size_t> prefix;
    while (true) {
      std::vector<Frame> frames;
      RunOutcome out =
          RunSchedule(config, prefix, bound, nullptr, &frames, nullptr);
      result.runs++;
      if (out.pruned) result.pruned++;
      if (out.truncated) result.truncated++;
      if (!out.pruned && !out.ok() && !result.violation_found) {
        result.violation_found = true;
        result.violation_trace.config = config;
        result.violation_trace.steps = out.steps;
        result.violation_trace.violation = out.violation;
        result.violation_report = out.check.Report(out.history);
      }
      // Iterative-deepening dedup: count a run only when its deepest
      // non-default choice lies past the previous bound — shallower runs
      // were all enumerated (and counted) by the earlier round.
      int deepest = -1;
      for (size_t i = 0; i < frames.size(); ++i) {
        if (frames[i].chosen > 0) deepest = static_cast<int>(i);
      }
      if (!out.pruned && (prev_bound == 0 || deepest >= prev_bound)) {
        result.schedules++;
        result.committed += out.check.committed;
        result.aborted += out.check.aborted;
        result.indeterminate += out.check.indeterminate;
      }
      if (result.violation_found && config.stop_on_violation) {
        stopped = true;
        break;
      }
      if (config.max_schedules != 0 &&
          result.schedules >= config.max_schedules) {
        stopped = true;
        break;
      }
      while (!frames.empty()) {
        const Frame& f = frames.back();
        bool can_increment = f.chosen + 1 < f.alternatives;
        if (can_increment && delay_mode && f.chosen == 0) {
          // Turning a default choice into a deviation spends one unit of
          // the delay budget; advancing an existing deviation is free.
          int used = 0;
          for (const Frame& g : frames) used += g.chosen > 0 ? 1 : 0;
          if (used >= config.delay_bound) can_increment = false;
        }
        if (can_increment) break;
        frames.pop_back();
      }
      if (frames.empty()) break;  // This bound is exhausted.
      frames.back().chosen++;
      prefix.clear();
      for (const Frame& f : frames) prefix.push_back(f.chosen);
    }
    if (stopped) break;
    prev_bound = bound;
  }
  result.exhausted = !stopped;
  return result;
}

RunOutcome ReplayTrace(const ScheduleTrace& trace, std::string* error) {
  std::vector<Frame> frames;
  return RunSchedule(trace.config, {}, 0, &trace.steps, &frames, error);
}

std::string ExploreResult::Summary() const {
  std::ostringstream out;
  out << "explore: " << schedules << " schedule(s) (" << runs << " runs, "
      << pruned << " pruned, " << truncated << " truncated"
      << (exhausted ? ", exhausted)" : ")") << ", " << committed
      << " committed / " << aborted << " aborted / " << indeterminate
      << " indeterminate";
  if (violation_found) {
    out << ", VIOLATION: " << violation_trace.violation;
  } else {
    out << ", OK";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Trace JSON (writer + minimal recursive-descent reader)
// ---------------------------------------------------------------------------

namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

const char* StepKindName(TraceStep::Kind kind) {
  switch (kind) {
    case TraceStep::Kind::kDeliver:
      return "deliver";
    case TraceStep::Kind::kTimer:
      return "timer";
    case TraceStep::Kind::kCrash:
      return "crash";
    case TraceStep::Kind::kRecover:
      return "recover";
  }
  return "?";
}

/// Just enough JSON to read back what ToJson writes (plus whitespace and
/// unknown keys, so hand-edited corpus files stay readable).
class JsonReader {
 public:
  explicit JsonReader(const std::string& text)
      : p_(text.c_str()), end_(text.c_str() + text.size()) {}

  bool Fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " (at byte " + std::to_string(pos()) + ")";
    }
    return false;
  }
  const std::string& error() const { return error_; }

  void SkipWs() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\n' || *p_ == '\t' ||
                         *p_ == '\r' || *p_ == ',')) {
      p_++;
    }
  }

  bool Expect(char c) {
    SkipWs();
    if (p_ >= end_ || *p_ != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    p_++;
    return true;
  }

  bool AtChar(char c) {
    SkipWs();
    return p_ < end_ && *p_ == c;
  }

  bool ParseString(std::string* out) {
    if (!Expect('"')) return false;
    out->clear();
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\' && p_ + 1 < end_) {
        p_++;
        *out += (*p_ == 'n') ? '\n' : *p_;
      } else {
        *out += *p_;
      }
      p_++;
    }
    return Expect('"');
  }

  bool ParseInt(int64_t* out) {
    SkipWs();
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') p_++;
    while (p_ < end_ && *p_ >= '0' && *p_ <= '9') p_++;
    if (p_ == start) return Fail("expected integer");
    *out = std::strtoll(start, nullptr, 10);
    return true;
  }

  /// Skips any value (for unknown keys).
  bool SkipValue() {
    SkipWs();
    if (p_ >= end_) return Fail("truncated value");
    if (*p_ == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (*p_ == '{' || *p_ == '[') {
      const char open = *p_;
      const char close = open == '{' ? '}' : ']';
      int depth = 0;
      bool in_string = false;
      while (p_ < end_) {
        if (in_string) {
          if (*p_ == '\\') p_++;
          else if (*p_ == '"') in_string = false;
        } else if (*p_ == '"') {
          in_string = true;
        } else if (*p_ == open) {
          depth++;
        } else if (*p_ == close) {
          depth--;
          if (depth == 0) {
            p_++;
            return true;
          }
        }
        p_++;
      }
      return Fail("unbalanced value");
    }
    int64_t ignored;
    return ParseInt(&ignored);
  }

 private:
  size_t pos() const { return static_cast<size_t>(p_ - start_); }

  const char* p_;
  const char* end_;
  const char* start_ = p_;
  std::string error_;
};

bool ParseConfig(JsonReader* r, ExploreConfig* config) {
  if (!r->Expect('{')) return false;
  while (!r->AtChar('}')) {
    std::string key;
    if (!r->ParseString(&key) || !r->Expect(':')) return false;
    if (key == "crash_point_types") {
      if (!r->Expect('[')) return false;
      config->crash_point_types.clear();
      while (!r->AtChar(']')) {
        int64_t v = 0;
        if (!r->ParseInt(&v)) return false;
        config->crash_point_types.push_back(static_cast<int>(v));
      }
      if (!r->Expect(']')) return false;
      continue;
    }
    int64_t v = 0;
    if (!r->ParseInt(&v)) return false;
    if (key == "seed") config->seed = static_cast<uint64_t>(v);
    else if (key == "dcs") config->num_dcs = static_cast<int>(v);
    else if (key == "partitions") config->partitions = static_cast<int>(v);
    else if (key == "replication") config->replication = static_cast<int>(v);
    else if (key == "clients_per_dc") config->clients_per_dc = static_cast<int>(v);
    else if (key == "rtt_ms") config->rtt_ms = static_cast<int>(v);
    else if (key == "txns") config->txns = static_cast<int>(v);
    else if (key == "keys") config->keys = static_cast<int>(v);
    else if (key == "sequential") config->sequential = v != 0;
    else if (key == "fast_path") config->fast_path = v != 0;
    else if (key == "local_reads") config->local_reads = v != 0;
    else if (key == "inject_bug_fast_path") config->inject_bug_fast_path = v != 0;
    else if (key == "inject_bug_stale_read") config->inject_bug_stale_read = v != 0;
    else if (key == "max_steps") config->max_steps = static_cast<int>(v);
    else if (key == "max_crashes") config->max_crashes = static_cast<int>(v);
    // Unknown numeric keys are ignored for forward compatibility.
  }
  return r->Expect('}');
}

bool ParseStep(JsonReader* r, TraceStep* step) {
  if (!r->Expect('{')) return false;
  while (!r->AtChar('}')) {
    std::string key;
    if (!r->ParseString(&key) || !r->Expect(':')) return false;
    if (key == "kind") {
      std::string kind;
      if (!r->ParseString(&kind)) return false;
      if (kind == "deliver") step->kind = TraceStep::Kind::kDeliver;
      else if (kind == "timer") step->kind = TraceStep::Kind::kTimer;
      else if (kind == "crash") step->kind = TraceStep::Kind::kCrash;
      else if (kind == "recover") step->kind = TraceStep::Kind::kRecover;
      else return r->Fail("unknown step kind '" + kind + "'");
      continue;
    }
    int64_t v = 0;
    if (!r->ParseInt(&v)) return false;
    if (key == "node") step->node = static_cast<NodeId>(v);
    else if (key == "from") step->from = static_cast<NodeId>(v);
    else if (key == "type") step->msg_type = static_cast<int>(v);
  }
  return r->Expect('}');
}

}  // namespace

std::string ScheduleTrace::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"version\": 1,\n  \"config\": {";
  out << "\"seed\": " << config.seed << ", \"dcs\": " << config.num_dcs
      << ", \"partitions\": " << config.partitions
      << ", \"replication\": " << config.replication
      << ", \"clients_per_dc\": " << config.clients_per_dc
      << ", \"rtt_ms\": " << config.rtt_ms << ",\n    \"txns\": "
      << config.txns << ", \"keys\": " << config.keys
      << ", \"sequential\": " << (config.sequential ? 1 : 0)
      << ", \"fast_path\": " << (config.fast_path ? 1 : 0)
      << ", \"local_reads\": " << (config.local_reads ? 1 : 0)
      << ", \"inject_bug_fast_path\": " << (config.inject_bug_fast_path ? 1 : 0)
      << ", \"inject_bug_stale_read\": " << (config.inject_bug_stale_read ? 1 : 0)
      << ",\n    \"max_steps\": " << config.max_steps
      << ", \"max_crashes\": " << config.max_crashes
      << ", \"crash_point_types\": [";
  for (size_t i = 0; i < config.crash_point_types.size(); ++i) {
    out << (i > 0 ? ", " : "") << config.crash_point_types[i];
  }
  out << "]},\n  \"violation\": \"" << EscapeJson(violation) << "\",\n"
      << "  \"steps\": [\n";
  for (size_t i = 0; i < steps.size(); ++i) {
    const TraceStep& s = steps[i];
    out << "    {\"kind\": \"" << StepKindName(s.kind) << "\", \"node\": "
        << s.node;
    if (s.kind == TraceStep::Kind::kDeliver) {
      out << ", \"from\": " << s.from << ", \"type\": " << s.msg_type;
    }
    out << "}" << (i + 1 < steps.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

bool ScheduleTrace::FromJson(const std::string& json, ScheduleTrace* out,
                             std::string* error) {
  *out = ScheduleTrace{};
  JsonReader r(json);
  bool ok = [&] {
    if (!r.Expect('{')) return false;
    while (!r.AtChar('}')) {
      std::string key;
      if (!r.ParseString(&key) || !r.Expect(':')) return false;
      if (key == "config") {
        if (!ParseConfig(&r, &out->config)) return false;
      } else if (key == "violation") {
        if (!r.ParseString(&out->violation)) return false;
      } else if (key == "steps") {
        if (!r.Expect('[')) return false;
        while (!r.AtChar(']')) {
          TraceStep step;
          if (!ParseStep(&r, &step)) return false;
          out->steps.push_back(step);
        }
        if (!r.Expect(']')) return false;
      } else if (!r.SkipValue()) {
        return false;
      }
    }
    return r.Expect('}');
  }();
  if (!ok && error != nullptr) {
    *error = r.error().empty() ? "malformed trace JSON" : r.error();
  }
  return ok;
}

}  // namespace carousel::check
