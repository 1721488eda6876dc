#ifndef CAROUSEL_CAROUSEL_CLIENT_H_
#define CAROUSEL_CAROUSEL_CLIENT_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "carousel/directory.h"
#include "carousel/messages.h"
#include "carousel/options.h"
#include "check/history.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/wanrt.h"
#include "runtime/endpoint.h"

namespace carousel::core {

/// Carousel's client-side library (paper Fig. 1). One instance runs inside
/// each application server; transactions follow the 2FI model: Begin ->
/// ReadAndPrepare (all read/write keys up front) -> Write (buffered) ->
/// Commit or Abort. Completion is delivered through callbacks because the
/// client is an actor in the simulated cluster.
///
/// The library piggybacks prepare requests on reads, notifies the
/// coordinator, heartbeats until Commit, uses local replicas when
/// configured (Carousel Fast), and masks leader failures by retransmitting
/// to whole consensus groups.
class CarouselClient : public runtime::Endpoint {
 public:
  using ReadResults = std::map<Key, VersionedValue>;
  /// Status is OK, Aborted (read-only validation failure) or TimedOut.
  using ReadCallback = std::function<void(Status, const ReadResults&)>;
  /// Status is OK (committed), Aborted (with reason) or TimedOut.
  using CommitCallback = std::function<void(Status)>;

  /// `traces`, when non-null, receives per-transaction phase records: the
  /// client opens each trace and stamps the client-visible phase
  /// boundaries (execute/commit); servers stamp the protocol-internal
  /// ones.
  CarouselClient(NodeId id, DcId dc, ClientId client_id,
                 const Directory* directory, const CarouselOptions& options,
                 TraceCollector* traces = nullptr);

  /// Starts a transaction and returns its id.
  TxnId Begin();

  /// Issues the single read round and, unless the write set is empty,
  /// initiates the concurrent Prepare phase. An empty `writes` makes this
  /// a read-only transaction (one roundtrip, no coordinator, §4.4.2),
  /// which completes at the callback.
  void ReadAndPrepare(const TxnId& tid, KeyList reads, KeyList writes,
                      ReadCallback callback);

  /// Buffers a write; `key` must be in the write set given to
  /// ReadAndPrepare. Unwritten write-set keys simply keep their old value.
  void Write(const TxnId& tid, Key key, Value value);

  /// Commits the transaction; the callback reports the outcome.
  void Commit(const TxnId& tid, CommitCallback callback);

  /// Aborts the transaction (fire and forget).
  void Abort(const TxnId& tid);

  /// Attaches a verification history recorder (may be null). The client
  /// stamps invocation, observed reads, buffered writes and the final
  /// client-visible outcome of every transaction it runs.
  void set_history(check::HistoryRecorder* history) { history_ = history; }

  /// Attaches the cluster metrics registry (may be null / disabled; the
  /// counters then become no-op null handles).
  void set_metrics(obs::MetricsRegistry* registry);
  /// Attaches the WANRT ledger (may be null). The issuing client brackets
  /// each transaction: Begin at ReadAndPrepare, Seal when the outcome is
  /// client-visible — so decided_hops is exactly the causal cross-DC hop
  /// depth behind what the application observed.
  void set_wanrt(obs::WanrtLedger* ledger) { wanrt_ = ledger; }

  /// Number of transactions with no local replica for some participant
  /// partition (Remote-Partition Transactions); for experiment reporting.
  uint64_t rpt_count() const { return rpt_count_; }

  // runtime::Endpoint interface.
  void HandleMessage(NodeId from, const sim::MessagePtr& msg) override;

 private:
  struct ActiveTxn {
    TxnId tid;
    bool read_only = false;
    std::map<PartitionId, RwKeys> keys;
    NodeId coordinator = kInvalidNode;
    std::set<PartitionId> awaiting_data;
    ReadResults results;
    ReadVersionMap versions_used;
    ReadCallback read_cb;
    bool reads_done = false;
    bool ro_failed = false;
    /// Bumped whenever a read-only transaction restarts its read round;
    /// responses from older attempts are ignored so one snapshot never
    /// mixes reads taken a retry-interval apart.
    uint32_t read_attempt = 0;
    WriteSet writes;
    bool commit_sent = false;
    CommitCallback commit_cb;
    /// Coordinator decided before we asked (e.g., early abort on a prepare
    /// conflict).
    bool have_early_response = false;
    bool early_committed = false;
    std::string early_reason;
    uint64_t hb_gen = 0;
    uint64_t retry_gen = 0;
    int retries = 0;
  };

  void SendReadPrepares(ActiveTxn& txn, bool retry);
  void SendCommit(ActiveTxn& txn, bool broadcast);
  void MaybeFinishReads(ActiveTxn& txn);
  void FinishCommit(const TxnId& tid, bool committed,
                    const std::string& reason);
  void ArmHeartbeat(const TxnId& tid);
  void ArmRetryTimer(const TxnId& tid);

  ClientId client_id_;
  const Directory* directory_;
  CarouselOptions options_;
  TraceCollector* traces_;
  check::HistoryRecorder* history_ = nullptr;
  uint64_t next_counter_ = 0;
  std::unordered_map<TxnId, ActiveTxn, TxnIdHash> txns_;
  uint64_t rpt_count_ = 0;
  obs::WanrtLedger* wanrt_ = nullptr;
  // Metrics (null handles until set_metrics with an enabled registry).
  obs::Counter m_started_;
  obs::Counter m_committed_;
  obs::Counter m_aborted_;
  obs::Counter m_timedout_;
  static constexpr int kMaxRetries = 10;
};

}  // namespace carousel::core

#endif  // CAROUSEL_CAROUSEL_CLIENT_H_
