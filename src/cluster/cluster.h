#ifndef IMPLIANCE_CLUSTER_CLUSTER_H_
#define IMPLIANCE_CLUSTER_CLUSTER_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "cluster/scheduler.h"
#include "common/result.h"
#include "discovery/annotator.h"
#include "exec/predicate.h"
#include "index/inverted_index.h"
#include "model/document.h"

namespace impliance::cluster {

// Per-query data-movement accounting, the measurable half of the pushdown
// and scale-out experiments — plus the result-completeness contract: a
// query result is either complete or carries degraded=true with a nonzero
// missing count. Silent partial results are a bug by definition.
struct ShipStats {
  uint64_t bytes_shipped = 0;
  uint64_t rows_shipped = 0;
  uint64_t tasks = 0;
  // Partition tasks whose work was re-routed to a surviving replica
  // holder after the original node lost them — or to a partition's new
  // home after the balancer migrated it mid-query.
  uint64_t failovers = 0;
  // Documents whose contribution is known missing from the result (no
  // surviving replica, or failover rounds exhausted), counted per
  // document across every failure mode. A lost gather/coordinator task —
  // the whole merged result, not any one document — counts as 1.
  // Nonzero iff degraded.
  uint64_t missing_partitions = 0;
  // True when the result is known to be incomplete.
  bool degraded = false;
  // Modeled parallel latency: per phase, the slowest node's task duration,
  // summed across phases (bulk-synchronous critical path). On hosts with
  // fewer cores than simulated nodes, wall-clock time serializes node work
  // and says nothing about appliance latency; this does.
  uint64_t critical_path_micros = 0;
  // Duration of the gather/merge task on the grid node (for grid-scaling
  // throughput models).
  uint64_t grid_task_micros = 0;
};

// Identifier of one dynamic partition (tablet). Stable across splits of
// *other* partitions; a split retires the parent id and mints two new ones,
// a merge retires the right id.
using PartitionId = uint32_t;

// A sorted set of inclusive routing-key ranges (tablets), with the routing
// function that maps a document id into that key space: Mix64(id) by
// default, the raw id under key-range partitioning.
class KeyRanges {
 public:
  explicit KeyRanges(bool raw_ids = false) : raw_ids_(raw_ids) {}

  static uint64_t RouteKey(bool raw_ids, model::DocId id);

  // Adds [lo, hi] (inclusive); ranges never overlap.
  void Add(uint64_t lo, uint64_t hi);
  bool ContainsKey(uint64_t key) const;
  bool Contains(model::DocId id) const {
    return ContainsKey(RouteKey(raw_ids_, id));
  }
  bool empty() const { return ranges_.empty(); }
  const std::vector<std::pair<uint64_t, uint64_t>>& ranges() const {
    return ranges_;
  }

 private:
  bool raw_ids_;
  std::vector<std::pair<uint64_t, uint64_t>> ranges_;  // sorted by lo
};

// What a distributed facet/SQL query may read: every document except those
// routed to an unreachable tablet (no valid holder, or every holder was lost
// during the availability scan).
struct Availability {
  KeyRanges unreachable;
  size_t servable_docs = 0;  // documents on reachable tablets

  bool Servable(model::DocId id) const { return !unreachable.Contains(id); }
  // True when every tablet answered: callers need no restriction at all.
  bool complete() const { return unreachable.empty(); }
  size_t size() const { return servable_docs; }
};

// One Impliance instance: data nodes own dynamically partitioned document
// storage with local full-text indexes; grid nodes merge/join/aggregate;
// cluster nodes coordinate consistent updates (annotation persistence)
// through a lock table. Clients see a single system image — this class
// (Section 3.3). Placement is governed by an explicit partition table of
// routing-key ranges (tablets) that the autonomic balancer splits, merges,
// and migrates between nodes as load shifts (Section 3.4).
class SimulatedCluster {
 public:
  struct Options {
    size_t num_data_nodes = 4;
    size_t num_grid_nodes = 2;
    size_t num_cluster_nodes = 1;
    size_t replication = 1;  // initial copy count of every tablet

    // ---- Dynamic partition management (Section 3.4 storage management).
    // Tablets carved at construction: this many per data node, equal-width
    // ranges of the routing-key space, targets assigned round-robin.
    size_t initial_partitions_per_node = 1;
    // false: route documents by Mix64(id) — uniform, skew-resistant, the
    // classic hash ring. true: route by raw id — order-preserving
    // (key-range tablets), so sequential ingest concentrates in the
    // hottest tablet and exercises split/migrate exactly like a growing
    // real-world corpus.
    bool key_range_partitioning = false;
    // A partition whose routed-document count reaches this splits at its
    // median key on the next balancer pass. 0 = never split.
    size_t split_doc_threshold = 0;
    // Adjacent partitions whose combined count is at or below this merge
    // on the next balancer pass. 0 = never merge.
    size_t merge_doc_threshold = 0;
    // A partition whose point-op traffic counter (ingests + gets since the
    // last decay) reaches this also splits, independent of size — hot
    // small tablets get spread too. 0 = ignore traffic.
    uint64_t split_traffic_threshold = 0;
    // The balancer moves partitions off a node while its owned-document
    // count exceeds tolerance * mean; per pass it performs at most
    // max_moves_per_pass migrations.
    double balance_tolerance = 1.25;
    size_t max_moves_per_pass = 4;
  };

  explicit SimulatedCluster(const Options& options);
  ~SimulatedCluster();

  SimulatedCluster(const SimulatedCluster&) = delete;
  SimulatedCluster& operator=(const SimulatedCluster&) = delete;

  // ------------------------------------------------------------- Ingest

  // Stores `doc` on every valid holder of the tablet it routes to; assigns
  // and returns its id (a pre-set nonzero doc.id is honored, so a fronting
  // store can mirror documents under its own ids). `copies` (0 = the
  // cluster default; the storage manager's per-class lever, Section 3.4)
  // is a minimum: it raises the tablet's copy count for good. A tablet
  // whose documents lost every holder takes new holders on alive nodes:
  // the write succeeds, and the lost documents stay reported missing (see
  // PartitionState::lost). Fails when no holder acknowledged the store.
  Result<model::DocId> Ingest(model::Document doc, size_t copies = 0);

  // Routes `id` to its tablet and reads it from the first valid holder.
  Result<model::Document> Get(model::DocId id) const;

  // Sum of the tablets' exact document counts, lost documents included.
  size_t num_documents() const;

  // -------------------------------------------------------------- Query

  // Scatter-gather BM25 top-k: each data node ranks only the documents of
  // the tablets it serves (an accept-predicate inside its index's top-k);
  // a grid node merges the partial top-k lists.
  std::vector<index::InvertedIndex::SearchResult> KeywordSearch(
      const std::string& query, size_t k, ShipStats* stats = nullptr);

  // Failure-aware availability scan: a scatter with no work, in which each
  // serving data node confirms it still holds its tablets. Tablets left
  // without a reachable holder are the result's unreachable ranges, and
  // their documents are reported through `stats` (degraded +
  // missing_partitions) — the complete-or-degraded contract for facets
  // and SQL.
  std::shared_ptr<const Availability> AvailableDocs(ShipStats* stats = nullptr);

  // Distributed filter + group-by aggregate over documents of `kind`.
  struct AggQuery {
    std::string kind;
    std::string filter_path;  // empty = no filter
    exec::CompareOp op = exec::CompareOp::kEq;
    model::Value literal;
    std::string group_path;   // empty = single global group ""
    std::string agg_path;     // empty = COUNT, else SUM of this path
  };
  struct AggResult {
    std::map<std::string, double> groups;  // group value -> aggregate
    ShipStats stats;
  };
  // With `pushdown`, data nodes filter and pre-aggregate locally and ship
  // tiny partial states; without, they ship whole documents to a grid node
  // which does all the work (Section 3.1's motivating contrast).
  AggResult FilterAggregate(const AggQuery& query, bool pushdown);

  // Scheduler-driven variant: samples node queue depths and lets the
  // Scheduler decide whether predicate work runs pushed-down on data
  // nodes or shipped to the grid (Section 3.4 execution management).
  struct AutoAggResult {
    AggResult result;
    Scheduler::Decision decision;
  };
  AutoAggResult FilterAggregateAuto(const AggQuery& query);

  // ------------------------------------------- Figure 3 pipeline example

  // The paper's canonical parallel query: "full-text index search on a set
  // of data nodes, which then send the reduced data to a set of grid nodes
  // for joining, sorting, and group-wise aggregation, the results of which
  // are sent to a set of cluster nodes to drive a set of updates."
  struct PipelineQuery {
    std::string keywords;      // stage 1: full-text search on data nodes
    size_t k = 10;             // matches to process
    std::string left_ref_path; // path in matched docs referencing the dim
    std::string dim_kind;      // stage 2: join against this kind
    std::string dim_key_path;  // key path in dimension documents
    std::string tag_name;      // stage 3: child appended to matched docs
  };
  struct PipelineMatch {
    model::DocId doc = model::kInvalidDocId;
    double score = 0;
    model::DocId dim_doc = model::kInvalidDocId;  // joined dimension doc
  };
  struct PipelineResult {
    std::vector<PipelineMatch> matches;  // sorted by score desc
    size_t updates_applied = 0;
    ShipStats stats;
  };
  PipelineResult SearchJoinUpdate(const PipelineQuery& query);

  // ---------------------------------------------------------- Discovery

  // One distributed annotation pass (Section 3.3's three-phase flow):
  // data nodes run `annotator` on owned documents of `kind` (empty = all),
  // ship annotation documents to a cluster node, which assigns ids, takes
  // per-base-document locks, and persists them back onto data nodes.
  // Returns the number of annotation documents created.
  size_t RunAnnotationPass(const discovery::Annotator& annotator,
                           const std::string& kind = "",
                           ShipStats* stats = nullptr);

  // --------------------------------------------------------- Membership

  void FailNode(NodeId id);
  // Node rejoins with empty storage.
  void RecoverNode(NodeId id);

  // Failure detector: returns nodes newly detected dead since the last
  // call and drops dead and stale holders from every tablet.
  std::vector<NodeId> DetectFailures();

  // Brings every under-replicated tablet back to its copy count (see
  // AddReplicasLocked). A tablet with documents but no valid holder is
  // lost and skipped; an empty one is re-seeded on alive nodes.
  struct ReReplicateReport {
    uint64_t bytes_copied = 0;
    // Documents on tablets the pass attempted but could not bring back to
    // their copy count (no capacity, or targets kept failing). Nonzero
    // means the cluster is still exposed.
    size_t docs_unrestored = 0;
  };
  ReReplicateReport ReReplicate();

  // Documents on tablets with at least one valid holder / at least their
  // copy count of valid holders.
  size_t num_available_documents() const;
  size_t num_fully_replicated_documents() const;

  // --------------------------------------- Dynamic partition management

  // One row of the partition table: a half-open routing-key range
  // [lo, hi) — hi of the last partition is reported as UINT64_MAX and the
  // range is inclusive there — with its holders (primary first) and policy
  // counters.
  struct PartitionDesc {
    PartitionId pid = 0;
    uint64_t lo = 0;
    uint64_t hi = 0;
    // Partition epoch: bumped by split/merge/migration so a balancer
    // decision taken against a stale view of the tablet aborts instead of
    // committing against a different range or home.
    uint64_t epoch = 0;
    // Holder nodes as listed, primary first. Dead or stale holders stay
    // listed until DetectFailures drops them.
    std::vector<NodeId> replicas;
    uint64_t doc_count = 0;  // exact count of documents routed here
    uint64_t traffic = 0;    // point ops (ingest/get) since last decay
  };
  std::vector<PartitionDesc> PartitionTable() const;

  // Splits the partition at the median routed key of its documents (range
  // midpoints are useless under sequential-key skew), as a valid holder
  // reports them. Metadata-only: both children keep the parent's holders.
  // Returns false when the partition vanished, has no valid holder, or
  // holds fewer than two distinct keys.
  bool SplitPartition(PartitionId pid);

  // Merges the partition with its right neighbor. Metadata-only, so only
  // possible when one side is empty or both have the same valid holders:
  // the survivor keeps the left partition's id and those holders. Returns
  // false when the partition vanished, has no right neighbor, or the
  // holder sets differ.
  bool MergeWithRightNeighbor(PartitionId pid);

  // Migrates one replica of a partition: the whole tablet is copied from
  // the valid holder `from` to `to` (alive, not yet a holder), `to` takes
  // `from`'s slot in the holder list if it is still alive in the
  // incarnation it stored into, and the source copy is deleted on `from`'s
  // mailbox afterwards. An in-flight scatter task on `from` either runs
  // before the swap (bytes still there) or finds that `from` no longer
  // holds the tablet and re-routes it to the new home — never a silently
  // half-moved partition. Holds move_mutex_ exclusively, so no store,
  // update or repair touches the tablet during the move. Returns the number
  // of documents moved.
  size_t MovePartitionReplica(PartitionId pid, NodeId from, NodeId to);

  // One autonomic balancing pass: split every partition over the
  // size/traffic thresholds, merge cold neighbors, then migrate
  // partitions off nodes whose served-document count exceeds
  // balance_tolerance * mean (policy kernel in Scheduler::PickMove),
  // at most max_moves_per_pass moves. Also decays traffic counters.
  struct RebalanceReport {
    size_t splits = 0;
    size_t merges = 0;
    size_t moves = 0;
    size_t docs_moved = 0;
  };
  RebalanceReport RebalanceOnce();

  // Background balancer loop (the storage-management half of Section
  // 3.4's "autonomic management"): RebalanceOnce every `interval_ms`
  // until StopBalancer. Idempotent; the destructor stops it.
  void StartBalancer(uint64_t interval_ms);
  void StopBalancer();
  bool balancer_running() const;
  uint64_t balancer_passes() const { return balancer_passes_.load(); }

  // The holder invariant, checked on demand by chaos tests and the
  // rebalance bench after every step: no tablet lists one node twice, and
  // every valid holder of a tablet holds as many of the tablet's routed
  // documents as the tablet's exact count (no phantom holders). The table
  // itself is a gapless cover by construction. Probes each holding node
  // once, on its own mailbox, with move_mutex_ held shared so no migration
  // runs meanwhile (a concurrent write only adds documents after the
  // counts were read) — a test/bench tool, not a hot-path call.
  struct IntegrityReport {
    size_t duplicate_holders = 0;  // tablets listing one node >= twice
    // Documents missing from valid (alive, same-incarnation) holders,
    // summed over holders: queries route there and find nothing, and
    // repair counts them as copies that do not exist.
    size_t phantom_holders = 0;
    bool ok() const { return duplicate_holders == 0 && phantom_holders == 0; }
  };
  IntegrityReport CheckIntegrity() const;

  // ------------------------------------------------------------- Stats

  size_t num_data_nodes_alive() const;
  // Documents currently served per data node (the tablets it is the first
  // valid holder of); nodes serving none are absent.
  std::map<NodeId, size_t> OwnedCounts() const;
  // max(owned)/mean(owned) across alive data nodes — the balancer's hot-
  // node signal and E22's headline metric. 1.0 = perfectly even.
  double OwnershipSpread() const;
  const std::vector<std::unique_ptr<Node>>& data_nodes() const {
    return data_nodes_;
  }
  uint64_t total_lock_acquisitions() const { return lock_acquisitions_.load(); }
  ShipStats lifetime_traffic() const;

 private:
  // One data node's storage incarnation. Documents are kept as their
  // encoded bytes; readers decode. Only the owning node's thread touches
  // `docs` and `inverted` (all access is routed through Node::Run). Held
  // by shared_ptr: node recovery swaps in a fresh partition, and a task
  // still running against the old incarnation must keep its (doomed,
  // epoch-checked) object alive.
  struct Partition {
    // One document as Document::Encode bytes, in one exact-size buffer.
    struct Stored {
      Stored() = default;
      Stored(uint32_t version, std::string_view bytes);
      Stored(const Stored& other) : Stored(other.version, other.bytes()) {}
      Stored(Stored&&) = default;
      Stored& operator=(Stored&&) = default;

      std::string_view bytes() const { return {data.get(), size}; }

      uint32_t version = 0;
      uint32_t size = 0;
      std::unique_ptr<char[]> data;
    };
    explicit Partition(uint64_t incarnation) : epoch(incarnation) {}
    // Upsert: drops stale index postings first so re-stores stay
    // idempotent.
    void Put(model::DocId id, Stored stored, std::string_view text);
    void Erase(model::DocId id);
    static model::Document Decode(const Stored& stored);
    // The node incarnation this partition belongs to. A store reports this,
    // not the node's epoch at the time: a task that captured the slot just
    // before a fail/recover cycle swapped it writes into the old partition,
    // and must not be recorded as a holder of the new incarnation.
    const uint64_t epoch;
    std::map<model::DocId, Stored> docs;
    index::InvertedIndex inverted;
  };

  // A replica location is a (node, incarnation) pair: bytes stored on a
  // node are gone once its epoch advances (fail + rejoin-empty), so a bare
  // NodeId cannot say whether the copy still exists.
  struct Holder {
    NodeId node;
    uint64_t epoch;
  };

  // One dynamic partition (tablet) of the routing-key space, and the only
  // record of where its documents live: every valid holder holds every
  // document routed here. Keyed in ptable_ by its inclusive lower bound;
  // the range extends to the next entry's bound (the last tablet covers the
  // tail of the key space).
  struct PartitionState {
    PartitionId pid = 0;
    uint64_t epoch = 0;            // bumped by split/merge/migration
    size_t copies = 1;             // desired holders; never falls
    std::vector<Holder> holders;   // primary first
    // Nodes a repair is copying the tablet to. They receive every write
    // from the moment they join, so the copy plus those writes is the whole
    // tablet when the repair promotes them to holders.
    std::vector<Holder> joining;
    uint64_t doc_count = 0;        // exact count of held documents
    // Documents that lost every holder before a write gave the tablet new
    // ones: gone for good. While nonzero the tablet is served incomplete
    // (reported degraded), and facet/SQL availability treats it as
    // unreachable, since the local indexes still list the lost documents.
    uint64_t lost = 0;
    uint64_t traffic = 0;          // point ops since last decay
  };
  using Table = std::map<uint64_t, PartitionState>;

  // Runs `fn` on an alive node of `pool`, retrying on another member when
  // the chosen node drops the task (it never ran, so re-submitting is
  // safe). Returns false when no member executed it.
  bool RunOnPool(const std::vector<std::unique_ptr<Node>>& pool,
                 std::atomic<uint64_t>* rr, const std::function<void()>& fn);

  // One query's work on one data node, run on its mailbox thread over the
  // tablets in `served` only.
  using NodeWork =
      std::function<void(const Partition& partition, const KeyRanges& served)>;
  // Failure-aware scatter: assigns every tablet to its first valid holder,
  // submits one task per serving node (built by `make_task`, which must
  // allocate its own output slot and may be called again for failover
  // attempts), waits for every outcome, and re-routes the tablets of lost
  // tasks through the partition table — bounded rounds, after which the
  // loss is recorded in `stats` (degraded + missing_partitions, counted in
  // documents) instead of being silently omitted. Tablets with no valid
  // holder at snapshot time are counted as missing up front. Before doing
  // any work, each task checks on its node's mailbox that the node still
  // holds every tablet it was assigned (a migration may have moved one
  // since the snapshot); tablets it no longer holds are re-routed as lost
  // work, never served as a hole. `unreachable` (optional) receives the
  // key ranges given up. Updates tasks/failovers/critical_path_micros.
  void ScatterWithFailover(const std::function<NodeWork(NodeId)>& make_task,
                           ShipStats* stats, KeyRanges* unreachable = nullptr);

  // The key a document routes by: its Mix64 hash (uniform) or its raw id
  // (key-range mode). The partition table partitions this key space.
  uint64_t RouteKey(model::DocId id) const {
    return KeyRanges::RouteKey(options_.key_range_partitioning, id);
  }
  // The tablet `key` routes to. Caller holds ptable_mutex_.
  Table::iterator TabletFor(uint64_t key) const;
  // Inclusive upper bound of the tablet at `it`. Caller holds ptable_mutex_.
  uint64_t TabletEnd(Table::const_iterator it) const;
  // The tablet with id `pid`, or end(). Caller holds ptable_mutex_.
  Table::iterator FindTablet(PartitionId pid) const;
  // First valid holder of `state`, or nullptr.
  const Holder* Primary(const PartitionState& state) const;
  size_t ValidHolders(const PartitionState& state) const;
  // Drops dead and stale holders of one tablet.
  void PruneHolders(PartitionState* state) const;
  // The entry of `node` in a holder or joining list, or list->end().
  template <typename List>
  static auto FindNode(List* list, NodeId node) {
    return std::find_if(list->begin(), list->end(),
                        [node](const Holder& holder) {
                          return holder.node == node;
                        });
  }
  // Encodes `doc` once and stores the bytes on the valid holders and
  // joining nodes of its tablet — including any that join while it runs —
  // and counts it on the tablet when new. The single write path of Ingest,
  // RunAnnotationPass and SearchJoinUpdate. Returns false when no holder
  // acknowledged the store.
  bool StoreReplicated(const model::Document& doc, ShipStats* stats);
  // Adds holders to tablet `pid` until it has its copy count: each new one
  // is purged of the tablet's range (PurgeRange), joins (receiving writes),
  // gets a copy of the tablet from a valid holder, and is promoted if it is
  // still alive in the same incarnation. A tablet with no valid holder
  // takes its first new holder as it is if empty, or, with `reseed`, even
  // with documents, which then count as lost. Caller holds move_mutex_
  // shared and repair_mutex_. Returns bytes copied; `*restored` says
  // whether the tablet reached its copy count.
  uint64_t AddReplicasLocked(PartitionId pid, bool reseed, bool* restored);
  // Alive nodes not listed as holders of `state`, in ring order after its
  // primary: where the tablet's next copy goes.
  std::vector<NodeId> SpareNodes(const PartitionState& state) const;
  // Copies every document routed to [lo, hi] from holder `from` to node
  // `to`, keeping any version at least as new that `to` already has — sound
  // because `to` was purged of the range before it joined, so all it holds
  // there came from writes made since. Returns false unless both tasks ran
  // on the expected incarnations; `epoch_to` receives the incarnation the
  // copy went into, `bytes` its size, `docs` the documents copied.
  bool CopyRange(const Holder& from, NodeId to, uint64_t lo, uint64_t hi,
                 uint64_t* epoch_to, uint64_t* bytes, size_t* docs);
  // Documents of `partition` routed to [lo, hi]. Run on its node's mailbox.
  std::vector<model::DocId> IdsInRange(const Partition& partition,
                                       uint64_t lo, uint64_t hi) const;
  // Erases every document routed to [lo, hi] from `node`, on its mailbox.
  // Clears what a node still holds of a tablet it is about to take (bytes
  // left behind when a missed store dropped it as a holder) and a
  // migration's source copy. True if it ran on incarnation `node.epoch`.
  bool PurgeRange(const Holder& node, uint64_t lo, uint64_t hi);
  // Policy-counter maintenance (takes ptable_mutex_ internally).
  void BumpPartitionTraffic(model::DocId id) const;
  // True while `node` is alive in the same incarnation: bytes stored at
  // `epoch_at_store` are still there.
  bool HolderStillValid(NodeId node, uint64_t epoch_at_store) const;
  // Copies the node's partition slot under partitions_mutex_: RecoverNode
  // swaps the slot concurrently with readers, and unsynchronized read +
  // write of one shared_ptr object is a data race.
  std::shared_ptr<Partition> PartitionFor(NodeId node) const;
  void AccountTraffic(const ShipStats& stats);
  void BalancerLoop(uint64_t interval_ms);

  Options options_;
  std::vector<std::unique_ptr<Node>> data_nodes_;
  std::vector<std::unique_ptr<Node>> grid_nodes_;
  std::vector<std::unique_ptr<Node>> cluster_nodes_;
  // Parallel to data_nodes_. Slots are re-pointed by RecoverNode while
  // query/ingest threads copy them, so every slot access (read or write
  // after construction) goes through partitions_mutex_ via PartitionFor.
  mutable std::mutex partitions_mutex_;
  std::vector<std::shared_ptr<Partition>> partitions_;

  // The partition table: inclusive lower bound of each tablet's
  // routing-key range -> tablet state. A leaf lock: never held while
  // waiting on a node task (scatter tasks take it on node threads to check
  // that their node still holds its tablets).
  mutable std::mutex ptable_mutex_;
  // mutable: point reads (Get) bump per-partition traffic counters.
  mutable Table ptable_;
  PartitionId next_pid_ = 0;
  std::set<NodeId> known_dead_;  // guarded by ptable_mutex_
  // Keeps the holder invariant: a valid holder holds every document of its
  // tablet. Exclusive: migration, split and merge, which move bytes or
  // recut the table and must see no write meanwhile. Shared: writes
  // (StoreReplicated), repair (AddReplicasLocked, whose joining nodes receive
  // concurrent writes) and CheckIntegrity. Never held while waiting on
  // anything that takes it; no node task takes it. mutable: CheckIntegrity.
  mutable std::shared_mutex move_mutex_;
  // Serializes repairs, so two never pick the same joining node.
  std::mutex repair_mutex_;

  // Background balancer.
  mutable std::mutex balancer_mutex_;
  std::condition_variable balancer_cv_;
  std::thread balancer_thread_;
  bool balancer_stop_ = false;  // guarded by balancer_mutex_
  std::atomic<bool> balancer_running_{false};
  std::atomic<uint64_t> balancer_passes_{0};

  std::atomic<model::DocId> next_id_{1};
  std::atomic<uint64_t> rr_grid_{0};
  std::atomic<uint64_t> rr_cluster_{0};
  std::atomic<uint64_t> lock_acquisitions_{0};
  Scheduler scheduler_;

  mutable std::mutex traffic_mutex_;
  ShipStats lifetime_traffic_;
};

}  // namespace impliance::cluster

#endif  // IMPLIANCE_CLUSTER_CLUSTER_H_
