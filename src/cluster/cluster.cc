#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iterator>
#include <optional>
#include <tuple>
#include <utility>

#include "common/clock.h"
#include "common/hash.h"
#include "common/logging.h"
#include "model/item.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace impliance::cluster {

namespace {
// Submission rounds per scatter: the original fan-out plus up to two
// failover attempts on re-routed assignments. Work still lost after that
// is reported as degraded instead of being retried forever.
constexpr int kMaxScatterRounds = 3;

// Partition-management metrics, registered once and cached (registration
// takes the registry mutex; Increment is lock-free).
struct PartitionMetrics {
  obs::Counter* splits;
  obs::Counter* merges;
  obs::Counter* moves;
  obs::Counter* docs_moved;
  obs::Counter* balancer_passes;
};
PartitionMetrics& Metrics() {
  static PartitionMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::Global();
    return PartitionMetrics{
        registry.GetCounter("cluster.partition.splits"),
        registry.GetCounter("cluster.partition.merges"),
        registry.GetCounter("cluster.partition.moves"),
        registry.GetCounter("cluster.partition.docs_moved"),
        registry.GetCounter("cluster.balancer.passes"),
    };
  }();
  return metrics;
}
}  // namespace

// ------------------------------------------------------------ KeyRanges

uint64_t KeyRanges::RouteKey(bool raw_ids, model::DocId id) {
  return raw_ids ? id : Mix64(id);
}

void KeyRanges::Add(uint64_t lo, uint64_t hi) {
  const std::pair<uint64_t, uint64_t> range(lo, hi);
  ranges_.insert(std::upper_bound(ranges_.begin(), ranges_.end(), range),
                 range);
}

bool KeyRanges::ContainsKey(uint64_t key) const {
  // The last range starting at or below `key` is the only candidate.
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), key,
      [](uint64_t k, const std::pair<uint64_t, uint64_t>& range) {
        return k < range.first;
      });
  return it != ranges_.begin() && key <= std::prev(it)->second;
}

// ------------------------------------------------------------ Partition

void SimulatedCluster::Partition::Put(model::DocId id, Stored stored,
                                      std::string_view text) {
  auto [it, inserted] = docs.try_emplace(id);
  if (!inserted) inverted.RemoveDocument(id);
  it->second = std::move(stored);
  inverted.AddDocument(id, text);
}

void SimulatedCluster::Partition::Erase(model::DocId id) {
  if (docs.erase(id) > 0) inverted.RemoveDocument(id);
}

SimulatedCluster::Partition::Stored::Stored(uint32_t version,
                                            std::string_view bytes)
    : version(version),
      size(static_cast<uint32_t>(bytes.size())),
      data(new char[bytes.size()]) {
  std::copy(bytes.begin(), bytes.end(), data.get());
}

model::Document SimulatedCluster::Partition::Decode(const Stored& stored) {
  model::Document doc;
  IMPLIANCE_CHECK(model::Document::Decode(stored.bytes(), &doc));
  return doc;
}

SimulatedCluster::SimulatedCluster(const Options& options) : options_(options) {
  IMPLIANCE_CHECK(options.num_data_nodes > 0);
  IMPLIANCE_CHECK(options.num_grid_nodes > 0);
  IMPLIANCE_CHECK(options.num_cluster_nodes > 0);
  IMPLIANCE_CHECK(options.replication >= 1 &&
                  options.replication <= options.num_data_nodes);
  NodeId next = 0;
  for (size_t i = 0; i < options.num_data_nodes; ++i) {
    data_nodes_.push_back(std::make_unique<Node>(next++, NodeKind::kData));
    partitions_.push_back(std::make_shared<Partition>(0));
  }
  for (size_t i = 0; i < options.num_grid_nodes; ++i) {
    grid_nodes_.push_back(std::make_unique<Node>(next++, NodeKind::kGrid));
  }
  for (size_t i = 0; i < options.num_cluster_nodes; ++i) {
    cluster_nodes_.push_back(std::make_unique<Node>(next++, NodeKind::kCluster));
  }
  // Carve the initial partition table: equal-width routing-key ranges,
  // holders assigned round-robin so the static layout matches the old hash
  // ring's even spread. The first range must start at 0 — the table is a
  // gapless cover of the key space.
  const size_t tablets =
      std::max<size_t>(1, options.initial_partitions_per_node) *
      options.num_data_nodes;
  const uint64_t width = UINT64_MAX / tablets;
  for (size_t i = 0; i < tablets; ++i) {
    PartitionState state;
    state.pid = next_pid_++;
    state.copies = options.replication;
    const size_t primary = i % options.num_data_nodes;
    for (size_t r = 0; r < options.replication; ++r) {
      state.holders.push_back(Holder{
          static_cast<NodeId>((primary + r) % options.num_data_nodes), 0});
    }
    ptable_.emplace(width * i, std::move(state));
  }
}

SimulatedCluster::~SimulatedCluster() { StopBalancer(); }

void SimulatedCluster::AccountTraffic(const ShipStats& stats) {
  std::lock_guard<std::mutex> lock(traffic_mutex_);
  lifetime_traffic_.bytes_shipped += stats.bytes_shipped;
  lifetime_traffic_.rows_shipped += stats.rows_shipped;
  lifetime_traffic_.tasks += stats.tasks;
  lifetime_traffic_.failovers += stats.failovers;
  lifetime_traffic_.missing_partitions += stats.missing_partitions;
  lifetime_traffic_.degraded |= stats.degraded;
}

ShipStats SimulatedCluster::lifetime_traffic() const {
  std::lock_guard<std::mutex> lock(traffic_mutex_);
  return lifetime_traffic_;
}

bool SimulatedCluster::RunOnPool(const std::vector<std::unique_ptr<Node>>& pool,
                                 std::atomic<uint64_t>* rr,
                                 const std::function<void()>& fn) {
  // Round-robin over the pool. A non-executed outcome means `fn` never ran
  // (rejected or dropped before execution), so handing it to a sibling
  // cannot duplicate its effects.
  const size_t n = pool.size();
  for (size_t attempt = 0; attempt < n; ++attempt) {
    Node* node = pool[rr->fetch_add(1) % n].get();
    if (!node->alive()) continue;
    if (node->Run(fn) == TaskOutcome::kExecuted) return true;
  }
  return false;
}


// ------------------------------------------------------ Partition table

SimulatedCluster::Table::iterator SimulatedCluster::TabletFor(
    uint64_t key) const {
  auto it = ptable_.upper_bound(key);
  return --it;  // the table always has an entry at key 0
}

uint64_t SimulatedCluster::TabletEnd(Table::const_iterator it) const {
  auto next = std::next(it);
  return next == ptable_.end() ? UINT64_MAX : next->first - 1;
}

SimulatedCluster::Table::iterator SimulatedCluster::FindTablet(
    PartitionId pid) const {
  for (auto it = ptable_.begin(); it != ptable_.end(); ++it) {
    if (it->second.pid == pid) return it;
  }
  return ptable_.end();
}

bool SimulatedCluster::HolderStillValid(NodeId node,
                                        uint64_t epoch_at_store) const {
  return data_nodes_[node]->alive() &&
         data_nodes_[node]->epoch() == epoch_at_store;
}

const SimulatedCluster::Holder* SimulatedCluster::Primary(
    const PartitionState& state) const {
  for (const Holder& holder : state.holders) {
    if (HolderStillValid(holder.node, holder.epoch)) return &holder;
  }
  return nullptr;
}

size_t SimulatedCluster::ValidHolders(const PartitionState& state) const {
  size_t valid = 0;
  for (const Holder& holder : state.holders) {
    if (HolderStillValid(holder.node, holder.epoch)) ++valid;
  }
  return valid;
}

void SimulatedCluster::PruneHolders(PartitionState* state) const {
  state->holders.erase(
      std::remove_if(state->holders.begin(), state->holders.end(),
                     [this](const Holder& holder) {
                       return !HolderStillValid(holder.node, holder.epoch);
                     }),
      state->holders.end());
}

std::vector<NodeId> SimulatedCluster::SpareNodes(
    const PartitionState& state) const {
  const size_t n = data_nodes_.size();
  const size_t start =
      state.holders.empty() ? state.pid : state.holders.front().node + 1;
  std::vector<NodeId> spare;
  for (size_t step = 0; step < n; ++step) {
    const NodeId node = static_cast<NodeId>((start + step) % n);
    if (FindNode(&state.holders, node) == state.holders.end() &&
        data_nodes_[node]->alive()) {
      spare.push_back(node);
    }
  }
  return spare;
}

void SimulatedCluster::BumpPartitionTraffic(model::DocId id) const {
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  ++TabletFor(RouteKey(id))->second.traffic;
}

std::shared_ptr<SimulatedCluster::Partition> SimulatedCluster::PartitionFor(
    NodeId node) const {
  std::lock_guard<std::mutex> lock(partitions_mutex_);
  return partitions_[node];
}

// --------------------------------------------------------------- Ingest

bool SimulatedCluster::StoreReplicated(const model::Document& doc,
                                       ShipStats* stats) {
  std::string bytes;
  doc.Encode(&bytes);
  const Partition::Stored stored(doc.version, bytes);
  const std::string text = doc.Text();
  // Writers share move_mutex_: no migration or split runs between this
  // store and its commit.
  std::shared_lock<std::shared_mutex> move_lock(move_mutex_);
  const uint64_t key = RouteKey(doc.id);
  struct Ack {
    Holder target;
    bool stored = false;
    bool was_new = false;
  };
  std::vector<Ack> acks;  // one per node written
  std::vector<Holder> targets;
  auto acked = [&acks](const Holder& holder) {
    return std::find_if(acks.begin(), acks.end(), [&](const Ack& ack) {
      return ack.target.node == holder.node &&
             ack.target.epoch == holder.epoch;
    });
  };
  PartitionId seed = 0;
  bool holderless = false;
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    PartitionState& state = TabletFor(key)->second;
    PruneHolders(&state);
    holderless = state.holders.empty();
    seed = state.pid;
  }
  if (holderless) {
    // No valid holder: seed the tablet on alive nodes. Documents it had
    // are lost, and stay reported missing.
    std::lock_guard<std::mutex> repair_lock(repair_mutex_);
    bool restored = false;
    AddReplicasLocked(seed, /*reseed=*/true, &restored);
  }
  for (;;) {
    std::unique_lock<std::mutex> lock(ptable_mutex_);
    PartitionState& state = TabletFor(key)->second;
    // Every holder and joining node not written yet — a node that joined
    // after the repair's snapshot of the source must get this write.
    targets.clear();
    for (const auto* list : {&state.holders, &state.joining}) {
      for (const Holder& holder : *list) {
        if (acked(holder) == acks.end() &&
            HolderStillValid(holder.node, holder.epoch)) {
          targets.push_back(holder);
        }
      }
    }
    if (targets.empty()) {
      // Commit, under the same lock that saw nobody left to write to. The
      // first holder that took the store decides whether the document is
      // new to the tablet (all valid holders hold the same ids).
      const Ack* first = nullptr;
      for (const Holder& holder : state.holders) {
        auto ack = acked(holder);
        if (ack != acks.end() && ack->stored &&
            HolderStillValid(holder.node, holder.epoch)) {
          first = &*ack;
          break;
        }
      }
      if (first == nullptr) return false;
      // A node that stayed valid but did not take the store lacks this
      // document now: it is no longer a holder (or joining) of the tablet.
      auto missed = [&](const Holder& holder) {
        auto ack = acked(holder);
        return ack != acks.end() && !ack->stored &&
               HolderStillValid(holder.node, holder.epoch);
      };
      for (auto* list : {&state.holders, &state.joining}) {
        list->erase(std::remove_if(list->begin(), list->end(), missed),
                    list->end());
      }
      if (first->was_new) ++state.doc_count;
      return true;
    }
    lock.unlock();
    for (const Holder& target : targets) {
      Ack& ack = acks.emplace_back(Ack{target});
      ++stats->tasks;
      std::shared_ptr<Partition> partition = PartitionFor(target.node);
      const TaskOutcome outcome = data_nodes_[target.node]->Run([&] {
        ack.was_new = partition->docs.count(doc.id) == 0;
        partition->Put(doc.id, stored, text);
      });
      // Only a store into the incarnation the tablet lists counts: a
      // fail/recover cycle before the task ran leaves the bytes in a
      // replaced (or fresh, unlisted) partition.
      ack.stored = outcome == TaskOutcome::kExecuted &&
                   partition->epoch == target.epoch;
      if (ack.stored) {
        stats->bytes_shipped += stored.size;
        stats->rows_shipped += 1;
      }
    }
  }
}

Result<model::DocId> SimulatedCluster::Ingest(model::Document doc,
                                              size_t copies) {
  copies = std::min(copies == 0 ? options_.replication : copies,
                    data_nodes_.size());
  if (doc.id == model::kInvalidDocId) {
    doc.id = next_id_.fetch_add(1);
  } else {
    // Mirrored ingest under a caller-assigned id: keep our own id space
    // strictly ahead so annotation documents never collide with it.
    model::DocId expected = next_id_.load();
    while (expected <= doc.id &&
           !next_id_.compare_exchange_weak(expected, doc.id + 1)) {
    }
  }
  if (doc.version == 0) doc.version = 1;
  BumpPartitionTraffic(doc.id);
  // More copies than the tablet had: the count rises for good, and the
  // tablet gains holders first, through the same routine repair uses.
  std::shared_lock<std::shared_mutex> move_lock(move_mutex_);
  PartitionId raised = 0;
  bool rose = false;
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    PartitionState& state = TabletFor(RouteKey(doc.id))->second;
    rose = copies > state.copies;
    if (rose) state.copies = copies;
    raised = state.pid;
  }
  if (rose) {
    std::lock_guard<std::mutex> repair_lock(repair_mutex_);
    bool restored = false;
    const uint64_t copied =
        AddReplicasLocked(raised, /*reseed=*/false, &restored);
    std::lock_guard<std::mutex> lock(traffic_mutex_);
    lifetime_traffic_.bytes_shipped += copied;
  }
  move_lock.unlock();
  ShipStats stats;
  const bool recorded = StoreReplicated(doc, &stats);
  AccountTraffic(stats);
  if (!recorded) {
    return Status::IOError("no holder of the document's tablet acknowledged it");
  }
  return doc.id;
}

Result<model::Document> SimulatedCluster::Get(model::DocId id) const {
  BumpPartitionTraffic(id);  // point reads heat the partition like ingests
  std::vector<Holder> holders;
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    holders = TabletFor(RouteKey(id))->second.holders;
  }
  for (const Holder& holder : holders) {
    if (!HolderStillValid(holder.node, holder.epoch)) continue;
    std::shared_ptr<Partition> partition = PartitionFor(holder.node);
    std::optional<model::Document> doc;
    const TaskOutcome outcome = data_nodes_[holder.node]->Run([&] {
      auto it = partition->docs.find(id);
      if (it != partition->docs.end()) doc = Partition::Decode(it->second);
    });
    if (outcome == TaskOutcome::kExecuted && doc.has_value() &&
        partition->epoch == holder.epoch) {
      return std::move(*doc);
    }
  }
  return Status::NotFound("no such document on a live holder: " +
                          std::to_string(id));
}

size_t SimulatedCluster::num_documents() const {
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  size_t total = 0;
  for (const auto& [bound, state] : ptable_) {
    total += state.doc_count + state.lost;
  }
  return total;
}

// --------------------------------------------------------------- Scatter

void SimulatedCluster::ScatterWithFailover(
    const std::function<NodeWork(NodeId)>& make_task, ShipStats* stats,
    KeyRanges* unreachable) {
  obs::ScopedSpan scatter_span("cluster.scatter");
  const bool raw_ids = options_.key_range_partitioning;
  struct Assignment {
    NodeId node;
    uint64_t epoch;
    KeyRanges ranges;
  };
  using Round = std::map<NodeId, Assignment>;
  // Assigns every tablet overlapping [lo, hi], clipped to it, to its first
  // valid holder; a tablet with none is lost, and so are its documents.
  // Returns whether any part was assigned. Caller holds ptable_mutex_.
  auto assign = [&](uint64_t lo, uint64_t hi, Round* by_node) {
    bool assigned = false;
    for (auto it = TabletFor(lo); it != ptable_.end() && it->first <= hi;
         ++it) {
      const uint64_t from = std::max(lo, it->first);
      const uint64_t to = std::min(hi, TabletEnd(it));
      const PartitionState& state = it->second;
      const Holder* primary = Primary(state);
      // For availability an incomplete tablet is unreachable: the local
      // indexes cannot tell its lost documents from its held ones.
      if (primary != nullptr && (state.lost == 0 || unreachable == nullptr)) {
        auto slot = by_node->try_emplace(primary->node,
                                         Assignment{primary->node,
                                                    primary->epoch,
                                                    KeyRanges(raw_ids)})
                        .first;
        slot->second.ranges.Add(from, to);
        assigned = true;
      } else {
        // No surviving replica anywhere: this tablet's contribution is
        // unrecoverable and must be reported, not silently omitted.
        stats->missing_partitions += state.doc_count;
        if (state.doc_count > 0) stats->degraded = true;
        if (unreachable != nullptr) unreachable->Add(from, to);
      }
    }
    return assigned;
  };
  Round round;
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    for (const auto& [bound, state] : ptable_) {
      // Lost documents are missing from every answer.
      stats->missing_partitions += state.lost;
      if (state.lost > 0) stats->degraded = true;
    }
    assign(0, UINT64_MAX, &round);
  }

  for (int attempt = 0; !round.empty() && attempt < kMaxScatterRounds;
       ++attempt) {
    struct Pending {
      std::future<TaskOutcome> outcome;
      uint64_t micros = 0;
      bool stale = false;
      // Assigned ranges the node no longer held when the task ran.
      std::vector<std::pair<uint64_t, uint64_t>> lost;
    };
    std::deque<Pending> pending;  // stable slots; must outlive the tasks
    const uint64_t round_start = NowMicros();
    for (const auto& [node_id, assignment] : round) {
      Pending* slot = &pending.emplace_back();
      NodeWork work = make_task(assignment.node);
      std::shared_ptr<Partition> partition = PartitionFor(assignment.node);
      Node* node = data_nodes_[assignment.node].get();
      node->Submit(
          // The trace rides into the node thread by value: per-node execute
          // spans record against the request that issued the scatter.
          [this, slot, &assignment, raw_ids, work = std::move(work),
           partition = std::move(partition), node,
           trace = obs::CurrentTrace()] {
            // The assignment was made against one incarnation of this
            // node; a partition of another holds none of its tablets, and
            // scanning it would manufacture a silently-partial result.
            if (partition->epoch != assignment.epoch) {
              slot->stale = true;
              return;
            }
            // Holding check, atomic with the work (both run on this node's
            // single mailbox thread, which also applies migration deletes —
            // after the holder swap): a tablet moved away since the
            // snapshot is handed back for re-routing instead of served as
            // a hole.
            KeyRanges served(raw_ids);
            {
              std::lock_guard<std::mutex> lock(ptable_mutex_);
              for (const auto& [lo, hi] : assignment.ranges.ranges()) {
                bool held = HolderStillValid(assignment.node, assignment.epoch);
                for (auto it = TabletFor(lo);
                     held && it != ptable_.end() && it->first <= hi; ++it) {
                  const std::vector<Holder>& holders = it->second.holders;
                  held = std::any_of(holders.begin(), holders.end(),
                                     [&](const Holder& h) {
                                       return h.node == assignment.node &&
                                              h.epoch == assignment.epoch;
                                     });
                }
                if (held) {
                  served.Add(lo, hi);
                } else {
                  slot->lost.emplace_back(lo, hi);
                }
              }
            }
            if (served.empty()) return;
            const uint64_t start = NowMicros();
            work(*partition, served);
            slot->micros = NowMicros() - start;
            if (trace != nullptr) {
              trace->RecordSpan(
                  "node." + std::to_string(node->id()) + ".execute", start,
                  slot->micros);
            }
          },
          &slot->outcome);
      ++stats->tasks;
    }

    std::vector<std::pair<uint64_t, uint64_t>> lost;
    uint64_t slowest = 0;
    auto p = pending.begin();
    for (const auto& [node_id, assignment] : round) {
      // Wait on the outcome BEFORE reading the task's slot: the slot is
      // written by the task and published by the promise.
      if (p->outcome.get() != TaskOutcome::kExecuted || p->stale) {
        const auto& ranges = assignment.ranges.ranges();
        lost.insert(lost.end(), ranges.begin(), ranges.end());
      } else {
        lost.insert(lost.end(), p->lost.begin(), p->lost.end());
      }
      slowest = std::max(slowest, p->micros);
      ++p;
    }
    stats->critical_path_micros += slowest;
    if (attempt > 0) {
      // Failover rounds are where degraded latency comes from; make each
      // one visible as its own span.
      if (obs::TracePtr trace = obs::CurrentTrace()) {
        trace->RecordSpan("cluster.failover.round", round_start,
                          NowMicros() - round_start);
      }
    }

    if (lost.empty()) break;
    // Prune dead holders so re-routing sees survivors.
    DetectFailures();
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    if (attempt + 1 == kMaxScatterRounds) {
      // Out of rounds: report the residual loss instead of dropping it,
      // counted in documents like every other loss.
      for (const auto& [lo, hi] : lost) {
        for (auto it = TabletFor(lo); it != ptable_.end() && it->first <= hi;
             ++it) {
          stats->missing_partitions += it->second.doc_count;
          if (it->second.doc_count > 0) stats->degraded = true;
        }
        if (unreachable != nullptr) unreachable->Add(lo, hi);
      }
      break;
    }
    Round next;
    for (const auto& [lo, hi] : lost) {
      if (assign(lo, hi, &next)) ++stats->failovers;
    }
    round = std::move(next);
  }
}

// ---------------------------------------------------------------- Query

std::vector<index::InvertedIndex::SearchResult> SimulatedCluster::KeywordSearch(
    const std::string& query, size_t k, ShipStats* stats) {
  ShipStats local_stats;

  // Scatter: each serving data node ranks the documents of its tablets;
  // lost tasks fail over to other holders. Output slots live in a deque so
  // every attempt (including failover re-runs) gets fresh, stable storage.
  std::deque<std::vector<index::InvertedIndex::SearchResult>> partials;
  ScatterWithFailover(
      [&](NodeId) -> NodeWork {
        auto* out = &partials.emplace_back();
        local_stats.bytes_shipped += query.size();  // query fan-out
        return [out, &query, k](const Partition& partition,
                                const KeyRanges& served) {
          *out = partition.inverted.Search(
              query, k, [&served](model::DocId id) {
                return served.Contains(id);
              });
        };
      },
      &local_stats);

  // Gather: merge partial top-k lists on a grid node.
  obs::ScopedSpan gather_span("cluster.gather");
  std::vector<index::InvertedIndex::SearchResult> merged;
  ++local_stats.tasks;
  const bool gathered = RunOnPool(grid_nodes_, &rr_grid_, [&] {
    const uint64_t start = NowMicros();
    for (const auto& partial : partials) {
      merged.insert(merged.end(), partial.begin(), partial.end());
      local_stats.rows_shipped += partial.size();
      local_stats.bytes_shipped += partial.size() * 16;  // (doc, score)
    }
    std::sort(merged.begin(), merged.end(),
              [](const index::InvertedIndex::SearchResult& a,
                 const index::InvertedIndex::SearchResult& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    if (merged.size() > k) merged.resize(k);
    local_stats.grid_task_micros = NowMicros() - start;
  });
  if (!gathered) {
    // No grid node executed the merge; an empty answer must say so.
    merged.clear();
    local_stats.degraded = true;
    ++local_stats.missing_partitions;
  }
  local_stats.critical_path_micros += local_stats.grid_task_micros;

  AccountTraffic(local_stats);
  if (stats != nullptr) *stats = local_stats;
  return merged;
}

std::shared_ptr<const Availability> SimulatedCluster::AvailableDocs(
    ShipStats* stats) {
  ShipStats local_stats;
  auto available = std::make_shared<Availability>(
      Availability{KeyRanges(options_.key_range_partitioning)});
  // The node work is empty: the scatter's holding check on each serving
  // node's mailbox is the availability probe, and its failover and loss
  // accounting decide which tablets are unreachable.
  ScatterWithFailover(
      [&](NodeId) -> NodeWork {
        local_stats.bytes_shipped += 8;  // probe fan-out
        return [](const Partition&, const KeyRanges&) {};
      },
      &local_stats, &available->unreachable);
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    for (const auto& [bound, state] : ptable_) {
      if (!available->unreachable.ContainsKey(bound)) {
        available->servable_docs += state.doc_count;
      }
    }
  }
  local_stats.bytes_shipped += available->unreachable.ranges().size() * 16;
  AccountTraffic(local_stats);
  if (stats != nullptr) *stats = local_stats;
  return available;
}

SimulatedCluster::AggResult SimulatedCluster::FilterAggregate(
    const AggQuery& query, bool pushdown) {
  AggResult result;

  struct Partial {
    // group -> (sum, count)
    std::map<std::string, std::pair<double, uint64_t>> groups;
    std::vector<model::Document> raw_docs;  // no-pushdown mode
    uint64_t raw_bytes = 0;
  };

  auto matches = [&query](const model::Document& doc) {
    if (!query.kind.empty() && doc.kind != query.kind) return false;
    if (query.filter_path.empty()) return true;
    const model::Value* value = model::ResolvePath(doc.root, query.filter_path);
    if (value == nullptr || value->is_null()) return false;
    if (query.op == exec::CompareOp::kContains) {
      return value->AsString().find(query.literal.AsString()) !=
             std::string::npos;
    }
    const int c = value->Compare(query.literal);
    switch (query.op) {
      case exec::CompareOp::kEq: return c == 0;
      case exec::CompareOp::kNe: return c != 0;
      case exec::CompareOp::kLt: return c < 0;
      case exec::CompareOp::kLe: return c <= 0;
      case exec::CompareOp::kGt: return c > 0;
      case exec::CompareOp::kGe: return c >= 0;
      default: return false;
    }
  };
  auto accumulate = [&query](const model::Document& doc, Partial* partial) {
    std::string group;
    if (!query.group_path.empty()) {
      const model::Value* value = model::ResolvePath(doc.root, query.group_path);
      group = value == nullptr ? "null" : value->AsString();
    }
    double measure = 1.0;
    if (!query.agg_path.empty()) {
      const model::Value* value = model::ResolvePath(doc.root, query.agg_path);
      measure = value == nullptr ? 0.0 : value->AsDouble();
    }
    auto& [sum, count] = partial->groups[group];
    sum += measure;
    count += 1;
  };

  std::deque<Partial> partials;
  ScatterWithFailover(
      [&](NodeId) -> NodeWork {
        Partial* partial = &partials.emplace_back();
        return [partial, pushdown, &matches, &accumulate, &query](
                   const Partition& partition, const KeyRanges& served) {
          for (const auto& [id, stored] : partition.docs) {
            if (!served.Contains(id)) continue;
            model::Document doc = Partition::Decode(stored);
            if (pushdown) {
              // Predicate and partial aggregation at the storage node.
              if (matches(doc)) accumulate(doc, partial);
            } else if (query.kind.empty() || doc.kind == query.kind) {
              // Ship every document of the kind (the raw scan): the grid
              // node does all filtering and aggregation.
              partial->raw_bytes += stored.size;
              partial->raw_docs.push_back(std::move(doc));
            }
          }
        };
      },
      &result.stats);

  // Gather on a grid node.
  obs::ScopedSpan gather_span("cluster.gather");
  ++result.stats.tasks;
  const bool gathered = RunOnPool(grid_nodes_, &rr_grid_, [&] {
    const uint64_t gather_start = NowMicros();
    for (Partial& partial : partials) {
      if (pushdown) {
        // Partial states ship: ~(group string + 16 bytes) per group.
        for (const auto& [group, state] : partial.groups) {
          result.stats.bytes_shipped += group.size() + 16;
          ++result.stats.rows_shipped;
        }
      } else {
        // Whole documents ship, and the grid node aggregates them.
        result.stats.bytes_shipped += partial.raw_bytes;
        result.stats.rows_shipped += partial.raw_docs.size();
        for (const model::Document& doc : partial.raw_docs) {
          if (matches(doc)) accumulate(doc, &partial);
        }
      }
      for (const auto& [group, state] : partial.groups) {
        result.groups[group] += query.agg_path.empty()
                                    ? static_cast<double>(state.second)
                                    : state.first;
      }
    }
    result.stats.grid_task_micros = NowMicros() - gather_start;
  });
  if (!gathered) {
    result.groups.clear();
    result.stats.degraded = true;
    ++result.stats.missing_partitions;
  }
  result.stats.critical_path_micros += result.stats.grid_task_micros;
  AccountTraffic(result.stats);
  return result;
}

size_t SimulatedCluster::RunAnnotationPass(const discovery::Annotator& annotator,
                                           const std::string& kind,
                                           ShipStats* stats) {
  ShipStats local_stats;

  // Phase 1 (data nodes): intra-document analysis over served documents.
  std::deque<std::vector<model::Document>> produced;
  ScatterWithFailover(
      [&](NodeId) -> NodeWork {
        std::vector<model::Document>* out = &produced.emplace_back();
        return [out, &annotator, &kind](const Partition& partition,
                                        const KeyRanges& served) {
          for (const auto& [id, stored] : partition.docs) {
            if (!served.Contains(id)) continue;
            const model::Document doc = Partition::Decode(stored);
            if (!kind.empty() && doc.kind != kind) continue;
            if (doc.doc_class != model::DocClass::kBase) continue;
            if (!annotator.InterestedIn(doc)) continue;
            auto spans = annotator.Annotate(doc);
            if (spans.empty()) continue;
            out->push_back(discovery::MakeAnnotationDocument(
                doc, annotator.name(), spans));
          }
        };
      },
      &local_stats);

  // Phase 3 (cluster node): assign ids, lock base documents, persist.
  std::vector<model::Document> to_store;
  ++local_stats.tasks;
  const bool coordinated = RunOnPool(cluster_nodes_, &rr_cluster_, [&] {
    for (std::vector<model::Document>& batch : produced) {
      for (model::Document& annotation : batch) {
        // Consistent persist: lock every referenced base document.
        lock_acquisitions_.fetch_add(annotation.refs.size());
        annotation.id = next_id_.fetch_add(1);
        ++local_stats.rows_shipped;
        to_store.push_back(std::move(annotation));
      }
    }
  });
  if (!coordinated) {
    // No coordinator: nothing was committed this pass.
    local_stats.degraded = true;
    ++local_stats.missing_partitions;
  }

  // Route the committed annotation documents onto data nodes through the
  // same write path as Ingest — the holders of their tablets.
  size_t created = 0;
  for (const model::Document& annotation : to_store) {
    BumpPartitionTraffic(annotation.id);
    if (StoreReplicated(annotation, &local_stats)) {
      ++created;
    } else {
      // The annotation was committed by the coordinator but no data node
      // accepted it: the pass's output is incomplete.
      local_stats.degraded = true;
      ++local_stats.missing_partitions;
    }
  }
  AccountTraffic(local_stats);
  if (stats != nullptr) *stats = local_stats;
  return created;
}

SimulatedCluster::AutoAggResult SimulatedCluster::FilterAggregateAuto(
    const AggQuery& query) {
  // Mean queue depth over a pool's alive nodes.
  auto depth = [](const std::vector<std::unique_ptr<Node>>& pool) {
    double total = 0;
    size_t alive = 0;
    for (const auto& node : pool) {
      if (!node->alive()) continue;
      total += static_cast<double>(node->queue_depth());
      ++alive;
    }
    return alive == 0 ? 0.0 : total / static_cast<double>(alive);
  };
  Scheduler::LoadSnapshot load;
  load.data_queue_depth = depth(data_nodes_);
  load.grid_queue_depth = depth(grid_nodes_);

  AutoAggResult out;
  out.decision =
      scheduler_.Place(Scheduler::OperatorClass::kScanFilter, load);
  out.result = FilterAggregate(query, out.decision.pushdown);
  return out;
}

SimulatedCluster::PipelineResult SimulatedCluster::SearchJoinUpdate(
    const PipelineQuery& query) {
  PipelineResult result;

  // ---- Stage 1 (data nodes): full-text search; ship reduced triples
  // (doc id, score, value at left_ref_path).
  struct Hit {
    model::DocId doc;
    double score;
    std::string ref_value;
  };
  std::deque<std::vector<Hit>> partial_hits;
  ScatterWithFailover(
      [&](NodeId) -> NodeWork {
        std::vector<Hit>* out = &partial_hits.emplace_back();
        return [out, &query](const Partition& partition,
                             const KeyRanges& served) {
          // The top-k runs over served documents that carry a reference;
          // the predicate keeps each accepted document's value.
          std::map<model::DocId, std::string> refs;
          auto hits = partition.inverted.Search(
              query.keywords, query.k, [&](model::DocId id) {
                if (!served.Contains(id)) return false;
                auto doc_it = partition.docs.find(id);
                if (doc_it == partition.docs.end()) return false;
                const model::Document doc = Partition::Decode(doc_it->second);
                const model::Value* ref =
                    model::ResolvePath(doc.root, query.left_ref_path);
                if (ref == nullptr || ref->is_null()) return false;
                refs[id] = ref->AsString();
                return true;
              });
          for (const auto& hit : hits) {
            out->push_back(Hit{hit.doc, hit.score, refs[hit.doc]});
          }
        };
      },
      &result.stats);

  // Dimension side, also reduced at the data nodes: (key value, doc id).
  std::deque<std::vector<std::pair<std::string, model::DocId>>> partial_dims;
  ScatterWithFailover(
      [&](NodeId) -> NodeWork {
        auto* out = &partial_dims.emplace_back();
        return [out, &query](const Partition& partition,
                             const KeyRanges& served) {
          for (const auto& [id, stored] : partition.docs) {
            if (!served.Contains(id)) continue;
            const model::Document doc = Partition::Decode(stored);
            if (doc.kind != query.dim_kind) continue;
            const model::Value* key =
                model::ResolvePath(doc.root, query.dim_key_path);
            if (key == nullptr || key->is_null()) continue;
            out->emplace_back(key->AsString(), id);
          }
        };
      },
      &result.stats);

  // ---- Stage 2 (grid node): hash join + sort by score, keep top-k.
  ++result.stats.tasks;
  const bool joined = RunOnPool(grid_nodes_, &rr_grid_, [&] {
    const uint64_t start = NowMicros();
    std::map<std::string, model::DocId> dim_by_key;
    for (const auto& partial : partial_dims) {
      for (const auto& [key, id] : partial) {
        result.stats.bytes_shipped += key.size() + 8;
        ++result.stats.rows_shipped;
        dim_by_key.emplace(key, id);
      }
    }
    for (const auto& partial : partial_hits) {
      for (const Hit& hit : partial) {
        result.stats.bytes_shipped += hit.ref_value.size() + 16;
        ++result.stats.rows_shipped;
        auto match = dim_by_key.find(hit.ref_value);
        if (match == dim_by_key.end()) continue;
        result.matches.push_back(
            PipelineMatch{hit.doc, hit.score, match->second});
      }
    }
    std::sort(result.matches.begin(), result.matches.end(),
              [](const PipelineMatch& a, const PipelineMatch& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    if (result.matches.size() > query.k) result.matches.resize(query.k);
    result.stats.grid_task_micros = NowMicros() - start;
  });
  if (!joined) {
    result.matches.clear();
    result.stats.degraded = true;
    ++result.stats.missing_partitions;
  }
  result.stats.critical_path_micros += result.stats.grid_task_micros;

  // ---- Stage 3 (cluster node): consistent updates — tag every matched
  // document under per-document locks, then apply on the holders.
  std::vector<model::DocId> to_update;
  ++result.stats.tasks;
  const bool coordinated = RunOnPool(cluster_nodes_, &rr_cluster_, [&] {
    const uint64_t start = NowMicros();
    for (const PipelineMatch& match : result.matches) {
      lock_acquisitions_.fetch_add(1);
      to_update.push_back(match.doc);
    }
    result.stats.critical_path_micros += NowMicros() - start;
  });
  if (!coordinated) {
    result.stats.degraded = true;
    ++result.stats.missing_partitions;
  }
  // Each update is a read-modify-write through the ordinary write path, so
  // it reaches every holder and joining node of the tablet.
  for (model::DocId id : to_update) {
    Result<model::Document> doc = Get(id);
    if (!doc.ok()) continue;
    doc->version += 1;
    doc->root.AddChild(query.tag_name, model::Value::Bool(true));
    ShipStats write_stats;
    if (StoreReplicated(*doc, &write_stats)) {
      ++result.updates_applied;
    }
    result.stats.bytes_shipped += write_stats.bytes_shipped;
  }
  AccountTraffic(result.stats);
  return result;
}

// ----------------------------------------------------------- Membership

void SimulatedCluster::FailNode(NodeId id) {
  IMPLIANCE_CHECK(id < data_nodes_.size()) << "only data nodes can be failed";
  data_nodes_[id]->Fail();
}

void SimulatedCluster::RecoverNode(NodeId id) {
  IMPLIANCE_CHECK(id < data_nodes_.size());
  {
    // Rejoins empty: its previous contents were lost with the failure.
    // Swap under the slot mutex — readers copy this shared_ptr
    // concurrently, and an unsynchronized swap races with them.
    // The fresh partition belongs to the incarnation FailNode started.
    std::lock_guard<std::mutex> lock(partitions_mutex_);
    partitions_[id] = std::make_shared<Partition>(data_nodes_[id]->epoch());
  }
  data_nodes_[id]->Recover();
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  known_dead_.erase(id);
}

std::vector<NodeId> SimulatedCluster::DetectFailures() {
  std::vector<NodeId> newly_dead;
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  for (const auto& node : data_nodes_) {
    if (!node->alive() && !known_dead_.count(node->id())) {
      newly_dead.push_back(node->id());
      known_dead_.insert(node->id());
    }
  }
  // Drop dead and stale holders so tablets fail over. Stale = the node came
  // back in a newer incarnation (rejoined empty), so its old copies are
  // gone even though it is alive.
  for (auto& [bound, state] : ptable_) PruneHolders(&state);
  return newly_dead;
}

std::vector<model::DocId> SimulatedCluster::IdsInRange(
    const Partition& partition, uint64_t lo, uint64_t hi) const {
  std::vector<model::DocId> ids;
  for (const auto& [id, stored] : partition.docs) {
    const uint64_t key = RouteKey(id);
    if (key >= lo && key <= hi) ids.push_back(id);
  }
  return ids;
}

bool SimulatedCluster::CopyRange(const Holder& from, NodeId to, uint64_t lo,
                                 uint64_t hi, uint64_t* epoch_to,
                                 uint64_t* bytes, size_t* docs) {
  std::shared_ptr<Partition> source = PartitionFor(from.node);
  std::vector<std::pair<model::DocId, Partition::Stored>> batch;
  const TaskOutcome read = data_nodes_[from.node]->Run([&] {
    for (model::DocId id : IdsInRange(*source, lo, hi)) {
      batch.emplace_back(id, source->docs.at(id));
    }
  });
  // Only the incarnation that holds the tablet has its documents.
  if (read != TaskOutcome::kExecuted || source->epoch != from.epoch) {
    return false;
  }
  *bytes = 0;
  for (const auto& [id, stored] : batch) *bytes += stored.size;
  *docs = batch.size();
  std::shared_ptr<Partition> target = PartitionFor(to);
  const TaskOutcome write = data_nodes_[to]->Run([&] {
    for (auto& [id, stored] : batch) {
      // A joining node may already have this version or a newer one,
      // written to it after it joined.
      auto it = target->docs.find(id);
      if (it != target->docs.end() && it->second.version >= stored.version) {
        continue;
      }
      const std::string text = Partition::Decode(stored).Text();
      target->Put(id, std::move(stored), text);
    }
  });
  *epoch_to = target->epoch;
  return write == TaskOutcome::kExecuted;
}

bool SimulatedCluster::PurgeRange(const Holder& node, uint64_t lo,
                                  uint64_t hi) {
  std::shared_ptr<Partition> partition = PartitionFor(node.node);
  const TaskOutcome outcome = data_nodes_[node.node]->Run([&] {
    for (model::DocId id : IdsInRange(*partition, lo, hi)) {
      partition->Erase(id);
    }
  });
  return outcome == TaskOutcome::kExecuted && partition->epoch == node.epoch;
}

uint64_t SimulatedCluster::AddReplicasLocked(PartitionId pid, bool reseed,
                                             bool* restored) {
  uint64_t copied = 0;
  std::set<NodeId> tried;
  for (;;) {
    Holder source{};
    Holder joiner{};
    uint64_t lo = 0;
    uint64_t hi = 0;
    {
      std::lock_guard<std::mutex> lock(ptable_mutex_);
      auto it = FindTablet(pid);
      *restored = false;
      if (it == ptable_.end()) return copied;
      PartitionState& state = it->second;
      PruneHolders(&state);
      *restored = state.holders.size() >= state.copies;
      if (*restored) return copied;
      // A tablet with documents but no valid holder is lost: nothing to
      // copy from, and only a write re-seeds it.
      if (state.holders.empty() && state.doc_count > 0 && !reseed) {
        return copied;
      }
      bool found = false;
      for (NodeId node : SpareNodes(state)) {
        if (tried.insert(node).second) {
          joiner = Holder{node, data_nodes_[node]->epoch()};
          found = true;
          break;
        }
      }
      if (!found) return copied;
      lo = it->first;
      hi = TabletEnd(it);
    }
    // The range is stable (move_mutex_ is held shared) and the joiner gets
    // no write of it until it joins: after the purge, everything it holds
    // there came from the copy or from writes made while it joins.
    if (!PurgeRange(joiner, lo, hi)) continue;
    {
      std::lock_guard<std::mutex> lock(ptable_mutex_);
      PartitionState& state = FindTablet(pid)->second;
      PruneHolders(&state);
      if (!HolderStillValid(joiner.node, joiner.epoch)) continue;
      if (state.holders.empty()) {
        // Nothing to copy from: the first new holder starts the tablet
        // afresh, and whatever it had is lost.
        state.lost += state.doc_count;
        state.doc_count = 0;
        state.holders.push_back(joiner);
        continue;
      }
      // Joining before the source is read: every write from now on reaches
      // the joiner, so the copy plus those writes is the whole tablet.
      state.joining.push_back(joiner);
      source = state.holders.front();
    }
    uint64_t epoch_to = 0;
    uint64_t bytes = 0;
    size_t docs = 0;
    const bool done =
        CopyRange(source, joiner.node, lo, hi, &epoch_to, &bytes, &docs);
    if (done) copied += bytes;
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    PartitionState& state = FindTablet(pid)->second;
    auto it = FindNode(&state.joining, joiner.node);
    // Promoted only if it is still joining (a write it missed drops it),
    // took the copy, and has not died (losing it) since.
    if (it == state.joining.end()) continue;
    state.joining.erase(it);
    if (done && epoch_to == joiner.epoch &&
        HolderStillValid(joiner.node, joiner.epoch)) {
      state.holders.push_back(joiner);
    }
  }
}

SimulatedCluster::ReReplicateReport SimulatedCluster::ReReplicate() {
  ReReplicateReport report;
  // Held across the whole pass: no split retires a tablet id between
  // listing the short tablets and repairing them.
  std::shared_lock<std::shared_mutex> move_lock(move_mutex_);
  std::lock_guard<std::mutex> repair_lock(repair_mutex_);
  // Tablets short of their copy count that a pass can help: a lost one
  // (documents, no valid holder) has nothing to copy from.
  std::vector<PartitionId> short_tablets;
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    for (const auto& [bound, state] : ptable_) {
      const size_t valid = ValidHolders(state);
      if (valid < state.copies && (valid > 0 || state.doc_count == 0)) {
        short_tablets.push_back(state.pid);
      }
    }
  }
  for (PartitionId pid : short_tablets) {
    bool restored = false;
    report.bytes_copied += AddReplicasLocked(pid, /*reseed=*/false, &restored);
    if (!restored) {
      std::lock_guard<std::mutex> lock(ptable_mutex_);
      auto it = FindTablet(pid);
      if (it != ptable_.end()) report.docs_unrestored += it->second.doc_count;
    }
  }
  std::lock_guard<std::mutex> lock(traffic_mutex_);
  lifetime_traffic_.bytes_shipped += report.bytes_copied;
  return report;
}

size_t SimulatedCluster::num_available_documents() const {
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  size_t available = 0;
  for (const auto& [bound, state] : ptable_) {
    if (Primary(state) != nullptr) available += state.doc_count;
  }
  return available;
}

size_t SimulatedCluster::num_fully_replicated_documents() const {
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  size_t full = 0;
  for (const auto& [bound, state] : ptable_) {
    if (ValidHolders(state) >= state.copies) full += state.doc_count;
  }
  return full;
}

// ----------------------------------------- Dynamic partition management

std::vector<SimulatedCluster::PartitionDesc> SimulatedCluster::PartitionTable()
    const {
  std::vector<PartitionDesc> table;
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  table.reserve(ptable_.size());
  for (auto it = ptable_.begin(); it != ptable_.end(); ++it) {
    auto next = std::next(it);
    PartitionDesc desc;
    desc.pid = it->second.pid;
    desc.lo = it->first;
    desc.hi = next == ptable_.end() ? UINT64_MAX : next->first;
    desc.epoch = it->second.epoch;
    for (const Holder& holder : it->second.holders) {
      desc.replicas.push_back(holder.node);
    }
    desc.doc_count = it->second.doc_count;
    desc.traffic = it->second.traffic;
    table.push_back(std::move(desc));
  }
  return table;
}

bool SimulatedCluster::SplitPartition(PartitionId pid) {
  // Exclusive: the tablet's documents and count hold still while one
  // holder reports their keys.
  std::unique_lock<std::shared_mutex> move_lock(move_mutex_);
  Holder probe{};
  uint64_t lo = 0;
  uint64_t hi = 0;
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    auto it = FindTablet(pid);
    // An incomplete tablet cannot say which child its lost documents
    // belonged to.
    if (it == ptable_.end() || it->second.doc_count < 2 ||
        it->second.lost > 0) {
      return false;
    }
    const Holder* primary = Primary(it->second);
    if (primary == nullptr) return false;
    probe = *primary;
    lo = it->first;
    hi = TabletEnd(it);
  }
  // The split point is the MEDIAN routed key, not the range midpoint —
  // under sequential-key skew every document sits in a sliver of the range
  // and midpoint splits would never separate them.
  std::shared_ptr<Partition> partition = PartitionFor(probe.node);
  std::vector<uint64_t> keys;
  const TaskOutcome outcome = data_nodes_[probe.node]->Run([&] {
    for (model::DocId id : IdsInRange(*partition, lo, hi)) {
      keys.push_back(RouteKey(id));
    }
  });
  if (outcome != TaskOutcome::kExecuted || partition->epoch != probe.epoch ||
      keys.size() < 2) {
    return false;
  }
  std::nth_element(keys.begin(), keys.begin() + keys.size() / 2, keys.end());
  uint64_t split = keys[keys.size() / 2];
  if (split <= lo) {
    // Median collapsed onto the lower bound (duplicate-heavy keys): use
    // the smallest key strictly above lo, if any distinct key exists.
    uint64_t best = 0;
    bool have = false;
    for (uint64_t key : keys) {
      if (key > lo && (!have || key < best)) {
        best = key;
        have = true;
      }
    }
    if (!have) return false;
    split = best;
  }
  const size_t left_count =
      std::count_if(keys.begin(), keys.end(),
                    [split](uint64_t key) { return key < split; });
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  auto it = ptable_.find(lo);
  // Both children keep the parent's holders (metadata-only split; the
  // balancer migrates a child later if load warrants) and get fresh ids —
  // the parent id is retired so any concurrently-taken balancer decision
  // against the old tablet aborts.
  PartitionState right = it->second;
  right.pid = next_pid_++;
  right.doc_count = keys.size() - left_count;
  right.traffic = it->second.traffic / 2;
  it->second.pid = next_pid_++;
  it->second.epoch += 1;
  it->second.doc_count = left_count;
  it->second.traffic -= right.traffic;
  ptable_.emplace(split, std::move(right));
  Metrics().splits->Increment();
  return true;
}

bool SimulatedCluster::MergeWithRightNeighbor(PartitionId pid) {
  std::unique_lock<std::shared_mutex> move_lock(move_mutex_);
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  auto it = FindTablet(pid);
  if (it == ptable_.end()) return false;
  auto right = std::next(it);
  if (right == ptable_.end()) return false;
  PartitionState& left = it->second;
  PartitionState& absorbed = right->second;
  PruneHolders(&left);
  PruneHolders(&absorbed);
  // Metadata-only: the survivor's holders must hold both halves. That is
  // true of an empty half's holders for free, and of equal holder sets.
  auto nodes = [](const PartitionState& state) {
    std::set<NodeId> out;
    for (const Holder& holder : state.holders) out.insert(holder.node);
    return out;
  };
  if (left.doc_count == 0) {
    left.holders = absorbed.holders;
  } else if (absorbed.doc_count > 0 && nodes(left) != nodes(absorbed)) {
    return false;
  }
  left.copies = std::max(left.copies, absorbed.copies);
  left.doc_count += absorbed.doc_count;
  left.lost += absorbed.lost;
  left.traffic += absorbed.traffic;
  left.epoch += 1;
  ptable_.erase(right);
  Metrics().merges->Increment();
  return true;
}

size_t SimulatedCluster::MovePartitionReplica(PartitionId pid, NodeId from,
                                              NodeId to) {
  if (from == to || from >= data_nodes_.size() || to >= data_nodes_.size()) {
    return 0;
  }
  if (!data_nodes_[to]->alive()) return 0;
  // One migration at a time, and no write or repair in flight (see
  // move_mutex_).
  std::unique_lock<std::shared_mutex> move_lock(move_mutex_);
  Holder source{};
  uint64_t lo = 0;
  uint64_t hi = 0;
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    auto it = FindTablet(pid);
    if (it == ptable_.end()) return 0;
    PartitionState& state = it->second;
    PruneHolders(&state);
    auto listed = FindNode(&state.holders, from);
    if (listed == state.holders.end() ||
        FindNode(&state.holders, to) != state.holders.end()) {
      return 0;
    }
    source = *listed;
    lo = it->first;
    hi = TabletEnd(it);
  }
  // `to` may still hold bytes of the range from before a missed store
  // dropped it as a holder.
  if (!PurgeRange(Holder{to, data_nodes_[to]->epoch()}, lo, hi)) return 0;
  uint64_t epoch_to = 0;
  uint64_t bytes = 0;
  size_t docs = 0;
  if (!CopyRange(source, to, lo, hi, &epoch_to, &bytes, &docs)) return 0;
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    // A target that died between copy and commit is not recorded; its
    // copy went with it, and the source keeps serving.
    if (!HolderStillValid(to, epoch_to)) return 0;
    PartitionState& state = FindTablet(pid)->second;
    // The new home takes the old one's slot, and with it primary-ness. The
    // source entry is gone only if it died during the copy.
    auto slot = FindNode(&state.holders, from);
    if (slot != state.holders.end()) {
      *slot = Holder{to, epoch_to};
    } else {
      state.holders.push_back(Holder{to, epoch_to});
    }
    state.epoch += 1;
  }
  // Delete the source copy on the source node's own mailbox thread, after
  // the swap: an in-flight scatter task there either ran before the swap
  // (bytes still there) or finds that the node no longer holds the tablet
  // and hands it back for re-routing to the new home.
  PurgeRange(source, lo, hi);
  if (docs > 0) {
    Metrics().moves->Increment();
    Metrics().docs_moved->Increment(docs);
    std::lock_guard<std::mutex> lock(traffic_mutex_);
    lifetime_traffic_.bytes_shipped += bytes;
  }
  return docs;
}

SimulatedCluster::RebalanceReport SimulatedCluster::RebalanceOnce() {
  obs::ScopedSpan span("cluster.balancer.pass");
  RebalanceReport report;
  // ---- Split hot tablets (size or traffic over threshold).
  if (options_.split_doc_threshold > 0 ||
      options_.split_traffic_threshold > 0) {
    for (const PartitionDesc& desc : PartitionTable()) {
      const bool size_hot = options_.split_doc_threshold > 0 &&
                            desc.doc_count >= options_.split_doc_threshold;
      const bool traffic_hot =
          options_.split_traffic_threshold > 0 &&
          desc.traffic >= options_.split_traffic_threshold;
      if ((size_hot || traffic_hot) && SplitPartition(desc.pid)) {
        ++report.splits;
      }
    }
  }
  // ---- Merge cold neighbors.
  if (options_.merge_doc_threshold > 0) {
    const std::vector<PartitionDesc> table = PartitionTable();
    for (size_t i = 0; i + 1 < table.size(); ++i) {
      if (table[i].doc_count + table[i + 1].doc_count <=
          options_.merge_doc_threshold) {
        if (MergeWithRightNeighbor(table[i].pid)) {
          ++report.merges;
          ++i;  // the right neighbor is gone; its row is stale
        }
      }
    }
  }
  // ---- Migrate load off hot nodes: policy in Scheduler::PickMove, best-
  // fit tablet choice here (the swap_defragmentator idea — prefer the
  // largest migration that does not overshoot the hot node's excess).
  for (size_t step = 0; step < options_.max_moves_per_pass; ++step) {
    std::vector<Scheduler::NodeLoad> loads;
    std::map<NodeId, size_t> load_index;
    for (const auto& node : data_nodes_) {
      if (!node->alive()) continue;
      load_index[node->id()] = loads.size();
      loads.push_back(Scheduler::NodeLoad{node->id(), 0});
    }
    // Served documents per tablet and node: the measured load picture.
    struct Served {
      PartitionId pid;
      NodeId primary;
      size_t docs;
      std::set<NodeId> holders;
    };
    std::vector<Served> served;
    {
      std::lock_guard<std::mutex> lock(ptable_mutex_);
      for (const auto& [bound, state] : ptable_) {
        const Holder* primary = Primary(state);
        if (primary == nullptr || state.doc_count == 0) continue;
        auto li = load_index.find(primary->node);
        if (li == load_index.end()) continue;
        loads[li->second].owned_docs += state.doc_count;
        Served& row = served.emplace_back(
            Served{state.pid, primary->node, state.doc_count, {}});
        for (const Holder& holder : state.holders) {
          // A stale entry holds nothing: promoting it would not move load.
          if (HolderStillValid(holder.node, holder.epoch)) {
            row.holders.insert(holder.node);
          }
        }
      }
    }
    const Scheduler::MoveChoice choice =
        scheduler_.PickMove(loads, options_.balance_tolerance);
    if (!choice.move) break;
    // Best-fit: largest tablet on the hot node that fits within the
    // excess; if none fits, the smallest overall (minimal overshoot). A
    // tablet as large as the hot/cold gap would only swap the two roles.
    const size_t gap = loads[load_index[choice.hot]].owned_docs -
                       loads[load_index[choice.cold]].owned_docs;
    const Served* best = nullptr;
    bool best_within = false;
    for (const Served& row : served) {
      if (row.primary != choice.hot || row.docs >= gap) continue;
      const bool within = row.docs <= choice.excess;
      const bool better =
          best == nullptr ||
          (within && (!best_within || row.docs > best->docs)) ||
          (!within && !best_within && row.docs < best->docs);
      if (better) {
        best = &row;
        best_within = within;
      }
    }
    if (best == nullptr) break;
    // A cold node that already holds a copy just takes over serving it;
    // otherwise the tablet migrates there.
    size_t docs_moved = 0;
    if (best->holders.count(choice.cold)) {
      // Metadata-only: swap the two in the holder list.
      std::lock_guard<std::mutex> lock(ptable_mutex_);
      auto it = FindTablet(best->pid);
      if (it == ptable_.end()) break;
      PruneHolders(&it->second);
      std::vector<Holder>* holders = &it->second.holders;
      auto hot = FindNode(holders, choice.hot);
      auto cold = FindNode(holders, choice.cold);
      if (hot == holders->end() || cold == holders->end()) break;
      std::iter_swap(hot, cold);
      it->second.epoch += 1;
    } else {
      docs_moved = MovePartitionReplica(best->pid, choice.hot, choice.cold);
      if (docs_moved == 0) break;  // could not act; do not spin this pass
    }
    ++report.moves;
    report.docs_moved += docs_moved;
  }
  // ---- Decay traffic counters so the signal tracks recent load.
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    for (auto& [bound, state] : ptable_) state.traffic /= 2;
  }
  balancer_passes_.fetch_add(1);
  Metrics().balancer_passes->Increment();
  return report;
}

void SimulatedCluster::StartBalancer(uint64_t interval_ms) {
  std::lock_guard<std::mutex> lock(balancer_mutex_);
  if (balancer_thread_.joinable()) return;  // already running
  balancer_stop_ = false;
  balancer_running_.store(true);
  balancer_thread_ =
      std::thread([this, interval_ms] { BalancerLoop(interval_ms); });
}

void SimulatedCluster::StopBalancer() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(balancer_mutex_);
    if (!balancer_thread_.joinable()) return;
    balancer_stop_ = true;
    worker = std::move(balancer_thread_);
  }
  balancer_cv_.notify_all();
  worker.join();
  balancer_running_.store(false);
}

bool SimulatedCluster::balancer_running() const {
  return balancer_running_.load();
}

void SimulatedCluster::BalancerLoop(uint64_t interval_ms) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(balancer_mutex_);
      balancer_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                            [this] { return balancer_stop_; });
      if (balancer_stop_) return;
    }
    RebalanceOnce();
  }
}

SimulatedCluster::IntegrityReport SimulatedCluster::CheckIntegrity() const {
  IntegrityReport report;
  // No migration runs while the probes do. Concurrent writes and repairs
  // only add documents after the counts below were read, and a holder they
  // drop or promote meanwhile is simply not probed or probed early.
  std::shared_lock<std::shared_mutex> move_lock(move_mutex_);
  // Per valid holding node: its incarnation and the tablets it holds, as
  // (lo, hi, exact count), in key order.
  struct Listed {
    uint64_t epoch = 0;
    std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> tablets;
  };
  std::map<NodeId, Listed> listed;
  {
    std::lock_guard<std::mutex> lock(ptable_mutex_);
    for (auto it = ptable_.begin(); it != ptable_.end(); ++it) {
      std::set<NodeId> seen;
      bool duplicate = false;
      for (const Holder& holder : it->second.holders) {
        if (!seen.insert(holder.node).second) duplicate = true;
        if (!HolderStillValid(holder.node, holder.epoch)) continue;
        Listed& node = listed[holder.node];
        node.epoch = holder.epoch;
        node.tablets.emplace_back(it->first, TabletEnd(it),
                                  it->second.doc_count);
      }
      if (duplicate) ++report.duplicate_holders;
    }
  }
  // One probe per node on its own mailbox, counting its documents per held
  // tablet. A node that dies during its probe has invalidated its holders,
  // so its result is discarded.
  for (const auto& [node, held] : listed) {
    std::shared_ptr<Partition> partition = PartitionFor(node);
    std::vector<uint64_t> found;
    const TaskOutcome outcome = data_nodes_[node]->Run([&] {
      for (const auto& [lo, hi, count] : held.tablets) {
        found.push_back(IdsInRange(*partition, lo, hi).size());
      }
    });
    if (outcome != TaskOutcome::kExecuted || partition->epoch != held.epoch ||
        !HolderStillValid(node, held.epoch)) {
      continue;
    }
    for (size_t i = 0; i < found.size(); ++i) {
      const uint64_t expected = std::get<2>(held.tablets[i]);
      if (found[i] < expected) report.phantom_holders += expected - found[i];
    }
  }
  return report;
}

double SimulatedCluster::OwnershipSpread() const {
  const std::map<NodeId, size_t> counts = OwnedCounts();
  size_t alive = 0;
  size_t total = 0;
  size_t max_owned = 0;
  for (const auto& node : data_nodes_) {
    if (!node->alive()) continue;
    ++alive;
    auto it = counts.find(node->id());
    const size_t owned = it == counts.end() ? 0 : it->second;
    total += owned;
    max_owned = std::max(max_owned, owned);
  }
  if (alive == 0 || total == 0) return 1.0;
  const double mean = static_cast<double>(total) / alive;
  return static_cast<double>(max_owned) / mean;
}

std::map<NodeId, size_t> SimulatedCluster::OwnedCounts() const {
  std::map<NodeId, size_t> counts;
  std::lock_guard<std::mutex> lock(ptable_mutex_);
  for (const auto& [bound, state] : ptable_) {
    const Holder* primary = Primary(state);
    if (primary != nullptr && state.doc_count > 0) {
      counts[primary->node] += state.doc_count;
    }
  }
  return counts;
}

size_t SimulatedCluster::num_data_nodes_alive() const {
  size_t alive = 0;
  for (const auto& node : data_nodes_) {
    if (node->alive()) ++alive;
  }
  return alive;
}

}  // namespace impliance::cluster
