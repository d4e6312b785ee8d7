#include "core/sabre.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_set>

#include "util/log.h"

namespace avis::core {

std::string role_signature_of_set(const std::vector<sensors::SensorId>& set) {
  std::map<sensors::SensorType, std::pair<bool, int>> roles;
  for (const auto& id : set) {
    auto& slot = roles[id.type];
    if (id.role() == sensors::SensorRole::kPrimary) {
      slot.first = true;
    } else {
      slot.second += 1;
    }
  }
  std::ostringstream os;
  for (const auto& [type, value] : roles) {
    os << static_cast<int>(type) << ":" << (value.first ? "P" : "-") << value.second << ";";
  }
  return os.str();
}

SabreScheduler::SabreScheduler(sensors::SuiteConfig suite,
                               std::vector<ModeTransition> golden_transitions,
                               SabreConfig config)
    : suite_(suite), config_(config) {
  // Line 1: seed the queue with the profiling run's mode transitions.
  for (const auto& t : golden_transitions) {
    queue_.push_back(QueueEntry{t.time_ms, FaultPlan{}, 0, 0});
  }
}

std::vector<std::string> signature_tokens(const std::string& sig) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start < sig.size()) {
    std::size_t end = sig.find(';', start);
    if (end == std::string::npos) end = sig.size();
    if (end > start) tokens.push_back(sig.substr(start, end - start));
    start = end + 1;
  }
  return tokens;
}

bool role_signature_subset(const std::string& subset_sig,
                           const std::unordered_set<std::string>& superset_tokens) {
  // Token-exact comparison: a raw substring search would false-positive when
  // one token is a suffix of another (e.g. "1:P2" inside "11:P2").
  for (const auto& token : signature_tokens(subset_sig)) {
    if (!superset_tokens.contains(token)) return false;
  }
  return true;
}

bool role_signature_subset(const std::string& subset_sig, const std::string& superset_sig) {
  const std::vector<std::string> super_tokens = signature_tokens(superset_sig);
  return role_signature_subset(
      subset_sig, std::unordered_set<std::string>(super_tokens.begin(), super_tokens.end()));
}

bool SabreScheduler::p_superset_of_seen_bug(sim::SimTimeMs timestamp,
                                            const std::string& sig) const {
  // The candidate's token set is loop-invariant; build it once and test
  // every same-timestamp bug signature against it.
  std::optional<std::unordered_set<std::string>> sig_tokens;
  for (const auto& [bug_time, bug_sig] : seen_bugs_) {
    if (bug_time != timestamp) continue;
    if (!sig_tokens) {
      const std::vector<std::string> tokens = signature_tokens(sig);
      sig_tokens.emplace(tokens.begin(), tokens.end());
    }
    if (role_signature_subset(bug_sig, *sig_tokens)) return true;
  }
  return false;
}

bool SabreScheduler::p_can_prune(sim::SimTimeMs timestamp,
                                 const std::vector<sensors::SensorId>& set,
                                 const FaultPlan& base) {
  // Found-bug pruning: skip supersets of a set that already triggered a bug
  // at this timestamp.
  if (config_.found_bug_pruning &&
      p_superset_of_seen_bug(timestamp, role_signature_of_set(set))) {
    ++pruned_found_bug_;
    return true;
  }

  // Duplicate elimination (§V-B-2): never simulate a scenario whose
  // (instance- or role-level) signature has been run before.
  FaultPlan candidate = base;
  for (const auto& id : set) candidate.add(timestamp, id);
  const std::string sig =
      config_.symmetry_pruning ? candidate.role_signature() : candidate.signature();
  if (explored_.contains(sig)) {
    ++pruned_duplicate_;
    return true;
  }
  return false;
}

void SabreScheduler::p_emit(sim::SimTimeMs timestamp, const FaultPlan& base,
                            const std::vector<sensors::SensorId>& set) {
  FaultPlan plan = base;
  for (const auto& id : set) plan.add(timestamp, id);
  std::string exact_sig = plan.signature();
  explored_.insert(config_.symmetry_pruning ? plan.role_signature() : exact_sig);
  batch_.push_back(plan);
  pending_.emplace(std::move(exact_sig), Pending{timestamp, role_signature_of_set(set)});
}

void SabreScheduler::p_expand_primary(const QueueEntry& entry) {
  // Out-of-window timestamps emit nothing but still crawl (below): an offset
  // walk that started outside the constraint window may step into it.
  if (entry.timestamp >= 0 && p_in_window(entry.timestamp)) {
    if (config_.full_powerset_batches) {
      // Fig. 5 / Algorithm-1-as-printed mode: the whole power set at this
      // timestamp, in size order.
      for (int size = 1; size <= config_.max_plan_events; ++size) {
        if (static_cast<int>(entry.base.size()) + size > config_.max_plan_events) break;
        const auto sets = config_.symmetry_pruning ? canonical_sets_of_size(suite_, size)
                                                   : all_instance_sets_of_size(suite_, size);
        for (const auto& set : sets) {
          if (!p_set_allowed(set)) continue;
          if (!p_can_prune(entry.timestamp, set, entry.base)) {
            p_emit(entry.timestamp, entry.base, set);
          }
        }
      }
    } else {
      // Singleton stratum at this timestamp; larger sets go to the
      // secondary queue.
      const auto sets = config_.symmetry_pruning ? canonical_sets_of_size(suite_, 1)
                                                 : all_instance_sets_of_size(suite_, 1);
      for (const auto& set : sets) {
        if (!p_set_allowed(set)) continue;
        if (!p_can_prune(entry.timestamp, set, entry.base)) {
          p_emit(entry.timestamp, entry.base, set);
        }
      }
      if (config_.max_set_size >= 2 &&
          static_cast<int>(entry.base.size()) + 2 <= config_.max_plan_events) {
        pair_queue_.push_back(PairEntry{entry.timestamp, entry.base, 2, 0});
      }
    }
  }

  // Line 20: crawl the transition's neighbourhood (both directions — the
  // critical window straddles the transition).
  if (config_.full_powerset_batches) {
    if (entry.offset_k < config_.max_offsets) {
      queue_.push_back(QueueEntry{entry.timestamp + config_.offset_step_ms, entry.base, +1,
                                  entry.offset_k + 1});
    }
    return;
  }
  if (entry.direction == 0) {
    queue_.push_back(
        QueueEntry{entry.timestamp + config_.offset_step_ms, entry.base, +1, 1});
    if (entry.timestamp - config_.offset_step_ms >= 0) {
      queue_.push_back(
          QueueEntry{entry.timestamp - config_.offset_step_ms, entry.base, -1, 1});
    }
  } else if (entry.offset_k < config_.max_offsets) {
    const sim::SimTimeMs next_t =
        entry.timestamp + entry.direction * config_.offset_step_ms;
    if (next_t >= 0) {
      queue_.push_back(QueueEntry{next_t, entry.base, entry.direction, entry.offset_k + 1});
    }
  }
}

void SabreScheduler::p_expand_pairs(PairEntry entry) {
  if (static_cast<int>(entry.base.size()) + entry.size > config_.max_plan_events) return;
  const auto sets = config_.symmetry_pruning
                        ? canonical_sets_of_size(suite_, entry.size)
                        : all_instance_sets_of_size(suite_, entry.size);
  int emitted = 0;
  while (entry.cursor < sets.size() && emitted < config_.pair_chunk) {
    const auto& set = sets[entry.cursor++];
    if (!p_set_allowed(set)) continue;
    if (!p_can_prune(entry.timestamp, set, entry.base)) {
      p_emit(entry.timestamp, entry.base, set);
      ++emitted;
    }
  }
  if (entry.cursor < sets.size()) {
    pair_queue_.push_back(entry);  // continuation
  } else if (entry.size < config_.max_set_size &&
             static_cast<int>(entry.base.size()) + entry.size + 1 <=
                 config_.max_plan_events) {
    pair_queue_.push_back(PairEntry{entry.timestamp, entry.base, entry.size + 1, 0});
  }
}

std::optional<FaultPlan> SabreScheduler::p_pop_batch() {
  // Re-check found-bug pruning at proposal time: a bug found since this
  // batch was built (Algorithm 1 evaluates CanPrune per scenario) may have
  // made queued supersets redundant. Never expands: a nullopt return means
  // the current wave is spent (drained or pruned away).
  while (!batch_.empty()) {
    FaultPlan plan = batch_.front();
    batch_.pop_front();
    const auto pending_it = pending_.find(plan.signature());
    if (config_.found_bug_pruning && pending_it != pending_.end() &&
        p_superset_of_seen_bug(pending_it->second.timestamp, pending_it->second.role_sig)) {
      ++pruned_found_bug_;
      pending_.erase(pending_it);
      continue;
    }
    return plan;
  }
  return std::nullopt;
}

bool SabreScheduler::p_in_flight_at(sim::SimTimeMs timestamp) const {
  for (const auto& [sig, pending] : pending_) {
    if (pending.timestamp == timestamp) return true;
  }
  return false;
}

bool SabreScheduler::p_expand_step(bool settled_only) {
  const bool primaries_empty = queue_.empty() && augmented_queue_.empty();
  // Feedback only ever appends to the augmented lane, so with both primary
  // lanes empty an in-flight plan could still make a primary step due.
  if (primaries_empty && (settled_only || pair_queue_.empty())) return false;
  const bool pairs_due =
      !pair_queue_.empty() && (primaries_empty || batches_since_pairs_ >= config_.pair_interleave);
  if (pairs_due) {
    if (settled_only && p_in_flight_at(pair_queue_.front().timestamp)) return false;
    batches_since_pairs_ = 0;
    PairEntry entry = pair_queue_.front();
    pair_queue_.pop_front();
    p_expand_pairs(std::move(entry));
    return true;
  }
  // The augmented lane outranks the primary queue, rate-limited so the
  // breadth pass over the seeded transitions still completes within the
  // paper's budget (see feedback()).
  const bool augmented_turn =
      queue_.empty() || primary_since_augmented_ >= config_.augmented_interleave;
  // An empty lane whose turn it is could be refilled by in-flight feedback.
  if (settled_only && augmented_turn && augmented_queue_.empty()) return false;
  const bool augmented = augmented_turn && !augmented_queue_.empty();
  std::deque<QueueEntry>& lane = augmented ? augmented_queue_ : queue_;
  // Plan-aware scheduling (checkpoint trees): a parent's follow-up entries
  // are adjacent in the augmented lane and share its base plan, whose
  // recording every expansion would restore from. Expanding them into the
  // same wave groups the chain extensions together while the parent
  // recording is freshest; the entries are feedback-complete (their shared
  // parent already ran), and feedback appends only entries with other
  // bases, so the sibling run is settled too.
  std::size_t entries = 1;
  while (augmented && entries < lane.size() &&
         lane[entries].base.signature() == lane.front().base.signature()) {
    ++entries;
  }
  if (settled_only) {
    for (std::size_t i = 0; i < entries; ++i) {
      if (p_in_flight_at(lane[i].timestamp)) return false;
    }
  }
  ++batches_since_pairs_;
  primary_since_augmented_ = augmented ? 0 : primary_since_augmented_ + 1;
  for (std::size_t i = 0; i < entries; ++i) {
    const QueueEntry entry = lane.front();
    lane.pop_front();
    p_expand_primary(entry);
  }
  return true;
}

std::optional<FaultPlan> SabreScheduler::next(BudgetClock& budget) {
  if (budget.exhausted()) return std::nullopt;
  for (;;) {
    while (batch_.empty() && p_expand_step(/*settled_only=*/false)) {
    }
    if (batch_.empty()) return std::nullopt;
    if (auto plan = p_pop_batch()) return plan;
    // Wave drained by pruning: expand the next one.
  }
}

std::vector<FaultPlan> SabreScheduler::next_batch(BudgetClock& budget, int max_plans) {
  // Configurations where one wave can contain a set and its same-timestamp
  // superset (the whole power set per dequeue) or role-identical sets
  // (symmetry folding off) allow found-bug pruning to fire *within* a wave
  // in serial execution. Batching would skip that proposal-time prune and
  // break report parity, so those configurations serialize.
  if (config_.found_bug_pruning &&
      (config_.full_powerset_batches || !config_.symmetry_pruning)) {
    std::vector<FaultPlan> single;
    if (max_plans > 0) {
      if (auto plan = next(budget)) single.push_back(std::move(*plan));
    }
    return single;
  }
  std::vector<FaultPlan> plans;
  while (static_cast<int>(plans.size()) < max_plans) {
    if (plans.empty()) {
      // The batch's first plan may expand a wave freely: every earlier
      // plan was fed back before this call.
      auto plan = next(budget);
      if (!plan) break;
      plans.push_back(std::move(*plan));
      continue;
    }
    // Later plans drain the current wave, then cross into the next one
    // only while that expansion is settled — exactly what serial execution
    // would expand after this batch's feedback. SABRE charges nothing while
    // proposing, so the budget check at the first next() covers the batch.
    if (batch_.empty()) {
      if (!p_expand_step(/*settled_only=*/true)) break;
      continue;  // an expansion may emit nothing; try the next step
    }
    if (auto plan = p_pop_batch()) plans.push_back(std::move(*plan));
  }
  return plans;
}

void SabreScheduler::feedback(const FaultPlan& plan, const ExperimentResult& result) {
  const auto it = pending_.find(plan.signature());
  if (it == pending_.end()) return;
  const Pending pending = it->second;
  pending_.erase(it);

  if (result.unsafe()) {
    // Line 17: remember the triggering (timestamp, set) for pruning.
    seen_bugs_.insert({pending.timestamp, pending.role_sig});
    return;
  }

  // Lines 11-14: a bug-free run contributes its own transitions, carrying
  // the accumulated failures. Only transitions after the newest injection
  // expose new program contexts (a failure already handled before a
  // transition re-creates the same state at it). These go to the queue
  // front so multi-fault chains (e.g. PX4-13291's GPS-then-battery) are
  // reached within the budget; the cap keeps the frontier from exploding.
  if (plan.size() >= 2) return;  // depth limit for the augmented frontier
  if (static_cast<int>(plan.size()) + 1 > config_.max_plan_events) return;
  // Queue-front priority: these enter the augmented lane, which next()
  // services ahead of the primary queue (at most `augmented_interleave`
  // primary waves between augmented waves), so multi-fault chains (e.g.
  // PX4-13291's GPS-then-battery) are proposed within tens of simulations
  // instead of after the whole initial frontier drains. Pushing them raw
  // onto the queue front would instead let the first transition's
  // follow-ups starve every later transition window within the paper's
  // budget — the interleave keeps the breadth pass alive. FIFO within the
  // lane: the ≤2 entries keep their transition order, and earlier runs'
  // follow-ups stay ahead of later ones. They run their singleton stratum
  // but do not crawl; the cap keeps the frontier from exploding.
  int enqueued = 0;
  for (const auto& t : result.transitions) {
    if (t.time_ms <= pending.timestamp) continue;
    if (enqueued >= 2) break;
    augmented_queue_.push_back(QueueEntry{t.time_ms, plan, +1, config_.max_offsets});
    ++enqueued;
  }
}

}  // namespace avis::core
