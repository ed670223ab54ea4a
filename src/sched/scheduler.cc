#include "sched/scheduler.h"

#include <algorithm>
#include <limits>

namespace vod::sched {

void SchedulerContext::Facts(const std::vector<RequestId>& seq,
                             std::vector<RequestFacts>* out) const {
  out->resize(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    RequestFacts& f = (*out)[i];
    f.deadline = BufferDeadline(seq[i]);
    f.worst_service = WorstServiceTime(seq[i]);
    f.never_serviced = NeverServiced(seq[i]);
  }
}

std::optional<ServiceDecision> BufferScheduler::Next(
    const SchedulerContext& ctx, Seconds now) {
  const std::vector<RequestId>& seq = ServiceSequence(ctx, now);
  if (seq.empty()) return std::nullopt;

  ServiceDecision d;
  if (ctx.NeverServiced(seq.front())) {
    // BubbleUp: serve the newcomer immediately — unless doing so would (by
    // worst-case accounting) push the next established buffer's refill past
    // its deadline, in which case catch that one refill up first and retry.
    // The pacing rule below keeps every established buffer one
    // newcomer-slot ahead, so the displacement test normally passes. The
    // scan stops at the first established entry, so it reads the context
    // per request instead of gathering the whole sequence's facts.
    Seconds elapsed;
    std::size_t first_established = seq.size();
    for (std::size_t i = 0; i < seq.size(); ++i) {
      elapsed += ctx.WorstServiceTime(seq[i]);
      if (!ctx.NeverServiced(seq[i])) {
        first_established = i;
        break;
      }
    }
    if (first_established == seq.size() ||
        ctx.BufferDeadline(seq[first_established]) - now >= elapsed) {
      d.id = seq.front();
    } else {
      d.id = seq[first_established];
    }
    d.not_before = now;
    return d;
  }

  // An established buffer leads: the decision needs facts from the whole
  // sequence (any newcomer deeper in, or the tightest deadline), so read
  // them in one pass.
  ctx.Facts(seq, &facts_);
  const bool has_fresh =
      std::any_of(facts_.begin(), facts_.end(),
                  [](const RequestFacts& f) { return f.never_serviced; });

  d.id = seq.front();
  if (has_fresh) {
    // A newcomer is waiting deeper in the order (its group's or period's
    // turn): run eagerly so its turn arrives as soon as possible.
    d.not_before = now;
  } else {
    // Lazy pacing: refill as late as safely possible — maximizing memory
    // sharing (the Sweep*/GSS* rule) — while staying one newcomer-slot
    // early, which is the slack the allocation schemes budget for
    // (k·slots dynamically, N−n free slots statically) and what makes the
    // BubbleUp insertion above safe.
    d.not_before =
        std::max(now, LatestSafeStart(facts_) - ctx.NewcomerReserve());
  }
  return d;
}

Seconds LatestSafeStart(const std::vector<RequestFacts>& facts) {
  Seconds latest = Seconds::Infinity();
  Seconds elapsed;
  for (const RequestFacts& f : facts) {
    elapsed += f.worst_service;
    latest = std::min(latest, f.deadline - elapsed);
  }
  return latest;
}

}  // namespace vod::sched
