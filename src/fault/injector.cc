#include "fault/injector.h"

#include <algorithm>

namespace vod::fault {

namespace {

/// Window membership: [start, end). Bursts never match.
bool Covers(const FaultClause& c, int disk, Seconds now) {
  if (c.kind == FaultKind::kBurst) return false;
  if (c.disk >= 0 && c.disk != disk) return false;
  return now >= c.start && now < c.end;
}

}  // namespace

Injector::Injector(FaultSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed),
      rng_(seed, /*stream=*/0xfa017ec7a05e11ULL) {}

ReadFault Injector::OnRead(int disk, Seconds now) {
  ReadFault f;
  ++reads_seen_;
  for (const FaultClause& c : spec_.clauses) {
    if (!Covers(c, disk, now)) continue;
    switch (c.kind) {
      case FaultKind::kLatency: {
        // p == 1 is deterministic and must not consume randomness.
        const bool hit = c.p >= 1.0 || rng_.NextDouble() < c.p;
        if (hit) {
          f.latency_factor *= c.factor;
          f.extra_latency += c.extra;
        }
        break;
      }
      case FaultKind::kEio: {
        if (f.fail) break;  // First matching eio clause decides.
        const bool hit = c.p >= 1.0 || rng_.NextDouble() < c.p;
        if (hit) {
          f.fail = true;
          f.max_retries = c.retries;
          f.retry_backoff = c.backoff;
        }
        break;
      }
      case FaultKind::kOutage:
      case FaultKind::kMemSqueeze:
      case FaultKind::kBurst:
        break;  // Handled by InOutage / CapacityScale / Bursts.
    }
  }
  if (f.fail) ++read_failures_injected_;
  return f;
}

bool Injector::InOutage(int disk, Seconds now, Seconds* resume_at) const {
  bool out = false;
  Seconds resume = now;
  for (const FaultClause& c : spec_.clauses) {
    if (c.kind != FaultKind::kOutage || !Covers(c, disk, now)) continue;
    out = true;
    resume = std::max(resume, c.end);
  }
  if (out && resume_at != nullptr) *resume_at = resume;
  return out;
}

double Injector::CapacityScale(Seconds now) const {
  double scale = 1.0;
  for (const FaultClause& c : spec_.clauses) {
    // Squeezes are system-wide: disk filtering does not apply.
    if (c.kind != FaultKind::kMemSqueeze) continue;
    if (now >= c.start && now < c.end) scale *= c.scale;
  }
  return scale;
}

std::vector<BurstArrival> Injector::Bursts() const {
  std::vector<BurstArrival> out;
  for (std::size_t i = 0; i < spec_.clauses.size(); ++i) {
    const FaultClause& c = spec_.clauses[i];
    if (c.kind != FaultKind::kBurst) continue;
    // One independent stream per clause, derived from the injector seed, so
    // the burst layout is a pure function of (spec, seed) and reordering
    // non-burst clauses cannot move arrivals.
    sim::Rng rng(seed_, /*stream=*/0xb065u + 2 * i);
    std::vector<Seconds> times;
    times.reserve(static_cast<std::size_t>(c.count));
    for (int j = 0; j < c.count; ++j) {
      times.push_back(c.start + Seconds(rng.Uniform(0.0, c.spread.value())));
    }
    std::sort(times.begin(), times.end());
    for (const Seconds t : times) {
      BurstArrival a;
      a.time = t;
      a.video = c.video;
      a.viewing_time = c.viewing;
      a.disk = std::max(0, c.disk);
      out.push_back(a);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const BurstArrival& a, const BurstArrival& b) {
              return a.time < b.time;
            });
  return out;
}

}  // namespace vod::fault
