#include "obs/profile.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace vod::obs {

/// Owns one thread's counter block for the thread's lifetime: registers it
/// with the global profiler on construction and folds it into the retired
/// totals when the thread exits.
class Profiler::ThreadHandle {
 public:
  ThreadHandle() {
    Profiler& prof = Global();
    MutexLock lock(prof.mu_);
    prof.live_.push_back(&block_);
  }
  ~ThreadHandle() {
    t_block_ = nullptr;
    Profiler& prof = Global();
    MutexLock lock(prof.mu_);
    Accumulate(block_, &prof.retired_);
    prof.live_.erase(std::find(prof.live_.begin(), prof.live_.end(), &block_));
  }
  ThreadHandle(const ThreadHandle&) = delete;
  ThreadHandle& operator=(const ThreadHandle&) = delete;

  ThreadBlock* block() { return &block_; }

 private:
  ThreadBlock block_;
};

Profiler::Profiler() : ticks0_(ProfTicks()), nanos0_(MonotonicNanos()) {}

Profiler& Profiler::Global() {
  static Profiler* const kGlobal = new Profiler();
  return *kGlobal;
}

ProfSite* Profiler::Register(const std::string& name) {
  MutexLock lock(mu_);
  auto it = sites_.find(name);
  if (it == sites_.end()) {
    VOD_CHECK(sites_.size() < kMaxSites);
    it = sites_.emplace(name, std::make_unique<ProfSite>(name, sites_.size()))
             .first;
  }
  return it->second.get();
}

void Profiler::ScheduleNextTimed(Counter* c, std::int64_t calls) {
  if (calls < kWarmupCalls) {
    c->next_timed = calls + 1;
    return;
  }
  std::uint32_t& x = t_block_->rng;
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  // Uniform on [1, 2·kMeanGap − 1] by multiply-shift, mean kMeanGap.
  constexpr std::uint64_t kSpan = 2 * kMeanGap - 1;
  c->next_timed = calls + 1 + static_cast<std::int64_t>((x * kSpan) >> 32);
}

Profiler::ThreadBlock* Profiler::AttachThread() {
  thread_local ThreadHandle handle;
  t_block_ = handle.block();
  return t_block_;
}

void Profiler::Accumulate(const ThreadBlock& block, Sums* sums) {
  for (std::size_t i = 0; i < kMaxSites; ++i) {
    const Counter& c = block.counters[i];
    (*sums)[i].calls += c.calls.load(std::memory_order_relaxed);
    (*sums)[i].timed += c.timed.load(std::memory_order_relaxed);
    (*sums)[i].ticks += c.ticks.load(std::memory_order_relaxed);
  }
}

Profiler::Sums Profiler::Totals() const {
  Sums sums = retired_;
  for (const ThreadBlock* block : live_) Accumulate(*block, &sums);
  return sums;
}

double Profiler::NanosPerTick() const {
  const std::int64_t ticks = ProfTicks() - ticks0_;
  const std::int64_t nanos = MonotonicNanos() - nanos0_;
  return ticks > 0 ? static_cast<double>(nanos) / static_cast<double>(ticks)
                   : 1.0;
}

std::vector<ProfSiteStats> Profiler::Snapshot() const {
  std::vector<ProfSiteStats> out;
  {
    MutexLock lock(mu_);
    const Sums totals = Totals();
    std::int64_t all_calls = 0;
    for (const Sum& sum : totals) all_calls += sum.calls;
    if (all_calls != calibrated_calls_) {
      calibrated_calls_ = all_calls;
      nanos_per_tick_ = NanosPerTick();
    }
    const double seconds_per_tick = nanos_per_tick_ * 1e-9;
    out.reserve(sites_.size());
    for (const auto& [name, site] : sites_) {
      const Sum& now = totals[site->slot];
      const Sum& base = baseline_[site->slot];
      const std::int64_t calls = now.calls - base.calls;
      if (calls == 0) continue;
      ProfSiteStats s;
      s.name = name;
      s.calls = calls;
      s.timed = now.timed - base.timed;
      // Timed calls are a uniform sample of the calls, so scaling their
      // ticks by calls ÷ timed estimates the total without bias.
      if (s.timed > 0) {
        s.total = Seconds(static_cast<double>(now.ticks - base.ticks) *
                          static_cast<double>(calls) /
                          static_cast<double>(s.timed) * seconds_per_tick);
      }
      s.mean = s.total / static_cast<double>(calls);
      out.push_back(std::move(s));
    }
  }
  // Tie-break equal totals by name: std::sort is unstable, so without it
  // two sites with identical totals would order arbitrarily and the report
  // (an output channel) would not be a pure function of the measurements.
  std::sort(out.begin(), out.end(),
            [](const ProfSiteStats& a, const ProfSiteStats& b) {
              if (a.total != b.total) return a.total > b.total;
              return a.name < b.name;
            });
  return out;
}

std::string Profiler::ReportTable() const {
  const std::vector<ProfSiteStats> stats = Snapshot();
  if (stats.empty()) return "";
  std::size_t width = 5;
  for (const ProfSiteStats& s : stats) width = std::max(width, s.name.size());
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-*s %12s %12s %12s %12s\n",
                static_cast<int>(width), "phase", "calls", "timed", "total_s",
                "mean_us");
  out += buf;
  for (const ProfSiteStats& s : stats) {
    std::snprintf(buf, sizeof(buf), "%-*s %12lld %12lld %12.4f %12.2f\n",
                  static_cast<int>(width), s.name.c_str(),
                  static_cast<long long>(s.calls),
                  static_cast<long long>(s.timed), ToSeconds(s.total),
                  ToSeconds(s.mean) * 1e6);
    out += buf;
  }
  return out;
}

JsonValue Profiler::ToJson() const {
  JsonValue json = JsonValue::Array();
  for (const ProfSiteStats& s : Snapshot()) {
    JsonValue site = JsonValue::Object();
    site.Set("name", JsonValue::Str(s.name));
    site.Set("calls", JsonValue::Number(static_cast<double>(s.calls)));
    site.Set("timed", JsonValue::Number(static_cast<double>(s.timed)));
    site.Set("total_s", JsonValue::Number(ToSeconds(s.total)));
    site.Set("mean_us", JsonValue::Number(ToSeconds(s.mean) * 1e6));
    json.Append(std::move(site));
  }
  return json;
}

void Profiler::Reset() {
  MutexLock lock(mu_);
  baseline_ = Totals();
}

}  // namespace vod::obs
