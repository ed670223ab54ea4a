#include "vod/server.h"

#include <cstdio>
#include <utility>

namespace vod {

VodServer::VodServer(std::unique_ptr<sim::MemoryBroker> broker,
                     std::unique_ptr<sim::VodSimulator> sim)
    : broker_(std::move(broker)), sim_(std::move(sim)) {}

Result<std::unique_ptr<VodServer>> VodServer::Create(const Options& options) {
  std::unique_ptr<sim::MemoryBroker> broker;
  if (options.memory_capacity > Bits(0)) {
    Result<std::unique_ptr<sim::AnalyticMemoryBroker>> made =
        sim::MakeBroker(options.config, /*disk_count=*/1,
                        options.memory_capacity);
    if (!made.ok()) return made.status();
    broker = std::move(made).value();
  }
  Result<std::unique_ptr<sim::VodSimulator>> sim =
      sim::VodSimulator::Create(options.config, broker.get());
  if (!sim.ok()) return sim.status();
  return std::unique_ptr<VodServer>(
      new VodServer(std::move(broker), std::move(sim.value())));
}

Result<Seconds> VodServer::Submit(int video, Seconds viewing_time) {
  sim::ArrivalEvent ev;
  ev.time = std::max(sim_->now(), horizon_);
  ev.video = video;
  ev.viewing_time = viewing_time;
  ev.disk = sim_->config().disk_id;
  VOD_RETURN_IF_ERROR(sim_->AddArrivals({ev}));
  return ev.time;
}

Result<RequestId> VodServer::SubmitSession(int video, Seconds viewing_time,
                                           Seconds start_position) {
  // Bring the simulator current before the synchronous arrival.
  sim_->RunUntil(horizon_);
  sim::ArrivalEvent ev;
  ev.time = std::max(sim_->now(), horizon_);
  ev.video = video;
  ev.viewing_time = viewing_time;
  ev.start_position = start_position;
  ev.disk = sim_->config().disk_id;
  return sim_->SubmitNow(ev);
}

Result<RequestId> VodServer::VcrReposition(RequestId session, int video,
                                           Seconds new_position,
                                           Seconds remaining_viewing) {
  VOD_RETURN_IF_ERROR(sim_->CancelRequest(session));
  return SubmitSession(video, remaining_viewing, new_position);
}

Status VodServer::Cancel(RequestId session) {
  return sim_->CancelRequest(session);
}

void VodServer::RunFor(Seconds duration) {
  horizon_ += duration;
  sim_->RunUntil(horizon_);
}

void VodServer::RunToCompletion() { sim_->RunToCompletion(); }

void VodServer::Finish() { sim_->Finalize(); }

std::string VodServer::SummaryLine() const {
  const sim::SimMetrics& m = sim_->metrics();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "arrivals=%ld admitted=%ld rejected=%ld completed=%ld "
                "mean_initial_latency=%.3fs estimation_success=%.3f",
                m.arrivals, m.admitted, m.rejected, m.completed,
                m.initial_latency.mean(), m.SuccessProbability());
  return std::string(buf);
}

}  // namespace vod
