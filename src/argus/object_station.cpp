#include "argus/object_station.hpp"

#include <utility>

namespace argus::core {

std::string object_section(std::string_view object_id) {
  return "object:" + std::string(object_id);
}

ObjectStation::ObjectStation(ObjectEngineConfig cfg, Sinks sinks)
    : sinks_(sinks), engine_(std::in_place, std::move(cfg)) {}

ObjectStation::Step ObjectStation::step(ByteSpan payload, std::uint64_t epoch,
                                        std::uint64_t peer, double now) {
  const std::uint64_t fellows_before = engine_->stats().fellows_confirmed;
  engine_->advance_clock(now);
  Step out{engine_->handle(payload, epoch, peer)};
  HandleResult& res = out.result;
  // A Byzantine node does the work, then lies about it.
  if (res && mutator_.armed()) *res = mutator_.mutate(std::move(*res));
  const double ms = engine_->take_consumed_ms();
  if (sinks_.meter != nullptr) sinks_.meter->charge(ms);

  obs::Tracer* const tr = sinks_.tracer;
  // Sheds only happen with admission control on, so flood-free traces
  // stay byte-identical.
  if (tr && (is_reject(res.status) || is_shed(res.status))) {
    tr->instant(now, sinks_.node,
                (is_shed(res.status) ? "shed." : "reject.") +
                    std::string(status_name(res.status)),
                "fault", payload.size(), peer);
  }
  if (res && zombie_) {
    if (sinks_.metrics != nullptr) {
      sinks_.metrics->counter("fault.zombie_suppressed").inc();
    }
    if (tr) {
      tr->instant(now, sinks_.node, "drop.zombie", "fault", res->size(), peer);
    }
    res.reply.reset();
  }
  if (res && !res->empty() &&
      static_cast<MsgType>((*res)[0]) == MsgType::kRes2) {
    out.level = engine_->stats().fellows_confirmed > fellows_before ? 3 : 2;
  }
  return out;
}

void ObjectStation::reboot() {
  ObjectEngineConfig cfg = engine_->config();  // emplace() ends the old one
  engine_.emplace(std::move(cfg));
  mutator_ = fault::ByzantineMutator{};
}

persist::BundleEntries::value_type ObjectStation::bundle_entry() const {
  return {object_section(engine_->credentials().id), engine_->snapshot()};
}

bool ObjectStation::restore_from(const persist::BundleEntries& sections) {
  const std::string want = object_section(engine_->credentials().id);
  for (const auto& [name, sealed] : sections) {
    if (name == want) {
      return engine_->restore(sealed) == persist::RestoreError::kOk;
    }
  }
  return false;
}

}  // namespace argus::core
