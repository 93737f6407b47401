#include "transport/host.hpp"

#include <utility>

#include "transport/mux.hpp"

namespace argus::transport {

ObjectHost::ObjectHost(HostConfig cfg, SockTransport& transport)
    : cfg_(std::move(cfg)), transport_(transport) {
  stations_.reserve(cfg_.objects.size());
  for (std::size_t i = 0; i < cfg_.objects.size(); ++i) {
    stations_.emplace_back(
        std::move(cfg_.objects[i]),
        core::ObjectStation::Sinks{cfg_.tracer, cfg_.metrics,
                                   static_cast<std::uint32_t>(i + 1)});
  }
  cfg_.objects.clear();  // the stations' engines keep the configs
  transport_.set_handler([this](PeerId from, const Bytes& frame) {
    on_frame(from, frame, now_ms_);
  });
}

void ObjectHost::pump(double now_ms) {
  now_ms_ = now_ms;
  transport_.pump(now_ms);
  for (auto& station : stations_) station.engine().advance_clock(now_ms);
  if (cfg_.snapshot_interval_ms > 0 && !cfg_.snapshot_path.empty() &&
      now_ms - last_snapshot_ms_ >= cfg_.snapshot_interval_ms) {
    write_snapshot();
    last_snapshot_ms_ = now_ms;
  }
}

Bytes ObjectHost::fleet_bundle() const {
  persist::BundleEntries entries;
  entries.reserve(stations_.size());
  for (const auto& station : stations_) {
    entries.push_back(station.bundle_entry());
  }
  return persist::seal_bundle(entries);
}

bool ObjectHost::write_snapshot() {
  if (cfg_.snapshot_path.empty()) return false;
  const bool ok = persist::write_snapshot_file(cfg_.snapshot_path,
                                               fleet_bundle());
  if (ok) {
    stats_.snapshots_written++;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("persist.daemon.snapshot_written").inc();
    }
    if (cfg_.tracer != nullptr) {
      cfg_.tracer->instant(now_ms_, 0, "persist.snapshot", "transport", 0, 0,
                           cfg_.snapshot_path);
    }
  }
  return ok;
}

persist::RestoreError ObjectHost::restore_from_file() {
  restored_ = 0;
  if (cfg_.snapshot_path.empty()) return persist::RestoreError::kIoError;
  const auto file = persist::read_snapshot_file(cfg_.snapshot_path);
  if (!file) return file.error;
  const auto bundle = persist::open_bundle(file.data);
  if (!bundle) return bundle.error;
  // Blank-or-exact per engine: a missing or refused section leaves that
  // engine blank without disturbing its neighbours' restores.
  for (auto& station : stations_) {
    if (station.restore_from(bundle.entries)) restored_++;
  }
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("persist.daemon.engines_restored").inc(restored_);
  }
  return persist::RestoreError::kOk;
}

void ObjectHost::on_frame(PeerId from, const Bytes& frame, double now_ms) {
  stats_.frames_rx++;
  const auto mux = decode_mux(frame);
  if (!mux) {
    stats_.mux_decode_failed++;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("transport.mux_decode_failed").inc();
    }
    return;
  }
  if (mux->channel == kMuxBroadcast) {
    stats_.broadcasts_rx++;
    for (std::size_t i = 0; i < stations_.size(); ++i) {
      handle_station(i, from, mux->payload);
    }
    return;
  }
  if (mux->channel == kMuxControl) {
    stats_.ctl_rx++;
    handle_ctl(from, mux->payload, now_ms);
    return;
  }
  if (mux->channel >= stations_.size()) {
    stats_.bad_channel++;
    return;
  }
  handle_station(mux->channel, from, mux->payload);
}

void ObjectHost::handle_station(std::size_t idx, PeerId from,
                                ByteSpan payload) {
  // No Meter: the modelled cost is dropped, real time is real here.
  const auto step = stations_[idx].step(payload, cfg_.epoch, from, now_ms_);
  if (!step.result) return;
  stats_.replies_tx++;
  transport_.send(from,
                  encode_mux(static_cast<std::uint32_t>(idx), *step.result),
                  now_ms_);
}

void ObjectHost::handle_ctl(PeerId from, ByteSpan payload, double now_ms) {
  const auto ctl = decode_ctl(payload);
  if (!ctl) {
    stats_.mux_decode_failed++;
    return;
  }
  switch (ctl->first) {
    case CtlOp::kShutdown:
      shutdown_ = true;
      if (!cfg_.snapshot_path.empty()) write_snapshot();
      return;
    case CtlOp::kSnapshot:
      write_snapshot();
      return;
    case CtlOp::kStatsReq: {
      ByteWriter w;
      w.u64(stats_.frames_rx);
      w.u64(stats_.replies_tx);
      std::size_t sessions = 0;
      for (const auto& station : stations_) {
        sessions += station.engine().open_sessions();
      }
      w.u64(sessions);
      transport_.send(from,
                      encode_mux(kMuxControl,
                                 encode_ctl(CtlOp::kStatsResp, w.data())),
                      now_ms);
      return;
    }
    case CtlOp::kStatsResp:
      return;  // daemon side never expects one
  }
}

}  // namespace argus::transport
