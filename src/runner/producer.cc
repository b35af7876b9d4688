#include "runner/producer.h"

#include <algorithm>
#include <ostream>

#include "obs/events.h"

namespace paai::runner {

std::size_t drop_free_events_cap(std::uint64_t total_packets) {
  // The busiest ring is the source's: per data packet it sees the
  // protocol decisions (send, sample, probe, ack, onion, score — up to
  // ~8) plus its own wire events. 16/packet with a floor comfortably
  // bounds every protocol in the suite.
  return std::max<std::size_t>(4096,
                               static_cast<std::size_t>(total_packets) * 16);
}

StreamProduceResult run_experiment_to_stream(ExperimentConfig config,
                                             std::ostream& os) {
  obs::EventLog log(os);
  config.path.events = &log;

  StreamProduceResult out;
  out.result = run_experiment(config);
  log.finish();
  out.events_recorded = log.recorded();
  return out;
}

}  // namespace paai::runner
